"""Constant-velocity Kalman filter over box state.

State is the 8-vector (cx, cy, a, h, vcx, vcy, va, vh) where a is the
width/height aspect ratio. Noise standard deviations are proportional to
box height (position weight 1/20, velocity weight 1/160), the SORT-family
convention. dt is fixed at one frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

STD_WEIGHT_POSITION = 1.0 / 20.0
STD_WEIGHT_VELOCITY = 1.0 / 160.0

_F = np.eye(8)
_F[:4, 4:] = np.eye(4)  # x' = x + v, dt = 1


@dataclass
class KalmanState:
    mean: np.ndarray        # (8,)
    covariance: np.ndarray  # (8, 8)

    def copy(self) -> "KalmanState":
        return KalmanState(self.mean.copy(), self.covariance.copy())


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + p.T) * 0.5


def initiate(measurement) -> KalmanState:
    """New state from a (cx, cy, a, h) measurement with zero velocity."""
    m = np.asarray(measurement, dtype=float)
    if m.shape != (4,) or not np.all(np.isfinite(m)):
        raise ValueError(f"invalid measurement {measurement!r}")
    if m[3] <= 0:
        raise ValueError(f"non-positive height {m[3]}")
    h = m[3]
    mean = np.concatenate([m, np.zeros(4)])
    std = np.array([
        2 * STD_WEIGHT_POSITION * h, 2 * STD_WEIGHT_POSITION * h, 1e-2, 2 * STD_WEIGHT_POSITION * h,
        10 * STD_WEIGHT_VELOCITY * h, 10 * STD_WEIGHT_VELOCITY * h, 1e-5, 10 * STD_WEIGHT_VELOCITY * h,
    ])
    return KalmanState(mean, np.diag(std ** 2))


def predict(state: KalmanState) -> KalmanState:
    """Advance one frame under the constant-velocity model."""
    h = abs(state.mean[3])
    std = np.array([
        STD_WEIGHT_POSITION * h, STD_WEIGHT_POSITION * h, 1e-2, STD_WEIGHT_POSITION * h,
        STD_WEIGHT_VELOCITY * h, STD_WEIGHT_VELOCITY * h, 1e-5, STD_WEIGHT_VELOCITY * h,
    ])
    mean = _F @ state.mean
    cov = _symmetrize(_F @ state.covariance @ _F.T + np.diag(std ** 2))
    return KalmanState(mean, cov)


def update(state: KalmanState, measurement) -> KalmanState:
    """Correct with a (cx, cy, a, h) measurement."""
    z = np.asarray(measurement, dtype=float)
    if z.shape != (4,) or not np.all(np.isfinite(z)):
        raise ValueError(f"invalid measurement {measurement!r}")
    h = abs(state.mean[3])
    std = np.array([
        STD_WEIGHT_POSITION * h, STD_WEIGHT_POSITION * h, 1e-1, STD_WEIGHT_POSITION * h,
    ])
    s = state.covariance[:4, :4] + np.diag(std ** 2)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NumericalError("singular innovation covariance")
    # K = P H^T S^-1, solved via the Cholesky factor for stability.
    pht = state.covariance[:, :4]
    gain = np.linalg.solve(chol.T, np.linalg.solve(chol, pht.T)).T
    innovation = z - state.mean[:4]
    mean = state.mean + gain @ innovation
    cov = _symmetrize(state.covariance - gain @ s @ gain.T)
    return KalmanState(mean, cov)


def state_box_cxcyah(state: KalmanState) -> tuple[float, float, float, float]:
    cx, cy, a, h = state.mean[:4]
    return float(cx), float(cy), float(a), float(h)
