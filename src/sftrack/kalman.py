"""Constant-velocity Kalman filter over box state.

State is the 8-vector (cx, cy, a, h, vcx, vcy, va, vh) where a is the
width/height aspect ratio. Noise standard deviations are proportional to
box height (position weight 1/20, velocity weight 1/160), the SORT-family
convention. dt is fixed at one frame.

Every operation takes a stack of states: ``mean`` has shape (..., 8) and
``covariance`` (..., 8, 8), and a single track is the unstacked case. Each
stacked row gets the same floating-point operations as a single call on it,
so results do not depend on how states are stacked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

STD_WEIGHT_POSITION = 1.0 / 20.0
STD_WEIGHT_VELOCITY = 1.0 / 160.0

_F = np.eye(8)
_F[:4, 4:] = np.eye(4)  # x' = x + v, dt = 1

# Noise standard deviation of each component: box height times a weight,
# plus a fixed deviation for the aspect-ratio components (weight 0).
_INITIATE_NOISE = (
    np.array([2 * STD_WEIGHT_POSITION, 2 * STD_WEIGHT_POSITION, 0.0, 2 * STD_WEIGHT_POSITION,
              10 * STD_WEIGHT_VELOCITY, 10 * STD_WEIGHT_VELOCITY, 0.0, 10 * STD_WEIGHT_VELOCITY]),
    np.array([0.0, 0.0, 1e-2, 0.0, 0.0, 0.0, 1e-5, 0.0]))
_PREDICT_NOISE = (
    np.array([STD_WEIGHT_POSITION, STD_WEIGHT_POSITION, 0.0, STD_WEIGHT_POSITION,
              STD_WEIGHT_VELOCITY, STD_WEIGHT_VELOCITY, 0.0, STD_WEIGHT_VELOCITY]),
    np.array([0.0, 0.0, 1e-2, 0.0, 0.0, 0.0, 1e-5, 0.0]))
_UPDATE_NOISE = (_PREDICT_NOISE[0][:4], np.array([0.0, 0.0, 1e-1, 0.0]))

_DIAG8 = np.arange(8)
_DIAG4 = np.arange(4)


@dataclass
class KalmanState:
    mean: np.ndarray        # (..., 8)
    covariance: np.ndarray  # (..., 8, 8)

    def __getitem__(self, rows) -> "KalmanState":
        """The states of ``rows`` of a (N, 8) stack."""
        return KalmanState(self.mean[rows], self.covariance[rows])

    def __setitem__(self, rows, value: "KalmanState") -> None:
        self.mean[rows] = value.mean
        self.covariance[rows] = value.covariance


def _transpose(p: np.ndarray) -> np.ndarray:
    return np.swapaxes(p, -1, -2)


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return (p + _transpose(p)) * 0.5


def _noise_var(h: np.ndarray, noise: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Per-component noise variances, (..., k), for box heights ``h`` (...)."""
    weight, fixed = noise
    return (h[..., None] * weight + fixed) ** 2


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``m @ v`` over stacks, as one matrix-vector product per state."""
    return (m @ v[..., None])[..., 0]


def initiate(measurement) -> KalmanState:
    """New states from (..., 4) (cx, cy, a, h) measurements with zero velocity."""
    m = np.asarray(measurement, dtype=float)
    if m.shape[-1:] != (4,) or not np.all(np.isfinite(m)):
        raise ValueError(f"measurements of shape {m.shape} must be finite (cx, cy, a, h)")
    h = m[..., 3]
    if np.any(h <= 0):
        raise ValueError(f"non-positive height {h.min()}")
    mean = np.concatenate([m, np.zeros_like(m)], axis=-1)
    cov = np.zeros(m.shape[:-1] + (8, 8))
    cov[..., _DIAG8, _DIAG8] = _noise_var(h, _INITIATE_NOISE)
    return KalmanState(mean, cov)


def predict(state: KalmanState) -> KalmanState:
    """Advance every state one frame under the constant-velocity model."""
    mean = _matvec(_F, state.mean)
    cov = _F @ state.covariance @ _F.T
    cov[..., _DIAG8, _DIAG8] += _noise_var(np.abs(state.mean[..., 3]), _PREDICT_NOISE)
    return KalmanState(mean, _symmetrize(cov))


def update(state: KalmanState, measurement) -> KalmanState:
    """Correct every state with its (cx, cy, a, h) measurement; the
    measurements' stack shape must equal the states'."""
    z = np.asarray(measurement, dtype=float)
    if z.shape != state.mean.shape[:-1] + (4,):
        raise ValueError(f"measurements of shape {z.shape} for states of shape "
                         f"{state.mean.shape}")
    if not np.all(np.isfinite(z)):
        raise ValueError("non-finite measurement")
    s = state.covariance[..., :4, :4].copy()
    s[..., _DIAG4, _DIAG4] += _noise_var(np.abs(state.mean[..., 3]), _UPDATE_NOISE)
    try:
        chol = np.linalg.cholesky(s)
    except np.linalg.LinAlgError:
        raise NumericalError("singular innovation covariance")
    # K = P H^T S^-1, solved via the Cholesky factor for stability.
    pht = state.covariance[..., :, :4]
    gain = _transpose(np.linalg.solve(_transpose(chol),
                                      np.linalg.solve(chol, _transpose(pht))))
    innovation = z - state.mean[..., :4]
    mean = state.mean + _matvec(gain, innovation)
    cov = _symmetrize(state.covariance - gain @ s @ _transpose(gain))
    return KalmanState(mean, cov)
