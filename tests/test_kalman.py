import numpy as np
import pytest

from sftrack import kalman


class TestInitiate:
    def test_zero_velocity(self):
        s = kalman.initiate((5, 10, 0.5, 20))
        assert np.allclose(s.mean, [5, 10, 0.5, 20, 0, 0, 0, 0])

    def test_predict_keeps_position_with_zero_velocity(self):
        s = kalman.predict(kalman.initiate((5, 10, 0.5, 20)))
        assert np.allclose(s.mean[:4], [5, 10, 0.5, 20])

    def test_covariance_diagonal_positive(self):
        s = kalman.initiate((5, 10, 0.5, 20))
        assert np.all(np.diag(s.covariance) > 0)

    def test_rejects_bad_measurement(self):
        with pytest.raises(ValueError):
            kalman.initiate((np.nan, 0, 1, 10))
        with pytest.raises(ValueError):
            kalman.initiate((0, 0, 1, 0))


class TestPredict:
    def test_velocity_integration(self):
        s = kalman.initiate((0, 0, 1, 10))
        s.mean[4] = 5.0
        s = kalman.predict(s)
        assert s.mean[0] == pytest.approx(5.0)

    def test_trace_increases(self):
        s = kalman.initiate((0, 0, 1, 10))
        s2 = kalman.predict(s)
        assert np.trace(s2.covariance) > np.trace(s.covariance)

    def test_linear_motion_oracle(self):
        # Constant-velocity truth: cx = 5k. After 20 predict/update cycles the
        # one-step prediction should sit within half a pixel of the truth.
        s = kalman.initiate((0, 10, 0.5, 20))
        for k in range(1, 21):
            s = kalman.predict(s)
            s = kalman.update(s, (5.0 * k, 10, 0.5, 20))
        pred = kalman.predict(s)
        assert abs(pred.mean[0] - 105.0) < 0.5


class TestUpdate:
    def test_zero_innovation_keeps_mean(self):
        s = kalman.predict(kalman.initiate((5, 10, 0.5, 20)))
        s2 = kalman.update(s, tuple(s.mean[:4]))
        assert np.allclose(s2.mean, s.mean, atol=1e-12)

    def test_fixed_point_convergence(self):
        # Repeatedly observing one fixed measurement: the predict/update
        # cycle's fixed point is the measurement itself with zero velocity.
        s = kalman.initiate((0, 0, 1, 10))
        target = (8.0, -3.0, 1.2, 12.0)
        for _ in range(50):
            s = kalman.update(kalman.predict(s), target)
        assert np.abs(s.mean[:2] - np.array(target[:2])).max() < 1e-3
        assert np.abs(s.mean[4:6]).max() < 5e-3

    def test_posterior_variance_shrinks(self):
        s = kalman.predict(kalman.initiate((5, 10, 0.5, 20)))
        s2 = kalman.update(s, (6, 11, 0.5, 20))
        assert s2.covariance[0, 0] < s.covariance[0, 0]
        assert s2.covariance[1, 1] < s.covariance[1, 1]


class TestNumericalHealth:
    def test_singular_innovation_raises(self):
        from sftrack.errors import NumericalError
        degenerate = kalman.KalmanState(np.zeros(8), np.zeros((8, 8)))
        with pytest.raises(NumericalError):
            kalman.update(degenerate, (0, 0, 1, 10))

    def test_symmetry_over_random_cycles(self):
        rng = np.random.default_rng(7)
        s = kalman.initiate((50, 50, 1.0, 30))
        worst = 0.0
        for _ in range(1000):
            s = kalman.predict(s)
            z = (50 + rng.normal(0, 5), 50 + rng.normal(0, 5),
                 max(0.2, 1.0 + rng.normal(0, 0.05)), max(5.0, 30 + rng.normal(0, 2)))
            s = kalman.update(s, z)
            worst = max(worst, np.abs(s.covariance - s.covariance.T).max())
            assert np.all(np.diag(s.covariance) >= 0)
        assert worst < 1e-9

    def test_exact_measurements_keep_box_positive(self):
        s = kalman.initiate((10, 10, 0.8, 15))
        for k in range(50):
            s = kalman.predict(s)
            s = kalman.update(s, (10 + k, 10, 0.8, 15))
            assert s.mean[2] > 0 and s.mean[3] > 0


def single_states(n: int, seed: int = 0) -> list[kalman.KalmanState]:
    """``n`` states after a few random single-state cycles, with random
    velocities; the second one has a negative height, whose noise is taken
    from its absolute value."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = kalman.initiate((rng.uniform(0, 600), rng.uniform(0, 400),
                             rng.uniform(0.3, 2.0), rng.uniform(5, 40)))
        for _ in range(rng.integers(0, 4)):
            s = kalman.predict(s)
            s = kalman.update(s, s.mean[:4] + rng.normal(size=4) * [2.0, 2.0, 0.01, 0.5])
        s.mean[4:] = rng.normal(size=4) * [3.0, 3.0, 0.001, 0.2]
        out.append(s)
    if n > 1:
        out[1].mean[3] = -out[1].mean[3]
    return out


def stacked(states: list[kalman.KalmanState]) -> kalman.KalmanState:
    return kalman.KalmanState(np.reshape([s.mean for s in states], (-1, 8)),
                              np.reshape([s.covariance for s in states], (-1, 8, 8)))


def assert_stack_equals(stack: kalman.KalmanState, states: list[kalman.KalmanState]) -> None:
    expected = stacked(states)
    assert np.array_equal(stack.mean, expected.mean)
    assert np.array_equal(stack.covariance, expected.covariance)


@pytest.mark.parametrize("n", [0, 1, 7])
class TestStackedEqualsSingle:
    """A call on N stacked states equals N single-state calls bit for bit."""

    def test_initiate(self, n):
        rng = np.random.default_rng(n)
        z = np.column_stack([rng.uniform(0, 600, n), rng.uniform(0, 400, n),
                             rng.uniform(0.3, 2.0, n), rng.uniform(5, 40, n)])
        assert_stack_equals(kalman.initiate(z), [kalman.initiate(row) for row in z])

    def test_predict(self, n):
        states = single_states(n)
        assert_stack_equals(kalman.predict(stacked(states)), [kalman.predict(s) for s in states])

    def test_update(self, n):
        states = single_states(n)
        z = np.array([s.mean[:4] for s in states]).reshape(-1, 4) + 1.5
        z[:, 3] = np.abs(z[:, 3])
        assert_stack_equals(kalman.update(stacked(states), z),
                            [kalman.update(s, row) for s, row in zip(states, z)])


class TestStackedErrors:
    def test_one_singular_innovation_covariance_raises(self):
        from sftrack.errors import NumericalError
        states = single_states(3)
        states[1] = kalman.KalmanState(np.zeros(8), np.zeros((8, 8)))
        z = np.tile([0.0, 0.0, 1.0, 10.0], (3, 1))
        with pytest.raises(NumericalError):
            kalman.update(stacked(states), z)

    @pytest.mark.parametrize("shape", [(2, 4), (4,), (3, 1, 4), (3, 8)])
    def test_measurement_stack_shape_must_match(self, shape):
        with pytest.raises(ValueError):
            kalman.update(stacked(single_states(3)), np.ones(shape))
