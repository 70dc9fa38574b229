import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlsq import (
    AnchorSet,
    KernelSpec,
    Sample,
    StepSchedule,
    StoppingOutcome,
    Trajectory,
    gen_synthetic_abs,
    holdout_stop,
    predict,
    prediction_errors,
    run_batch_gm,
    sample_index_plan,
    run_sgm,
)

GAUSS = KernelSpec("gaussian", sigma=0.2)


def _toy_trajectory(values, checkpoints):
    """Scalar hypotheses h(x) = c * x recorded at the given step counts."""
    return Trajectory(tuple(checkpoints), np.array(values, dtype=float)[:, None])


def _validation_for_curve(targets):
    # a single point at x = 1 makes the validation error (c - target)^2
    return targets


class TestHoldoutStop:
    def test_interior_minimum(self):
        # coefficients 0.5, 0.3, 0.4 against target 0 at x=1: argmin at 20
        traj = _toy_trajectory([0.5, 0.3, 0.4], (10, 20, 30))
        val = Sample(x=np.array([[1.0]]), y=np.array([0.0]))
        out = holdout_stop(traj, val)
        assert out.chosen_t == 20
        assert out.errors == (0.25, pytest.approx(0.09), pytest.approx(0.16))

    def test_strictly_decreasing_picks_last(self):
        traj = _toy_trajectory([0.9, 0.5, 0.1], (1, 2, 3))
        val = Sample(x=np.array([[1.0]]), y=np.array([0.0]))
        assert holdout_stop(traj, val).chosen_t == 3

    def test_tie_breaks_to_first(self):
        traj = _toy_trajectory([0.3, -0.3], (5, 9))
        val = Sample(x=np.array([[1.0]]), y=np.array([0.0]))
        assert holdout_stop(traj, val).chosen_t == 5

    def test_unknown_metric_rejected(self):
        traj = _toy_trajectory([0.1], (1,))
        with pytest.raises(ValueError, match="metric"):
            holdout_stop(traj, Sample(x=np.array([[1.0]]), y=np.array([0.0])), metric="bogus")

    def test_zero_one_metric(self):
        traj = _toy_trajectory([1.0, -1.0], (1, 2))
        val = Sample(x=np.array([[1.0], [2.0]]), y=np.array([1.0, 1.0]))
        out = holdout_stop(traj, val, metric="zero-one")
        assert out.chosen_t == 1 and out.errors == (0.0, 1.0)

    def test_invariant_under_constant_error_shift(self):
        """Adding a constant to every validation error cannot move the
        argmin, checked by shifting the targets' squared-error curve."""
        traj = _toy_trajectory([0.5, 0.2, 0.8], (1, 2, 3))
        val = Sample(x=np.array([[1.0]]), y=np.array([0.0]))
        base = holdout_stop(traj, val)
        shifted = StoppingOutcome(
            chosen_t=base.chosen_t,
            checkpoints=base.checkpoints,
            errors=tuple(e + 7.0 for e in base.errors),
            rule=base.rule,
        )
        assert np.argmin(shifted.errors) == np.argmin(base.errors)

    def test_relabeling_checkpoints_keeps_model(self):
        traj_a = _toy_trajectory([0.5, 0.3, 0.4], (10, 20, 30))
        traj_b = _toy_trajectory([0.5, 0.3, 0.4], (1, 7, 9))
        val = Sample(x=np.array([[1.0]]), y=np.array([0.0]))
        a, b = holdout_stop(traj_a, val), holdout_stop(traj_b, val)
        assert a.checkpoints.index(a.chosen_t) == b.checkpoints.index(b.chosen_t)

    def test_end_to_end_on_trained_trajectory(self):
        sample = gen_synthetic_abs(60, seed=1)
        val = gen_synthetic_abs(40, seed=2)
        plan = sample_index_plan(60, 8, 120, seed=3)
        traj = run_sgm(sample, GAUSS, StepSchedule(1.0 / 16), plan,
                       checkpoints=(1, 5, 10, 20, 40, 80, 120))
        out = holdout_stop(traj, val)
        assert out.chosen_t in traj.checkpoints
        assert out.chosen_error == min(out.errors)

    def test_zero_one_rejects_labels_other_than_plus_minus_one(self):
        traj = _toy_trajectory([1.0, -1.0], (1, 2))
        val = Sample(x=np.array([[1.0], [2.0]]), y=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="labels must be in"):
            holdout_stop(traj, val, metric="zero-one")


def _per_vector_errors(traj, val, metric):
    """Each checkpoint evaluated on its own, kept as the reference the
    shared validation features must equal bit for bit."""
    return [prediction_errors(predict(traj.vector_at(t), val.x), val.y, metric)[0]
            for t in traj.checkpoints]


class TestSharedValidationFeatures:
    @settings(max_examples=60, deadline=None)
    @given(
        backend=st.sampled_from(["kernel", "euclidean"]),
        metric=st.sampled_from(["mse", "zero-one"]),
        d=st.sampled_from([None, 1, 3]),
        n_train=st.integers(1, 40),
        n_val=st.integers(1, 30),
        n_cp=st.integers(1, 8),
        zero_first=st.booleans(),
        seed=st.integers(0, 2**32),
    )
    def test_errors_equal_per_vector_loop(self, backend, metric, d, n_train, n_val, n_cp,
                                          zero_first, seed):
        rng = np.random.default_rng(seed)
        dim = 1 if d is None else d
        val_x = rng.random(n_val) if d is None else rng.random((n_val, d))
        if metric == "mse":
            val_y = rng.standard_normal(n_val)
        else:
            val_y = rng.choice([-1.0, 1.0], n_val)
        val = Sample(x=val_x, y=val_y)
        anchors = None
        if backend == "kernel":
            shape = n_train if d is None else (n_train, d)
            anchors = AnchorSet.build(GAUSS, rng.random(shape), check_psd=False)
        coeffs = rng.standard_normal((n_cp, dim if anchors is None else n_train))
        if zero_first:  # predictions of exactly 0, whose sign counts as +1
            coeffs[0] = 0.0
        if metric == "zero-one" and n_cp > 1:
            coeffs[-1] = coeffs[0]  # a tie, broken toward the first
        cps = tuple(range(1, n_cp + 1))
        traj = Trajectory(cps, coeffs, anchors)
        out = holdout_stop(traj, val, metric=metric)
        reference = _per_vector_errors(traj, val, metric)
        assert out.errors == tuple(reference)
        assert out.chosen_t == cps[int(np.argmin(reference))]
