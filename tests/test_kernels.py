import dataclasses
import math
import tracemalloc
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlsq import (AnchorSet, KernelDomainError, KernelSpec, Sample, StepSchedule, Trajectory,
                    build_gram, cross_matrix, kappa_sq, predict, run_batch_gm, run_sgm,
                    sample_index_plan)
from sgdlsq import iterations, kernels, spaces

GAUSS = KernelSpec("gaussian", sigma=0.2)
SOB = KernelSpec("sobolev")
LIN = KernelSpec("linear")


class TestKernelEval:
    """Single kernel values, as 1-point cross matrices."""

    def test_gaussian_zero_distance(self):
        for x in (0.0, 0.3, -2.0):
            assert cross_matrix(GAUSS, [x], [x])[0, 0] == 1.0

    def test_gaussian_sigma_02(self):
        # exp(-(0.2)^2 / (2 * 0.04)) = exp(-1/2)
        np.testing.assert_allclose(cross_matrix(GAUSS, [0.0], [0.2]), [[np.exp(-0.5)]], rtol=1e-12)

    def test_gaussian_vector_inputs(self):
        x, xp = np.array([0.1, 0.2]), np.array([0.3, 0.0])
        expected = np.exp(-np.sum((x - xp) ** 2) / (2 * 0.2**2))
        np.testing.assert_allclose(cross_matrix(GAUSS, x[None], xp[None]), [[expected]], rtol=1e-12)

    def test_sobolev_hand_value(self):
        assert cross_matrix(SOB, [0.3], [0.6])[0, 0] == pytest.approx((1 - 0.6) * 0.3, abs=1e-15)

    def test_sobolev_domain_error(self):
        with pytest.raises(KernelDomainError):
            cross_matrix(SOB, [1.2], [0.5])

    def test_sobolev_endpoint_slack(self):
        # values a hair outside [0, 1] from rounding are tolerated
        assert cross_matrix(SOB, [1.0 + 1e-13], [0.5])[0, 0] == pytest.approx(0.5 * 0.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [GAUSS, SOB])
    def test_symmetry_on_random_pairs(self, spec):
        rng = np.random.default_rng(11)
        xs = rng.random(1000)
        ys = rng.random(1000)
        k_xy = cross_matrix(spec, xs, ys).diagonal()
        k_yx = cross_matrix(spec, ys, xs).diagonal()
        np.testing.assert_array_equal(k_xy, k_yx)


class TestBuildGram:
    def test_single_point_gaussian(self):
        g = build_gram(GAUSS, [0.7])
        np.testing.assert_array_equal(g.values, [[1.0]])

    def test_sobolev_two_points(self):
        g = build_gram(SOB, [0.3, 0.6])
        np.testing.assert_allclose(g.values, [[0.21, 0.12], [0.12, 0.24]], atol=1e-15)

    def test_gaussian_psd_20_points(self):
        rng = np.random.default_rng(3)
        g = build_gram(GAUSS, rng.random(20))
        assert np.linalg.eigvalsh(g.values)[0] >= -1e-8

    @pytest.mark.parametrize("spec", [GAUSS, SOB, LIN])
    @pytest.mark.parametrize("seed", range(5))
    def test_psd_random_sets(self, spec, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 65))
        if spec.kind == "linear":
            pts = rng.standard_normal((n, 3))
        else:
            pts = rng.random(n)
        g = build_gram(spec, pts)
        max_diag = np.max(np.diag(g.values))
        assert np.linalg.eigvalsh(g.values)[0] >= -1e-8 * max(max_diag, 1e-300)
        assert np.array_equal(g.values, g.values.T)

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            build_gram(GAUSS, [])

    @pytest.mark.parametrize("min_eig, refused", [(-5e-9, True), (-2e-9, False)])
    def test_psd_check_edge_is_relative_to_the_largest_diagonal(self, min_eig, refused):
        """The check refuses a smallest eigenvalue below -1e-8 times the
        largest diagonal, here 0.25 (sobolev at 1/2), and passes one
        above it. The eigenvalues are stubbed: no kernel gives a Gram
        that far from positive semi-definite."""
        with mock.patch.object(np.linalg, "eigvalsh", lambda k: np.array([min_eig, 1.0])):
            if refused:
                with pytest.raises(ValueError, match="not positive semi-definite"):
                    build_gram(SOB, [0.5, 0.25], check_psd=True)
            else:
                build_gram(SOB, [0.5, 0.25], check_psd=True)


def _reference_cross_matrix(spec, xs, anchors):
    """The cross matrix as whole-array expressions, kept as the reference
    the in-place tiled fill must equal bit for bit."""
    xs = np.asarray(xs, dtype=np.float64)
    anchors = np.asarray(anchors, dtype=np.float64)
    if spec.kind == "gaussian":
        if xs.ndim == 1 and anchors.ndim == 1:
            sq = (xs[:, None] - anchors[None, :]) ** 2
        else:
            sq = (
                np.sum(xs**2, axis=1)[:, None]
                + np.sum(anchors**2, axis=1)[None, :]
                - 2.0 * (xs @ anchors.T)
            )
            np.maximum(sq, 0.0, out=sq)
        return np.exp(-sq / (2.0 * spec.sigma**2))
    if spec.kind == "sobolev":
        lo = np.minimum(xs[:, None], anchors[None, :])
        hi = np.maximum(xs[:, None], anchors[None, :])
        return lo * (1.0 - hi)
    a = xs[:, None] if xs.ndim == 1 else xs
    b = anchors[:, None] if anchors.ndim == 1 else anchors
    return a @ b.T


def _reference_gram(spec, pts):
    k = _reference_cross_matrix(spec, pts, pts)
    return 0.5 * (k + k.T)


# (kind, dimension or None for scalar points)
_CASES = [("gaussian", None), ("gaussian", 2), ("gaussian", 8), ("gaussian", 20),
          ("sobolev", None), ("linear", None), ("linear", 2), ("linear", 8)]


class TestInPlaceTiles:
    """The tiled in-place fill against the whole-array expressions."""

    @settings(max_examples=120, deadline=None)
    @given(
        case=st.sampled_from(_CASES),
        tile=st.sampled_from([1, 3, kernels._TILE]),
        offset=st.integers(-2, 2),
        blocks=st.integers(1, 3),
        n_cross=st.integers(1, 9),
        duplicates=st.booleans(),
        sigma=st.sampled_from([0.05, 0.3, 2.0]),
        seed=st.integers(0, 2**32),
    )
    def test_equals_whole_array_expressions(self, case, tile, offset, blocks, n_cross,
                                            duplicates, sigma, seed):
        kind, d = case
        n = max(1, blocks * tile + offset)  # on both sides of a tile boundary
        spec = KernelSpec(kind, sigma=sigma if kind == "gaussian" else None)
        rng = np.random.default_rng(seed)
        shape = n if d is None else (n, d)
        pts = rng.standard_normal(shape) if kind == "linear" else rng.random(shape)
        if duplicates:  # coincident points reach the gaussian's clip at 0
            pts = np.round(pts * 4) / 4
        xs = pts[rng.integers(0, n, n_cross)] + (0.0 if duplicates else 0.01)
        if kind == "sobolev":
            xs = np.clip(xs, 0.0, 1.0)
        with mock.patch.object(kernels, "_TILE", tile):
            gram = build_gram(spec, pts, check_psd=False).values
            cross = cross_matrix(spec, xs, pts)
            cross_t = cross_matrix(spec, pts, xs)
        np.testing.assert_array_equal(gram, _reference_gram(spec, pts))
        np.testing.assert_array_equal(gram, gram.T)
        np.testing.assert_array_equal(cross, _reference_cross_matrix(spec, xs, pts))
        np.testing.assert_array_equal(cross_t, _reference_cross_matrix(spec, pts, xs))

    def test_gram_check_errors_still_fire(self):
        # a sobolev point a hair past 1, inside the domain slack, has a
        # negative diagonal: not positive semi-definite
        with pytest.raises(ValueError, match="not positive semi-definite"):
            build_gram(SOB, [1.0 + 1e-12], check_psd=True)
        build_gram(SOB, [1.0 + 1e-12], check_psd=False)
        with mock.patch.object(kernels, "kappa_sq", lambda spec, points=None: 0.5):
            with pytest.raises(ValueError, match="exceeds kernel bound"):
                build_gram(GAUSS, [0.1, 0.4])


class TestLazyAnchorSet:
    """An anchor set is its points and kernel and never keeps a Gram; the
    kernel rows and diagonal a factor reads in its place
    (:func:`cross_matrix`, :func:`kernel_diagonal`) are the Gram's bit
    for bit on scalar inputs."""

    @pytest.mark.parametrize("spec", [GAUSS, SOB, LIN], ids=lambda s: s.kind)
    def test_rows_and_diagonal_equal_the_grams_on_scalar_inputs(self, spec):
        pts = np.random.default_rng(3).random(300)
        gram = build_gram(spec, pts, check_psd=False).values
        np.testing.assert_array_equal(kernels.kernel_diagonal(spec, pts), np.diagonal(gram))
        for i in (0, 17, 255, 256, 299):
            np.testing.assert_array_equal(cross_matrix(spec, pts[i:i + 1], pts)[0], gram[i])

    def test_vector_inputs_agree_to_rounding(self):
        pts = np.random.default_rng(4).random((50, 3))
        for spec in (GAUSS, LIN):
            gram = build_gram(spec, pts, check_psd=False).values
            np.testing.assert_allclose(kernels.kernel_diagonal(spec, pts), np.diagonal(gram),
                                       rtol=1e-14)
            np.testing.assert_allclose(cross_matrix(spec, pts[7:8], pts)[0], gram[7],
                                       rtol=1e-13, atol=1e-15)

    def test_gram_is_built_for_each_caller_and_never_kept(self):
        """Each run that reads the whole Gram, SGM and batch GM's loop,
        builds its own with the checks of build_gram(check_psd=False) and
        frees it on return: each run's traced peak holds its m x m Gram,
        and no traced block that large, nor any reference to the Gram,
        outlives the run."""
        m = 200
        sample = Sample(np.linspace(0.0, 1.0, m), np.linspace(-1.0, 1.0, m))
        sch = StepSchedule(0.5)
        plan = sample_index_plan(m, 3, 5, seed=1)
        values = []

        def spy(*args, **kwargs):
            gram = kernels.build_gram(*args, **kwargs)
            values.append(weakref.ref(gram.values))
            return gram

        runs = [lambda: run_sgm(sample, GAUSS, sch, plan),
                lambda: run_batch_gm(sample, GAUSS, sch, 5)] * 2
        with mock.patch.object(iterations, "build_gram", side_effect=spy) as built, \
                mock.patch.object(iterations, "_pivoted_cholesky", return_value=None):
            tracemalloc.start()
            try:
                for run in runs:  # batch GM takes the loop, which reads the Gram
                    tracemalloc.reset_peak()
                    traj = run()
                    assert tracemalloc.get_traced_memory()[1] >= 8 * m * m
                    assert max(t.size for t in tracemalloc.take_snapshot().traces) < 8 * m * m
                    assert not hasattr(traj.anchors, "gram")
            finally:
                tracemalloc.stop()
        assert built.call_count == 4
        for call in built.call_args_list:
            assert call.args[0] == GAUSS and call.args[1] is sample.x
            assert call.kwargs == {"check_psd": False}
        assert [ref() for ref in values] == [None] * 4

    def test_gram_product_by_tiles_matches_the_gram(self):
        """predict at the anchors themselves, by tiles of K, is the Gram
        times the coefficients."""
        pts = np.random.default_rng(5).random(700)
        coeffs = np.random.default_rng(6).standard_normal((4, 700))
        h = Trajectory(tuple(range(4)), coeffs, AnchorSet(pts, GAUSS))
        got = predict(h, pts)
        want = np.matmul(build_gram(GAUSS, pts, check_psd=False).values, coeffs[:, :, None])[..., 0]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_empty_point_list_is_refused(self):
        with pytest.raises(ValueError, match="empty point list"):
            AnchorSet([], GAUSS)

    def test_points_are_a_read_only_float64_copy(self):
        """The set keeps its own copy of the points, as float64, and
        refuses writes to it."""
        src = [[0, 1], [2, 3]]
        arr = np.array(src)
        anchors = AnchorSet(arr, GAUSS)
        assert anchors.points.dtype == np.float64 and not anchors.points.flags.writeable
        assert not np.shares_memory(anchors.points, arr)
        arr[0, 0] = 9
        np.testing.assert_array_equal(anchors.points, src)
        with pytest.raises(ValueError, match="read-only"):
            anchors.points[0, 0] = 1.0

    def test_only_build_makes_the_gram(self):
        """Only AnchorSet.build makes a Gram, for build_gram's checks, and
        keeps none: the set it returns is the constructor's, and no set
        takes a Gram."""
        pts = np.linspace(0.0, 1.0, 12)
        with mock.patch.object(spaces, "build_gram", wraps=spaces.build_gram) as built:
            plain = AnchorSet(pts, GAUSS)
            assert built.call_count == 0
            checked = AnchorSet.build(GAUSS, pts, check_psd=True)
        built.assert_called_once_with(GAUSS, checked.points, check_psd=True)
        assert checked.kernel == plain.kernel
        np.testing.assert_array_equal(checked.points, plain.points)
        assert [f.name for f in dataclasses.fields(AnchorSet)] == ["points", "kernel"]
        with pytest.raises(TypeError, match="gram"):
            AnchorSet(points=plain.points, kernel=GAUSS, gram=build_gram(GAUSS, pts))
        with pytest.raises(ValueError, match="not positive semi-definite"):
            AnchorSet.build(SOB, [1.0 + 1e-12], check_psd=True)

    def test_linear_kappa_sq_is_the_largest_diagonal(self):
        pts = np.random.default_rng(7).random((20, 4))
        assert kappa_sq(LIN, pts) == float(np.max(np.sum(pts**2, axis=1)))
        assert kappa_sq(LIN, pts[:, 0]) == float(np.max(pts[:, 0] ** 2))


class TestKappaSq:
    def test_analytic_values(self):
        assert kappa_sq(GAUSS) == 1.0
        assert kappa_sq(SOB) == 0.25

    def test_linear_needs_points(self):
        with pytest.raises(ValueError):
            kappa_sq(LIN)
        assert kappa_sq(LIN, [[3.0, 4.0], [1.0, 0.0]]) == 25.0

    @pytest.mark.parametrize("spec", [GAUSS, SOB, LIN])
    def test_dominates_gram_diagonal(self, spec):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((30, 2)) if spec.kind == "linear" else rng.random(30)
        g = build_gram(spec, pts)
        assert np.max(np.diag(g.values)) <= kappa_sq(spec, pts) + 1e-12


class TestKernelSpecValidation:
    def test_gaussian_needs_sigma(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian")
        with pytest.raises(ValueError):
            KernelSpec("gaussian", sigma=-1.0)

    @pytest.mark.parametrize("sigma", [1e160, 1e-170, 2.0**-538, 1e-160, 2.0**-537,
                                       math.nan, math.inf, 0.0])
    def test_sigma_whose_width_is_not_a_positive_finite_float_is_refused(self, sigma):
        """The formula divides by 2 sigma^2: a sigma whose square
        overflows, underflows to 0 (2^-538 squares to below the least
        float) or to a subnormal float (1e-160, 2^-537), whose division
        overflows, is refused by name, as nan, inf and 0 are."""
        with pytest.raises(ValueError, match="sigma"):
            KernelSpec("gaussian", sigma=sigma)

    @pytest.mark.parametrize("sigma", [1e150, 1e-150])
    def test_extreme_but_representable_sigma_runs(self, sigma):
        """Where 2 sigma^2 is a normal positive finite float the Gram is
        finite (all ones at 1e150, the identity at 1e-150), with no
        floating-point warning."""
        pts = np.linspace(0.0, 1.0, 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gram = build_gram(KernelSpec("gaussian", sigma=sigma), pts).values
        np.testing.assert_array_equal(gram, np.ones((5, 5)) if sigma > 1 else np.eye(5))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            KernelSpec("cubic")

    def test_bandwidth_only_for_gaussian(self):
        with pytest.raises(ValueError):
            KernelSpec("sobolev", sigma=0.5)
