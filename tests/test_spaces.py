import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlsq import (
    AnchorSet,
    DimensionMismatch,
    KernelSpec,
    Trajectory,
    build_gram,
    predict,
    prediction_errors,
)
from sgdlsq import kernels, spaces

GAUSS = KernelSpec("gaussian", sigma=0.2)
SOB = KernelSpec("sobolev")


@pytest.fixture
def gauss_anchor():
    return AnchorSet.build(GAUSS, [0.0, 0.25, 0.5, 0.75])


def _vec(coeffs, anchors=None):
    """One hypothesis: a one-checkpoint trajectory."""
    return Trajectory((0,), [coeffs], anchors)


def _inner(h1, h2):
    """The H-inner product through the one evaluation path, by the
    reproducing property <h1, sum_j b_j K(x_j, .)> = sum_j b_j h1(x_j);
    a euclidean hypothesis is its own representer."""
    if h2.backend == "kernel":
        return float(h2.coeffs[0] @ predict(h1, h2.anchors.points)[0])
    return float(predict(h1, h2.coeffs)[0, 0])


class TestEvaluate:
    def test_zero_element(self, gauss_anchor):
        assert predict(_vec(np.zeros(3)), [[1.0, 2.0, 3.0]])[0, 0] == 0.0
        assert predict(_vec(np.zeros(4), gauss_anchor), [0.3])[0, 0] == 0.0

    def test_kernel_single_anchor(self):
        a = AnchorSet.build(GAUSS, [0.0])
        h = _vec([1.0], a)
        np.testing.assert_allclose(predict(h, [0.2]), [[np.exp(-0.5)]], rtol=1e-12)

    def test_euclidean_dot(self):
        assert predict(_vec([1.0, 2.0]), [[3.0, 4.0]])[0, 0] == 11.0

    def test_dimension_mismatch_names_lengths(self):
        with pytest.raises(DimensionMismatch) as err:
            predict(_vec([1.0, 2.0]), [[3.0, 4.0, 5.0]])
        assert err.value.expected == 2 and err.value.got == 3


class TestInner:
    def test_zero(self, gauss_anchor):
        h = _vec([1.0, -2.0, 0.5, 0.0], gauss_anchor)
        assert _inner(h, _vec(np.zeros(4), gauss_anchor)) == 0.0

    def test_euclidean_dot(self):
        assert _inner(_vec([1, 2]), _vec([3, 4])) == 11.0

    def test_sobolev_single_anchor(self):
        a = AnchorSet.build(SOB, [0.5])
        h = _vec([1.0], a)
        assert _inner(h, h) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("seed", range(8))
    def test_bilinearity(self, seed, gauss_anchor):
        """<a*h1 + h2, h3> = a*<h1,h3> + <h2,h3>."""
        rng = np.random.default_rng(seed)
        a = float(rng.standard_normal())
        c1, c2, c3 = rng.standard_normal((3, gauss_anchor.n))
        h1, h2, h3 = (_vec(c, gauss_anchor) for c in (c1, c2, c3))
        combo = _vec(a * c1 + c2, gauss_anchor)
        lhs = _inner(combo, h3)
        rhs = a * _inner(h1, h3) + _inner(h2, h3)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_self_inner_nonnegative(self, seed, gauss_anchor):
        rng = np.random.default_rng(100 + seed)
        h = _vec(rng.standard_normal(gauss_anchor.n), gauss_anchor)
        scale = float(np.max(np.abs(h.coeffs))) ** 2
        assert _inner(h, h) >= -1e-12 * scale


class TestReproducingConsistency:
    @pytest.mark.parametrize("spec", [GAUSS, SOB])
    def test_evaluate_at_anchors_matches_gram_product(self, spec):
        """One-point evaluations agree with the batch one and with the
        Gram product."""
        rng = np.random.default_rng(5)
        anchors = AnchorSet.build(spec, np.sort(rng.random(12)))
        h = _vec(rng.standard_normal(12), anchors)
        via_gram = build_gram(spec, anchors.points).values @ h.coeffs[0]
        via_points = np.array([predict(h, [x])[0, 0] for x in anchors.points])
        np.testing.assert_allclose(via_points, via_gram, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(predict(h, anchors.points)[0], via_gram, rtol=1e-10, atol=1e-12)


class TestGramProductTiles:
    """predict forms K(xs, anchors) times the coefficients one tile of K
    at a time: the fewest tiles of at most _TILE rows and 2^17 floats,
    split evenly."""

    @pytest.mark.parametrize("n", [1, 7, 256, 257, 700, 2000, 5000, 2**17 + 3])
    def test_tiles_cover_the_rows_evenly(self, n):
        """At n points and w anchors; at w = n these are the tiles of the
        surrogate's values at its own points."""
        for w in (n, 1, 300, 2**17 + 3):
            bounds = spaces._product_tiles(n, w)
            sizes = np.diff(bounds)
            assert bounds[0] == 0 and bounds[-1] == n and sizes.min() >= 1
            assert sizes.max() - sizes.min() <= 1
            cap = min(kernels._TILE, max(1, spaces._PRODUCT_FLOATS // w))
            assert sizes.max() <= cap and len(sizes) == -(-n // cap)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["gaussian", "sobolev", "linear"]), n=st.integers(1, 1200),
           w=st.integers(1, 1200), d=st.integers(1, 3), n_cp=st.integers(1, 4),
           seed=st.integers(0, 2**32))
    def test_tiled_values_equal_whole_matrix_values(self, kind, n, w, d, n_cp, seed):
        """predict, by tiles, matches h.values of the whole cross matrix
        (feature_matrix) within 1e-12 relative: the same kernel values,
        with each tile's product summed by the BLAS on its own rows."""
        rng = np.random.default_rng(seed)
        spec = KernelSpec(kind, sigma=0.3 if kind == "gaussian" else None)
        shape = (lambda k: k) if kind == "sobolev" else (lambda k: (k, d))
        cps = tuple(range(n_cp))
        anchors = AnchorSet(rng.random(shape(w)), spec)
        h = Trajectory(cps, rng.standard_normal((n_cp, w)), anchors)
        xs = rng.random(shape(n))
        got = predict(h, xs)
        want = h.values(spaces.feature_matrix(h, xs))
        assert got.shape == want.shape == (n_cp, n)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())

    def test_scratch_is_one_tile(self):
        """N = 2000 points and anchors, 30 expansions: the traced peak of
        predict stays within 1.2 MB of the (30, N) result; 256-row tiles
        took 4 MB."""
        pts = np.random.default_rng(1).random(2000)
        coeffs = np.random.default_rng(2).standard_normal((30, 2000))
        h = Trajectory(tuple(range(30)), coeffs, AnchorSet(pts, GAUSS))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = predict(h, pts)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert out.nbytes == 480_000
        assert peak <= out.nbytes + 1_200_000


def _mse(h, pts, ys):
    """Mean squared residual of each checkpoint of ``h`` on (pts, ys)."""
    return prediction_errors(predict(h, pts), ys)


class TestMeanSquareError:
    def test_perfect_interpolant(self):
        h = _vec([2.0])
        pts = np.array([[1.0], [2.0], [-1.0]])
        assert _mse(h, pts, [2.0, 4.0, -2.0])[0] == 0.0

    def test_zero_hypothesis_unit_targets(self):
        zero = _vec([0.0])
        assert _mse(zero, np.array([[0.3], [0.7]]), [1.0, -1.0])[0] == 1.0

    def test_zero_hypothesis_on_kinked_target(self):
        # targets of f(x) = |x - 1/2| - 1/2 at {0, 0.25, 0.5} are {0, -0.25, -0.5}
        pts = np.array([[0.0], [0.25], [0.5]])
        got = _mse(_vec([0.0]), pts, [0.0, -0.25, -0.5])
        np.testing.assert_allclose(got, [0.3125 / 3], rtol=1e-14)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        pts = rng.random((20, 1))
        ys = rng.standard_normal(20)
        h = _vec([0.7])
        base = _mse(h, pts, ys)
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(20)
            np.testing.assert_allclose(_mse(h, pts[perm], ys[perm]), base, rtol=1e-14)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _mse(_vec([0.0]), np.empty((0, 1)), [])


class TestHypothesisInvariants:
    def test_finite_entries_enforced(self, gauss_anchor):
        with pytest.raises(ValueError):
            _vec([1.0, np.nan])
        with pytest.raises(ValueError):
            _vec([np.inf, 0, 0, 0], gauss_anchor)

    def test_kernel_coefficient_length(self, gauss_anchor):
        with pytest.raises(DimensionMismatch):
            _vec([1.0, 2.0], gauss_anchor)

    def test_vectors_are_immutable(self, gauss_anchor):
        h = _vec([1.0, 0.0, 0.0, 0.0], gauss_anchor)
        with pytest.raises(ValueError):
            h.coeffs[0, 0] = 2.0

    def test_old_passes_argument_is_refused_by_name(self):
        """The old positional form Trajectory(checkpoints, coeffs, passes)
        would bind the passes tuple to ``anchors``; it is a TypeError
        naming ``anchors`` and the type it got."""
        with pytest.raises(TypeError, match="anchors must be None or an AnchorSet, got tuple"):
            Trajectory((1, 2), np.zeros((2, 1)), (1, 1))


class TestPredictionErrors:
    def test_one_error_per_row_over_the_last_axis(self):
        """Both rules reduce the last axis of a block; zero-one counts
        sign(0) as +1 and checks labels given as a list too."""
        values = np.array([[1.0, 2.0, 0.0], [0.0, -1.0, -0.0]])
        np.testing.assert_array_equal(prediction_errors(values, [1.0, 0.0, 1.0]),
                                      [5 / 3, 1.0])
        np.testing.assert_array_equal(prediction_errors(values, [1.0, -1.0, -1.0], "zero-one"),
                                      [2 / 3, 1 / 3])
        with pytest.raises(ValueError, match="labels must be in .* found 0.5"):
            prediction_errors(values, [1.0, 0.5, 1.0], "zero-one")

    @pytest.mark.parametrize("metric", ["mse", "zero-one"])
    def test_no_points_rejected(self, metric):
        with pytest.raises(ValueError, match="at least one point"):
            prediction_errors(np.empty((2, 0)), [], metric)

    @pytest.mark.parametrize("metric", ["mse", "zero-one"])
    def test_targets_of_another_length_are_a_dimension_mismatch(self, metric):
        """One target against three values would broadcast; it is refused
        with both lengths, as are four."""
        values = np.ones((2, 3))
        for ys, got in (([1.0], 1), ([1.0] * 4, 4)):
            with pytest.raises(DimensionMismatch) as err:
                prediction_errors(values, ys, metric)
            assert (err.value.expected, err.value.got) == (3, got)
