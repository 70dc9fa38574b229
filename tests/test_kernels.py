from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlsq import (AnchorSet, GramMatrix, KernelDomainError, KernelSpec, build_gram,
                    cross_matrix, kappa_sq)
from sgdlsq import kernels

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


class TestAnchorSymmetryCheck:
    @pytest.mark.parametrize("tile, n, entry", [
        (3, 8, (1, 6)),      # off-diagonal tile only
        (3, 8, (4, 5)),      # inside a diagonal tile
        (None, 300, (10, 290)),
    ])
    def test_asymmetric_gram_is_refused(self, tile, n, entry):
        pts = np.linspace(0.0, 1.0, n)
        values = build_gram(GAUSS, pts, check_psd=False).values.copy()
        i, j = entry
        with mock.patch.object(kernels, "_TILE", tile or kernels._TILE):
            values[i, j] += 2e-12
            with pytest.raises(ValueError, match="not symmetric"):
                AnchorSet(points=pts, kernel=GAUSS, gram=GramMatrix(values))
            values[i, j] -= 1.5e-12  # within 1e-12 of the largest entry
            AnchorSet(points=pts, kernel=GAUSS, gram=GramMatrix(values))

    def test_non_square_gram_is_refused(self):
        pts = np.linspace(0.0, 1.0, 4)
        values = build_gram(GAUSS, np.linspace(0.0, 1.0, 5), check_psd=False).values[:4]
        with pytest.raises(ValueError, match="anchor set vs Gram matrix"):
            AnchorSet(points=pts, kernel=GAUSS, gram=GramMatrix(values))


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

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            KernelSpec("cubic")

    def test_bandwidth_only_for_gaussian(self):
        with pytest.raises(ValueError):
            KernelSpec("sobolev", sigma=0.5)
