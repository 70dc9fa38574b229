"""Hypothesis-space elements over two interchangeable backends.

A hypothesis is either an explicit coordinate vector in R^d
(``euclidean`` backend) or a kernel expansion sum_j alpha_j K(x_j, .)
over a fixed anchor set (``kernel`` backend). A :class:`Trajectory`
holds a run's hypotheses, one row per checkpoint; one checkpoint of it
is one hypothesis. Iterates produced by the gradient methods live in the
span of their training points, so kernel coefficient vectors always have
one entry per anchor; population iterates use the surrogate anchor set
instead.

Quantities that compare hypotheses from different anchor sets (for
example a training-set expansion against a surrogate-set expansion) must
be computed through point evaluations, never by subtracting coefficient
vectors; see :mod:`sgdlsq.decomposition`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .kernels import _TILE, KernelSpec, _as_points, build_gram, cross_matrix


# Most floats in one tile of K(xs, anchors) that predict forms
_PRODUCT_FLOATS = 1 << 17


def _product_tiles(n, w):
    """Row bounds of the tiles of K(xs, anchors) that :func:`predict`
    forms over n points and w anchors: the fewest tiles of at most _TILE
    rows and _PRODUCT_FLOATS floats (or one row, where a row is longer),
    split evenly (31 tiles of 64 or 65 rows at n = w = 2000; one empty
    tile at n = 0). Even tiles leave no sliver of a few rows, whose
    product a BLAS may hand to a small-matrix kernel that rounds
    differently."""
    count = max(1, -(-n // min(_TILE, max(1, _PRODUCT_FLOATS // w))))
    return [i * n // count for i in range(count + 1)]


@dataclass(frozen=True)
class AnchorSet:
    """Ordered anchor points, kept as a read-only float64 copy, and their
    kernel. The set never changes once made and holds no Gram: a run that
    reads the whole Gram builds it for its own use
    (:func:`~sgdlsq.kernels.build_gram`), and :func:`predict` reads the
    kernel a tile at a time.
    """

    points: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.shape[0] == 0:
            raise ValueError("cannot build a Gram matrix from an empty point list")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @classmethod
    def build(cls, kernel: KernelSpec, points, check_psd=None) -> "AnchorSet":
        """The anchor set of ``points`` after the checks of
        :func:`~sgdlsq.kernels.build_gram`; the Gram they build is not kept."""
        anchors = cls(points, kernel)
        build_gram(kernel, anchors.points, check_psd=check_psd)
        return anchors


@dataclass(frozen=True)
class Trajectory:
    """Hypotheses at an increasing sequence of step counts, as one
    read-only (n_cp, w) block: row i holds the coordinates (euclidean)
    or the expansion coefficients over ``anchors`` (kernel) after
    ``checkpoints[i]`` steps. ``anchors`` is None for euclidean runs.
    A one-checkpoint trajectory is one hypothesis (:meth:`vector_at`)."""

    checkpoints: tuple
    coeffs: np.ndarray
    anchors: AnchorSet | None = None

    def __post_init__(self):
        if self.anchors is not None and not isinstance(self.anchors, AnchorSet):
            raise TypeError("anchors must be None or an AnchorSet, got "
                            f"{type(self.anchors).__name__}")
        coeffs = np.asarray(self.coeffs, dtype=np.float64).view()
        if coeffs.ndim != 2:
            raise ValueError(f"coefficients must form an (n_cp, w) block, got {coeffs.shape}")
        if len(coeffs) != len(self.checkpoints):
            raise DimensionMismatch("checkpoints vs coefficient rows",
                                    len(self.checkpoints), len(coeffs))
        if self.anchors is not None and coeffs.shape[1] != self.anchors.n:
            raise DimensionMismatch("coefficients vs anchor set", self.anchors.n, coeffs.shape[1])
        if any(b >= a for a, b in zip(self.checkpoints[1:], self.checkpoints)):
            raise ValueError("checkpoints must be strictly increasing")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("hypothesis coefficients must be finite")
        coeffs.setflags(write=False)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def backend(self) -> str:
        return "euclidean" if self.anchors is None else "kernel"

    @property
    def final(self) -> "Trajectory":
        return self.vector_at(self.checkpoints[-1])

    def vector_at(self, t: int) -> "Trajectory":
        """The one-checkpoint trajectory at step t, a row view of the block."""
        try:
            i = self.checkpoints.index(t)
        except ValueError:
            raise KeyError(f"no checkpoint at t={t}") from None
        return Trajectory((t,), self.coeffs[i:i + 1], self.anchors)

    def values(self, features) -> np.ndarray:
        """Row i is ``features @ coeffs[i]``, (n_cp, n), for a feature
        matrix of this trajectory (:func:`feature_matrix`). One
        matrix-vector product per row, so a row's values do not depend on
        the other rows: :meth:`vector_at` a checkpoint gives its row bit
        for bit, where the single product ``coeffs @ features.T`` differs
        in the last bits."""
        return np.matmul(features, self.coeffs[:, :, None])[..., 0]


def feature_matrix(h: Trajectory, xs) -> np.ndarray:
    """The matrix F whose ``h.values(F)`` are the values at ``xs``: the
    inputs (euclidean) or the whole cross matrix K(xs, anchors) (kernel),
    which :func:`predict` forms one tile of rows at a time instead. It
    depends only on ``xs`` and the backend, dimension and anchor set of
    ``h``, so one F serves every checkpoint of a run."""
    xs = np.asarray(xs, dtype=np.float64)
    if h.backend == "kernel":
        return cross_matrix(h.anchors.kernel, xs, h.anchors.points)
    d = h.coeffs.shape[-1]
    if xs.ndim == 1 and d == 1:
        return xs[:, None]
    if xs.ndim == 2 and xs.shape[1] == d:
        return xs
    got = xs.shape[1] if xs.ndim == 2 else 1
    raise DimensionMismatch("hypothesis vs input point", d, got)


def predict(h: Trajectory, xs) -> np.ndarray:
    """Evaluations <h, x>_H at each point of ``xs``, one row per
    checkpoint of ``h``, (n_cp, n): dot products (euclidean) or the
    kernel expansions sum_j alpha_j K(x_j, x). The one evaluation path:
    ``h.values`` of the feature matrix (:func:`feature_matrix`). For a
    kernel expansion the matrix is K(xs, anchors), formed and used one
    tile of rows at a time (:func:`_product_tiles`), so the scratch is
    one tile, not an n x w matrix. Each value is still one row's
    matrix-vector product, within 1e-12 relative of the whole matrix's
    (a BLAS may round a tile's last few rows differently)."""
    if h.backend == "euclidean":
        return h.values(feature_matrix(h, xs))
    xs = _as_points(xs)
    out = np.empty((len(h.coeffs), len(xs)))
    bounds = _product_tiles(len(xs), h.anchors.n)
    for lo, hi in zip(bounds, bounds[1:]):  # one expression keeps one tile alive
        out[:, lo:hi] = h.values(feature_matrix(h, xs[lo:hi]))
    return out


METRICS = ("mse", "zero-one")


def check_sign_labels(labels) -> None:
    """Raise ``ValueError`` naming the first label that is not -1 or +1."""
    labels = np.asarray(labels)
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        bad = labels[~np.isin(labels, (-1.0, 1.0))][0]
        raise ValueError(f"labels must be in {{-1, +1}}, found {bad}")


def prediction_errors(values, targets, metric: str = "mse"):
    """The error of each row of ``values`` against ``targets`` over the
    last axis: the mean squared residual (``"mse"``) or the share of sign
    mismatches on +/-1 labels, sign(0) counting as +1 (``"zero-one"``).
    The one place either rule is computed; it refuses an empty point set
    and targets whose last axis is not as long as the values'."""
    values, targets = np.asarray(values), np.atleast_1d(targets)
    n = values.shape[-1]
    if n == 0:
        raise ValueError("prediction errors need at least one point")
    if targets.shape[-1] != n:
        raise DimensionMismatch("values vs targets", n, targets.shape[-1])
    if metric == "mse":
        return np.square(values - targets).mean(axis=-1)
    if metric != "zero-one":
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    check_sign_labels(targets)
    return (np.where(values >= 0, 1.0, -1.0) != targets).mean(axis=-1)
