"""Hypothesis-space elements over two interchangeable backends.

A hypothesis is either an explicit coordinate vector in R^d
(``euclidean`` backend) or a kernel expansion sum_j alpha_j K(x_j, .)
over a fixed anchor set (``kernel`` backend). Iterates produced by the
gradient methods live in the span of their training points, so kernel
coefficient vectors always have one entry per anchor; population
iterates use the surrogate anchor set instead.

Quantities that compare hypotheses from different anchor sets (for
example a training-set expansion against a surrogate-set expansion) must
be computed through point evaluations, never by subtracting coefficient
vectors; see :mod:`sgdlsq.decomposition`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .kernels import _TILE, KernelSpec, build_gram, cross_matrix, kernel_diagonal


# Most floats in one tile of K that AnchorSet.gram_product forms
_PRODUCT_FLOATS = 1 << 17


def _product_tiles(n):
    """Row bounds of the tiles of K that gram_product forms over n
    anchors: the fewest tiles of at most _TILE rows and _PRODUCT_FLOATS
    floats (or one row, where a row is longer), split evenly (31 tiles of
    64 or 65 rows at n = 2000). Even
    tiles leave no sliver of a few rows, whose product a BLAS may hand to
    a small-matrix kernel that rounds differently."""
    count = -(-n // min(_TILE, max(1, _PRODUCT_FLOATS // n)))
    return [i * n // count for i in range(count + 1)]


@dataclass(frozen=True)
class AnchorSet:
    """Ordered anchor points and their kernel.

    The set never changes once made and holds no Gram: :meth:`diagonal`,
    :meth:`row` and :meth:`gram_product` read the kernel, so a low-rank
    factor and the values of an expansion at the anchors need no n x n
    matrix. A run that reads the whole Gram builds it for its own use
    (:func:`~sgdlsq.kernels.build_gram`).
    """

    points: np.ndarray
    kernel: KernelSpec

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("cannot build a Gram matrix from an empty point list")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @classmethod
    def build(cls, kernel: KernelSpec, points, check_psd=None) -> "AnchorSet":
        """The anchor set of ``points`` after the checks of
        :func:`~sgdlsq.kernels.build_gram`; the Gram they build is not kept."""
        anchors = cls.lazy(kernel, points)
        build_gram(kernel, anchors.points, check_psd=check_psd)
        return anchors

    @classmethod
    def lazy(cls, kernel: KernelSpec, points) -> "AnchorSet":
        """The anchor set of ``points``, with no check of their Gram."""
        pts = np.array(points, dtype=np.float64)
        pts.setflags(write=False)
        return cls(points=pts, kernel=kernel)

    def diagonal(self) -> np.ndarray:
        """K(x_i, x_i) for each anchor (:func:`~sgdlsq.kernels.kernel_diagonal`)."""
        return kernel_diagonal(self.kernel, self.points)

    def row(self, i: int) -> np.ndarray:
        """K(x_i, x_j) over every anchor j: one cross-matrix row (on scalar
        inputs the Gram's row bit for bit)."""
        return cross_matrix(self.kernel, self.points[i:i + 1], self.points)[0]

    def gram_product(self, coeffs) -> np.ndarray:
        """Row i is K @ coeffs[i], (n_cp, n): the values at the anchors of
        each expansion. K is formed one tile at a time
        (:func:`_product_tiles`), and each tile takes one matrix-vector
        product per row of ``coeffs``, as
        :meth:`~sgdlsq.iterations.Trajectory.values` forms them, so each
        value is summed whole by one thread, at one BLAS thread as at two.
        The scratch is O(_PRODUCT_FLOATS + n_cp n)."""
        out = np.empty((len(coeffs), self.n))
        bounds = _product_tiles(self.n)
        for lo, hi in zip(bounds, bounds[1:]):  # one expression keeps one tile alive
            out[:, lo:hi] = np.matmul(cross_matrix(self.kernel, self.points[lo:hi], self.points),
                                      coeffs[:, :, None])[..., 0]
        return out


@dataclass(frozen=True)
class HypothesisVector:
    """One element of the hypothesis space.

    ``coeffs`` holds coordinates (euclidean, ``anchors`` None) or
    expansion coefficients (kernel, one per anchor). All entries are
    finite; the zero vector is the zero element exactly.
    """

    coeffs: np.ndarray
    anchors: AnchorSet | None = None

    def __post_init__(self):
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("hypothesis coefficients must be finite")
        if self.anchors is not None and self.coeffs.shape != (self.anchors.n,):
            raise DimensionMismatch("coefficients vs anchor set", self.anchors.n,
                                    self.coeffs.shape[0])

    @property
    def backend(self) -> str:
        return "euclidean" if self.anchors is None else "kernel"


def euclidean_vector(coords) -> HypothesisVector:
    arr = np.array(coords, dtype=np.float64).reshape(-1)
    arr.setflags(write=False)
    return HypothesisVector(arr)


def kernel_vector(coeffs, anchors: AnchorSet) -> HypothesisVector:
    arr = np.array(coeffs, dtype=np.float64).reshape(-1)
    arr.setflags(write=False)
    return HypothesisVector(arr, anchors)


def feature_matrix(h, xs) -> np.ndarray:
    """The matrix F with ``predict(h, xs) == F @ h.coeffs``: the inputs
    (euclidean) or the cross matrix K(xs, anchors) (kernel). It depends
    only on ``xs`` and the backend, dimension and anchor set of ``h``, so
    ``h`` may also be a :class:`~sgdlsq.iterations.Trajectory`."""
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


def predict(h: HypothesisVector, xs) -> np.ndarray:
    """Evaluations <h, x>_H at each point of ``xs``: a dot product
    (euclidean) or the kernel expansion sum_j alpha_j K(x_j, x). The one
    evaluation path."""
    return feature_matrix(h, xs) @ h.coeffs


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
    The one place either rule is computed."""
    if metric == "mse":
        return np.square(values - targets).mean(axis=-1)
    if metric != "zero-one":
        raise ValueError(f"unknown metric {metric!r}, expected one of {METRICS}")
    check_sign_labels(targets)
    return (np.where(values >= 0, 1.0, -1.0) != targets).mean(axis=-1)


def mean_square_error(h: HypothesisVector, points, targets) -> float:
    """Mean of squared residuals (<h, x_i> - y_i)^2 over a point set."""
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    n_pts = points.shape[0]
    if n_pts == 0:
        raise ValueError("mean_square_error needs at least one point")
    if n_pts != targets.shape[0]:
        raise DimensionMismatch("points vs targets", n_pts, targets.shape[0])
    return float(prediction_errors(predict(h, points), targets))
