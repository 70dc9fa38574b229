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
from .kernels import GramMatrix, KernelSpec, build_gram, cross_matrix


@dataclass(frozen=True)
class AnchorSet:
    """Ordered anchor points plus their Gram matrix."""

    points: np.ndarray
    kernel: KernelSpec
    gram: GramMatrix

    def __post_init__(self):
        for size in self.gram.values.shape:
            if size != self.n:
                raise DimensionMismatch("anchor set vs Gram matrix", self.n, size)
        g = self.gram.values
        scale = max(float(g.max()), -float(g.min()), 1e-300)
        if self.gram.max_asymmetry() > 1e-12 * scale:
            raise ValueError("Gram matrix is not symmetric within tolerance")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @classmethod
    def build(cls, kernel: KernelSpec, points, check_psd=None) -> "AnchorSet":
        pts = np.array(points, dtype=np.float64)
        gram = build_gram(kernel, pts, check_psd=check_psd)
        pts.setflags(write=False)
        return cls(points=pts, kernel=kernel, gram=gram)


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


def mean_square_error(h: HypothesisVector, points, targets) -> float:
    """Mean of squared residuals (<h, x_i> - y_i)^2 over a point set."""
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(-1)
    n_pts = points.shape[0]
    if n_pts == 0:
        raise ValueError("mean_square_error needs at least one point")
    if n_pts != targets.shape[0]:
        raise DimensionMismatch("points vs targets", n_pts, targets.shape[0])
    resid = predict(h, points) - targets
    return float(np.mean(resid**2))
