"""Kernels, Gram matrices, and the input-norm bound constant.

Three kernels cover every experiment in the package:

* ``gaussian``: K(x, x') = exp(-||x - x'||^2 / (2 sigma^2)), any dimension.
* ``sobolev``: K(x, y) = min(x, y) * (1 - max(x, y)) on [0, 1], scalar
  inputs only (first-order spline kernel vanishing at both endpoints).
* ``linear``: K(x, x') = <x, x'>, which realizes the plain Euclidean
  hypothesis space through the kernel interface.

``kappa_sq`` is the uniform bound on K(x, x) used to normalize step
sizes. For gaussian and sobolev it is the analytic supremum (1 and 1/4),
not a data estimate, so step-size normalization carries no sampling
noise.

Points are read as :func:`~sgdlsq.data._as_points` reads them, so an
(n,) array and an (n, 1) array are the same n scalar points and give the
same bits; both operands must share their dimension d. Gaussian and
sobolev kernels on d = 1 take the elementwise path, on the points' one
column; a gaussian kernel on d > 1 and the linear kernel on any d take
the inner-product path, through ``a @ b.T``.

Kernel matrices are written in place into their result, one row tile
of at most ``_TILE`` rows and ``_TILE**2`` floats at a time, with each
formula's operations in the textbook order, so no entry depends on the
tiling. A Gram matrix is :func:`cross_matrix` of its points with
themselves, and exactly symmetric: each formula is symmetric in its two
operands ((x - y)^2 = (y - x)^2, min and max), and ``a @ a.T`` of one
buffer runs as syrk.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .data import _as_points
from .errors import KernelDomainError

KINDS = ("gaussian", "sobolev", "linear")

_SOBOLEV_SLACK = 1e-12

# kernel matrices are filled in blocks of at most this many rows and its
# square of floats, which keeps the elementwise passes and the temporaries
# in cache
_TILE = 256


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus its bandwidth, if any."""

    kind: str
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kernel kind {self.kind!r}, expected one of {KINDS}")
        if self.kind == "gaussian":
            # the formula divides by 2 sigma^2, which must be a normal positive
            # finite float: a subnormal one overflows the division
            s = self.sigma
            if s is None or not (s > 0 and sys.float_info.min <= 2.0 * float(s) * float(s)
                                 < math.inf):
                raise ValueError(f"gaussian kernel needs a bandwidth sigma > 0 whose 2 sigma^2 "
                                 f"is a normal positive finite float, got sigma={self.sigma}")
        elif self.sigma is not None:
            raise ValueError(f"{self.kind} kernel takes no bandwidth")

    def label(self) -> str:
        if self.kind == "gaussian":
            return f"gaussian(sigma={self.sigma})"
        return self.kind


def _check_sobolev_domain(arr):
    lo, hi = float(np.min(arr)), float(np.max(arr))
    if lo < -_SOBOLEV_SLACK or hi > 1.0 + _SOBOLEV_SLACK:
        raise KernelDomainError(
            f"sobolev kernel is defined on [0, 1]; got values in [{lo:.6g}, {hi:.6g}]"
        )


def _operands(spec, xs, anchors):
    """``xs`` and ``anchors`` in the shapes the kernel's formula reads,
    after its dimension and domain checks: both as (n, d) points
    (:func:`~sgdlsq.data._as_points`) of one width d, and for gaussian
    and sobolev with d = 1 as their (n,) columns. 2-D results take the
    inner-product path (``a @ b.T``), 1-D ones the elementwise path."""
    a, b = _as_points(xs), _as_points(anchors)
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"{spec.kind} kernel inputs disagree in dimension: "
                         f"{a.shape} vs {b.shape}")
    if spec.kind == "sobolev":
        if a.shape[1] != 1:
            raise KernelDomainError("sobolev kernel takes scalar inputs")
        _check_sobolev_domain(a)
        _check_sobolev_domain(b)
    if spec.kind == "linear" or a.shape[1] > 1:
        return a, b
    return a[:, 0], b[:, 0]


def _buffer(spec, a, b):
    """The output buffer and the squared row norms of ``a`` and ``b``.

    On the inner-product path the buffer already holds ``a @ b.T`` (for
    ``a is b`` numpy computes it by syrk, so it is exactly symmetric) and
    the norms are returned for the gaussian kernel; otherwise they are None.
    """
    if a.ndim == 1:
        return np.empty((a.shape[0], b.shape[0])), None
    if spec.kind == "gaussian":
        return a @ b.T, (np.sum(a**2, axis=1), np.sum(b**2, axis=1))
    return a @ b.T, None


def _fill(spec, out, a, b, norms, rows):
    """Turn ``out[rows]`` into K(a[rows], b) in place.

    The arithmetic is the textbook expression's, in its order, so the
    values do not depend on the block: exp(-(x - y)^2 / (2 sigma^2)),
    exp(-max((|a|^2 + |b|^2) - 2 <a, b>, 0) / (2 sigma^2)),
    min(x, y) * (1 - max(x, y)), and <a, b> as the buffer holds it.
    """
    blk = out[rows]
    if spec.kind == "gaussian":
        if norms is None:
            np.subtract.outer(a[rows], b, out=blk)
            np.square(blk, out=blk)
        else:
            # x + (-2g) is x - 2g exactly
            blk *= -2.0
            blk += np.add.outer(norms[0][rows], norms[1])
            np.maximum(blk, 0.0, out=blk)
        # x / -c is -(x / c) exactly
        blk /= -(2.0 * spec.sigma**2)
        np.exp(blk, out=blk)
    elif spec.kind == "sobolev":
        np.maximum.outer(a[rows], b, out=blk)
        np.subtract(1.0, blk, out=blk)
        blk *= np.minimum.outer(a[rows], b)


def cross_matrix(spec: KernelSpec, xs, anchors) -> np.ndarray:
    """Matrix of kernel values K(xs[i], anchors[j]), shape (len(xs), len(anchors)).

    Written in place into the result in row tiles of at most ``_TILE``
    rows and ``_TILE**2`` floats (one row where a row is longer), so no
    temporary is larger than one tile.
    """
    a, b = _operands(spec, xs, anchors)
    out, norms = _buffer(spec, a, b)
    rows = min(_TILE, max(1, _TILE * _TILE // max(1, b.shape[0])))
    for i in range(0, a.shape[0], rows):
        _fill(spec, out, a, b, norms, slice(i, i + rows))
    return out


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric kernel matrix, as :func:`build_gram` makes it:
    :func:`cross_matrix` of the points with themselves."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]


# Grams up to this size get an automatic full eigenvalue check at build
# time; larger ones only on request (the check is O(n^3)).
_AUTO_PSD_LIMIT = 256

_PSD_TOL = 1e-8


def build_gram(spec: KernelSpec, points, check_psd=None) -> GramMatrix:
    """Gram matrix of ``points`` under ``spec``.

    Its values are ``cross_matrix(spec, points, points)``, exactly
    symmetric, since each formula is symmetric in its operands and, on
    the inner-product paths (gaussian with d > 1, linear), the one
    ``points @ points.T`` product runs as syrk.

    Parameters
    ----------
    points : array-like, shape (n,) or (n, d); (n,) is (n, 1)
    check_psd : bool or None
        Force or skip the eigenvalue positivity check. ``None`` checks
        automatically for n <= 256.

    Raises
    ------
    ValueError
        Empty point list, a diagonal above the kernel bound, or (when
        checked) an eigenvalue below ``-1e-8 * max(diag)``.
    """
    pts = _as_points(points)
    n = pts.shape[0]
    if n == 0:
        raise ValueError("cannot build a Gram matrix from an empty point list")
    k = cross_matrix(spec, pts, pts)
    bound = kappa_sq(spec, pts)
    max_diag = float(np.max(np.diag(k)))
    if max_diag > bound * (1.0 + 1e-12) + 1e-15:
        raise ValueError(f"Gram diagonal {max_diag} exceeds kernel bound {bound}")
    if check_psd is None:
        check_psd = n <= _AUTO_PSD_LIMIT
    if check_psd:
        min_eig = float(np.linalg.eigvalsh(k)[0])
        if min_eig < -_PSD_TOL * max(max_diag, 1e-300):
            raise ValueError(
                f"Gram matrix is not positive semi-definite: min eigenvalue {min_eig}"
            )
    return GramMatrix(values=k)


def kappa_sq(spec: KernelSpec, points=None) -> float:
    """Upper bound on K(x, x) over the kernel's domain.

    gaussian -> 1, sobolev -> 1/4 (analytic suprema). The linear kernel
    has no domain-wide bound, so the supremum is taken over ``points``,
    which are then required.
    """
    if spec.kind == "gaussian":
        return 1.0
    if spec.kind == "sobolev":
        return 0.25
    if points is None:
        raise ValueError("kappa_sq for the linear kernel needs the point set")
    return float(np.max(kernel_diagonal(spec, points)))


def kernel_diagonal(spec: KernelSpec, points) -> np.ndarray:
    """K(x_i, x_i) for each point, by the kernel's formula: 1 (gaussian),
    (1 - x) x (sobolev), |x|^2 (linear). On scalar points it equals the
    diagonal of :func:`build_gram` bit for bit; on the gaussian
    inner-product path the Gram's diagonal is 1 only to rounding."""
    a, _ = _operands(spec, points, points)
    if spec.kind == "gaussian":
        return np.ones(a.shape[0])
    if spec.kind == "sobolev":
        return (1.0 - a) * a
    return np.sum(a**2, axis=1)
