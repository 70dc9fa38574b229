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

Kernel matrices are written in place into their result, one tile at a
time, with each formula's operations in the textbook order, so no
entry depends on the tiling. A Gram matrix computes only the tiles on
and above its diagonal and mirrors them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import KernelDomainError

KINDS = ("gaussian", "sobolev", "linear")

_SOBOLEV_SLACK = 1e-12

# kernel matrices are filled in blocks of this many rows (and, for a Gram,
# columns), which keeps the elementwise passes and the temporaries in cache
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
            if self.sigma is None or not np.isfinite(self.sigma) or self.sigma <= 0:
                raise ValueError(f"gaussian kernel needs a finite bandwidth sigma > 0, got {self.sigma}")
        elif self.sigma is not None:
            raise ValueError(f"{self.kind} kernel takes no bandwidth")

    def label(self) -> str:
        if self.kind == "gaussian":
            return f"gaussian(sigma={self.sigma})"
        return self.kind


def _as_points(x):
    """Normalize a point collection to shape (n,) for scalars or (n, d)."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim > 2:
        raise ValueError(f"points must be at most 2-dimensional, got shape {arr.shape}")
    return arr


def _check_sobolev_domain(arr):
    lo, hi = float(np.min(arr)), float(np.max(arr))
    if lo < -_SOBOLEV_SLACK or hi > 1.0 + _SOBOLEV_SLACK:
        raise KernelDomainError(
            f"sobolev kernel is defined on [0, 1]; got values in [{lo:.6g}, {hi:.6g}]"
        )


def _operands(spec, xs, anchors):
    """``xs`` and ``anchors`` in the shapes the kernel's formula reads,
    after its dimension and domain checks. 2-D results take the
    inner-product path (``a @ b.T``), 1-D ones the elementwise path."""
    xs = _as_points(xs)
    anchors = _as_points(anchors)
    if spec.kind == "gaussian":
        if xs.ndim == 1 and anchors.ndim == 1:
            return xs, anchors
        a = np.atleast_2d(xs) if xs.ndim == 1 else xs
        b = np.atleast_2d(anchors) if anchors.ndim == 1 else anchors
        if a.ndim == 1 or b.ndim == 1 or a.shape[1] != b.shape[1]:
            raise ValueError(
                f"gaussian kernel inputs disagree in dimension: {xs.shape} vs {anchors.shape}"
            )
        return a, b
    if spec.kind == "sobolev":
        if xs.ndim != 1 or anchors.ndim != 1:
            raise KernelDomainError("sobolev kernel takes scalar inputs")
        _check_sobolev_domain(xs)
        _check_sobolev_domain(anchors)
        return xs, anchors
    # linear
    a = xs[:, None] if xs.ndim == 1 else xs
    b = anchors[:, None] if anchors.ndim == 1 else anchors
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"linear kernel inputs disagree in dimension: {xs.shape} vs {anchors.shape}")
    return a, b


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


def _fill(spec, out, a, b, norms, rows, cols):
    """Turn ``out[rows, cols]`` into K(a[rows], b[cols]) in place.

    The arithmetic is the textbook expression's, in its order, so the
    values do not depend on the block: exp(-(x - y)^2 / (2 sigma^2)),
    exp(-max((|a|^2 + |b|^2) - 2 <a, b>, 0) / (2 sigma^2)),
    min(x, y) * (1 - max(x, y)), and <a, b> as the buffer holds it.
    """
    blk = out[rows, cols]
    if spec.kind == "gaussian":
        if norms is None:
            np.subtract.outer(a[rows], b[cols], out=blk)
            np.square(blk, out=blk)
        else:
            # x + (-2g) is x - 2g exactly
            blk *= -2.0
            blk += np.add.outer(norms[0][rows], norms[1][cols])
            np.maximum(blk, 0.0, out=blk)
        np.negative(blk, out=blk)
        blk /= 2.0 * spec.sigma**2
        np.exp(blk, out=blk)
    elif spec.kind == "sobolev":
        np.maximum.outer(a[rows], b[cols], out=blk)
        np.subtract(1.0, blk, out=blk)
        blk *= np.minimum.outer(a[rows], b[cols])


def _upper_tiles(n):
    """(rows, cols) slices of the square tiles on and above the diagonal
    of an n x n matrix."""
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def cross_matrix(spec: KernelSpec, xs, anchors) -> np.ndarray:
    """Matrix of kernel values K(xs[i], anchors[j]), shape (len(xs), len(anchors)).

    Written in place into the result in row tiles, so no temporary is
    larger than one tile.
    """
    a, b = _operands(spec, xs, anchors)
    out, norms = _buffer(spec, a, b)
    for i in range(0, a.shape[0], _TILE):
        _fill(spec, out, a, b, norms, slice(i, i + _TILE), slice(None))
    return out


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric kernel matrix.

    :func:`build_gram` makes it symmetric by construction: it computes
    the tiles on and above the diagonal and mirrors each into the lower
    triangle.
    """

    values: np.ndarray

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def max_asymmetry(self) -> float:
        """max |K_ij - K_ji|, taken tile by tile."""
        g = self.values
        return max(float(np.max(np.abs(g[r, c] - g[c, r].T))) for r, c in _upper_tiles(self.n))


# Grams up to this size get an automatic full eigenvalue check at build
# time; larger ones only on request (the check is O(n^3)).
_AUTO_PSD_LIMIT = 256

_PSD_TOL = 1e-8


def build_gram(spec: KernelSpec, points, check_psd=None) -> GramMatrix:
    """Gram matrix of ``points`` under ``spec``.

    Symmetric by construction: the tiles on and above the diagonal are
    computed in place, as :func:`cross_matrix` computes them, and each is
    mirrored into the lower triangle, so half the kernel values are
    evaluated. On the inner-product paths (d-dimensional gaussian, linear)
    every tile reads one ``points @ points.T`` product, which is also the
    output buffer.

    Parameters
    ----------
    points : array-like, shape (n,) or (n, d)
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
    a, _ = _operands(spec, pts, pts)
    k, norms = _buffer(spec, a, a)
    for rows, cols in _upper_tiles(n):
        _fill(spec, k, a, a, norms, rows, cols)
        if rows != cols:
            k[cols, rows] = k[rows, cols].T
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
    pts = _as_points(points)
    if pts.ndim == 1:
        return float(np.max(pts**2))
    return float(np.max(np.sum(pts**2, axis=1)))
