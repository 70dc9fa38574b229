"""Synthetic generators, CSV ingestion, splits, and classification error.

Generators are pure functions of their parameters and seed (Philox
streams, see :mod:`sgdlsq.rng`).
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyDataError,
    NonNumericError,
    RaggedRowError,
)
from .rng import make_rng
from .spaces import HypothesisVector, predict


@dataclass(frozen=True)
class Sample:
    """Ordered (x, y) pairs. ``x`` has shape (m,) or (m, d)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.shape[0] == 0:
            raise ValueError("a sample must contain at least one point")
        if self.x.shape[0] != self.y.shape[0]:
            raise DimensionMismatch("inputs vs targets", self.x.shape[0], self.y.shape[0])
        if not (np.all(np.isfinite(self.x)) and np.all(np.isfinite(self.y))):
            raise ValueError("sample entries must be finite")

    @property
    def m(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return 1 if self.x.ndim == 1 else self.x.shape[1]


def _freeze(arr):
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def abs_target(x):
    """The kinked regression target f(x) = |x - 1/2| - 1/2 on [0, 1]."""
    return np.abs(np.asarray(x, dtype=np.float64) - 0.5) - 0.5


def gen_synthetic_abs(m: int, seed: int, noise_sd: float = 1.0) -> Sample:
    """x uniform on [0, 1], y = |x - 1/2| - 1/2 plus centered Gaussian noise."""
    if m < 1:
        raise ValueError(f"sample size must be >= 1, got {m}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be >= 0, got {noise_sd}")
    rng = make_rng(seed)
    x = rng.random(m)
    y = abs_target(x)
    if noise_sd > 0:
        y = y + noise_sd * rng.standard_normal(m)
    return Sample(x=_freeze(x), y=_freeze(y))


def gen_linear_attainable(m: int, d: int, w_star, noise_sd: float, seed: int):
    """Noisy linear targets y = <w_star, x> + eps with bounded inputs.

    Inputs are standard normals, each point with norm above 1 rescaled
    back onto the unit sphere, so the input-norm bound holds with
    kappa = 1. Returns ``(sample, w_star)``; the ground truth is handed
    back for norm-error checks.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    w = np.asarray(w_star, dtype=np.float64).reshape(-1)
    if w.shape[0] != d:
        raise DimensionMismatch("w_star vs dimension", d, w.shape[0])
    rng = make_rng(seed)
    x = rng.standard_normal((m, d))
    norms = np.linalg.norm(x, axis=1)
    over = norms > 1.0
    x[over] /= norms[over, None]
    y = x @ w
    if noise_sd > 0:
        y = y + noise_sd * rng.standard_normal(m)
    return Sample(x=_freeze(x), y=_freeze(y)), _freeze(w)


def load_csv(path) -> Sample:
    """Read a sample from a CSV file with header ``x1,...,xd,y``.

    Raises a distinct structured error (with the path and the 1-based
    line number) for an empty file, a ragged row, or a non-numeric cell.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDataError("file is empty", 1, path) from None
        header = [h.strip() for h in header]
        d = len(header) - 1
        expected = [f"x{i}" for i in range(1, d + 1)] + ["y"]
        if d < 1 or header != expected:
            raise NonNumericError(
                f"header must be x1,...,xd,y; got {','.join(header)}", 1, path
            )
        xs, ys = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) == 0:
                continue
            if len(row) != d + 1:
                raise RaggedRowError(
                    f"expected {d + 1} cells, found {len(row)}", line_no, path
                )
            try:
                vals = [float(c) for c in row]
            except ValueError:
                bad = next(c for c in row if not _is_float(c))
                raise NonNumericError(f"non-numeric cell {bad!r}", line_no, path) from None
            xs.append(vals[:-1])
            ys.append(vals[-1])
    if not xs:
        raise EmptyDataError("no data rows", 2, path)
    x = np.asarray(xs, dtype=np.float64)
    if d == 1:
        x = x[:, 0]
    return Sample(x=_freeze(x), y=_freeze(ys))


def _is_float(cell):
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_csv(sample: Sample, path) -> None:
    """Write a sample back in the ``x1,...,xd,y`` format read by load_csv."""
    x = sample.x[:, None] if sample.x.ndim == 1 else sample.x
    d = x.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(1, d + 1)] + ["y"])
        for row, target in zip(x, sample.y):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(target))])


def split(sample: Sample, fractions, seed: int):
    """Seeded permutation partition of a sample.

    Sizes follow floor-then-distribute: each split gets
    floor(fraction * m) rows, then leftover rows are assigned one at a
    time in declared order. The splits are disjoint and their union is
    the sample.
    """
    fracs = np.asarray(fractions, dtype=np.float64)
    if not np.all(np.isfinite(fracs)):
        raise ValueError(f"fractions must be finite, got {', '.join(map(str, fracs))}")
    if np.any(fracs < 0):
        raise ValueError("fractions must be nonnegative")
    if abs(float(np.sum(fracs)) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {float(np.sum(fracs))}")
    m = sample.m
    sizes = [int(np.floor(f * m)) for f in fracs]
    leftover = m - sum(sizes)
    i = 0
    while leftover > 0:
        sizes[i % len(sizes)] += 1
        leftover -= 1
        i += 1
    perm = make_rng(seed).permutation(m)
    out = []
    start = 0
    for size in sizes:
        idx = np.sort(perm[start : start + size])
        start += size
        out.append(Sample(x=_freeze(sample.x[idx]), y=_freeze(sample.y[idx])) if size else None)
    return tuple(out)


def check_sign_labels(labels) -> None:
    """Raise ``ValueError`` naming the first label that is not -1 or +1."""
    if not np.all(np.isin(labels, (-1.0, 1.0))):
        bad = labels[~np.isin(labels, (-1.0, 1.0))][0]
        raise ValueError(f"labels must be in {{-1, +1}}, found {bad}")


def misclassification(h: HypothesisVector, sample: Sample) -> float:
    """Fraction of sign disagreements on +/-1 labels; sign(0) counts as +1."""
    labels = sample.y
    check_sign_labels(labels)
    preds = predict(h, sample.x)
    signs = np.where(preds >= 0, 1.0, -1.0)
    return float(np.mean(signs != labels))


def minmax_scale(sample: Sample, lo=None, hi=None):
    """Scale features to [0, 1] columnwise; constant columns map to 0.

    Returns ``(scaled_sample, constants)`` where constants records the
    per-column minima and maxima used (reusable for a test split).
    """
    x = sample.x[:, None] if sample.x.ndim == 1 else sample.x
    if lo is None:
        lo = x.min(axis=0)
        hi = x.max(axis=0)
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    span = np.where(hi > lo, hi - lo, 1.0)
    scaled = np.clip((x - lo) / span, 0.0, 1.0)
    if sample.x.ndim == 1:
        scaled = scaled[:, 0]
    return Sample(x=_freeze(scaled), y=sample.y), {"lo": lo.tolist(), "hi": hi.tolist()}
