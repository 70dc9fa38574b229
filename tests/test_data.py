import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdlsq import (
    EmptyDataError,
    NonNumericError,
    RaggedRowError,
    Sample,
    Trajectory,
    abs_target,
    gen_linear_attainable,
    gen_synthetic_abs,
    load_csv,
    minmax_scale,
    predict,
    prediction_errors,
    save_csv,
    split,
)


class TestAbsTarget:
    def test_endpoints_and_kink(self):
        # f(x) = |x - 1/2| - 1/2 vanishes at both endpoints; the kink
        # value at x = 1/2 is -1/2
        assert abs_target(0.0) == 0.0
        assert abs_target(1.0) == 0.0
        assert abs_target(0.5) == -0.5
        assert abs_target(0.25) == -0.25


class TestGenSyntheticAbs:
    def test_noiseless_matches_target(self):
        s = gen_synthetic_abs(200, seed=3, noise_sd=0.0)
        np.testing.assert_array_equal(s.y, abs_target(s.x))

    def test_deterministic_per_seed(self):
        a = gen_synthetic_abs(50, seed=42)
        b = gen_synthetic_abs(50, seed=42)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        c = gen_synthetic_abs(50, seed=43)
        assert not np.array_equal(a.x, c.x)

    def test_inputs_in_unit_interval(self):
        s = gen_synthetic_abs(1000, seed=0)
        assert s.x.min() >= 0.0 and s.x.max() <= 1.0

    def test_defaults(self):
        s = gen_synthetic_abs(100, seed=1)
        assert s.m == 100


class TestGenLinearAttainable:
    def test_zero_truth_zero_targets(self):
        s, w = gen_linear_attainable(30, 2, [0.0, 0.0], noise_sd=0.0, seed=5)
        np.testing.assert_array_equal(s.y, np.zeros(30))

    def test_hand_dot_product(self):
        # y = <w, x> for w = (1, -1), x = (0.3, 0.1) -> 0.2
        w = np.array([1.0, -1.0])
        assert float(np.array([0.3, 0.1]) @ w) == pytest.approx(0.2)

    def test_norm_cap(self):
        s, _ = gen_linear_attainable(500, 4, [1, 0, 0, 0], noise_sd=0.0, seed=9)
        norms = np.linalg.norm(s.x, axis=1)
        assert norms.max() <= 1.0 + 1e-12

    def test_least_squares_recovers_truth(self):
        """Normal-equations oracle: a noiseless linear system with
        m >= 2d pins down the generator's ground truth."""
        w_true = np.array([0.5, -1.2, 0.3])
        s, w = gen_linear_attainable(40, 3, w_true, noise_sd=0.0, seed=7)
        w_hat, *_ = np.linalg.lstsq(s.x, s.y, rcond=None)
        np.testing.assert_allclose(w_hat, w_true, atol=1e-8)
        np.testing.assert_array_equal(w, w_true)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        s, _ = gen_linear_attainable(12, 3, [1.0, 2.0, -0.5], noise_sd=0.3, seed=2)
        path = tmp_path / "sample.csv"
        save_csv(s, path)
        loaded = load_csv(path)
        np.testing.assert_array_equal(loaded.x, s.x)
        np.testing.assert_array_equal(loaded.y, s.y)

    def test_scalar_round_trip(self, tmp_path):
        s = gen_synthetic_abs(9, seed=4)
        path = tmp_path / "s.csv"
        save_csv(s, path)
        loaded = load_csv(path)
        assert loaded.x.ndim == 1
        np.testing.assert_array_equal(loaded.x, s.x)

    def test_byte_order_mark(self, tmp_path):
        """A "CSV UTF-8" file as spreadsheets save it, which opens with a
        UTF-8 byte-order mark, loads the sample of the file without."""
        s, _ = gen_linear_attainable(12, 2, [1.0, -0.5], noise_sd=0.3, seed=5)
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        save_csv(s, plain)
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, got = load_csv(plain), load_csv(bom)
        np.testing.assert_array_equal(got.x, want.x)
        np.testing.assert_array_equal(got.y, want.y)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(EmptyDataError) as err:
            load_csv(path)
        assert err.value.line_no == 1

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("x1,y\n")
        with pytest.raises(EmptyDataError):
            load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("x1,x2,y\n1,2,3\n1,2\n")
        with pytest.raises(RaggedRowError) as err:
            load_csv(path)
        assert err.value.line_no == 3

    def test_non_numeric_cell(self, tmp_path):
        path = tmp_path / "n.csv"
        path.write_text("x1,y\n1,2\nfoo,3\n")
        with pytest.raises(NonNumericError) as err:
            load_csv(path)
        assert err.value.line_no == 3

    def test_bad_header(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(NonNumericError) as err:
            load_csv(path)
        assert err.value.line_no == 1


# cells float() reads beyond plain decimals
_ODD_CELLS = [("1_0", 10.0), ("\xa02.5", 2.5), ("+4e0", 4.0), ('"3"', 3.0)]
# cells float() refuses, and the non-finite cells it reads
_BAD_CELLS = ["abc", "", "1.5.2", '"1,5"', "1 2", "\x1c1.5", "nan1", "nan", "inf", "-inf", "1e999"]


@st.composite
def _csv_files(draw):
    """(text, expected): a CSV with header x1,...,xd,y and its sample as
    (x, y) arrays, or (error class, line number) of its first bad line."""
    d = draw(st.integers(1, 3))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    lines, values, bad = [",".join([f"x{i}" for i in range(1, d + 1)] + ["y"])], [], None
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 4)) == 0:
            lines.append("")
            continue
        cells, row = [], []
        for _ in range(d + 1):
            if draw(st.integers(0, 5)) == 0:
                text, val = draw(st.sampled_from(_ODD_CELLS))
            else:
                val = draw(st.floats(allow_nan=False, allow_infinity=False))
                text = draw(st.sampled_from(["{}", '"{}"', " {} ", "\t{}"])).format(repr(val))
            cells.append(text)
            row.append(val)
        fault = draw(st.sampled_from([None] * 8 + ["ragged", "extra", "cell"]))
        if fault == "ragged":
            cells.pop()
        elif fault == "extra":
            cells.append("1")
        elif fault == "cell":
            cells[draw(st.integers(0, d))] = draw(st.sampled_from(_BAD_CELLS))
        if fault and bad is None:
            kind = NonNumericError if fault == "cell" else RaggedRowError
            bad = kind, len(lines) + 1
        lines.append(",".join(cells))
        values.append(row)
    text = eol.join(lines) + draw(st.sampled_from(["", eol]))
    if bad is None and not values:
        bad = EmptyDataError, 2
    if bad is not None:
        return text, bad
    block = np.array(values)
    return text, (block[:, 0] if d == 1 else block[:, :-1], block[:, -1])


def _outcome(path):
    try:
        sample = load_csv(path)
    except (EmptyDataError, NonNumericError, RaggedRowError) as exc:
        return type(exc), exc.line_no
    return sample.x, sample.y


class TestCsvBody:
    """load_csv reads every cell with float(): the sample, or the error
    class and line of the first bad row, is the one the file spells."""

    @settings(max_examples=300, deadline=None)
    @given(case=_csv_files())
    def test_sample_or_error_of_the_file(self, tmp_path_factory, case):
        text, want = case
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(path)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert all(isinstance(a, np.ndarray) for a in got)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert a.flags.c_contiguous and not a.flags.writeable

    def test_keeps_no_python_float_per_cell(self, tmp_path):
        """20000 rows of 3 cells: the 0.48 MB of cells, their growth
        slack and the frozen copies of x and y peak at 1.02 MB traced,
        where a list of Python floats per row took 4.2 MB."""
        s, _ = gen_linear_attainable(20000, 2, [1.0, -1.0], noise_sd=0.3, seed=6)
        path = tmp_path / "s.csv"
        save_csv(s, path)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            loaded = load_csv(path)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.x, s.x)
        np.testing.assert_array_equal(loaded.y, s.y)
        assert peak <= 1_300_000


class TestSplit:
    @pytest.fixture
    def sample(self):
        return gen_synthetic_abs(10, seed=11)

    def test_whole_sample_split(self, sample):
        train, val, test = split(sample, (1.0, 0.0, 0.0), seed=0)
        assert train.m == 10 and val is None and test is None

    def test_floor_then_distribute(self, sample):
        train, val, test = split(sample, (0.8, 0.1, 0.1), seed=0)
        assert (train.m, val.m, test.m) == (8, 1, 1)

    def test_deterministic(self, sample):
        a = split(sample, (0.5, 0.3, 0.2), seed=21)
        b = split(sample, (0.5, 0.3, 0.2), seed=21)
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa.x, pb.x)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 200])
    @pytest.mark.parametrize("fracs", [(0.8, 0.1, 0.1), (0.5, 0.5, 0.0), (1 / 3, 1 / 3, 1 / 3)])
    def test_partition_property(self, n, fracs):
        s = gen_synthetic_abs(n, seed=n)
        parts = split(s, fracs, seed=1)
        sizes = [0 if p is None else p.m for p in parts]
        assert sum(sizes) == n
        floors = [int(np.floor(f * n)) for f in fracs]
        assert all(got >= fl for got, fl in zip(sizes, floors))
        xs = np.concatenate([p.x for p in parts if p is not None])
        assert sorted(xs.tolist()) == sorted(s.x.tolist())

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(1, 300),
           weights=st.lists(st.integers(0, 20), min_size=1, max_size=4).filter(any),
           seed=st.integers(0, 2**63))
    def test_split_properties(self, n, weights, seed):
        """On rows tagged by position: the splits are disjoint and their
        union is the sample, their sizes are floor(f m) then one leftover
        row at a time in declared order, each keeps the sample's row order
        and whole rows, and the same seed gives the same split."""
        fracs = [w / sum(weights) for w in weights]
        tags = np.arange(n, dtype=np.float64)
        sample = Sample(np.column_stack([tags, np.sin(tags)]), -tags)
        parts = split(sample, fracs, seed=seed)
        sizes = [math.floor(f * n) for f in fracs]
        for i in range(n - sum(sizes)):
            sizes[i % len(sizes)] += 1
        assert [0 if p is None else p.m for p in parts] == sizes
        kept = [p for p in parts if p is not None]
        for p in kept:
            rows = p.x[:, 0]
            assert np.all(np.diff(rows) > 0)
            np.testing.assert_array_equal(p.x[:, 1], np.sin(rows))
            np.testing.assert_array_equal(p.y, -rows)
        every = np.concatenate([p.x[:, 0] for p in kept])
        assert len(set(every.tolist())) == len(every) == n
        again = split(sample, fracs, seed=seed)
        assert [p is None for p in again] == [p is None for p in parts]
        for p, q in zip(kept, [q for q in again if q is not None]):
            np.testing.assert_array_equal(p.x, q.x)
            np.testing.assert_array_equal(p.y, q.y)

    def test_bad_fractions(self, sample):
        with pytest.raises(ValueError):
            split(sample, (0.5, 0.6, 0.1), seed=0)
        with pytest.raises(ValueError):
            split(sample, (-0.1, 1.1, 0.0), seed=0)


def _vec(coords):
    """One euclidean hypothesis: a one-checkpoint trajectory."""
    return Trajectory((0,), [coords])


def _zero_one(h, sample):
    """Share of sign mismatches of each checkpoint of ``h`` on ``sample``."""
    return prediction_errors(predict(h, sample.x), sample.y, "zero-one")


class TestMisclassification:
    def test_perfect_separator(self):
        s = Sample(x=np.array([[1.0], [-1.0]]), y=np.array([1.0, -1.0]))
        assert _zero_one(_vec([1.0]), s)[0] == 0.0

    def test_zero_hypothesis_predicts_plus_one(self):
        s = Sample(x=np.array([[0.5], [0.5]]), y=np.array([1.0, -1.0]))
        assert _zero_one(_vec([0.0]), s)[0] == 0.5

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 2))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        h = _vec(rng.standard_normal(2))
        e = _zero_one(h, Sample(x=x, y=y))[0]
        e_flipped = _zero_one(h, Sample(x=x, y=-y))[0]
        assert e + e_flipped == pytest.approx(1.0)

    def test_bad_label_rejected(self):
        s = Sample(x=np.array([[1.0]]), y=np.array([0.5]))
        with pytest.raises(ValueError):
            _zero_one(_vec([0.0]), s)


class TestMinMaxScale:
    def test_unit_range_and_constants(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 3)) * 5 + 2
        s = Sample(x=x, y=np.ones(30))
        scaled, consts = minmax_scale(s)
        assert scaled.x.min() >= 0.0 and scaled.x.max() <= 1.0
        np.testing.assert_allclose(consts["lo"], x.min(axis=0))
        # reusing the recorded constants reproduces the transform
        again, _ = minmax_scale(s, lo=consts["lo"], hi=consts["hi"])
        np.testing.assert_array_equal(again.x, scaled.x)

    def test_constant_column(self):
        x = np.column_stack([np.ones(5), np.arange(5.0)])
        scaled, _ = minmax_scale(Sample(x=x, y=np.ones(5)))
        np.testing.assert_array_equal(scaled.x[:, 0], np.zeros(5))
