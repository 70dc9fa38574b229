import numpy as np
import pytest

from sgdlsq import (
    EmptyDataError,
    NonNumericError,
    RaggedRowError,
    Sample,
    abs_target,
    euclidean_vector,
    gen_linear_attainable,
    gen_synthetic_abs,
    load_csv,
    minmax_scale,
    misclassification,
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

    def test_bad_fractions(self, sample):
        with pytest.raises(ValueError):
            split(sample, (0.5, 0.6, 0.1), seed=0)
        with pytest.raises(ValueError):
            split(sample, (-0.1, 1.1, 0.0), seed=0)


class TestMisclassification:
    def test_perfect_separator(self):
        s = Sample(x=np.array([[1.0], [-1.0]]), y=np.array([1.0, -1.0]))
        assert misclassification(euclidean_vector([1.0]), s) == 0.0

    def test_zero_hypothesis_predicts_plus_one(self):
        s = Sample(x=np.array([[0.5], [0.5]]), y=np.array([1.0, -1.0]))
        assert misclassification(euclidean_vector([0.0]), s) == 0.5

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((40, 2))
        y = np.where(rng.random(40) > 0.5, 1.0, -1.0)
        h = euclidean_vector(rng.standard_normal(2))
        e = misclassification(h, Sample(x=x, y=y))
        e_flipped = misclassification(h, Sample(x=x, y=-y))
        assert e + e_flipped == pytest.approx(1.0)

    def test_bad_label_rejected(self):
        s = Sample(x=np.array([[1.0]]), y=np.array([0.5]))
        with pytest.raises(ValueError):
            misclassification(euclidean_vector([0.0]), s)


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
