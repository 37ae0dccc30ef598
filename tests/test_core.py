import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirmnn import distance
from sirmnn.core import (
    LabeledSet,
    SeedSpec,
    load_csv,
    load_csv_unlabeled,
    save_csv,
    save_csv_unlabeled,
    split_fractions,
)


def make_set(points, labels, label_count=None):
    labels = np.asarray(labels, dtype=np.int64)
    if label_count is None:
        label_count = int(labels.max()) + 1 if labels.size else 1
    return LabeledSet(np.asarray(points, dtype=np.float64), labels, label_count)


class TestEuclideanDistance:
    """The Euclidean distance of paired rows is sqrt(distance.pair_sq)."""

    def test_identity(self):
        assert distance.pair_sq(np.array([[1.5, -2.0]]), np.array([[1.5, -2.0]])).tolist() == [0.0]

    def test_3_4_5(self):
        assert distance.pair_sq(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])).tolist() == [25.0]

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(42)
        a, b = rng.normal(size=(20, 7)), rng.normal(size=(20, 7))
        got = np.sqrt(distance.pair_sq(a, b))
        for i in range(20):
            # independent oracle: explicit coordinate loop with fsum
            oracle = math.sqrt(math.fsum((ai - bi) ** 2 for ai, bi in zip(a[i], b[i])))
            assert got[i] == pytest.approx(oracle, abs=1e-12)

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
        st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
    )
    @settings(max_examples=200)
    def test_metric_axioms(self, a, b, c):
        def dist(p, q):
            return float(np.sqrt(distance.pair_sq(np.array([p]), np.array([q]))[0]))

        dab = dist(a, b)
        dba = dist(b, a)
        assert dab == dba  # symmetry is exact
        dac = dist(a, c)
        dcb = dist(c, b)
        assert dab <= dac + dcb + 1e-9


class TestSplitFractions:
    def test_four_way_n8(self):
        s = make_set(np.arange(16).reshape(8, 2), [0] * 8)
        parts = split_fractions(s, (0.25, 0.25, 0.25, 0.25))
        assert [len(p) for p in parts] == [2, 2, 2, 2]

    def test_five_way_n10(self):
        s = make_set(np.arange(20).reshape(10, 2), [0] * 10)
        parts = split_fractions(s, (0.2,) * 5)
        assert [len(p) for p in parts] == [2, 2, 2, 2, 2]

    def test_identity_split(self):
        s = make_set([[1.0]], [0])
        (part,) = split_fractions(s, (1.0,))
        assert len(part) == 1
        assert np.array_equal(part.points, s.points)

    def test_bad_fractions(self):
        s = make_set([[1.0], [2.0]], [0, 0])
        with pytest.raises(ValueError, match="sum to 1"):
            split_fractions(s, (0.5, 0.4))

    @given(
        n=st.integers(1, 60),
        sizes=st.lists(st.integers(1, 5), min_size=1, max_size=5),
    )
    @settings(max_examples=100)
    def test_disjoint_order_preserving_exhaustive(self, n, sizes):
        fracs = [v / sum(sizes) for v in sizes]
        pts = np.arange(n, dtype=np.float64).reshape(n, 1)
        s = make_set(pts, [0] * n)
        parts = split_fractions(s, fracs)
        rebuilt = np.concatenate([p.points for p in parts])
        assert np.array_equal(rebuilt, pts)  # exhaustive, ordered, disjoint
        assert sum(len(p) for p in parts) == n


class TestCsvRoundTrip:
    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x_0,x_1,y\n")
        s = load_csv(path)
        assert len(s) == 0 and s.dim == 2

    def test_order_preserved(self, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("x_0,y\n3,1\n1,0\n2,1\n")
        s = load_csv(path)
        assert s.points[:, 0].tolist() == [3.0, 1.0, 2.0]
        assert s.labels.tolist() == [1, 0, 1]

    def test_random_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(100, 3)) * 10.0 ** rng.integers(-8, 8, size=(100, 3))
        s = make_set(pts, rng.integers(0, 4, size=100), label_count=4)
        path = tmp_path / "rt.csv"
        save_csv(s, path)
        back = load_csv(path, label_count=4)
        assert np.array_equal(back.points, s.points)  # bitwise
        assert np.array_equal(back.labels, s.labels)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        for load, text in ((load_csv, "x_0,y\n1.0,0\noops,1\n"), (load_csv_unlabeled, "x_0\n1.0\noops\n")):
            path.write_text(text)
            with pytest.raises(ValueError, match="line 3"):
                load(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        for load, text in ((load_csv, "a,b,y\n1,2,0\n"), (load_csv_unlabeled, "a,b\n1,2\n")):
            path.write_text(text)
            with pytest.raises(ValueError, match="line 1"):
                load(path)

    def test_unlabeled_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        s = make_set(rng.normal(size=(20, 2)), [0] * 20)
        path = tmp_path / "u.csv"
        save_csv_unlabeled(s.unlabeled(), path)
        back = load_csv_unlabeled(path)
        assert np.array_equal(back.points, s.points)


class TestSeedSpec:
    def test_reproducible(self):
        a = SeedSpec(123, 4).rng().random(10)
        b = SeedSpec(123, 4).rng().random(10)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SeedSpec(123, 0).rng().random(10)
        b = SeedSpec(123, 1).rng().random(10)
        assert not np.array_equal(a, b)

    def test_substream_stable(self):
        assert SeedSpec(9, 1).substream(2, 3) == SeedSpec(9, 1).substream(2, 3)
        assert SeedSpec(9, 1).substream(2, 3) != SeedSpec(9, 1).substream(3, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SeedSpec(-1)
        with pytest.raises(ValueError):
            SeedSpec(0, -2)


class TestLabeledSetInvariants:
    def test_labels_in_range(self):
        with pytest.raises(ValueError):
            make_set([[0.0]], [3], label_count=2)

    def test_points_immutable(self):
        s = make_set([[1.0, 2.0]], [0])
        with pytest.raises(ValueError):
            s.points[0, 0] = 5.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            make_set([[math.inf, 0.0]], [0])
