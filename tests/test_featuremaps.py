import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirmnn.core import SeedSpec
from sirmnn.featuremaps import (
    ComparerQuery,
    FeatureFamily,
    apply,
    comparer,
    comparer_linear_form,
    coordinate_map,
    cor_family,
    distance_dim_upper,
    identity_map,
    linear_map,
    proj_family_grid,
    proj_family_random,
    shattering_search,
)


def q_of(*pts):
    return ComparerQuery(*(np.asarray(p, dtype=np.float64) for p in pts))


class TestApply:
    @given(st.data())
    @settings(max_examples=300)
    def test_linear_equals_vector_product_bitwise(self, data):
        dim, out_dim = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 4))
        row = st.lists(st.floats(-1.0, 1.0), min_size=out_dim, max_size=out_dim)
        fmap = linear_map(data.draw(st.lists(row, min_size=dim, max_size=dim)))
        x = np.asarray(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim)))
        assert apply(fmap, x).tobytes() == (x @ fmap.matrix).tobytes()

    def test_coordinate_subset(self):
        m = coordinate_map(2, [1])
        assert apply(m, (3.0, 7.0)).tolist() == [7.0]

    def test_identity(self):
        m = identity_map(3)
        x = np.array([1.0, 2.0, 3.0])
        assert apply(m, x).tolist() == x.tolist()

    def test_linear_hand_multiply(self):
        m = linear_map([[1.0], [1.0]])
        assert apply(m, (2.0, 3.0)).tolist() == [5.0]

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            apply(coordinate_map(2, [0]), (1.0, 2.0, 3.0))

    def test_matrix_entries_bounded(self):
        with pytest.raises(ValueError):
            linear_map([[1.5], [0.0]])

    def test_coords_validated(self):
        with pytest.raises(ValueError):
            coordinate_map(2, [2])
        with pytest.raises(ValueError):
            coordinate_map(2, [])


class TestComparer:
    def test_all_equal_points(self):
        x = (1.0, 2.0)
        assert comparer(identity_map(2), q_of(x, x, x, x)) == 1

    def test_projection_hand_case(self):
        phi_x = coordinate_map(2, [0])
        q = q_of((0, 0), (1, 9), (0, 0), (2, 0))
        assert comparer(phi_x, q) == 0  # 1 < 2 after projection

    def test_reflexive_true(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.normal(size=2), rng.normal(size=2)
            assert comparer(identity_map(2), q_of(a, b, a, b)) == 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=150)
    def test_swap_antisymmetry(self, trial):
        rng = np.random.default_rng(trial)
        pts = rng.normal(size=(4, 3))
        fmap = linear_map(rng.uniform(-1, 1, size=(3, 2)))
        fwd = comparer(fmap, q_of(*pts))
        rev = comparer(fmap, q_of(pts[2], pts[3], pts[0], pts[1]))
        d1 = np.dot(*(2 * [apply(fmap, pts[0]) - apply(fmap, pts[1])]))
        d2 = np.dot(*(2 * [apply(fmap, pts[2]) - apply(fmap, pts[3])]))
        if d1 != d2:
            assert fwd ^ rev == 1
        else:
            assert fwd == rev == 1

    def test_cor_ignores_excluded_coordinates(self):
        phi = coordinate_map(3, [0, 2])
        rng = np.random.default_rng(4)
        for _ in range(50):
            pts = rng.normal(size=(4, 3))
            bit = comparer(phi, q_of(*pts))
            noisy = pts.copy()
            noisy[:, 1] += rng.normal(size=4) * 100
            assert comparer(phi, q_of(*noisy)) == bit


class TestComparerLinearForm:
    def test_degenerate_pairs(self):
        m = linear_map(np.eye(2) * 0.5)
        a, b = (1.0, 1.0), (2.0, -1.0)
        assert comparer_linear_form(m, q_of(a, a, b, b)) == 1

    def test_identity_embedding_reduces_to_euclidean(self):
        m = linear_map(np.eye(3))
        rng = np.random.default_rng(1)
        for _ in range(100):
            pts = rng.normal(size=(4, 3))
            q = q_of(*pts)
            plain = comparer(identity_map(3), q)
            assert comparer_linear_form(m, q) == plain

    def test_agrees_with_direct_comparer(self):
        rng = np.random.default_rng(2)
        checked = 0
        for _ in range(1000):
            a = rng.uniform(-1, 1, size=(3, 2))
            pts = rng.normal(size=(4, 3))
            fmap = linear_map(a)
            q = q_of(*pts)
            gram = a @ a.T
            u = pts[0] - pts[1]
            v = pts[2] - pts[3]
            inner = float(u @ gram @ u - v @ gram @ v)
            if abs(inner) > 1e-9:
                assert comparer_linear_form(fmap, q) == comparer(fmap, q)
                checked += 1
        assert checked > 900

    def test_rejects_non_linear(self):
        with pytest.raises(ValueError):
            comparer_linear_form(coordinate_map(2, [0]), q_of((0, 0), (1, 1), (0, 0), (1, 1)))


class TestDistanceDimUpper:
    def test_cor_16_4(self):
        assert distance_dim_upper("cor", 16, 4) == 16.0

    def test_proj_5_2(self):
        assert distance_dim_upper("proj", 5, 2) == 25.0

    def test_cor_2_1(self):
        assert distance_dim_upper("cor", 2, 1) == 1.0

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            distance_dim_upper("kernel", 4, 2)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            distance_dim_upper("cor", 2, 3)


class TestFamilies:
    def test_cor_enumeration(self):
        fam = cor_family(4, 2)
        assert len(fam) == 6
        assert [m.coords for m in fam.maps] == list(itertools.combinations(range(4), 2))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FeatureFamily((coordinate_map(2, [0]), coordinate_map(2, [0])))

    def test_mixed_output_dims_rejected(self):
        with pytest.raises(ValueError):
            FeatureFamily((coordinate_map(3, [0]), coordinate_map(3, [0, 1])))

    def test_random_proj_seeded(self):
        a = proj_family_random(3, 2, 5, SeedSpec(7))
        b = proj_family_random(3, 2, 5, SeedSpec(7))
        for ma, mb in zip(a.maps, b.maps):
            assert np.array_equal(ma.matrix, mb.matrix)

    def test_grid_proj(self):
        fam = proj_family_grid(1, 1, 3)
        assert sorted(float(m.matrix[0, 0]) for m in fam.maps) == [-1.0, 0.0, 1.0]

    def test_json_round_trip(self, tmp_path):
        fam = cor_family(3, 1)
        path = tmp_path / "fam.json"
        fam.save(path)
        back = FeatureFamily.load(path)
        assert [m.coords for m in back.maps] == [m.coords for m in fam.maps]

        linfam = proj_family_random(2, 1, 3, SeedSpec(3))
        path2 = tmp_path / "lin.json"
        linfam.save(path2)
        back2 = FeatureFamily.load(path2)
        for ma, mb in zip(linfam.maps, back2.maps):
            assert np.array_equal(ma.matrix, mb.matrix)


def random_quads(dim, count, seed):
    rng = SeedSpec(seed).rng()
    return [q_of(*rng.random((4, dim))) for _ in range(count)]


class TestShatteringSearch:
    def test_two_map_family_never_shatters_pairs(self):
        fam = FeatureFamily((coordinate_map(3, [0]), coordinate_map(3, [1])))
        quads = random_quads(3, 12, 0)
        verdict = shattering_search(fam, quads, 2)
        assert verdict.status == "none"  # only <= 2 dichotomies available

    def test_cor42_target5_none(self):
        fam = cor_family(4, 2)
        quads = random_quads(4, 30, 1)
        verdict = shattering_search(fam, quads, 5)
        assert verdict.status == "none"  # 2^5 = 32 > 6 maps

    def test_size1_found_with_opposite_bits(self):
        fam = FeatureFamily((coordinate_map(2, [0]), coordinate_map(2, [1])))
        # x-distance 1 vs 2 (bit 0 under phi_x), y-distance 9 vs 0 (bit 1 under phi_y)
        quads = [q_of((0, 0), (1, 9), (0, 0), (2, 0))]
        verdict = shattering_search(fam, quads, 1)
        assert verdict.status == "found"
        assert verdict.witness == (0,)
        assert set(verdict.dichotomies) == {(0,), (1,)}

    def test_budget_exhaustion_is_explicit(self):
        fam = cor_family(4, 1)
        quads = random_quads(4, 25, 2)
        verdict = shattering_search(fam, quads, 2, max_candidates=3)
        assert verdict.status == "inconclusive"
        assert verdict.candidates_checked == 3

    def test_found_witness_is_verified(self):
        # An exhaustive independent check of any reported witness.
        fam = cor_family(3, 1)
        quads = random_quads(3, 15, 3)
        verdict = shattering_search(fam, quads, 1)
        if verdict.status == "found":
            (j,) = verdict.witness
            bits = {comparer(m, quads[j]) for m in fam.maps}
            assert bits == {0, 1}

    def test_never_exceeds_bound_for_cor(self):
        fam = cor_family(4, 2)
        bound = math.ceil(distance_dim_upper("cor", 4, 2))
        for trial in range(5):
            quads = random_quads(4, 14, 100 + trial)
            for size in range(bound + 1, min(bound + 3, len(quads))):
                verdict = shattering_search(fam, quads, size)
                assert verdict.status == "none"

    def test_never_exceeds_bound_for_proj(self):
        fam = proj_family_random(2, 1, 10, SeedSpec(5))
        bound = math.ceil(distance_dim_upper("proj", 2, 1))  # 4
        for trial in range(3):
            quads = random_quads(2, 12, 200 + trial)
            verdict = shattering_search(fam, quads, bound + 1)
            assert verdict.status == "none"
