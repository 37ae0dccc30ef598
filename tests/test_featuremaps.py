import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirmnn import distance, featuremaps
from sirmnn.core import SeedSpec
from sirmnn.featuremaps import (
    ComparerQuery,
    FeatureFamily,
    apply,
    apply_batch,
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
        # Oracle: x[0] * A[0, k] + x[1] * A[1, k] + ..., added in coordinate order.
        want = []
        for k in range(out_dim):
            z = x[0] * fmap.matrix[0, k]
            for j in range(1, dim):
                z = z + x[j] * fmap.matrix[j, k]
            want.append(z)
        assert apply(fmap, x).tobytes() == np.asarray(want).tobytes()
        # The row has the same bits inside any batch.
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        batch = rng.uniform(-1e6, 1e6, size=(data.draw(st.integers(1, 40)), dim))
        at = data.draw(st.integers(0, batch.shape[0] - 1))
        batch[at] = x
        assert apply_batch(fmap, batch)[at].tobytes() == np.asarray(want).tobytes()

    def test_linear_zero_times_negative_zero(self):
        assert apply(linear_map([[-0.0]]), [0.0]).tobytes() == np.array([-0.0]).tobytes()

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


def _lattice_quads(count, seed):
    """Quadruples on a 0.1-scaled integer lattice of R^4, where distances tie often."""
    rng = np.random.default_rng(seed)
    return [q_of(*p) for p in 0.1 * rng.integers(-6, 7, size=(count, 4, 4))]


def _blocks_sq(a, b):
    """Squared distance of row i of a to row i of b, read off sq_blocks' diagonal."""
    return np.concatenate([np.diagonal(next(distance.sq_blocks(a[i : i + 50], b[i : i + 50]))[1])
                           for i in range(0, a.shape[0], 50)])


class TestComparerBits:
    @pytest.mark.parametrize("family", [cor_family(4, 2), proj_family_random(4, 2, 6, SeedSpec(0))],
                             ids=["cor42", "proj42"])
    def test_bits_equal_sq_blocks_comparison(self, family):
        quads = _lattice_quads(20_000, 1)
        pts = [np.stack([getattr(q, name) for q in quads]) for name in ("x1", "x2", "x3", "x4")]
        got = featuremaps._comparer_bits(family.maps, quads)
        for i, fmap in enumerate(family.maps):
            z1, z2, z3, z4 = (apply_batch(fmap, p) for p in pts)
            assert np.array_equal(got[i], _blocks_sq(z1, z2) >= _blocks_sq(z3, z4)), i

    @pytest.mark.parametrize("family", [cor_family(4, 2), proj_family_random(4, 2, 64, SeedSpec(3))],
                             ids=["cor42", "proj42"])
    def test_batch_equals_per_quadruple_loop(self, family):
        quads = _lattice_quads(40, 2) + random_quads(4, 40, 2)
        loop = np.empty((len(family), len(quads)), dtype=np.uint8)
        for i, fmap in enumerate(family.maps):
            for j, q in enumerate(quads):
                loop[i, j] = comparer(fmap, q)
        assert np.array_equal(featuremaps._comparer_bits(family.maps, quads), loop)


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


def _tuple_set_search(bits, target_size, max_candidates):
    """shattering_search's depth-first prune, counting dichotomies as row-tuple sets."""
    n, checked, stack = bits.shape[1], 0, []

    def extend(start):
        nonlocal checked
        for j in range(start, n - (target_size - len(stack) - 1)):
            stack.append(j)
            if checked >= max_candidates:
                stack.pop()
                return "budget"
            checked += 1
            if len({tuple(int(v) for v in row) for row in bits[:, stack]}) == 2 ** len(stack):
                if len(stack) == target_size:
                    return tuple(stack)
                result = extend(j + 1)
                if result is not None:
                    stack.pop()
                    return result
            stack.pop()
        return None

    result = extend(0)
    if result == "budget":
        return "inconclusive", None, checked
    return ("none", None, checked) if result is None else ("found", result, checked)


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

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_packed_codes_match_tuple_set_search(self, data):
        # Random comparer bits stand in for a family's, so that prefixes of
        # every size shatter or fail; the search must match one that counts
        # each prefix's dichotomies as a set of row tuples.
        size = data.draw(st.integers(1, 5))
        maps = data.draw(st.integers(2**size, 64))
        quads = random_quads(2, data.draw(st.integers(size, 14)), 0)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bits = (rng.random((maps, len(quads))) < data.draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(np.uint8)
        budget = data.draw(st.sampled_from([3, 50, 200_000]))
        fam = proj_family_random(2, 1, maps, SeedSpec(0))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(featuremaps, "_comparer_bits", lambda family, quadruples: bits)
            verdict = shattering_search(fam, quads, size, max_candidates=budget)
        status, witness, checked = _tuple_set_search(bits, size, budget)
        assert (verdict.status, verdict.witness, verdict.candidates_checked) == (status, witness, checked)
        if witness is not None:
            assert verdict.dichotomies == tuple(sorted({tuple(int(v) for v in row) for row in bits[:, list(witness)]}))

    def test_quadruple_dims_checked_up_front(self):
        quads = random_quads(3, 4, 0) + random_quads(2, 1, 0)
        with pytest.raises(ValueError, match=r"quadruple dims \[2, 3\], family dim 3"):
            shattering_search(cor_family(3, 1), quads, 1)

    def test_never_exceeds_bound_for_proj(self):
        fam = proj_family_random(2, 1, 10, SeedSpec(5))
        bound = math.ceil(distance_dim_upper("proj", 2, 1))  # 4
        for trial in range(3):
            quads = random_quads(2, 12, 200 + trial)
            verdict = shattering_search(fam, quads, bound + 1)
            assert verdict.status == "none"
