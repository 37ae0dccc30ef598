"""Feature maps, finite families, distance comparers, and shattering search.

Supported map kinds: the identity, projection onto a coordinate subset,
and linear maps x -> x[0] A[0] + x[1] A[1] + ..., summed in coordinate order
so a point's image has the same bits in any batch, with A a (D, K) matrix
whose entries lie in [-1, 1]. Comparers compare the squared distances the
k-NN search ranks the same pairs by, from :func:`distance.pair_sq`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .core import SCHEMA_VERSION, SeedSpec, _check_schema, as_point, write_json
from .distance import pair_sq

__all__ = [
    "FeatureMap",
    "FeatureFamily",
    "ComparerQuery",
    "apply",
    "apply_batch",
    "comparer",
    "comparer_linear_form",
    "distance_dim_upper",
    "ShatteringVerdict",
    "shattering_search",
]


@dataclass(frozen=True, eq=False)
class FeatureMap:
    """A single map from R^D to R^K.

    kind is one of "identity", "coordinate_subset", "linear". For
    coordinate subsets `coords` holds the selected indices, sorted;
    for linear maps `matrix` holds the (D, K) matrix.
    """

    kind: str
    input_dim: int
    coords: tuple[int, ...] | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be >= 1")
        if self.kind == "identity":
            if self.coords is not None or self.matrix is not None:
                raise ValueError("identity map takes no parameters")
        elif self.kind == "coordinate_subset":
            if not self.coords:
                raise ValueError("coordinate_subset needs a non-empty index set")
            coords = tuple(int(j) for j in self.coords)
            if list(coords) != sorted(set(coords)):
                raise ValueError("coordinate indices must be sorted and unique")
            if coords[0] < 0 or coords[-1] >= self.input_dim:
                raise ValueError("coordinate indices out of range")
            object.__setattr__(self, "coords", coords)
        elif self.kind == "linear":
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != self.input_dim or m.shape[1] < 1:
                raise ValueError("linear map needs a (D, K) matrix")
            if not np.all(np.isfinite(m)) or np.any(np.abs(m) > 1.0):
                raise ValueError("matrix entries must lie in [-1, 1]")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        else:
            raise ValueError(f"unknown map kind {self.kind!r}")

    @property
    def output_dim(self) -> int:
        if self.kind == "identity":
            return self.input_dim
        if self.kind == "coordinate_subset":
            return len(self.coords)
        return int(self.matrix.shape[1])

    def params_key(self):
        """Hashable exact-parameter identity, used for duplicate detection."""
        if self.kind == "identity":
            return ("identity", self.input_dim)
        if self.kind == "coordinate_subset":
            return ("coordinate_subset", self.input_dim, self.coords)
        return ("linear", self.input_dim, self.matrix.tobytes())


def identity_map(dim: int) -> FeatureMap:
    return FeatureMap("identity", dim)


def coordinate_map(dim: int, coords) -> FeatureMap:
    return FeatureMap("coordinate_subset", dim, coords=tuple(sorted(int(c) for c in coords)))


def linear_map(matrix) -> FeatureMap:
    m = np.asarray(matrix, dtype=np.float64)
    # A matrix of any other shape fails FeatureMap's (D, K) check.
    return FeatureMap("linear", int(m.shape[0]) if m.ndim == 2 else 1, matrix=m)


def apply(fmap: FeatureMap, x) -> np.ndarray:
    """Image of a single point under the map: :func:`apply_batch` on one row."""
    return apply_batch(fmap, as_point(x).reshape(1, -1))[0]


def apply_batch(fmap: FeatureMap, points: np.ndarray) -> np.ndarray:
    """Image of an (n, D) array of points; returns (n, K), each row's bits independent of the batch."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != fmap.input_dim:
        raise ValueError(f"dimension mismatch: points have {points.shape[1:]}, map expects {fmap.input_dim}")
    if fmap.kind == "identity":
        return points
    if fmap.kind == "coordinate_subset":
        return points[:, list(fmap.coords)]
    z = points[:, :1] * fmap.matrix[0]
    for j in range(1, fmap.input_dim):
        z += points[:, j : j + 1] * fmap.matrix[j]
    return z


@dataclass(frozen=True, eq=False)
class ComparerQuery:
    """Two pairs of points whose map-space distances are to be compared."""

    x1: np.ndarray
    x2: np.ndarray
    x3: np.ndarray
    x4: np.ndarray

    def __post_init__(self):
        pts = [as_point(p) for p in (self.x1, self.x2, self.x3, self.x4)]
        dims = {p.shape[0] for p in pts}
        if len(dims) != 1:
            raise ValueError("all four points must share a dimension")
        for name, p in zip(("x1", "x2", "x3", "x4"), pts):
            object.__setattr__(self, name, p)

    @property
    def dim(self) -> int:
        return int(self.x1.shape[0])


def comparer(fmap: FeatureMap, q: ComparerQuery) -> int:
    """1 iff the (x1, x2) pair is at least as far apart as (x3, x4) under the map.

    Compares the images' squared distances, each with the bits every
    :func:`distance.pair_sq` table and the k-NN scan give the same pair.
    """
    return int(_comparer_bits((fmap,), [q])[0, 0])


def _comparer_bits(maps, quadruples) -> np.ndarray:
    """(len(maps), len(quadruples)) :func:`comparer` bits, from one image of
    all the quadruples' points per map."""
    pts = np.stack([(q.x1, q.x2, q.x3, q.x4) for q in quadruples])
    bits = np.empty((len(maps), len(quadruples)), dtype=np.uint8)
    for i, fmap in enumerate(maps):
        z = apply_batch(fmap, pts.reshape(-1, pts.shape[2])).reshape(len(quadruples), 4, -1)
        bits[i] = pair_sq(z[:, 0], z[:, 1]) >= pair_sq(z[:, 2], z[:, 3])
    return bits


def comparer_linear_form(fmap: FeatureMap, q: ComparerQuery) -> int:
    """Comparer bit via the Gram-matrix inner product, linear maps only.

    Computes sign(<A A^T, u u^T - v v^T>) with u = x1-x2, v = x3-x4 and
    sign(0) mapped to 1. Agrees with :func:`comparer` whenever the inner
    product is not vanishingly small.
    """
    if fmap.kind != "linear":
        raise ValueError("linear-form comparer requires a linear map")
    gram = fmap.matrix @ fmap.matrix.T
    u = q.x1 - q.x2
    v = q.x3 - q.x4
    val = float(u @ gram @ u - v @ gram @ v)
    return 1 if val >= 0.0 else 0


def distance_dim_upper(family_kind: str, dim: int, out_dim: int) -> float:
    """Worst-case comparer-class VC upper bound for a family kind.

    Coordinate-projection families: K * log2(D). Bounded linear families:
    D^2. Log base 2 is the package convention for bit counting.
    """
    if not 1 <= out_dim <= dim:
        raise ValueError("need D >= K >= 1")
    kind = family_kind.lower()
    if kind in ("cor", "coordinate_subset"):
        return out_dim * math.log2(dim)
    if kind in ("proj", "linear"):
        return float(dim * dim)
    raise ValueError(f"unsupported family kind {family_kind!r}")


@dataclass(frozen=True)
class FeatureFamily:
    """Indexed finite collection of maps sharing input and output dims."""

    maps: tuple[FeatureMap, ...]
    provenance: str = "explicit"

    def __post_init__(self):
        maps = tuple(self.maps)
        if not maps:
            raise ValueError("family must be non-empty")
        in_dims = {m.input_dim for m in maps}
        out_dims = {m.output_dim for m in maps}
        if len(in_dims) != 1 or len(out_dims) != 1:
            raise ValueError("all maps must share input and output dimensions")
        keys = [m.params_key() for m in maps]
        if len(set(keys)) != len(keys):
            raise ValueError("family contains duplicate maps")
        object.__setattr__(self, "maps", maps)

    def __len__(self) -> int:
        return len(self.maps)

    def __getitem__(self, i: int) -> FeatureMap:
        return self.maps[i]

    @property
    def input_dim(self) -> int:
        return self.maps[0].input_dim

    @property
    def output_dim(self) -> int:
        return self.maps[0].output_dim

    def dd_upper(self) -> float:
        """Distance-dimension upper bound for this family's kind."""
        if all(m.kind == "coordinate_subset" for m in self.maps):
            return distance_dim_upper("cor", self.input_dim, self.output_dim)
        return distance_dim_upper("proj", self.input_dim, self.output_dim)

    def to_json(self) -> dict:
        entries = []
        for m in self.maps:
            if m.kind == "identity":
                entries.append({"identity": True})
            elif m.kind == "coordinate_subset":
                entries.append({"J": list(m.coords)})
            else:
                entries.append({"matrix": m.matrix.tolist()})
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "mixed" if len({m.kind for m in self.maps}) > 1 else self.maps[0].kind,
            "D": self.input_dim,
            "K": self.output_dim,
            "provenance": self.provenance,
            "maps": entries,
        }

    @staticmethod
    def from_json(obj: dict) -> "FeatureFamily":
        _check_schema(obj, "D", "K")
        dim = int(obj["D"])
        maps = []
        for entry in obj["maps"]:
            if not isinstance(entry, dict):
                raise ValueError(f"map entry {entry!r} is not an object")
            _check_schema(entry, "J")
            if entry.get("identity"):
                maps.append(identity_map(dim))
            elif "J" in entry:
                maps.append(coordinate_map(dim, entry["J"]))
            elif "matrix" in entry:
                maps.append(linear_map(entry["matrix"]))
            else:
                raise ValueError(f"unrecognized map entry {entry!r}")
        out_dim = int(obj["K"])
        for i, m in enumerate(maps):
            if (m.input_dim, m.output_dim) != (dim, out_dim):
                raise ValueError(
                    f"map {i} takes {m.input_dim} to {m.output_dim} dims, the family states D={dim}, K={out_dim}"
                )
        return FeatureFamily(tuple(maps), provenance=obj.get("provenance", "explicit"))

    def save(self, path) -> None:
        write_json(self.to_json(), path)

    @staticmethod
    def load(path) -> "FeatureFamily":
        with open(path) as fh:
            return FeatureFamily.from_json(json.load(fh))


def cor_family(dim: int, out_dim: int) -> FeatureFamily:
    """All projections onto `out_dim` of `dim` coordinates, lexicographic."""
    maps = tuple(coordinate_map(dim, J) for J in itertools.combinations(range(dim), out_dim))
    return FeatureFamily(maps, provenance=f"cor_full:D={dim},K={out_dim}")


def proj_family_random(dim: int, out_dim: int, count: int, seed: SeedSpec) -> FeatureFamily:
    """Seeded i.i.d.-uniform sample of bounded linear maps."""
    rng = seed.rng(101)
    maps = tuple(linear_map(rng.uniform(-1.0, 1.0, size=(dim, out_dim))) for _ in range(count))
    return FeatureFamily(maps, provenance=f"proj_random:D={dim},K={out_dim},count={count}")


def proj_family_grid(dim: int, out_dim: int, levels: int) -> FeatureFamily:
    """Grid sample of bounded linear maps with entries on `levels` levels."""
    if levels < 2:
        raise ValueError("need at least 2 grid levels")
    values = np.linspace(-1.0, 1.0, levels)
    cells = dim * out_dim
    maps = []
    for combo in itertools.product(values, repeat=cells):
        maps.append(linear_map(np.asarray(combo).reshape(dim, out_dim)))
    return FeatureFamily(tuple(maps), provenance=f"proj_grid:D={dim},K={out_dim},levels={levels}")


@dataclass(frozen=True)
class ShatteringVerdict:
    """Outcome of a shattering search.

    status: "found", "none", or "inconclusive" (budget ran out before the
    candidate space was exhausted).
    """

    status: str
    target_size: int
    witness: tuple[int, ...] | None = None
    dichotomies: tuple[tuple[int, ...], ...] | None = None
    candidates_checked: int = 0


def shattering_search(
    family: FeatureFamily,
    quadruples,
    target_size: int,
    max_candidates: int = 200_000,
) -> ShatteringVerdict:
    """Search for a size-`target_size` set of quadruples shattered by the family.

    Enumerates candidate subsets in lexicographic order by depth-first
    extension, pruning any prefix that fails to realize all 2^|prefix|
    comparer dichotomies (a restriction of a shattered set is shattered).
    A subset counts against `max_candidates` each time its dichotomies are
    evaluated; exhausting the budget yields an explicit "inconclusive".
    """
    quadruples = list(quadruples)
    if not 1 <= target_size <= len(quadruples):
        raise ValueError("target_size must be in [1, len(quadruples)]")
    if any(q.dim != family.input_dim for q in quadruples):
        raise ValueError(f"quadruple dims {sorted({q.dim for q in quadruples})}, family dim {family.input_dim}")
    if len(family) < 2**target_size:
        # A family can realize at most |family| dichotomies: definitive no.
        return ShatteringVerdict("none", target_size, candidates_checked=0)

    bits = _comparer_bits(family.maps, quadruples)
    n = len(quadruples)
    checked = 0
    # Column j as one integer with bit i set when map i's comparer bit is 1.
    packed = np.packbits(bits, axis=0, bitorder="little")
    cols = [int.from_bytes(packed[:, j].tobytes(), "little") for j in range(n)]
    # stack is the shattered prefix and groups[d] the maps of each dichotomy
    # of stack[:d], as bitmasks: column j extends the prefix iff it splits
    # every group in two. j is the next candidate at the stack's depth.
    stack: list[int] = []
    groups = [[(1 << len(family)) - 1]]
    j = 0
    while len(stack) < target_size:
        if j > n - target_size + len(stack):
            if not stack:
                return ShatteringVerdict("none", target_size, candidates_checked=checked)
            j = stack.pop() + 1
            groups.pop()
            continue
        if checked >= max_candidates:
            return ShatteringVerdict("inconclusive", target_size, candidates_checked=checked)
        checked += 1
        split = _split_all(groups[-1], cols[j])
        if split is not None:
            stack.append(j)
            groups.append(split)
        j += 1
    dichos = tuple(sorted({tuple(int(v) for v in row) for row in bits[:, stack]}))
    return ShatteringVerdict("found", target_size, tuple(stack), dichos, candidates_checked=checked)


def _split_all(groups: list[int], col: int) -> list[int] | None:
    """Each group's maps with bit 1 in `col` and with bit 0, or None as soon
    as one group lies wholly on one side."""
    out = []
    for g in groups:
        ones = g & col
        if ones == 0 or ones == g:
            return None
        out += (ones, g ^ ones)
    return out
