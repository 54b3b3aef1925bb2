import hashlib
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fel.energy import random_corpus
from fel.ifs import MERGE_BAND, Similitude, build, essential_fixed_points
from fel.lipschitz import pair_power_sums
from fel.presets import load_maps

# Indicator columns per walk in walk_degrees.
WALK_COLUMNS = 128
# Points per block of distance rows in brute_force_coefficient.
ORACLE_ROWS = 128
EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def make_system(name, level, **kw):
    maps, nm = load_maps(name)
    return build(maps, level, name=nm, **kw)


def maps_of(name):
    """The maps of a preset, or of a definition file in examples/."""
    path = EXAMPLES / f"{name}.json"
    return load_maps(path if path.exists() else name)[0]


def build_digests(system):
    """SHA-256 of each table of a build: the dtype, shape and C-order bytes
    of every level's array in turn."""
    out = {}
    for table in ("points", "cells", "promote", "new_vertices", "fixing_maps"):
        arrays = getattr(system, table)
        digest = hashlib.sha256()
        for a in [arrays] if isinstance(arrays, np.ndarray) else arrays:
            a = np.ascontiguousarray(a)
            digest.update(f"{a.dtype.str}{a.shape}".encode())
            digest.update(a.tobytes())
        out[table] = digest.hexdigest()
    return out


def sample_digests(system, hs):
    """SHA-256 of the sampled values of each function of
    random_corpus(system, 4, seed=1) at the system's top level: the dtype,
    shape and C-order bytes of the array."""
    out = []
    for spec in random_corpus(system, 4, seed=1):
        a = np.ascontiguousarray(spec.sample(system, hs, system.max_level).values)
        digest = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
        digest.update(a.tobytes())
        out.append(digest.hexdigest())
    return out


def perturbed_gasket_maps(dx=0.1, dy=0.0):
    """Gasket with psi_3's translation shifted; breaks symmetry, not nesting."""
    maps, _ = load_maps("gasket2")
    t = maps[2].translation + np.array([dx, dy])
    return [maps[0], maps[1],
            Similitude(scale=2.0, rotation=np.eye(2), translation=t)]


def rotated_gasket_maps(theta=0.35):
    """Gasket with psi_3 rotated; its cell detaches, breaking connectivity."""
    maps, _ = load_maps("gasket2")
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return [maps[0], maps[1],
            Similitude(scale=2.0, rotation=rot, translation=maps[2].translation)]


def overlapping_interval_maps():
    """Three maps of the line whose middle copy overlaps both others."""
    eye = np.eye(1)
    return [
        Similitude(scale=2.0, rotation=eye, translation=np.array([0.0])),
        Similitude(scale=2.0, rotation=eye, translation=np.array([0.25])),
        Similitude(scale=2.0, rotation=eye, translation=np.array([0.5])),
    ]


def brute_force_coefficient(system, f, m, params):
    """All-pairs oracle with the ties-out cutoff: a pair counts iff its
    distance, sqrt(d2) with d2 summed axis by axis, is below r (1 - 1e-9), the
    strict < of exact arithmetic.  The pair terms are summed exactly, by one
    math.fsum over all of them."""
    pts = system.points[f.level]
    v = f.values
    r = params.cutoff(m)
    terms = []
    for s in range(0, len(pts), ORACLE_ROWS):
        d2 = sum((axis[None, :] - axis[s:s + ORACLE_ROWS, None]) ** 2 for axis in pts.T)
        i, j = np.nonzero(np.sqrt(d2) < r * (1 - 1e-9))
        i += s
        keep = i != j
        terms.append((v[i[keep]] - v[j[keep]]) ** 2)
    total = math.fsum(np.concatenate(terms).tolist())
    n = len(pts)
    return params.base ** (m * params.alpha) * math.sqrt(
        params.base ** (m * params.d) * total / n**2
    )


def edge_sum_energy(hs, cols, level):
    """rho^level times the exact sum of the cells' edge sums, unblocked: one
    full-length array of edge sums, each from zero and over the pairs p < q
    in combinations order, summed by math.fsum (inf beyond the float range).
    cols[p] holds the values at corner p of every cell."""
    a = hs.matrix.entries
    cell_energy = np.zeros(cols[0].shape[0])
    for p, q in itertools.combinations(range(len(cols)), 2):
        cell_energy += a[p, q] * (cols[p] - cols[q]) ** 2
    try:
        total = math.fsum(cell_energy.tolist())
    except OverflowError:
        total = math.inf
    return float(hs.rho**level * total)


def lift_ids(system, m, n):
    """Array mapping level-m ids to the ids of the same points at level n."""
    ids = np.arange(system.vertex_count(m))
    for k in range(m, n):
        ids = system.promote[k][ids]
    return ids


def neighbor_pair_hoelder(system, f, gamma):
    """hoelder_estimate over the unique m-neighbor pairs (two vertices of one
    level-m symplex) for m = 1..f.level: each pair's distance from the level-m
    coordinates, and f read at its ids lifted to f's level."""
    combos = list(itertools.combinations(range(system.M0), 2))
    best = 0.0
    for m in range(1, f.level + 1):
        pairs = np.unique(np.sort(system.cells[m][:, combos].reshape(-1, 2), axis=1), axis=0)
        lift = lift_ids(system, m, f.level)
        pts = system.points[m]
        dist = np.linalg.norm(pts[pairs[:, 0]] - pts[pairs[:, 1]], axis=1)
        diff = np.abs(f.values[lift[pairs[:, 0]]] - f.values[lift[pairs[:, 1]]])
        good = dist > 0
        if good.any():
            best = max(best, float((diff[good] / dist[good] ** gamma).max()))
    return best


def brute_force_near(system, n, radius):
    """All V_n pairs under the ties-out cutoff of the pair sums, as a symmetric
    matrix without its diagonal: sqrt(d2) < r (1 - 1e-9), d2 summed axis by axis."""
    pts = system.points[n]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    near = np.sqrt(d2) < radius * (1 - 1e-9)
    np.fill_diagonal(near, False)
    return near


def brute_force_degrees(system, n, radius):
    """Degree of each V_n point in the cutoff graph of brute_force_near."""
    return np.count_nonzero(brute_force_near(system, n, radius), axis=1)


def brute_force_pair_sums(system, n, radius, values):
    """Sum of (f(x)-f(y))^2 over the unordered pairs of brute_force_near, one
    column of the (#V_n, F) values at a time, all pairs in one numpy sum."""
    near = brute_force_near(system, n, radius)
    return np.array([np.where(near, (v[:, None] - v[None, :]) ** 2, 0.0).sum() / 2
                     for v in values.T])


def walk_degrees(system, n, radius):
    """The same degrees read from the pair-sum walk: with the indicator of
    point i as the function, the pair sum counts the pairs that contain i.
    The indicators go WALK_COLUMNS at a time: a walk over F columns gathers
    PAIR_CHUNK // F pairs at once, so fewer columns make fewer, larger
    gathers."""
    count = system.vertex_count(n)
    eye = np.eye(count)
    return np.concatenate([pair_power_sums(system, n, [radius], eye[:, s:s + WALK_COLUMNS])[0]
                           for s in range(0, count, WALK_COLUMNS)])


def degrees_match(walk, oracle):
    """Walk degrees lie within 1e-9 of integers, and those equal the oracle's."""
    whole = np.rint(walk)
    return bool(np.abs(walk - whole).max() <= 1e-9
                and np.array_equal(whole.astype(np.int64), oracle))


@dataclass
class SymplexNeighborhood:
    """S_* structure: for each symplex, every symplex touching it (itself included)."""

    level: int
    members: list[np.ndarray]

    def of(self, index: int) -> np.ndarray:
        return self.members[index]


def symplex_neighborhoods(system, m):
    """For each level-m symplex S, the symplices sharing a vertex with S."""
    cells = system.cells[m]
    n_cells = cells.shape[0]
    incident: dict[int, list[int]] = {}
    for c in range(n_cells):
        for v in cells[c]:
            incident.setdefault(int(v), []).append(c)
    members = []
    for c in range(n_cells):
        near: set[int] = set()
        for v in cells[c]:
            near.update(incident[int(v)])
        members.append(np.array(sorted(near), dtype=np.int64))
    return SymplexNeighborhood(level=m, members=members)


def cell_address(system, m, index):
    """Map digits (1-based, outermost first) of the level-m cell at row index."""
    digits = []
    for _ in range(m):
        digits.append(index % system.M + 1)
        index //= system.M
    return tuple(reversed(digits))


def points_in_symplex(system, m, index, n):
    """Ids of V_n points lying in the level-m symplex with the given index."""
    if n < m:
        raise ValueError("need n >= m")
    span = system.M ** (n - m)
    rows = system.cells[n][index * span : (index + 1) * span]
    return np.unique(rows)


# -- geometric oracle for the vertex sets ---------------------------------------
#
# Reference enumeration that uses no gluing table: every candidate of every
# level is merged by a spatial hash with tolerance c0 / (MERGE_BAND * L**m).
# It assumes nothing about nesting, so it checks the combinatorial build and
# the closed-form vertex counts.

# Fraction of a cell treated as "near the rounding boundary".  Float noise on
# coincident copies of one point is ~1e-12 relative, far below this.
GUARD = 1e-6


class Quantizer:
    """Maps points to packed int64 grid keys for one cell size.

    The grid origin is snapped to a multiple of the cell size so that points
    sitting exactly on grid multiples stay at cell centers after shifting.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, tau: float, shift: float = 0.0):
        self.tau = float(tau)
        self.lo = np.floor(lo / tau) * tau - (2.0 + shift) * tau
        spans = np.ceil((hi - self.lo) / tau).astype(np.int64) + 4
        mult = np.ones(len(spans), dtype=np.int64)
        for i in range(len(spans) - 2, -1, -1):
            mult[i] = mult[i + 1] * spans[i + 1]
        if float(mult[0]) * float(spans[0]) >= 2.0**62:
            raise ValueError(
                "grid key range overflows int64; level too deep for this point cap"
            )
        self.mult = mult
        self.neighbor_offsets = np.array(
            [
                np.dot(delta, mult)
                for delta in itertools.product((-1, 0, 1), repeat=len(spans))
                if any(delta)
            ],
            dtype=np.int64,
        )

    def keys(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (packed keys, near-boundary flags) for an (n, N) array."""
        s = (points - self.lo) / self.tau
        q = np.rint(s)
        flagged = (np.abs(s - q) > 0.5 - GUARD).any(axis=1)
        return q.astype(np.int64) @ self.mult, flagged


class MergeTable:
    """Accumulates canonical points, merging copies that agree within tau.

    Points are fed in blocks; ids are assigned densely in first-encounter
    order, so the resulting numbering is reproducible bit-for-bit for a fixed
    block sequence.
    """

    def __init__(self, quantizer: Quantizer):
        self.q = quantizer
        self.sorted_keys = np.empty(0, dtype=np.int64)
        self.sorted_ids = np.empty(0, dtype=np.int64)
        self.points: list[np.ndarray] = []
        self.count = 0
        self._flagged: list[tuple[np.ndarray, int]] = []

    def add_block(self, block: np.ndarray) -> np.ndarray:
        """Register a block of points; return the canonical id of each row."""
        keys, flagged = self.q.keys(block)
        # Dedupe within the block, keeping first-encounter order.
        ukeys, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        # Match block-unique keys against the table.
        if len(self.sorted_keys):
            pos_c = np.minimum(np.searchsorted(self.sorted_keys, ukeys),
                               len(self.sorted_keys) - 1)
            found = self.sorted_keys[pos_c] == ukeys
        else:
            pos_c = np.zeros(len(ukeys), dtype=np.int64)
            found = np.zeros(len(ukeys), dtype=bool)
        ids = np.empty(len(ukeys), dtype=np.int64)
        ids[found] = self.sorted_ids[pos_c[found]]
        new_mask = ~found
        n_new = int(new_mask.sum())
        if n_new:
            new_rank = rank[new_mask]
            new_order = np.argsort(new_rank, kind="stable")
            new_ids = self.count + np.arange(n_new, dtype=np.int64)
            ids[np.flatnonzero(new_mask)[new_order]] = new_ids
            self.points.append(block[first[new_mask][new_order]])
            self.count += n_new
            merged_keys = np.concatenate([self.sorted_keys, ukeys[new_mask]])
            merged_ids = np.concatenate([self.sorted_ids, ids[new_mask]])
            sorter = np.argsort(merged_keys, kind="stable")
            self.sorted_keys = merged_keys[sorter]
            self.sorted_ids = merged_ids[sorter]
        block_ids = ids[inverse]
        if flagged.any():
            for idx in np.flatnonzero(flagged):
                self._flagged.append((block[idx].copy(), int(block_ids[idx])))
        return block_ids

    def lookup(self, points: np.ndarray) -> np.ndarray:
        """Ids of points already in the table; -1 where not found."""
        keys, flagged = self.q.keys(points)
        out = np.full(len(points), -1, dtype=np.int64)
        if len(self.sorted_keys) == 0:
            return out
        pos = np.minimum(np.searchsorted(self.sorted_keys, keys), len(self.sorted_keys) - 1)
        hit = self.sorted_keys[pos] == keys
        out[hit] = self.sorted_ids[pos[hit]]
        miss = np.flatnonzero(~hit | flagged)
        if len(miss):
            pts = self.point_array()
            for i in miss:
                nid = self._neighbor_match(points[i], pts, exclude=out[i])
                if nid >= 0 and out[i] < 0:
                    out[i] = nid
        return out

    def point_array(self) -> np.ndarray:
        if len(self.points) > 1:
            self.points = [np.concatenate(self.points, axis=0)]
        return self.points[0] if self.points else np.empty((0, len(self.q.mult)))

    def _neighbor_match(self, point: np.ndarray, pts: np.ndarray, exclude: int) -> int:
        key, _ = self.q.keys(point[None, :])
        cand_keys = key[0] + self.q.neighbor_offsets
        pos = np.minimum(np.searchsorted(self.sorted_keys, cand_keys), len(self.sorted_keys) - 1)
        hit = self.sorted_keys[pos] == cand_keys
        for cid in self.sorted_ids[pos[hit]]:
            if cid != exclude and np.linalg.norm(pts[cid] - point) <= self.q.tau:
                return int(cid)
        return -1

    def resolve_flagged(self) -> np.ndarray | None:
        """Merge id groups split by a cell boundary; return the id remap or None.

        Only points flagged as near a rounding boundary can need this; for
        exact-grid inputs the flagged list is empty and this is a no-op.
        """
        if not self._flagged:
            return None
        pts = self.point_array()
        parent = np.arange(self.count, dtype=np.int64)

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        changed = False
        for point, pid in self._flagged:
            other = self._neighbor_match(point, pts, exclude=pid)
            if other >= 0:
                ra, rb = find(pid), find(other)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
                    changed = True
        self._flagged = []
        if not changed:
            return None
        roots = np.array([find(i) for i in range(self.count)], dtype=np.int64)
        keep = np.flatnonzero(roots == np.arange(self.count))
        remap = np.empty(self.count, dtype=np.int64)
        remap[keep] = np.arange(len(keep))
        remap = remap[roots]
        self.points = [pts[keep]]
        self.count = len(keep)
        self.sorted_ids = remap[self.sorted_ids]
        return remap


def _level_step(maps, prev_points, bbox, tau):
    """One enumeration level: images of all maps merged under tolerance tau.

    Returns (table, candidate ids) where candidate k*n_prev + p is map k
    applied to previous point p.
    """
    cand = np.concatenate([s.apply(prev_points) for s in maps], axis=0)
    table = MergeTable(Quantizer(bbox[0], bbox[1], tau))
    ids = table.add_block(cand)
    remap = table.resolve_flagged()
    if remap is not None:
        ids = remap[ids]
    return table, ids


def _invariant_bbox(maps, v0):
    """Axis box around a ball that every similitude maps into itself."""
    center = v0.mean(axis=0)
    drift = max(np.linalg.norm(s.apply(center) - center) for s in maps)
    L = maps[0].scale
    radius = drift * L / (L - 1.0) + 1e-9
    radius = max(radius, np.linalg.norm(v0 - center, axis=1).max() + 1e-9)
    return center - 1.1 * radius, center + 1.1 * radius


def _merged_levels(maps, n):
    """Yield (V_{m-1} points, candidate ids, merge table) for m = 1..n."""
    v0 = essential_fixed_points(maps)
    dists = np.linalg.norm(v0[:, None, :] - v0[None, :, :], axis=2)
    c0 = dists[np.triu_indices(len(v0), k=1)].min()
    bbox = _invariant_bbox(maps, v0)
    points = v0
    for m in range(1, n + 1):
        table, ids = _level_step(maps, points, bbox, c0 / (MERGE_BAND * maps[0].scale**m))
        yield points, ids, table
        points = table.point_array()


def geometric_levels(maps, n):
    """(points, cells, promote) of V_0..V_n with every candidate merged geometrically."""
    points = [essential_fixed_points(maps)]
    cells = [np.arange(len(points[0]), dtype=np.int64)[None, :]]
    promote = []
    for prev, ids, table in _merged_levels(maps, n):
        n_prev = prev.shape[0]
        cells.append(np.concatenate(
            [ids[k * n_prev : (k + 1) * n_prev][cells[-1]] for k in range(len(maps))], axis=0
        ))
        promote.append(table.lookup(prev))
        points.append(table.point_array())
    return points, cells, promote


def count_vertices(maps, up_to):
    """#V_m for m = 0..up_to from the geometric merge, storing no tables."""
    counts = [len(essential_fixed_points(maps))]
    counts.extend(table.count for _, _, table in _merged_levels(maps, up_to))
    return counts


def assert_matches_geometric(system):
    """V_m, cells and promote of a build equal the geometric oracle's bit for
    bit at every level from 1 up."""
    points, cells, promote = geometric_levels(system.maps, system.max_level)
    for m in range(1, system.max_level + 1):
        assert system.vertex_count(m) == len(points[m])
        got, want = system.points[m], points[m]
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), f"V_{m} coordinates differ"
        np.testing.assert_array_equal(system.cells[m], cells[m])
        np.testing.assert_array_equal(system.promote[m - 1], promote[m - 1])


def locate(system, pts, level):
    """Ids of the given coordinates in V_level (-1 where absent): the first
    V_level point within the merge tolerance, by an all-pairs scan."""
    pts = np.asarray(pts, dtype=float)
    d = np.linalg.norm(pts[:, None, :] - system.points[level][None, :, :], axis=2)
    hit = d <= system.merge_tolerance(level)
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
