"""Combinatorial skeleton of a self-similar fractal.

Builds indexed vertex sets V_m, symplex tables with addresses and symmetry
generators from a family of similitudes, and checks the simple-nested-fractal
conditions at finite resolution.

Geometry decides point identity only at level 1 and in the nesting check.
Every level past 1 is built from the V_1 gluing table alone, which is exact
for a nested fractal: psi_i(K) and psi_j(K) meet only in images of V_0, so
two images of V_m points coincide iff they are the same V_1 point.

Conventions used throughout the package:

* Level-m vertex ids are dense integers assigned in first-encounter order
  while images are enumerated lexicographically by address, so builds are
  reproducible bit-for-bit.
* The level-m symplex with address (i_1, ..., i_m) (1-based map indices) is
  row ``sum((i_k - 1) * M**(m-k))`` of ``cells[m]``; each row holds the ids
  of its #V_0 vertices, slot p being the image of the p-th point of V_0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConditionViolation, InvariantViolation, PointCapExceeded

DEFAULT_MAX_POINTS = 2_000_000
# Vertex ids are int32: no level may have more candidates than int32 holds,
# whatever the point cap.
MAX_CANDIDATES = np.iinfo(np.int32).max

# Merge tolerance at level m is c0 / (MERGE_BAND * L**m): distinct level-m
# vertices are separated by order c0 / L**m, so a 1% band is unambiguous.
MERGE_BAND = 100.0

_ORTHO_TOL = 1e-12

# Fixed points and their images coincide within FIXED_POINT_RTOL times the
# largest fixed-point norm (at least 1).
FIXED_POINT_RTOL = 1e-9

# Nesting is checked geometrically through V_min(NESTING_DEPTH, max_level).
NESTING_DEPTH = 3


@dataclass(frozen=True)
class Similitude:
    """One contraction map psi(x) = U x / L + v with U orthogonal, L > 1."""

    scale: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.rotation, dtype=float)
        v = np.asarray(self.translation, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or v.shape != (u.shape[0],):
            raise ValueError("rotation must be N x N and translation length N")
        if not self.scale > 1.0:
            raise ValueError("scaling factor must exceed 1")
        if not (np.isfinite(self.scale) and np.isfinite(u).all() and np.isfinite(v).all()):
            raise ValueError("scale, rotation and translation must be finite")
        if np.abs(u.T @ u - np.eye(u.shape[0])).max() > _ORTHO_TOL:
            raise ValueError("rotation matrix is not orthogonal within 1e-12")
        object.__setattr__(self, "rotation", u)
        object.__setattr__(self, "translation", v)

    @property
    def dim(self) -> int:
        return self.rotation.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}")
        out = x @ (self.rotation / self.scale).T
        for axis, shift in enumerate(self.translation):   # faster than adding rows of N
            out[..., axis] += shift
        return out

    def fixed_point(self) -> np.ndarray:
        """The unique solution of psi(x) = x."""
        return np.linalg.solve(np.eye(self.dim) - self.rotation / self.scale, self.translation)


def essential_fixed_points(maps: list[Similitude]) -> np.ndarray:
    """Fixed points x for which psi_i(x) = psi_j(y) for some fixed point y, i != j.

    Points are returned in first-encounter order over map index.  Raises
    ``ConditionViolation(1)`` when fewer than two points qualify.
    """
    fps = np.array([m.fixed_point() for m in maps])
    tol = FIXED_POINT_RTOL * max(np.linalg.norm(fps, axis=1).max(), 1.0)
    # Fixed points of different maps may coincide; keep a point unless it
    # lies within tol of a point kept before it.
    keep = [0]
    for i in range(1, len(fps)):
        if _match(fps[i:i + 1], fps[keep], tol)[0] < 0:
            keep.append(i)
    unique = fps[keep]
    images = [m.apply(unique) for m in maps]
    hit = np.zeros(len(unique), dtype=bool)
    for i, image in enumerate(images):
        hit |= _match(image, np.concatenate(images[:i] + images[i + 1:]), tol) >= 0
    if hit.sum() < 2:
        raise ConditionViolation(1, f"only {hit.sum()} essential fixed points")
    return unique[hit]


@dataclass(frozen=True)
class Reflection:
    """Reflection in the hyperplane bisecting the segment [x, y], x, y in V_0."""

    matrix: np.ndarray
    translation: np.ndarray
    pair: tuple[int, int]
    perm: np.ndarray | None  # induced permutation of V_0, None if not closed

    def apply(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(pts, dtype=float) @ self.matrix.T + self.translation


@dataclass
class ValidationReport:
    """Pass/fail record of conditions 3, 4 and 5 (nesting, connectivity,
    symmetry).  Condition 1 has no entry: build raises ConditionViolation(1)
    before a system with fewer than two essential fixed points exists.

    Nesting is verified to finite depth only; the depth used is recorded
    because deeper overlap cannot be excluded by this check.
    """

    nesting_ok: bool
    nesting_depth: int
    connectivity_ok: bool
    symmetry_ok: bool
    failures: list[str] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.nesting_ok and self.connectivity_ok and self.symmetry_ok

    def first_violation(self) -> int | None:
        for number, ok in ((3, self.nesting_ok), (4, self.connectivity_ok),
                           (5, self.symmetry_ok)):
            if not ok:
                return number
        return None


class FractalSystem:
    """Validated similitude family with indexed vertex sets and symplex tables.

    Construction derives one table and checks it, together with the fixing
    maps, raising InvariantViolation if a check fails:

    * ``new_vertices``: for each level k < max_level, the (M**k, #V_1 - #V_0)
      ids of the V_{k+1} points off V_k, per level-k cell.  Column j reads,
      from the M child rows of the cell in cells[k + 1], the first slot of
      the j-th V_1 point off V_0 in cells[1] (ascending id order, the order
      of decimate's extension rows).  For every k, ``promote[k]`` and
      ``new_vertices[k]`` together name each V_{k+1} id exactly once: they
      hold #V_{k+1} ids, and a one-byte mask written through both is all
      true (the per-id counts are taken only for the failure message).  The
      tables are built once, for this check, and kept for harmonic
      extension: one int32 per vertex of V_max_level off V_0.
    * every V_0 point p is the fixed point psi_k(p) = p of some map k.

    Every id table (``cells``, ``promote``, ``new_vertices``) is int32 from
    the moment it is made: ``build`` refuses any level with more than
    MAX_CANDIDATES candidates, so every id fits.

    The system holds no validation result: ``build`` raises on a failed
    condition, and ``validate(system)`` gives the report.  Immutable after
    build apart from the diameter, computed on first access; all arrays are
    safe for shared concurrent reads.
    """

    def __init__(self, maps, name, points, cells, promote, c0, reflections):
        self.maps: list[Similitude] = maps
        self.name = name
        self.points: list[np.ndarray] = points          # level -> (n_m, N) coords
        self.cells: list[np.ndarray] = cells            # level -> (M**m, M0) vertex ids
        self.promote: list[np.ndarray] = promote        # level m ids -> level m+1 ids
        self.c0 = c0
        self.reflections: list[Reflection] = reflections

        first = np.full(self.vertex_count(1), cells[1].size)   # first slot of each V_1 id
        np.minimum.at(first, cells[1].ravel(), np.arange(cells[1].size))
        new_slots = first[np.bincount(promote[0], minlength=len(first)) == 0]
        self.new_vertices: list[np.ndarray] = [
            cells[k + 1].reshape(self.M**k, -1).take(new_slots, axis=1)
            for k in range(self.max_level)]
        for k, new in enumerate(self.new_vertices):
            n = self.vertex_count(k + 1)
            if any(t.min(initial=0) < 0 or t.max(initial=0) >= n for t in (promote[k], new)):
                raise InvariantViolation(f"level {k} tables name ids outside V_{k + 1}")
            seen = np.zeros(n, dtype=bool)
            seen[promote[k]] = seen[new] = True
            if len(promote[k]) + new.size != n or not seen.all():
                counts = (np.bincount(promote[k], minlength=n)
                          + np.bincount(new.ravel(), minlength=n))
                raise InvariantViolation(
                    f"level {k} tables write {(counts > 1).sum()} vertices of V_{k + 1} "
                    f"more than once and leave {(counts == 0).sum()} unwritten"
                )
        if not (cells[1] == promote[0]).any(axis=0).all():
            raise InvariantViolation("a V_0 point is the fixed point of no map")

    # -- basic attributes -------------------------------------------------

    @property
    def M(self) -> int:
        return len(self.maps)

    @property
    def M0(self) -> int:
        return self.points[0].shape[0]

    @property
    def dim(self) -> int:
        return self.points[0].shape[1]

    @property
    def L(self) -> float:
        return self.maps[0].scale

    @property
    def max_level(self) -> int:
        return len(self.points) - 1

    @cached_property
    def diameter(self) -> float:
        """Largest distance between two points of V_min(3, max_level)."""
        pts = self.points[min(3, self.max_level)]
        diameter = 0.0
        for i0 in range(0, len(pts), 2048):
            block = pts[i0 : i0 + 2048]
            d = np.linalg.norm(block[:, None, :] - pts[None, :, :], axis=2)
            diameter = max(diameter, float(d.max()))
        return diameter

    def vertex_count(self, m: int) -> int:
        return self.points[m].shape[0]

    def merge_tolerance(self, m: int) -> float:
        return self.c0 / (MERGE_BAND * self.L**m)


def _check_cap(M: int, m: int, M0: int, cap: int) -> None:
    need = M**m * M0
    if need > cap:
        raise PointCapExceeded(
            f"level {m} needs {need} candidate points (cap {cap}); "
            "raise the point cap to enumerate deeper"
        )
    if need > MAX_CANDIDATES:
        raise PointCapExceeded(
            f"level {m} needs {need} candidate points; int32 vertex ids "
            f"allow at most {MAX_CANDIDATES}"
        )


def _match(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """For each point of a, the first point of b within distance tol (-1 if none)."""
    hit = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2) <= tol
    return np.where(hit.any(axis=1), hit.argmax(axis=1), -1)


def _merge(maps, cells, points, dup, to) -> np.ndarray:
    """Append the next level from the M map images of the last one; dup
    (ascending) are the candidates that repeat the earlier candidates to.
    The level's points are allocated once, and each map's image is made,
    copied into them without its rows in dup, and freed before the next
    one, so no more than one image is held.  Return the (M, #V_m)
    candidate ids."""
    M, n = len(maps), len(points[-1])
    ids = np.arange(M * n, dtype=np.int32)
    for before, (lo, hi) in enumerate(zip(dup + 1, np.append(dup[1:], M * n)), start=1):
        ids[lo:hi] -= before
    ids[dup] = ids[to]
    ids = ids.reshape(M, n)
    cells.append(ids.take(cells[-1], axis=1).reshape(-1, cells[0].shape[1]))
    out, at = np.empty((M * n - len(dup), points[-1].shape[1])), 0
    for k, s in enumerate(maps):
        image = s.apply(points[-1])
        cut = dup[(dup >= k * n) & (dup < k * n + n)] - k * n
        for lo, hi in zip(np.append(0, cut + 1), np.append(cut, n)):
            out[at:at + hi - lo] = image[lo:hi]
            at += hi - lo
        del image
    points.append(out)
    return ids


def _reflections_of(v0: np.ndarray, c0: float) -> list[Reflection]:
    refs = []
    dim = v0.shape[1]
    for a, b in itertools.combinations(range(len(v0)), 2):
        normal = v0[b] - v0[a]
        normal = normal / np.linalg.norm(normal)
        mid = 0.5 * (v0[a] + v0[b])
        h = np.eye(dim) - 2.0 * np.outer(normal, normal)
        t = mid - h @ mid
        perm: np.ndarray | None = _match(v0 @ h.T + t, v0, c0 / MERGE_BAND)
        if perm.min() < 0 or np.bincount(perm).max() > 1:
            perm = None
        refs.append(Reflection(matrix=h, translation=t, pair=(a, b), perm=perm))
    return refs


def build(maps: list[Similitude], max_level: int, *, max_points: int | None = None,
          name: str | None = None, run_validation: bool = True) -> FractalSystem:
    """Enumerate V_m and symplex tables for m <= max_level and validate.

    Candidate k*n + p of V_{m+1} is map k applied to point p of V_m.  A
    candidate that repeats an earlier one is dropped, and every other one
    takes as id its index minus the number of dropped candidates before it,
    so ids are dense and in first-encounter order.  Level 1 finds its
    repeats among the M*#V_0 candidates by distance within
    c0 / (MERGE_BAND * L).  Every deeper level assumes nesting and drops the
    images of the same (map, V_0 point) pairs (_glue_levels).  The nesting
    check of validate, geometric to depth 3, is the gate for that assumption.
    Each level's points are allocated once and filled one map image at a
    time (_merge), so beyond its kept tables a build holds at most one map
    image of V_{max_level - 1} and the candidate ids of V_max_level.

    Validation failures raise ``ConditionViolation``; build with
    ``run_validation=False`` and call ``validate`` to inspect an invalid system.
    """
    if len(maps) < 2:
        raise ValueError("need at least two similitudes")
    if max_level < 1:
        raise ValueError("max_level must be at least 1")
    dim = maps[0].dim
    L = maps[0].scale
    for s in maps[1:]:
        if s.dim != dim:
            raise ValueError("all similitudes must share the ambient dimension")
        if abs(s.scale - L) > 1e-12 * L:
            raise ValueError("all similitudes must share the scaling factor")
    for i, j in itertools.combinations(range(len(maps)), 2):
        if (np.abs(maps[i].rotation - maps[j].rotation).max() <= 1e-12
                and np.abs(maps[i].translation - maps[j].translation).max() <= 1e-12):
            raise ValueError(f"maps {i + 1} and {j + 1} are identical")
    cap = DEFAULT_MAX_POINTS if max_points is None else max_points

    v0 = essential_fixed_points(maps)
    diffs = v0[:, None, :] - v0[None, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    c0 = dists[np.triu_indices(len(v0), k=1)].min()
    M, M0 = len(maps), len(v0)
    for m in range(1, max_level + 1):
        _check_cap(M, m, M0, cap)

    tau = c0 / (MERGE_BAND * L)
    cand = np.concatenate([s.apply(v0) for s in maps], axis=0)
    label = _match(cand, cand, tau)
    if (label[label] != label).any():
        raise InvariantViolation("a level-1 point is within the merge tolerance of two "
                                 "distinct points")
    dup = np.flatnonzero(label != np.arange(M * M0))
    points = [v0]
    cells = [np.arange(M0, dtype=np.int32)[None, :]]
    _merge(maps, cells, points, dup, label[dup])
    promote = [_match(v0, points[1], tau).astype(np.int32)]
    if (promote[0] < 0).any():
        raise InvariantViolation("a vertex failed to persist to the next level")

    _glue_levels(maps, max_level, dup, label[dup], points, cells, promote)
    system = FractalSystem(maps=list(maps), name=name, points=points, cells=cells,
                           promote=promote, c0=float(c0), reflections=_reflections_of(v0, c0))
    if run_validation:
        report = validate(system)
        number = report.first_violation()
        if number is not None:
            raise ConditionViolation(number, "; ".join(report.failures[:3]))
    return system


def _glue_levels(maps, max_level, dup, to, points, cells, promote) -> None:
    """Append levels 2..max_level from the V_1 gluing table: level-1
    candidate dup[i] = k*M0 + a (map k applied to V_0 point a) repeats
    candidate to[i].  Under nesting only images of V_0 points coincide, so at
    level m + 1 candidate k*n + v0_at[a] (v0_at: the V_m ids of V_0) repeats
    the image of to[i] in the same way, and no other candidate repeats one.
    _merge holds one map image at a time; the deepest level's candidate ids
    are freed on return, before FractalSystem builds and checks its tables.
    """
    (k, a), (j, b) = np.divmod(dup, len(points[0])), np.divmod(to, len(points[0]))
    v0_at = promote[0]
    for m in range(1, max_level):
        n = len(points[m])
        glued, first = k * n + v0_at[a], j * n + v0_at[b]
        order = np.argsort(glued)
        ids = _merge(maps, cells, points, glued[order], first[order])
        # V_m point i is candidate i of level m once that level's dup is dropped.
        promote.append(np.delete(ids.take(promote[m - 1], axis=1), dup))
        dup = glued[order]
        v0_at = promote[m][v0_at]


def validate(system: FractalSystem) -> ValidationReport:
    """Check conditions 1, 3, 4, 5 at finite resolution.

    Nesting is checked through the equivalent pairwise form
    psi_i(K) ∩ psi_j(K) = psi_i(V_0) ∩ psi_j(V_0), approximated by comparing
    psi_i(V_k) ∩ psi_j(V_k) against psi_i(V_0) ∩ psi_j(V_0) for
    k <= min(NESTING_DEPTH, max_level).
    """
    failures: list[str] = []
    depth = min(NESTING_DEPTH, system.max_level)

    nesting_ok = True
    M, v0_at = system.M, np.arange(system.M0)
    for k in range(1, depth + 1):
        n, v0_at = system.vertex_count(k), system.promote[k - 1][v0_at]
        tol = system.merge_tolerance(k + 1)
        images = np.concatenate([s.apply(system.points[k]) for s in system.maps])
        rows, other = _close_pairs(images, tol).T
        (i, p), (j, q) = np.divmod(rows, n), np.divmod(other, n)
        on_v0 = np.bincount(v0_at, minlength=n) > 0
        pair = np.where(i < j, i * M + j, -1)
        allowed = on_v0[p] & on_v0[q]
        for ij in sorted(set(pair[pair >= 0].tolist())):
            shared = images[np.sort(rows[pair == ij])]
            near = images[rows[(pair == ij) & allowed]]
            stray = shared if not len(near) else shared[
                np.linalg.norm(shared[:, None, :] - near[None, :, :], axis=2).min(axis=1) > tol]
            if len(stray):
                nesting_ok = False
                failures.append(f"nesting: cells {ij // M + 1} and {ij % M + 1} meet off-vertex "
                                f"near {np.round(stray[0], 6).tolist()} at depth {k}")
                break
        if not nesting_ok:
            break

    pairs = list(itertools.combinations(range(system.M0), 2))
    labels = components(system.vertex_count(1), system.cells[1][:, pairs])
    connectivity_ok = bool((labels == 0).all())
    if not connectivity_ok:
        failures.append("connectivity: the level-1 neighbor graph is disconnected")

    symmetry_ok = True
    cell_rows = np.sort(system.cells[1], axis=1)
    for ref in system.reflections:
        if ref.perm is None:
            symmetry_ok = False
            failures.append(f"symmetry: reflection across pair {ref.pair} does not permute V_0")
            continue
        # Each V_1 image matched once; an unmatched corner (-1) is in no cell row.
        ids = _match(ref.apply(system.points[1]), system.points[1], system.merge_tolerance(1))
        images = np.sort(ids[system.cells[1]], axis=1)
        onto = (images[:, None] == cell_rows).all(axis=2).any(axis=1)
        if not onto.all():
            symmetry_ok = False
            failures.append(f"symmetry: reflection across pair {ref.pair} does not map cell "
                            f"{np.argmin(onto) + 1} onto a cell")

    return ValidationReport(nesting_ok=nesting_ok, nesting_depth=depth,
                            connectivity_ok=connectivity_ok, symmetry_ok=symmetry_ok,
                            failures=failures)


def components(n: int, edges) -> np.ndarray:
    """The smallest node of each node's connected component, for nodes
    0..n-1 and (node, node) edges.  A label always names a node of the same
    component; a round pulls both ends of each edge to the smaller label and
    jumps every label to its label's label, until a round changes nothing."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    label = np.arange(n)
    while True:
        before = label.copy()
        low = np.minimum(label[edges[:, 0]], label[edges[:, 1]])
        np.minimum.at(label, edges[:, 0], low)
        np.minimum.at(label, edges[:, 1], low)
        label = label[label]
        if (label == before).all():
            return label


def _close_pairs(points: np.ndarray, tol: float) -> np.ndarray:
    """Row pairs (r, s), r < s, of points sharing a key on one of two
    half-cell-shifted grids of spacing tol (twice if on both).  Coincident
    copies differ by float noise only, so they share a key on at least one
    grid.  The grid origin is a multiple of tol, so points sitting exactly on
    grid multiples stay at cell centers of the unshifted grid.  Key rows are
    sorted as rows, never packed into one integer, so no key range overflows.
    """
    found = [np.empty((0, 2), dtype=np.int64)]
    for shift in (0.0, 0.5):
        origin = np.floor(points.min(axis=0) / tol) * tol - (2.0 + shift) * tol
        keys = np.rint((points - origin) / tol).astype(np.int64)
        order = np.lexsort(keys.T)              # stable: rows of a key ascend
        keys = keys[order]
        group = np.cumsum(np.append(True, (keys[1:] != keys[:-1]).any(axis=1)))
        for gap in range(1, len(points)):
            same = group[gap:] == group[:-gap]
            if not same.any():
                break
            found.append(np.column_stack([order[:-gap][same], order[gap:][same]]))
    return np.concatenate(found)
