"""Combinatorial skeleton of a self-similar fractal.

Builds indexed vertex sets V_m, symplex tables with addresses and symmetry
generators from a family of similitudes, and checks the simple-nested-fractal
conditions at finite resolution.

Geometry decides point identity only at level 1 and in the nesting check.
Every level past 1 is built from the V_1 gluing table alone, which is exact
for a nested fractal: psi_i(K) and psi_j(K) meet only in images of V_0, so
the points of V_{m+1} off V_m are the images psi_w(u) of the V_1 points u
off V_0 by the level-m cells w, each in one cell only.

Conventions used throughout the package:

* Level-1 vertex ids are dense integers in first-encounter order while the
  M * #V_0 images psi_k(p) are enumerated by map, then by V_0 point.  Past
  level 1 the numbering is nested: V_{m+1} is V_m followed by its new
  points, psi_w(u) at id #V_m + w * s + slot(u), where s = #V_1 - #V_0 and
  slot j is the j-th V_1 point off V_0 in ascending id order.  So a vertex
  id names the same point at every level >= 1 that has it, V_m is the first
  #V_m ids of V_n, and V_0 point p has id ``v0_ids[p]`` at every level >= 1.
  Builds are reproducible bit-for-bit.
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
# largest fixed-point norm, so a uniformly rescaled IFS keeps its V_0.
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
    tol = FIXED_POINT_RTOL * np.linalg.norm(fps, axis=1).max()
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

    ``points[m]`` for m >= 1 are the first #V_m rows of one array, so a point
    keeps the coordinates of the level that made it.  ``v0_ids`` holds the
    id of each V_0 point at every level >= 1.  Harmonic extension and the
    restrictions trust this numbering, so construction checks what it rests
    on and raises InvariantViolation if a check fails:

    * ``v0_ids`` and ``cells[1]`` name ids of V_1 only, no two V_0 points
      share an id, and every V_1 id lies in a level-1 cell;
    * every V_0 point p is the fixed point psi_k(p) = p of some map k;
    * #V_{m+1} = #V_m + M**m * (#V_1 - #V_0) for every m >= 1.

    Every id table (``cells``, ``v0_ids``) is int32 from the moment it is
    made: ``build`` refuses any level with more than MAX_CANDIDATES
    candidates, so every id fits.

    The system holds no validation result: ``build`` raises on a failed
    condition, and ``validate(system)`` gives the report.  Immutable after
    build apart from the diameter, computed on first access; all arrays are
    safe for shared concurrent reads.
    """

    def __init__(self, maps, name, points, cells, v0_ids, c0, reflections):
        self.maps: list[Similitude] = maps
        self.name = name
        self.points: list[np.ndarray] = points          # level -> (n_m, N) coords
        self.cells: list[np.ndarray] = cells            # level -> (M**m, M0) vertex ids
        self.v0_ids: np.ndarray = v0_ids                # V_0 point -> id at levels >= 1
        self.c0 = c0
        self.reflections: list[Reflection] = reflections

        n = self.vertex_count(1)
        if any(t.min(initial=0) < 0 or t.max(initial=0) >= n for t in (v0_ids, cells[1])):
            raise InvariantViolation("the V_0 ids or cells[1] name ids outside V_1")
        if np.bincount(v0_ids, minlength=n).max() > 1:
            raise InvariantViolation("two V_0 points have one V_1 id")
        uncovered = int((np.bincount(cells[1].ravel(), minlength=n) == 0).sum())
        if uncovered:
            raise InvariantViolation(f"{uncovered} vertices of V_1 lie in no level-1 cell")
        if not (cells[1] == v0_ids).any(axis=0).all():
            raise InvariantViolation("a V_0 point is the fixed point of no map")
        for m in range(1, self.max_level):
            if self.vertex_count(m + 1) != self.vertex_count(m) + self.M**m * (n - self.M0):
                raise InvariantViolation(f"V_{m + 1} does not have #V_{m} + "
                                         f"{self.M**m} * (#V_1 - #V_0) vertices")

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

    Level 1 merges the M*#V_0 candidates psi_k(p) by distance within
    c0 / (MERGE_BAND * L); every deeper level assumes nesting and is numbered
    in closed form from the level below and cells[1] (_tables).  The nesting
    check of validate, geometric to depth 3, is the gate for that
    assumption.  Each point cap is checked before any table is made.

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
    # Translations are compared relative to the largest, whatever the IFS's size.
    size = max(np.abs(s.translation).max() for s in maps)
    for i, j in itertools.combinations(range(len(maps)), 2):
        if (np.abs(maps[i].rotation - maps[j].rotation).max() <= 1e-12
                and np.abs(maps[i].translation - maps[j].translation).max() <= 1e-12 * size):
            raise ValueError(f"maps {i + 1} and {j + 1} are identical")
    cap = DEFAULT_MAX_POINTS if max_points is None else max_points

    v0 = essential_fixed_points(maps)
    diffs = v0[:, None, :] - v0[None, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    c0 = dists[np.triu_indices(len(v0), k=1)].min()
    for m in range(1, max_level + 1):
        _check_cap(len(maps), m, len(v0), cap)

    points, cells, v0_ids = _tables(maps, v0, c0 / (MERGE_BAND * L), max_level)
    system = FractalSystem(maps=list(maps), name=name, points=points, cells=cells,
                           v0_ids=v0_ids, c0=float(c0), reflections=_reflections_of(v0, c0))
    if run_validation:
        report = validate(system)
        number = report.first_violation()
        if number is not None:
            raise ConditionViolation(number, "; ".join(report.failures[:3]))
    return system


def _tables(maps, v0, tau, max_level):
    """(points, cells, v0_ids) of V_0..V_max_level.

    Level 1: candidate k*M0 + p is psi_k(p); one that lies within tau of an
    earlier one repeats it, and every other one takes the next id.  Past
    level 1, corner q of child i of level-m cell w is, for u = cells[1][i, q],
    cells[m][w, r] if u is V_0 point r, else the new point #V_m + w*s +
    slot(u).  The new points of level m + 1 are the M map images of those of
    level m, made one image at a time into one array for V_max_level, whose
    leading rows are every points[m], m >= 1.
    """
    M, M0 = len(maps), len(v0)
    cand = np.concatenate([s.apply(v0) for s in maps], axis=0)
    label = _match(cand, cand, tau)
    if (label[label] != label).any():
        raise InvariantViolation("a level-1 point is within the merge tolerance of two "
                                 "distinct points")
    first = label == np.arange(M * M0)
    n1 = int(first.sum())
    s = n1 - M0
    array = np.empty((n1 + s * (M**max_level - M) // (M - 1), v0.shape[1]))
    array[:n1] = cand[first]
    points = [v0, array[:n1]]
    cells = [np.arange(M0, dtype=np.int32)[None, :],
             (np.cumsum(first, dtype=np.int32) - 1)[label].reshape(M, M0)]
    v0_ids = _match(v0, points[1], tau).astype(np.int32)
    if (v0_ids < 0).any():
        raise InvariantViolation("a vertex failed to persist to the next level")

    column = np.empty(n1, dtype=np.intp)       # V_0 point r -> r, slot j -> M0 + j
    new = np.ones(n1, dtype=bool)
    new[v0_ids] = False
    column[v0_ids], column[new] = np.arange(M0), M0 + np.arange(s)
    column = column[cells[1]]
    fresh = points[1][new]
    for m in range(1, max_level):
        n, count = len(points[m]), M**m
        for k, psi in enumerate(maps):
            array[n + k * len(fresh):n + (k + 1) * len(fresh)] = psi.apply(fresh)
        fresh = array[n:n + count * s]
        points.append(array[:n + count * s])
        new_ids = np.arange(n, n + count * s, s, dtype=np.int32)
        child = np.empty((count, M, M0), dtype=np.int32)
        for (i, q), c in np.ndenumerate(column):
            child[:, i, q] = cells[m][:, c] if c < M0 else new_ids + (c - M0)
        cells.append(child.reshape(-1, M0))
    return points, cells, v0_ids


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
    M = system.M
    on_v0 = np.zeros(system.vertex_count(depth), dtype=bool)
    on_v0[system.v0_ids] = True
    for k in range(1, depth + 1):
        n = system.vertex_count(k)
        tol = system.merge_tolerance(k + 1)
        images = np.concatenate([s.apply(system.points[k]) for s in system.maps])
        rows, other = _close_pairs(images, tol).T
        (i, p), (j, q) = np.divmod(rows, n), np.divmod(other, n)
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
