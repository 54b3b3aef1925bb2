"""Conductivity matrices, reproduction/decimation, and the renormalization fixed point.

A Dirichlet form on a finite vertex set is carried by a conductivity matrix:
symmetric, nonnegative off the diagonal, zero row sums.  Reproduction lifts a
form on V_0 to V_1 by summing over the M cells; decimation restricts a form on
V_1 back to V_0 by minimizing over interior values (a Schur complement).  The
nondegenerate harmonic structure (NDHS) is the G-invariant fixed point of the
composition, with eigenvalue 1/rho.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, NoConvergence, SingularInterior
from .ifs import FractalSystem

MAX_ITERATIONS = 10_000
CONVERGENCE_TOL = 1e-12


@dataclass(frozen=True)
class ConductivityMatrix:
    """Symmetric nonnegative-off-diagonal zero-row-sum matrix on a vertex set."""

    vertex_ids: np.ndarray
    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        n = len(self.vertex_ids)
        if a.shape != (n, n):
            raise ValueError("entries must be square and match vertex_ids")
        if np.abs(a - a.T).max() > 1e-12 * max(np.abs(a).max(), 1.0):
            raise ValueError("conductivity matrix must be symmetric")
        off = a - np.diag(np.diag(a))
        if off.min() < -1e-12 * max(np.abs(a).max(), 1.0):
            raise ValueError("off-diagonal conductances must be nonnegative")
        if np.abs(a.sum(axis=1)).max() > 1e-10 * max(np.abs(a).max(), 1.0):
            raise ValueError("rows must sum to zero")
        object.__setattr__(self, "entries", a)
        object.__setattr__(self, "vertex_ids", np.asarray(self.vertex_ids))

    @property
    def size(self) -> int:
        return len(self.vertex_ids)

    def is_irreducible(self) -> bool:
        n = self.size
        seen = {0}
        stack = [0]
        positive = self.entries > 0
        while stack:
            i = stack.pop()
            for j in np.flatnonzero(positive[i]):
                if j != i and j not in seen:
                    seen.add(int(j))
                    stack.append(int(j))
        return len(seen) == n


def from_off_diagonal(vertex_ids, off: np.ndarray) -> ConductivityMatrix:
    """Build a conductivity matrix from off-diagonal conductances (diagonal balanced)."""
    a = np.array(off, dtype=float)
    np.fill_diagonal(a, 0.0)
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, -a.sum(axis=1))
    return ConductivityMatrix(vertex_ids=vertex_ids, entries=a)


def unit_matrix(n: int) -> ConductivityMatrix:
    """Unit conductance on every pair: the canonical G-invariant start."""
    return from_off_diagonal(np.arange(n), np.ones((n, n)))


def energy0(a: ConductivityMatrix, values: np.ndarray) -> float:
    """Dirichlet form (1/2) sum a_xy (f(x) - f(y))^2 = -f' A f."""
    f = np.asarray(values, dtype=float)
    if f.shape != (a.size,):
        raise ValueError(f"expected {a.size} values, got {f.shape}")
    return float(-f @ a.entries @ f)


def reproduce(system: FractalSystem, a: ConductivityMatrix) -> ConductivityMatrix:
    """Lift a form on V_0 to V_1: sum of the form over the M cells.

    Conductances of cells sharing a vertex accumulate, so the quadratic form
    of the result equals the reproduced sum exactly.
    """
    if a.size != system.M0:
        raise ValueError("matrix must live on V_0")
    n1 = system.vertex_count(1)
    off = np.zeros((n1, n1))
    for row in system.cells[1]:
        np.add.at(off, (row[:, None], row[None, :]), a.entries - np.diag(np.diag(a.entries)))
    return from_off_diagonal(np.arange(n1), off)


def decimate(b: ConductivityMatrix, boundary: np.ndarray):
    """Restrict a form to the boundary by minimizing over interior values.

    Returns the Schur complement as a conductivity matrix on the boundary ids
    plus the minimizer map (interior values = extension_matrix @ boundary
    values, interior rows in ascending id order).
    """
    boundary = np.asarray(boundary)
    n = b.size
    interior = np.setdiff1d(np.arange(n), boundary)
    if len(interior) == 0:
        return b, np.zeros((0, len(boundary)))
    lap = -b.entries
    l_bb = lap[np.ix_(boundary, boundary)]
    l_bi = lap[np.ix_(boundary, interior)]
    l_ii = lap[np.ix_(interior, interior)]
    try:
        chol = np.linalg.cholesky(l_ii)
    except np.linalg.LinAlgError as exc:
        raise SingularInterior(
            "interior block is not positive definite (interior component "
            "not connected to the boundary)"
        ) from exc
    # extension = -L_II^{-1} L_IB via the Cholesky factor
    half = np.linalg.solve(chol, l_bi.T)
    extension = -np.linalg.solve(chol.T, half)
    schur = l_bb - half.T @ half
    a = -schur
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    np.fill_diagonal(a, -a.sum(axis=1))
    return ConductivityMatrix(vertex_ids=b.vertex_ids[boundary], entries=a), extension


@dataclass
class HarmonicStructure:
    """NDHS: the normalized G-invariant fixed point of decimation-reproduction."""

    matrix: ConductivityMatrix
    rho: float
    extension_matrix: np.ndarray      # (#V_1 - #V_0) x #V_0, interior ids ascending
    interior_ids: np.ndarray          # V_1 ids off V_0, ascending: the extension rows
    iteration_trace: list[tuple[float, float]] = field(default_factory=list)
    orbit_classes: list[list[tuple[int, int]]] = field(default_factory=list)
    class_values: np.ndarray | None = None

    def residual(self, system: FractalSystem) -> float:
        """Entrywise infinity-norm of rho * (De o R)(A) - A."""
        lifted = reproduce(system, self.matrix)
        back, _ = decimate(lifted, system.promote[0])
        # decimate keeps the boundary rows in the order given: row p is V_0 point p.
        return float(np.abs(self.rho * back.entries - self.matrix.entries).max())


def pair_orbit_classes(system: FractalSystem) -> list[list[tuple[int, int]]]:
    """Orbits of unordered V_0 pairs under the generated symmetry group.

    Closure under the generating reflections only; the classes are ordered by
    their smallest pair, pairs enumerated lexicographically.
    """
    perms = [r.perm for r in system.reflections if r.perm is not None]
    n = system.M0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {p: k for k, p in enumerate(pairs)}
    parent = list(range(len(pairs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for (i, j), k in index.items():
            a, b = int(perm[i]), int(perm[j])
            if a > b:
                a, b = b, a
            other = index[(a, b)]
            ra, rb = find(k), find(other)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    groups: dict[int, list[tuple[int, int]]] = {}
    for p, k in index.items():
        groups.setdefault(find(k), []).append(p)
    return [groups[r] for r in sorted(groups)]


def _class_matrix(system, classes, values) -> np.ndarray:
    off = np.zeros((system.M0, system.M0))
    for val, cls in zip(values, classes):
        for i, j in cls:
            off[i, j] = off[j, i] = val
    return off


def _class_values_of(entries: np.ndarray, classes, check_tol=1e-8) -> np.ndarray:
    values = np.empty(len(classes))
    for k, cls in enumerate(classes):
        vals = np.array([entries[i, j] for i, j in cls])
        spread = vals.max() - vals.min()
        if spread > check_tol * max(np.abs(vals).max(), 1.0):
            raise InvariantViolation(
                f"decimated matrix is not constant on orbit class {k} (spread {spread:g})"
            )
        values[k] = vals.mean()
    return values


def solve_ndhs(system: FractalSystem) -> HarmonicStructure:
    """Iterate normalized decimation-reproduction to the harmonic structure.

    Starts from unit conductance on every orbit class; each step applies
    T = De o R, reads off the orbit-class values, and renormalizes so the
    nearest-neighbor class stays 1.  rho is the pre-normalization ratio.
    Oscillation (sign-alternating steps) engages 0.5 damping.
    """
    if system.validation is not None and not system.validation.all_ok:
        raise ValueError("system failed validation; refusing to solve")
    classes = pair_orbit_classes(system)
    v0 = system.points[0]
    dist_of_class = np.array(
        [np.linalg.norm(v0[c[0][0]] - v0[c[0][1]]) for c in classes]
    )
    nn_class = int(np.argmin(dist_of_class))

    boundary = system.promote[0]
    values = np.ones(len(classes))
    trace: list[tuple[float, float]] = []
    damping = 1.0
    prev_delta = None
    converged = False
    for _ in range(MAX_ITERATIONS):
        a = from_off_diagonal(np.arange(system.M0), _class_matrix(system, classes, values))
        lifted = reproduce(system, a)
        back, _ = decimate(lifted, boundary)
        back_values = _class_values_of(back.entries, classes)
        rho = values[nn_class] / back_values[nn_class]
        new_values = back_values / back_values[nn_class]
        delta = new_values - values
        gap = float(np.abs(delta).max())
        trace.append((gap, float(rho)))
        if gap < CONVERGENCE_TOL:
            values = new_values
            converged = True
            break
        if prev_delta is not None and float(np.dot(delta, prev_delta)) < 0.0:
            damping = 0.5
        prev_delta = delta
        values = values + damping * delta
    if not converged:
        raise NoConvergence(
            f"no fixed point after {MAX_ITERATIONS} iterations (last gap {trace[-1][0]:g})",
            trace=trace,
        )

    if values.min() <= 0.0:
        raise NoConvergence(
            f"iteration reached a degenerate fixed point (class values {values})",
            trace=trace,
        )
    matrix = from_off_diagonal(np.arange(system.M0), _class_matrix(system, classes, values))
    lifted = reproduce(system, matrix)
    back, extension = decimate(lifted, boundary)
    rho = 1.0 / _class_values_of(back.entries, classes)[nn_class]
    if rho <= 1.0:
        raise NoConvergence(f"fixed point has rho = {rho} <= 1", trace=trace)
    if not matrix.is_irreducible():
        raise NoConvergence("fixed point is not irreducible", trace=trace)
    return HarmonicStructure(
        matrix=matrix, rho=float(rho), extension_matrix=extension,
        interior_ids=np.setdiff1d(np.arange(system.vertex_count(1)), boundary),
        iteration_trace=trace, orbit_classes=classes, class_values=values,
    )
