"""Discrete Lipschitz coefficients and the norm-equivalence experiment.

The coefficient at scale m integrates squared increments over pairs closer
than a cutoff r = c0 / base^m against the normalized counting measure of V_n,
with base L (the fractal's natural scale) for b_m and base 2 for a_m.

A pair {x, y} counts when sqrt(d2) < r (1 - TIE_BAND), with d2 summed axis by
axis: the strict |x - y| < r of exact arithmetic.  Lattice fractals put
thousands of pairs at exactly the cutoff distance; the band puts them all
outside, so float rounding decides none of them and the coefficients are
invariant under rigid motions and uniform rescaling of the whole IFS.

Pair sums never visit the pairs one by one.  Each V_n point is owned by the
lexicographically smallest level-n symplex containing it, and its level-k
owner is that index // M^(n-k), so the owned sets form a tree.  Each cell
keeps the count, mean and centred sum of squares of its owned values, and the
pairs between cells A and B sum to n_B SS_A + n_A SS_B + n_A n_B (mu_A-mu_B)^2,
a formula without cancellation (Chan, Golub & LeVeque 1983).  A dual-tree
walk over cell pairs (Gray & Moore 2000) bounds each pair's distances by the
cells' bounding balls: a pair wholly inside the cutoff is summed from its
moments, one wholly outside is dropped, and a straddling one is refined into
its child pairs.  The walk's leaves are buckets: the coarsest level whose
cells each own at most LEAF_POINTS points, or level n if none does.  A
straddling pair of leaf cells (A, B) is settled point against cell: each
point u owned by A is tested against B's bounding ball, the same three ways,
and only the points whose test straddles enumerate B's points.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .characteristics import dimensions
from .energy import (FunctionSpec, VertexFunction, _check_level, _corner_columns,
                     _restrict_corners, energy_sequence, nonnegative_sum)
from .errors import ResolutionTooCoarse
from .harmonic import HarmonicStructure
from .ifs import FractalSystem

# Pairs within TIE_BAND * r of the cutoff sphere are ties; they count as outside.
TIE_BAND = 1e-9
# Bound on the slots of one temporary: cell pairs of a frontier chunk, point
# rows or point pairs of a leaf chunk, or pairs x functions of a gather.
# 2^15 slots (256 KiB of float64) had the lowest median wall time of
# 2^14-2^17 on each pair workload of the benchmark.
PAIR_CHUNK = 1 << 15
# Most points a leaf cell may own: level n-1 of the gaskets (6-10 points),
# level n of the snowflake (6).  Level n-2 (gaskets 15-34, snowflake 198)
# slows the gasket2 and snowflake walks; a bound of 40 (snowflake level n-1,
# 30 points) speeds the snowflake but slows the gasket2 corpus walk.
LEAF_POINTS = 12


@dataclass(frozen=True)
class LipschitzParams:
    """Exponents and cutoff data: alpha = d_w/2, d = d_f, p = 2, q = inf."""

    alpha: float
    d: float
    c0: float
    base: float

    def __post_init__(self):
        if self.alpha <= 0 or self.base <= 1:
            raise ValueError("need alpha > 0 and base > 1")

    def cutoff(self, m: int) -> float:
        return self.c0 / self.base**m


def default_params(system: FractalSystem, hs: HarmonicStructure,
                   base: float | str = "L") -> LipschitzParams:
    dims = dimensions(system, hs)
    base_val = system.L if base == "L" else float(base)
    return LipschitzParams(alpha=dims.d_w / 2.0, d=dims.d_f, c0=system.c0, base=base_val)


# -- pair sums ----------------------------------------------------------------


def _owners(system: FractalSystem, n: int) -> np.ndarray:
    """Lexicographically smallest level-n symplex containing each V_n point.

    Its index // M^(n-k) is the smallest level-k symplex containing the point,
    since the level-k ancestor of a level-n row is that row // M^(n-k).
    """
    owner = np.full(system.vertex_count(n), np.iinfo(np.int64).max, dtype=np.int64)
    cell = np.repeat(np.arange(system.M**n, dtype=np.int64), system.M0)
    np.minimum.at(owner, system.cells[n].ravel(), cell)
    return owner


class _Level(NamedTuple):
    """Moments and bounding balls of the V_n points owned by each level-k cell."""

    count: np.ndarray       # (cells,) owned points
    mean: np.ndarray        # (F, cells) mean of the owned values, rounded
    fix: np.ndarray         # (F, cells) correction of the rounded mean
    ss: np.ndarray          # (F, cells) centred sum of squares
    center: np.ndarray      # (cells, N) mean of the owned points
    radius: np.ndarray      # (cells,) distance from center to the farthest owned point


class _CellTree:
    """Per-level moments and bounding balls of the points each cell owns.

    Levels run from the root down to the leaf level, the first whose cells
    each own at most LEAF_POINTS points (level n at the latest); the counts
    only shrink with depth.  Points are sorted by their level-n owner, so
    every cell at every level owns a contiguous run, and each leaf cell's
    points are also kept by slot, padded to the widest leaf, for the
    point-against-cell tests.  The balls enclose the owned points
    themselves, so the walk assumes nothing about the shape of a cell.  The
    mean is kept as a rounded value plus its correction (the corrected
    two-pass algorithm of Chan, Golub & LeVeque), so mu_A - mu_B keeps its
    relative accuracy when two close cells have nearly equal means.
    Moments are function-major, (F, cells), and are gathered with ``take``,
    which keeps the pair axis contiguous: numpy sums pairwise only along
    that axis.
    """

    def __init__(self, system: FractalSystem, n: int, values: np.ndarray):
        owner = _owners(system, n)
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        self.M = system.M
        self.points = system.points[n][order]
        self.values = np.ascontiguousarray(values[order].T)
        self.levels: list[_Level] = []
        for k in range(n + 1):
            key = owner // system.M ** (n - k)
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            held = key[starts]
            count = np.bincount(key, minlength=system.M**k)
            mean, fix, ss = (np.zeros((len(self.values), system.M**k)) for _ in range(3))
            mean[:, held] = np.add.reduceat(self.values, starts, axis=1) / count[held]
            dev = self.values - mean[:, key]
            resid = np.add.reduceat(dev, starts, axis=1)
            fix[:, held] = resid / count[held]
            sq = np.add.reduceat(dev * dev, starts, axis=1) - resid * resid / count[held]
            ss[:, held] = np.maximum(sq, 0.0)
            center = np.zeros((system.M**k, system.dim))
            center[held] = np.add.reduceat(self.points, starts) / count[held, None]
            dist = np.sqrt(((self.points - center[key]) ** 2).sum(axis=1))
            radius = np.zeros(system.M**k)
            radius[held] = np.maximum.reduceat(dist, starts)
            self.levels.append(_Level(count, mean, fix, ss, center, radius))
            if count.max() <= LEAF_POINTS:
                break
        self.leaf = k
        # Each leaf cell's points by slot, padded with -1 to the widest owned
        # set, and their coordinates axis by axis, padded with NaN.
        slot = np.arange(len(key)) - np.searchsorted(key, key)
        width = int(count.max())
        self.owned = np.full((system.M**k, width), -1, dtype=np.int64)
        self.owned[key, slot] = np.arange(len(key))
        self.owned_xyz = np.full((system.dim, system.M**k, width), np.nan)
        self.owned_xyz[:, key, slot] = self.points.T
        self.points_xyz = np.ascontiguousarray(self.points.T)
        self.leaf_center = np.ascontiguousarray(self.levels[-1].center.T)

    def pair_sum(self, radius: float) -> np.ndarray:
        """Sum of (f(x)-f(y))^2 over unordered pairs with sqrt(d2) < radius (1 - TIE_BAND)."""
        inner, outer = radius * (1.0 - TIE_BAND), radius * (1.0 + TIE_BAND)
        parts = [np.zeros(len(self.values))]
        stack: list[tuple[int, np.ndarray, np.ndarray]] = []
        group = max(1, PAIR_CHUNK // self.M**2)

        def settle(k: int, a: np.ndarray, b: np.ndarray) -> None:
            # Cell pairs a <= b at level k: sum the inside ones, drop the
            # outside ones, refine or enumerate the ones straddling the cutoff.
            level = self.levels[k]
            na, nb = level.count[a], level.count[b]
            gap = np.sqrt(((level.center[a] - level.center[b]) ** 2).sum(axis=1))
            reach = level.radius[a] + level.radius[b]
            live = (na > 0) & (nb > 0)
            inside = live & (gap + reach < inner)
            if inside.any():
                parts.append(self._block_sum(k, a[inside], b[inside]))
            cross = live & ~inside & (gap - reach < outer)
            a, b = a[cross], b[cross]
            if k == self.leaf:
                parts.append(self._leaf_sum(a, b, inner, outer))
                return
            for s in range(0, len(a), group):
                stack.append((k, a[s : s + group], b[s : s + group]))

        root = np.zeros(1, dtype=np.int64)
        settle(0, root, root)
        child = np.arange(self.M)
        while stack:
            k, a, b = stack.pop()
            ca = (a[:, None, None] * self.M + child[None, :, None]).repeat(self.M, axis=2)
            cb = (b[:, None, None] * self.M + child[None, None, :]).repeat(self.M, axis=1)
            keep = ca <= cb      # a self pair refines into its unordered child pairs
            settle(k + 1, ca[keep], cb[keep])
        return np.stack(parts, axis=1).sum(axis=1)

    def _block_sum(self, k: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Sum over whole cell pairs: n_b SS_a + n_a SS_b + n_a n_b (mu_a - mu_b)^2
        for a < b, and n_a SS_a over the pairs inside one cell (a = b)."""
        level = self.levels[k]
        out = np.zeros(len(self.values))
        step = max(1, PAIR_CHUNK // len(out))
        for s in range(0, len(a), step):
            ia, ib = a[s : s + step], b[s : s + step]
            na, nb = level.count[ia].astype(float), level.count[ib].astype(float)
            half = np.where(ia == ib, 0.5, 1.0)
            diff = (level.mean.take(ia, axis=1) - level.mean.take(ib, axis=1)) \
                + (level.fix.take(ia, axis=1) - level.fix.take(ib, axis=1))
            out += (half * (nb * level.ss.take(ia, axis=1) + na * level.ss.take(ib, axis=1)
                            + na * nb * diff * diff)).sum(axis=1)
        return out

    def _leaf_sum(self, a: np.ndarray, b: np.ndarray, inner: float,
                  outer: float) -> np.ndarray:
        """Sum over straddling leaf cell pairs a <= b, one row per owned point u of a.

        Each row is tested against b's bounding ball: a row with all of b
        inside the cutoff sums from b's moments, one with all of b outside is
        dropped, and only the mixed rows in between enumerate b's points.
        The rows of a self pair (a = b) meet each unordered pair twice and
        weigh 1/2, as in _block_sum.
        """
        level = self.levels[self.leaf]
        width = self.owned.shape[1]
        below = _below_sqrt(inner)
        out = np.zeros(len(self.values))
        step = max(1, PAIR_CHUNK // width)
        for s in range(0, len(a), step):
            ia, ib = a[s : s + step], b[s : s + step]
            dist = self._d2(ia, self.leaf_center, ib)
            np.sqrt(dist, out=dist)
            reach = level.radius.take(ib)[:, None]
            row = self.owned.take(ia, axis=0).ravel()
            half = np.where(ia == ib, 0.5, 1.0)
            far = dist + reach                          # NaN padding compares False
            full = np.flatnonzero(far < inner)
            mixed = np.flatnonzero((far >= inner) & (dist - reach < outer))
            pair = full // width
            out += self._row_sum(row[full], ib[pair], half[pair])
            pair = mixed // width
            out += self._mixed_sum(row[mixed], ib[pair], half[pair], below)
        return out

    def _row_sum(self, x: np.ndarray, b: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Weighted sum of point x against all of leaf cell b:
        n_b (f_x - mu_b)^2 + SS_b, _block_sum's formula with a one-point cell."""
        level = self.levels[self.leaf]
        out = np.zeros(len(self.values))
        step = max(1, PAIR_CHUNK // len(out))
        for s in range(0, len(x), step):
            ix, ib = x[s : s + step], b[s : s + step]
            diff = self.values.take(ix, axis=1)
            diff -= level.mean.take(ib, axis=1)
            diff -= level.fix.take(ib, axis=1)
            diff *= diff
            diff *= level.count.take(ib)
            diff += level.ss.take(ib, axis=1)
            diff *= weight[s : s + step]
            out += diff.sum(axis=1)
        return out

    def _mixed_sum(self, x: np.ndarray, b: np.ndarray, weight: np.ndarray,
                   below: float) -> np.ndarray:
        """Weighted sum of point x against the points of leaf cell b with d2 < below."""
        width = self.owned.shape[1]
        out = np.zeros(len(self.values))
        step = max(1, PAIR_CHUNK // width)
        rows = max(1, PAIR_CHUNK // len(out))
        for s in range(0, len(x), step):
            ix, ib = x[s : s + step], b[s : s + step]
            near = np.flatnonzero(self._d2(ib, self.points_xyz, ix) < below)
            row = near // width
            near_x, near_w = ix[row], weight[s : s + step][row]
            near_y = self.owned.take(ib, axis=0).ravel()[near]
            for t in range(0, len(near), rows):
                diff = self.values.take(near_x[t : t + rows], axis=1)
                diff -= self.values.take(near_y[t : t + rows], axis=1)
                diff *= diff
                diff *= near_w[t : t + rows]
                out += diff.sum(axis=1)
        return out

    def _d2(self, cells: np.ndarray, xyz: np.ndarray, at: np.ndarray) -> np.ndarray:
        """d2 from point ``at[i]`` of the coordinates ``xyz`` (axis by axis) to
        each owned point of leaf cell ``cells[i]``: (len(cells), width), NaN
        at the padding."""
        d2 = np.zeros((len(cells), self.owned.shape[1]))
        for own, axis in zip(self.owned_xyz, xyz):
            diff = own.take(cells, axis=0)
            diff -= axis.take(at)[:, None]
            diff *= diff
            d2 += diff
        return d2


def _below_sqrt(inner: float) -> float:
    """The least float t with sqrt(t) >= inner, so that d2 < t iff sqrt(d2) < inner:
    sqrt is correctly rounded, hence monotone, and t lies within an ulp or two
    of inner^2."""
    t = inner * inner
    while math.sqrt(t) >= inner:
        t = math.nextafter(t, 0.0)
    while math.sqrt(t) < inner:
        t = math.nextafter(t, math.inf)
    return t


def pair_power_sums(system: FractalSystem, n: int, radii: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    """For each radius r: sum of (f(x)-f(y))^2 over unordered V_n pairs closer than r.

    A pair counts when sqrt(d2) < r (1 - TIE_BAND), d2 summed axis by axis.
    ``values`` is (#V_n,) or (#V_n, F); the result is (len(radii), F).  Other
    values, or n outside [1, max_level], raise ValueError.
    """
    if not 1 <= n <= system.max_level:
        raise ValueError(f"level {n} out of range [1, {system.max_level}]")
    if values.shape[0] != system.vertex_count(n):
        raise ValueError(f"values need {system.vertex_count(n)} rows, one per V_{n} point")
    vals = values[:, None] if values.ndim == 1 else values
    tree = _CellTree(system, n, vals)
    return np.array([tree.pair_sum(float(r)) for r in np.asarray(radii, dtype=float)])


def _coefficient_from_sum(params: LipschitzParams, m: int, n_points: int,
                          pair_sum: np.ndarray) -> np.ndarray:
    integral = params.base ** (m * params.d) * (2.0 * pair_sum) / float(n_points) ** 2
    return params.base ** (m * params.alpha) * np.sqrt(integral)


def _check_scale(m, what: str) -> None:
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"{what} must be an integer >= 1 (got {m!r})")


def coefficient_table(system: FractalSystem, values: np.ndarray, n: int,
                      ms: list[int], params: LipschitzParams) -> np.ndarray:
    """Coefficients for several scales m at once; values as in pair_power_sums.

    Every m must be an integer (not a bool) with m >= 1, else ValueError;
    m >= n raises ResolutionTooCoarse.  Each column is summed at a
    power-of-two scale, which is exact: data whose squared increments would
    overflow gets its finite coefficient, and data whose sums stay in the
    float range gets the bits of an unscaled sum.
    """
    if not ms:
        raise ValueError("need at least one scale m")
    for m in ms:
        _check_scale(m, "scale m")
    if any(m >= n for m in ms):
        raise ResolutionTooCoarse(f"need n > m for every m in {ms} (n = {n})")
    # Each column is summed as f 2^-e with max |f 2^-e| in [1/2, 1), so the
    # squared increments cannot overflow; a power of two scales exactly, and
    # the coefficient, homogeneous of degree 1, is multiplied back by 2^e.
    peak = np.max(np.abs(values), axis=0, initial=0.0)
    _, e = np.frexp(np.where(np.isfinite(peak), peak, 0.0))
    sums = pair_power_sums(system, n, [params.cutoff(m) for m in ms], np.ldexp(values, -e))
    table = np.ldexp(np.array([_coefficient_from_sum(params, m, system.vertex_count(n), row)
                               for m, row in zip(ms, sums)]), e)
    return table[:, 0] if values.ndim == 1 else table


def b_coefficient(system: FractalSystem, f: VertexFunction, m: int,
                  params: LipschitzParams) -> float:
    """Base-``params.base`` Lipschitz coefficient of f at scale m against mu_n,
    with m checked as in coefficient_table against n = f.level."""
    return float(coefficient_table(system, f.values, f.level, [m], params)[0])


# -- norm reports -------------------------------------------------------------


@dataclass
class NormReport:
    """Both norms of one function with the coefficient and energy sequences."""

    tag: str
    level: int
    b_values: list[tuple[int, float]]
    sup_b: float
    l2_norm: float
    lip_norm: float
    energy_entries: list[tuple[int, float]]
    dirichlet_energy: float
    dirichlet_norm: float
    ratio: float | None               # None if the Dirichlet norm is 0 or the ratio not finite
    monotone_ok: bool


def norm_report(system: FractalSystem, hs: HarmonicStructure, spec: FunctionSpec,
                m_max: int, n: int) -> NormReport:
    """Assemble the Lipschitz and Dirichlet norms of one function at level n."""
    return batch_norm_reports(system, hs, [spec], m_max, n)[0]


def _check_report_levels(system: FractalSystem, m_max: int, n: int) -> None:
    _check_scale(m_max, "m_max")
    if n <= m_max:
        raise ResolutionTooCoarse(
            f"norm report needs n > m_max (got m_max = {m_max}, n = {n})"
        )
    if n > system.max_level:
        raise ValueError(f"level {n} not built")


def batch_norm_reports(system: FractalSystem, hs: HarmonicStructure,
                       specs: list[FunctionSpec], m_max: int, n: int) -> list[NormReport]:
    """Norm reports for a whole corpus with one pair-enumeration pass.

    The coefficient integrals share the pair stream across functions, so the
    per-function results are identical to separate norm_report calls.
    """
    _check_report_levels(system, m_max, n)
    values = np.column_stack([s.sample(system, hs, n).values for s in specs])
    ms = list(range(1, m_max + 1))
    b_table = coefficient_table(system, values, n, ms, default_params(system, hs, base="L"))
    weight = 1.0 / system.vertex_count(n)
    reports = []
    for col, spec in enumerate(specs):
        f_vals = values[:, col]
        l2 = math.sqrt(nonnegative_sum(f_vals * f_vals * weight))
        seq = energy_sequence(system, hs, VertexFunction(n, f_vals), m0=0, tag=spec.tag)
        energy = seq.entries[m_max][1]
        b_col = b_table[:, col]
        sup_b = float(np.max(b_col))
        lip = l2 + sup_b
        dirichlet = math.sqrt(max(energy, 0.0) + l2 * l2)
        ratio = lip / dirichlet if dirichlet > 0 else math.nan
        reports.append(NormReport(
            tag=spec.tag, level=n,
            b_values=[(m, float(v)) for m, v in zip(ms, b_col)],
            sup_b=sup_b, l2_norm=l2, lip_norm=lip,
            energy_entries=seq.entries[: m_max + 1],
            dirichlet_energy=energy, dirichlet_norm=dirichlet,
            ratio=ratio if math.isfinite(ratio) else None, monotone_ok=seq.monotone_ok,
        ))
    return reports


@dataclass
class ExperimentSummary:
    """Norm-ratio statistics of a corpus at one level n."""

    reports: list[NormReport]
    min_ratio: float
    max_ratio: float
    c_empirical: float
    excluded: list[str]


def equivalence_experiment(system: FractalSystem, hs: HarmonicStructure,
                           specs: list[FunctionSpec], m_max: int, n: int) -> ExperimentSummary:
    """Norm reports for a corpus at level n with ratio statistics.

    Functions with undefined ratio (zero Dirichlet norm, or a ratio that is
    not finite) are excluded from the statistics and listed, so the summary
    does not depend on the order of the corpus.  The empirical equivalence
    constant is measured, never asserted: the underlying theorem is
    qualitative.  Whether the ratios have settled in n is a comparison with
    batch_norm_reports at another level, which the summary leaves to the
    caller.
    """
    if not specs:
        raise ValueError("corpus is empty")
    reports = batch_norm_reports(system, hs, specs, m_max, n)
    ratios = [r.ratio for r in reports if r.ratio is not None]
    excluded = [r.tag for r in reports if r.ratio is None]
    if not ratios:
        return ExperimentSummary(reports, math.nan, math.nan, math.nan, excluded)
    min_ratio, max_ratio = min(ratios), max(ratios)
    return ExperimentSummary(reports, min_ratio, max_ratio,
                             max(max_ratio, 1.0 / min_ratio), excluded)


def hoelder_estimate(system: FractalSystem, f: VertexFunction, gamma: float) -> float:
    """Empirical Hoelder constant max |f(x)-f(y)| / |x-y|^gamma over near pairs.

    Pairs are subsampled per symplex: all corner pairs of every cell at every
    level from f's down to 1, which spans separations from diam/L down to the
    finest resolved scale.  The values and coordinates of the top-level
    corners are gathered once and restricted level by level, as in
    energy_sequence.  A stability diagnostic, not a certified norm.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    _check_level(system, f)
    values = _corner_columns(system, f)
    coords = list(system.points[f.level][system.cells[f.level]].transpose(1, 0, 2))
    best = 0.0
    for m in range(f.level, 0, -1):
        if m < f.level:
            values, coords = _restrict_corners(system, values), _restrict_corners(system, coords)
        for p, q in itertools.combinations(range(system.M0), 2):
            dist = np.linalg.norm(coords[p] - coords[q], axis=1)
            diff = np.abs(values[p] - values[q])
            good = dist > 0
            if good.any():
                best = max(best, float((diff[good] / dist[good] ** gamma).max()))
    return best
