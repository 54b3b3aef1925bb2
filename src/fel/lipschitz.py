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
its child pairs.  The walk's leaves are the level-(n - 1) cells on every
system, the leaf level of the class path too.  A straddling pair of leaf
cells (A, B) is settled point against cell: each point u owned by A is
tested against B's bounding ball, the same three ways, and only the points
whose test straddles enumerate B's points.

The walk takes raw vertex data: coefficient_table, b_coefficient and
``perturb:`` specs.  ``coord:`` and ``harmonic:`` specs take the class path
of fel.classes, which needs no V_n values and agrees with the walk to about
1e-15 relative, not bit for bit.  batch_norm_reports (and so norm_report and
equivalence_experiment) passes the specs alone to
fel.classes.spec_coefficient_table, then samples one spec at a time on V_n,
so the reports hold one column of #V_n values however large the corpus.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .characteristics import dimensions
from .energy import (ENERGY_BLOCK, FunctionSpec, VertexFunction, _check_level,
                     _corner_blocks, _row_blocks, energy_sequence, nonnegative_sum)
from .errors import ResolutionTooCoarse
from .harmonic import HarmonicStructure
from .ifs import FractalSystem

# Pairs within TIE_BAND * r of the cutoff sphere are ties; they count as outside.
TIE_BAND = 1e-9
# Slots of one buffer of the walk's workspace: cell pairs of a frontier
# chunk, point rows or point pairs of a leaf chunk, or pairs x functions of a
# gather; fel.classes blocks its leaf point pairs by it too.  On the gasket3
# L7 walk of scale-sweep-g3 (2-core x86-64 Xeon), 2^14, 2^15 (256 KiB of
# float64) and 2^16 slots ran within 0.03 s of each other in median wall
# time, inside each one's 0.04-0.06 s IQR; peak RSS 47.8, 49.3, 52.5 MiB.
PAIR_CHUNK = 1 << 15


@dataclass(frozen=True)
class LipschitzParams:
    """Exponents and cutoff data: alpha = d_w/2, d = d_f, p = 2, q = inf."""

    alpha: float
    d: float
    c0: float
    base: float

    def __post_init__(self):
        fields = (self.alpha, self.d, self.c0, self.base)
        if not (all(map(math.isfinite, fields)) and min(fields[:3]) > 0 and self.base > 1):
            raise ValueError("need finite alpha > 0, d > 0, c0 > 0 and base > 1 "
                             f"(got alpha={self.alpha!r}, d={self.d!r}, c0={self.c0!r}, "
                             f"base={self.base!r})")

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

    count: np.ndarray       # (cells,) owned points, as floats for the float gathers
    mean: np.ndarray        # (F, cells) mean of the owned values, rounded
    fix: np.ndarray         # (F, cells) correction of the rounded mean
    ss: np.ndarray          # (F, cells) centred sum of squares
    center: np.ndarray      # (N, cells) mean of the owned points, axis by axis
    radius: np.ndarray      # (cells,) distance from center to the farthest owned point


class _CellTree:
    """Per-level moments and bounding balls of the points each cell owns.

    Levels run from the root down to the leaf level n - 1, whose cells own
    at most #V_1 points each.  Points are sorted by their level-n owner, so
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

    Every temporary of the walk is a view of one workspace that the tree
    allocates once and each radius reuses: 7 int64, 5 float64 and 4 bool
    rows of PAIR_CHUNK slots (3.1 MiB; a float row holds F slots if F is
    larger), and the stack of pending cell pairs, 2 x PAIR_CHUNK int64 to
    start with, which doubles when a walk needs more.  Index lists of
    selected slots (np.flatnonzero, which has no out=) are the walk's only
    allocations that scale with a chunk, so the heap does not grow and
    shrink by whole buffers at every chunk.  The gathers use
    ``take(..., mode="clip")``: with the default mode="raise", numpy
    gathers into a temporary before it writes ``out``.  Every index is in
    range by construction (cells of the level, points a leaf cell owns,
    slots of a chunk), so clipping never moves one.
    """

    def __init__(self, system: FractalSystem, n: int, values: np.ndarray):
        self._build(system, n, values)
        # The workspace comes after _build has returned and freed its
        # temporaries: allocated while the F x #V_n deviations were still
        # live, it raised the peak RSS of the 20-column gasket2 L8 tables
        # of equivalence-g2 by about 1 MiB.  Rows 0 and 1 of ints hold the
        # cell pairs that settle tests; the other rows are each stage's scratch.
        self.ints = np.empty((7, PAIR_CHUNK), dtype=np.int64)
        self.reals = np.empty((5, max(PAIR_CHUNK, len(self.values))))
        self.flags = np.empty((4, PAIR_CHUNK), dtype=bool)
        self.stack = np.empty((2, PAIR_CHUNK), dtype=np.int64)

    def _build(self, system: FractalSystem, n: int, values: np.ndarray) -> None:
        """The sorted points and values, the levels and the leaf tables."""
        owner = _owners(system, n)
        order = np.argsort(owner, kind="stable")
        owner = owner[order]
        self.M = system.M
        self.points = system.points[n][order]
        self.values = np.ascontiguousarray(values[order].T)
        self.levels: list[_Level] = []
        for k in range(n):
            key = owner // system.M ** (n - k)
            starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            held = key[starts]
            count = np.bincount(key, minlength=system.M**k).astype(float)
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
            self.levels.append(_Level(count, mean, fix, ss, np.ascontiguousarray(center.T),
                                      radius))
        self.leaf = n - 1
        # Each leaf cell's points by slot, padded with -1 to the widest owned
        # set, and their coordinates axis by axis, padded with NaN.
        slot = np.arange(len(key)) - np.searchsorted(key, key)
        width = int(count.max())
        self.owned = np.full((system.M**k, width), -1, dtype=np.int64)
        self.owned[key, slot] = np.arange(len(key))
        self.owned_xyz = np.full((system.dim, system.M**k, width), np.nan)
        self.owned_xyz[:, key, slot] = self.points.T
        self.points_xyz = np.ascontiguousarray(self.points.T)

    def pair_sum(self, radius: float) -> np.ndarray:
        """Sum of (f(x)-f(y))^2 over unordered pairs with sqrt(d2) < radius (1 - TIE_BAND).

        The walk is depth first: the straddling cell pairs that one settle
        finds above the leaf level go onto the stack as one run and come off
        in chunks of at most PAIR_CHUNK // M^2 pairs, the last chunk of the
        deepest run first.  The M^2 child pairs of each pair of a chunk fill
        ints rows 0 and 1, where settle tests them.
        """
        inner, outer = radius * (1.0 - TIE_BAND), radius * (1.0 + TIE_BAND)
        parts = [np.zeros(len(self.values))]
        runs: list[tuple[int, int, int]] = []     # (level, start, stop) on the stack
        group = max(1, PAIR_CHUNK // self.M**2)
        self.ints[:2, 0] = 0                      # the root pair
        self._settle(0, 1, inner, outer, parts, runs)
        child = np.arange(self.M)
        while runs:
            k, lo, hi = runs.pop()
            start = lo + (hi - lo - 1) // group * group
            if start > lo:
                runs.append((k, lo, start))
            size = (hi - start) * self.M**2
            ca = self.ints[0, :size].reshape(-1, self.M, self.M)
            cb = self.ints[1, :size].reshape(-1, self.M, self.M)
            np.multiply(self.stack[0, start:hi, None, None], self.M, out=ca)
            ca += child[:, None]
            np.multiply(self.stack[1, start:hi, None, None], self.M, out=cb)
            cb += child
            self._settle(k + 1, size, inner, outer, parts, runs)
        return np.stack(parts, axis=1).sum(axis=1)

    def _settle(self, k: int, size: int, inner: float, outer: float,
                parts: list[np.ndarray], runs: list[tuple[int, int, int]]) -> None:
        """Test the first ``size`` cell pairs (a, b) of ints rows 0 and 1 at
        level k: sum the inside ones, drop the outside ones, and enumerate or
        stack the ones straddling the cutoff.  Pairs with a > b are the
        child pairs a self pair does not refine into; they count as empty."""
        level = self.levels[k]
        a, b = self.ints[0, :size], self.ints[1, :size]
        gap, reach, scratch = self.reals[:3, :size]
        live, flag, inside, cross = self.flags[:, :size]
        np.greater(level.count.take(a, out=gap, mode="clip"), 0.0, out=live)
        live &= np.greater(level.count.take(b, out=gap, mode="clip"), 0.0, out=flag)
        live &= np.less_equal(a, b, out=flag)
        gap.fill(0.0)
        for axis in level.center:
            axis.take(a, out=reach, mode="clip")
            reach -= axis.take(b, out=scratch, mode="clip")
            reach *= reach
            gap += reach
        np.sqrt(gap, out=gap)
        level.radius.take(a, out=reach, mode="clip")
        reach += level.radius.take(b, out=scratch, mode="clip")
        np.less(np.add(gap, reach, out=scratch), inner, out=inside)
        inside &= live
        np.less(np.subtract(gap, reach, out=scratch), outer, out=cross)
        cross &= live
        cross &= np.logical_not(inside, out=flag)
        summed, straddling = np.flatnonzero(inside), np.flatnonzero(cross)
        if len(summed):
            parts.append(self._block_sum(k, summed))
        if k == self.leaf:
            parts.append(self._leaf_sum(straddling, inner, outer))
        elif len(straddling):
            top = runs[-1][2] if runs else 0
            stop = top + len(straddling)
            if stop > self.stack.shape[1]:
                grown = np.empty((2, max(stop, 2 * self.stack.shape[1])), dtype=np.int64)
                grown[:, :top] = self.stack[:, :top]
                self.stack = grown
            a.take(straddling, out=self.stack[0, top:stop], mode="clip")
            b.take(straddling, out=self.stack[1, top:stop], mode="clip")
            runs.append((k, top, stop))

    def _pairs(self, pick: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The cell pairs at slots ``pick`` of ints rows 0 and 1, in rows 2 and 3."""
        size = len(pick)
        return (self.ints[0].take(pick, out=self.ints[2, :size], mode="clip"),
                self.ints[1].take(pick, out=self.ints[3, :size], mode="clip"))

    def _by_function(self, rows: np.ndarray, size: int) -> list[np.ndarray]:
        """(F, size) views of the given reals rows, for gathers of F values per slot."""
        return [row[: len(self.values) * size].reshape(len(self.values), size) for row in rows]

    def _half(self, ia: np.ndarray, ib: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Weight 1/2 on the self pairs (ia = ib), whose rows meet each
        unordered pair twice, and 1 on the others."""
        out.fill(1.0)
        np.copyto(out, 0.5, where=np.equal(ia, ib, out=self.flags[3, :len(ia)]))
        return out

    def _block_sum(self, k: int, pick: np.ndarray) -> np.ndarray:
        """Sum over whole cell pairs at slots ``pick``:
        n_b SS_a + n_a SS_b + n_a n_b (mu_a - mu_b)^2 for a < b, and n_a SS_a
        over the pairs inside one cell (a = b)."""
        level = self.levels[k]
        out = np.zeros(len(self.values))
        step = max(1, PAIR_CHUNK // len(out))
        for s in range(0, len(pick), step):
            ia, ib = self._pairs(pick[s : s + step])
            na = level.count.take(ia, out=self.reals[0, :len(ia)], mode="clip")
            nb = level.count.take(ib, out=self.reals[1, :len(ia)], mode="clip")
            diff, t, u = self._by_function(self.reals[2:], len(ia))
            level.mean.take(ia, axis=1, out=diff, mode="clip")
            diff -= level.mean.take(ib, axis=1, out=t, mode="clip")
            level.fix.take(ia, axis=1, out=t, mode="clip")
            t -= level.fix.take(ib, axis=1, out=u, mode="clip")
            diff += t
            level.ss.take(ia, axis=1, out=t, mode="clip")
            t *= nb
            level.ss.take(ib, axis=1, out=u, mode="clip")
            u *= na
            t += u
            nb *= na
            np.multiply(diff, nb, out=u)
            u *= diff
            t += u
            t *= self._half(ia, ib, out=na)
            out += t.sum(axis=1)
        return out

    def _leaf_sum(self, pick: np.ndarray, inner: float, outer: float) -> np.ndarray:
        """Sum over the straddling leaf cell pairs a <= b at slots ``pick``,
        one row per owned point u of a.

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
        for s in range(0, len(pick), step):
            ia, ib = self._pairs(pick[s : s + step])
            rows = (len(ia), width)
            dist = self._d2(ia, level.center, ib)
            np.sqrt(dist, out=dist)
            reach = level.radius.take(ib, out=self.reals[2, :len(ia)], mode="clip")[:, None]
            row = self.owned.take(ia, axis=0, out=self.ints[4, :dist.size].reshape(rows),
                                  mode="clip").ravel()
            half = self._half(ia, ib, out=self.reals[3, :len(ia)])
            far = np.add(dist, reach, out=self.reals[1, :dist.size].reshape(rows))
            full, mixed, flag = (f[: dist.size].reshape(rows) for f in self.flags[:3])
            np.less(far, inner, out=full)               # NaN padding compares False
            np.greater_equal(far, inner, out=mixed)
            mixed &= np.less(np.subtract(dist, reach, out=far), outer, out=flag)
            full, mixed = np.flatnonzero(full), np.flatnonzero(mixed)
            out += self._row_sum(*self._rows(full, row, ib, half))
            out += self._mixed_sum(*self._rows(mixed, row, ib, half), below)
        return out

    def _rows(self, pick: np.ndarray, row: np.ndarray, ib: np.ndarray,
              half: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Point, leaf cell b and weight of the point rows at slots ``pick``
        of a leaf chunk, in ints rows 5 and 6 and reals row 4."""
        size = len(pick)
        x = row.take(pick, out=self.ints[5, :size], mode="clip")
        pair = np.floor_divide(pick, self.owned.shape[1], out=pick)
        return (x, ib.take(pair, out=self.ints[6, :size], mode="clip"),
                half.take(pair, out=self.reals[4, :size], mode="clip"))

    def _row_sum(self, x: np.ndarray, b: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Weighted sum of point x against all of leaf cell b:
        n_b (f_x - mu_b)^2 + SS_b, _block_sum's formula with a one-point cell."""
        level = self.levels[self.leaf]
        out = np.zeros(len(self.values))
        step = max(1, PAIR_CHUNK // len(out))
        for s in range(0, len(x), step):
            ix, ib = x[s : s + step], b[s : s + step]
            diff, t = self._by_function(self.reals[:2], len(ix))
            self.values.take(ix, axis=1, out=diff, mode="clip")
            diff -= level.mean.take(ib, axis=1, out=t, mode="clip")
            diff -= level.fix.take(ib, axis=1, out=t, mode="clip")
            diff *= diff
            diff *= level.count.take(ib, out=self.reals[2, :len(ix)], mode="clip")
            diff += level.ss.take(ib, axis=1, out=t, mode="clip")
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
            d2 = self._d2(ib, self.points_xyz, ix)
            near = np.flatnonzero(np.less(d2, below,
                                          out=self.flags[0, :d2.size].reshape(d2.shape)))
            owned = self.owned.take(ib, axis=0, out=self.ints[2, :d2.size].reshape(d2.shape),
                                    mode="clip").ravel()
            near_y = owned.take(near, out=self.ints[3, :len(near)], mode="clip")
            row = np.floor_divide(near, width, out=near)
            near_x = ix.take(row, out=self.ints[4, :len(near)], mode="clip")
            near_w = weight[s : s + step].take(row, out=self.reals[3, :len(near)], mode="clip")
            for t in range(0, len(near), rows):
                nx, ny = near_x[t : t + rows], near_y[t : t + rows]
                diff, u = self._by_function(self.reals[:2], len(nx))
                self.values.take(nx, axis=1, out=diff, mode="clip")
                diff -= self.values.take(ny, axis=1, out=u, mode="clip")
                diff *= diff
                diff *= near_w[t : t + rows]
                out += diff.sum(axis=1)
        return out

    def _d2(self, cells: np.ndarray, xyz: np.ndarray, at: np.ndarray) -> np.ndarray:
        """d2 from point ``at[i]`` of the coordinates ``xyz`` (axis by axis) to
        each owned point of leaf cell ``cells[i]``: (len(cells), width), NaN
        at the padding, in reals row 0 (rows 1 and 2 are its scratch)."""
        shape = (len(cells), self.owned.shape[1])
        d2, diff = (row[: shape[0] * shape[1]].reshape(shape) for row in self.reals[:2])
        d2.fill(0.0)
        for own, axis in zip(self.owned_xyz, xyz):
            own.take(cells, axis=0, out=diff, mode="clip")
            diff -= axis.take(at, out=self.reals[2, :len(at)], mode="clip")[:, None]
            diff *= diff
            d2 += diff
        return d2


def _below_sqrt(inner: float) -> float:
    """The least float t >= 0 with sqrt(t) >= inner, so that d2 < t iff sqrt(d2) < inner:
    sqrt is correctly rounded, hence monotone, and t lies within an ulp or two
    of inner^2.  It is 0 for inner <= 0, where no d2 qualifies."""
    t = inner * inner if inner > 0.0 else 0.0
    while t > 0.0 and math.sqrt(t) >= inner:
        t = math.nextafter(t, 0.0)
    while math.sqrt(t) < inner:
        t = math.nextafter(t, math.inf)
    return t


def pair_power_sums(system: FractalSystem, n: int, radii: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    """For each radius r: sum of (f(x)-f(y))^2 over unordered V_n pairs closer than r.

    A pair counts when sqrt(d2) < r (1 - TIE_BAND), d2 summed axis by axis,
    so a radius r <= 0 sums no pair.  ``values`` is (#V_n,) or (#V_n, F); the
    result is (len(radii), F).  A NaN radius, other values, or n outside
    [1, max_level] raise ValueError.
    """
    if not 1 <= n <= system.max_level:
        raise ValueError(f"level {n} out of range [1, {system.max_level}]")
    if values.shape[0] != system.vertex_count(n):
        raise ValueError(f"values need {system.vertex_count(n)} rows, one per V_{n} point")
    radii = np.asarray(radii, dtype=float)
    if np.isnan(radii).any():
        raise ValueError("a pair-sum radius is NaN")
    vals = values[:, None] if values.ndim == 1 else values
    sums = np.zeros((len(radii), vals.shape[1]))
    walked = np.flatnonzero(radii > 0.0)
    if len(walked) and vals.shape[1]:
        tree = _CellTree(system, n, vals)
        for i in walked:
            sums[i] = tree.pair_sum(float(radii[i]))
    return sums


def _coefficient_from_sum(params: LipschitzParams, m: int, n_points: int,
                          pair_sum: np.ndarray) -> np.ndarray:
    integral = params.base ** (m * params.d) * (2.0 * pair_sum) / float(n_points) ** 2
    return params.base ** (m * params.alpha) * np.sqrt(integral)


def _check_scale(m, what: str) -> None:
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"{what} must be an integer >= 1 (got {m!r})")


def _check_scales(ms: list[int], n: int, system: FractalSystem) -> None:
    """Integer scales 1 <= m < n (else ValueError, or ResolutionTooCoarse
    for m >= n) at a level n the system has built (else ValueError)."""
    if not ms:
        raise ValueError("need at least one scale m")
    for m in ms:
        _check_scale(m, "scale m")
    if any(m >= n for m in ms):
        raise ResolutionTooCoarse(f"need n > m for every m in {ms} (n = {n})")
    if n > system.max_level:
        raise ValueError(f"level {n} out of range [1, {system.max_level}]")


def coefficient_table(system: FractalSystem, values: np.ndarray, n: int,
                      ms: list[int], params: LipschitzParams) -> np.ndarray:
    """Coefficients for several scales m at once; values as in pair_power_sums.

    Every m must be an integer (not a bool) with m >= 1, else ValueError;
    m >= n raises ResolutionTooCoarse, and n past max_level ValueError.
    Each column is summed at a power-of-two scale, which is exact: data
    whose squared increments would overflow gets its finite coefficient, and
    data whose sums stay in the float range gets the bits of an unscaled
    sum.
    """
    _check_scales(ms, n, system)
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


def batch_norm_reports(system: FractalSystem, hs: HarmonicStructure,
                       specs: list[FunctionSpec], m_max: int, n: int) -> list[NormReport]:
    """Norm reports for a whole corpus, each equal to its own norm_report.

    The b_m come from fel.classes.spec_coefficient_table: the coord and
    harmonic specs from placement classes and the other specs from the walk,
    each column on its own; the L2 norm and energies from one spec sampled
    on V_n at a time.  So every report equals a separate norm_report call
    bit for bit, and the reports hold one column of #V_n values.  An empty
    corpus raises ValueError; m_max and n are checked as in coefficient_table.
    """
    if not specs:
        raise ValueError("corpus is empty")
    _check_scale(m_max, "m_max")
    ms = list(range(1, m_max + 1))
    _check_scales(ms, n, system)
    from .classes import spec_coefficient_table   # fel.classes imports this module
    b_table = spec_coefficient_table(system, hs, specs, n, ms,
                                     default_params(system, hs, base="L"))
    weight = 1.0 / system.vertex_count(n)
    reports = []
    for spec, b_col in zip(specs, b_table.T):
        f = spec.sample(system, hs, n)
        l2 = math.sqrt(nonnegative_sum(v * v * weight for v in _row_blocks(f.values)))
        seq = energy_sequence(system, hs, f, m0=0, tag=spec.tag)
        energy = seq.entries[m_max][1]
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
    finest resolved scale.  The values and coordinates of V_m are those of
    the level above read at system.promote[m], so every point keeps its
    top-level coordinates.  A stability diagnostic, not a certified norm;
    nan if a compared pair has a nan value.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    _check_level(system, f)
    values, coords = f.values, system.points[f.level]
    best = 0.0
    for m in range(f.level, 0, -1):
        if m < f.level:
            values, coords = values.take(system.promote[m]), coords.take(system.promote[m], axis=0)
        best = np.maximum(best, _cells_hoelder(values, coords, system.cells[m], gamma))
    return float(best)


def _cells_hoelder(values: np.ndarray, coords: np.ndarray, cells: np.ndarray,
                   gamma: float) -> float:
    """The largest |f_p - f_q| / |x_p - x_q|^gamma over the cells' corner
    pairs at distinct points (0 if none, nan if one has a nan value), in
    buffers every block and pair reuses; they are freed on return, before
    the next level is restricted."""
    size = min(len(cells), ENERGY_BLOCK)
    delta, (dist, ratio) = np.empty((size, coords.shape[1])), np.empty((2, size))
    best = 0.0
    for f, x in zip(_corner_blocks(values, cells), _corner_blocks(coords, cells)):
        step, d, r = delta[:len(f)], dist[:len(f)], ratio[:len(f)]
        for p, q in itertools.combinations(range(cells.shape[1]), 2):
            # np.linalg.norm's square root of the summed squares.
            np.square(np.subtract(x[:, p], x[:, q], out=step), out=step)
            np.sqrt(np.sum(step, axis=1, out=d), out=d)
            np.abs(np.subtract(f[:, p], f[:, q], out=r), out=r)
            good = d > 0
            if good.any():
                np.divide(r, np.power(d, gamma, out=d), out=r, where=good)
                best = np.maximum(best, r[good].max())   # max() would drop a nan
    return best
