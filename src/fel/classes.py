"""Pair sums by placement class, for functions that the maps send into one space.

The space S holds the harmonic functions and the coordinates, and composition
with any map sends it into itself.  A ``coord:`` or ``harmonic:`` spec lies in
S on every level-1 cell, so on each cell pair its pair sum, each point
weighted by its share of the cell, is a quadratic form in the two cells'
coefficients.  A cell's weight of a point is split evenly among the children
that contain it, so the weighted pair sums of all cell pairs add up to the
pair sum over V_n, and a cell's weights follow from its corners' weights, its
weight pattern.  The form depends only on the pair's placement class: the two
cells' weight patterns, their depth, the cutoff in cell units and the
relative similitude psi_a^-1 psi_b (orthogonal part and offset in cell
units).  Each class is worked out once, from weighted moment forms where the
pair lies inside the cutoff, from its child pairs' forms pulled back through
the maps where it straddles, and from weighted point pairs of local V_1 at
level n - 1, under the walk's tie rule.  The pairs within one cell are
that cell paired with itself, a self class: every class takes the one pair
formula, and a self class's form, at z = (0, g, g), is then folded into a
form in the cell's g.  So the cost follows the number of classes, not #V_n
pairs or the number of functions, and the coefficients agree with the walk
of fel.lipschitz to about 1e-15 relative, not bit for bit.  Raw vertex data
and ``perturb:`` specs still take the walk.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .energy import FunctionSpec
from .harmonic import HarmonicStructure
from .ifs import FractalSystem
from .lipschitz import (PAIR_CHUNK, TIE_BAND, LipschitzParams, _below_sqrt, _check_scales,
                        _coefficient_from_sum, coefficient_table)

# Spec kinds whose functions lie in the space S of _Space on every level-1
# cell; their pair sums come from placement classes.
CLASS_KINDS = ("coord", "harmonic")
# Placement keys round a cell pair's relative offset to KEY_STEP * c0 cell
# units and its relative orthogonal part to KEY_STEP, far above the rounding
# of the composed maps (below 1e-12 cell units at level 12).  A key may split
# a class, which costs time; it must never merge two placements, and the
# class path's agreement with the walk on the pentagasket, the one system
# of examples/ off a lattice, shows none merged there.
KEY_STEP = 1e-7
# Leaf classes per block of forms pulled back into their parents.  On the
# two snowflake L4 tables of one function, blocks of 2^10 classes traced a
# 1.8 MiB higher peak, and blocks of 2^8 classes 0.6 MiB less but no faster.
LEAF_CLASSES = 1 << 9
# Parents, and child pairs of one (k, l), per block on the way up; the
# largest level above the leaves in the benchmark's runs, 835 classes, fits
# in one.
UP_CLASSES = 1 << 11


class _Space:
    """The function space S of one system and the weighted point sets of its cells.

    S is spanned by the harmonic functions and the coordinates, in the basis
    1, h_1, ..., h_{M0-1}, x - p_0 (h_q harmonic with V_0 data the indicator
    of V_0 point q, p_0 the first V_0 point).  Every map sends S into itself:
    f o psi_i has coefficients P[i] @ g, whose harmonic block comes from the
    V_1 extension operator and whose coordinate block is U_i / L plus the
    offset psi_i(p_0) - p_0 in the constant.  Pair sums never see the
    constant, so moments and forms act on the other s - 1 coordinates.

    Every point weighs 1 in the root, and a cell's weight of a point is split
    evenly among the children that contain it, so a point shared by c
    children of a cell weighs 1/c in each, and the weights of each point add
    up to 1 over the cells of any level.  On a nested fractal cells meet only
    in corners, so a cell's points weigh 1 but for its corners, whose
    weights, its pattern, follow from its parent's pattern and its map index
    alone (``child``).  Per depth d >= 1 and pattern (lists over d of
    arrays over patterns, with a map axis) the space keeps the weighted
    count, mean and centred second moments of the basis over local V_{d-1}
    of each child, in the parent's frame (``kcount``, ``kmean``, ``kcov``),
    and each child's ball, which holds all its points whatever its pattern
    (``kcenter``, ``kradius``); local V_1, its V_0 points first, for the
    leaf stage; and ``lift``, the pull-backs of a child pair's form into its
    parent's, one table for pair and self parents (_pull_back).
    """

    def __init__(self, system: FractalSystem, hs: HarmonicStructure, n: int):
        M, M0 = system.M, system.M0
        self.M, self.s, self.L = M, M0 + system.dim, system.L
        s = self.s
        v1 = system.vertex_count(1)
        ext = np.zeros((v1, M0))                 # h_q on V_1, column q
        ext[system.v0_ids, np.arange(M0)] = 1.0
        new = np.bincount(system.v0_ids, minlength=v1) == 0
        ext[new] = hs.extension_matrix
        p0 = system.points[0][0]
        self.P = np.zeros((M, s, s))
        for i, psi in enumerate(system.maps):
            corner = ext[system.cells[1][i]]     # h_q at psi_i(p_r): row r, column q
            self.P[i, 0, 0] = 1.0
            self.P[i, 0, 1:M0] = corner[0, 1:]
            self.P[i, 1:M0, 1:M0] = corner[1:, 1:] - corner[0, 1:]
            self.P[i, 0, M0:] = system.points[1][system.cells[1][i, 0]] - p0
            self.P[i, M0:, M0:] = (psi.rotation / psi.scale).T
        self.rot = np.array([psi.rotation for psi in system.maps])
        self.shift = np.array([psi.translation for psi in system.maps])
        self.orth = np.eye(system.dim)[None]     # grown by turn
        first = np.r_[system.v0_ids, np.flatnonzero(new)]     # V_0, then the rest of V_1
        self.leaf_points = system.points[1][first]
        self.leaf_phi = np.concatenate([ext[:, 1:], system.points[1] - p0], axis=1)[first]
        self._patterns(system)
        self._moments(system, n - 1)
        # Pullbacks of a child pair (k, l)'s z = (f_a - f_b constant, g_a', g_b')
        # from its parent's z, lift[self parent, k, l]; a folded self parent
        # reads g_a' alone, so lift[1] adds the b-block columns onto the a-block's.
        D, A, p = 2 * s - 1, self.P[:, 1:, 1:], self.P[:, 0, 1:]
        self.lift = np.zeros((2, M, M, D, D))
        self.lift[0, :, :, 0, 0] = 1.0
        self.lift[0, :, :, 0, 1:s] = p[:, None]
        self.lift[0, :, :, 0, s:] = -p[None, :]
        self.lift[0, :, :, 1:s, 1:s] = A[:, None]
        self.lift[0, :, :, s:, s:] = A[None, :]
        self.lift[1, ..., 1:s] = self.lift[0, ..., 1:s] + self.lift[0, ..., s:]

    def turn(self, k: np.ndarray, g: np.ndarray, l: np.ndarray) -> np.ndarray:
        """Index of R_k' orth[g] R_l in ``orth``, the distinct orthogonal parts
        by KEY_STEP rounding (the identity first), for each (k, g, l)."""
        hs, known = np.flatnonzero(np.bincount(g, minlength=1)), len(self.orth)
        turned = np.einsum("kba,hbc,lcd->hklad", self.rot, self.orth[hs], self.rot)
        parts = np.concatenate([self.orth, turned.reshape(-1, *self.orth.shape[1:])])
        index, at = {}, []
        for part, key in zip(parts, np.rint(parts / KEY_STEP).astype(np.int64)):
            at.append(index.setdefault(key.tobytes(), (len(index), part))[0])
        self.orth = np.array([part for _, part in index.values()])
        table = np.zeros((known, self.M, self.M), dtype=np.int32)
        table[hs] = np.reshape(at[known:], (len(hs), self.M, self.M))
        return table[g, k, l]

    def _patterns(self, system: FractalSystem) -> None:
        """The weight patterns reachable from the root, whose V_0 points weigh
        1, as rows of ``weight``, and ``child[pattern, k]``, the pattern of
        child k.  Corner q of child k, u = cells[1][k, q], weighs w / c_u: c_u
        is the number of level-1 cells that contain u, and w the parent's
        weight of u if u is a V_0 point, 1 otherwise."""
        cells = system.cells[1]
        share = np.bincount(cells.ravel())[cells]
        corner_of = np.full(system.vertex_count(1), -1)
        corner_of[system.v0_ids] = np.arange(system.M0)
        at = corner_of[cells]
        weights, index, child = [np.ones(system.M0)], {}, []
        index[weights[0].tobytes()] = 0
        for w in weights:                        # grows while it is read
            row = []
            for kid in np.where(at >= 0, w[at], 1.0) / share:
                row.append(index.setdefault(kid.tobytes(), len(weights)))
                if row[-1] == len(weights):
                    weights.append(kid)
            child.append(row)
        self.child = np.array(child, dtype=np.int32)
        self.weight = np.array(weights)

    def _moments(self, system: FractalSystem, depth: int) -> None:
        """Each child's weighted moments by depth from depth 1 up, combined
        from its children's as in Chan, Golub & LeVeque (a cell's own
        moments feed only the next depth); each child's ball from all points
        of V_{d-1}, as the walk's."""
        A, p, M0 = self.P[:, 1:, 1:], self.P[:, 0, 1:], system.M0
        w = self.weight
        phi = np.concatenate([np.eye(M0)[:, 1:], system.points[0] - system.points[0][0]], axis=1)
        count = w.sum(axis=1)
        mean = w @ phi / count[:, None]
        dev = phi - mean[:, None]
        cov = np.einsum("mq,mqt,mqu->mtu", w, dev, dev)
        self.kcount, self.kmean, self.kcov, self.kcenter, self.kradius = ([None] for _ in range(5))
        for d in range(1, depth + 1):
            kids, pts = self.child, system.points[d - 1]
            center = pts.mean(axis=0)
            radius = np.sqrt(((pts - center) ** 2).sum(axis=1)).max()
            kcount = count[kids]
            kmean = p + np.einsum("kut,mku->mkt", A, mean[kids])
            kcov = A.transpose(0, 2, 1) @ cov[kids] @ A
            count = kcount.sum(axis=1)
            mean = np.einsum("mk,mkt->mt", kcount, kmean) / count[:, None]
            dev = kmean - mean[:, None]
            cov = kcov.sum(axis=1) + np.einsum("mk,mkt,mku->mtu", kcount, dev, dev)
            for store, value in zip((self.kcount, self.kmean, self.kcov, self.kcenter,
                                     self.kradius),
                                    (kcount, kmean, kcov, self.rot @ center / self.L + self.shift,
                                     radius / self.L)):
                store.append(value)


class _Classes(NamedTuple):
    """Cell pairs (a, b) of one level, one row each, with a <= b: 41 bytes on 3-D maps."""

    a: np.ndarray            # weight pattern of a
    b: np.ndarray            # weight pattern of b
    same: np.ndarray         # a = b, summed over its unordered pairs
    r: np.ndarray            # radius index
    g: np.ndarray            # its orthogonal part psi_a^-1 psi_b, index in _Space.orth
    shift: np.ndarray        # (pairs, N) its offset, in cell units

    def take(self, pick) -> "_Classes":
        return _Classes(*(x[pick] for x in self))


def _placements(pairs: _Classes, c0: float) -> tuple[_Classes, np.ndarray]:
    """The placement classes of ``pairs`` and each pair's int32 class, keyed by one
    mixed-radix column (patterns, self flag, radius, part) and the rounded offset."""
    key = np.zeros((len(pairs.a), 1 + pairs.shift.shape[1]), dtype=np.int64)
    for column in (pairs.a, pairs.b, pairs.same, pairs.r, pairs.g):
        key[:, 0] = key[:, 0] * (int(column.max(initial=0)) + 1) + column
    key[:, 1:] = np.rint(pairs.shift / (KEY_STEP * c0))
    order = np.lexsort(key.T[::-1])
    key = key[order]
    first = np.r_[True, (key[1:] != key[:-1]).any(axis=1)]
    klass = np.empty(len(key), dtype=np.int32)
    klass[order] = np.cumsum(first) - 1
    return pairs.take(order[first]), klass


def _ball_tests(space: _Space, classes: _Classes, cutoff: np.ndarray,
                d: int) -> tuple[np.ndarray, np.ndarray]:
    """The walk's tests of each class's child pairs (k, l) at depth d, k <= l
    in a self class: wholly inside the cutoff, and straddling it.  Every child
    at depth d has the ball of all its points, so the tests read no pattern."""
    near, M = space.kcenter[d], space.M
    moved = near @ space.orth[classes.g].transpose(0, 2, 1) + classes.shift[:, None]
    gap = np.zeros((len(classes.g), M, M))
    for axis in range(near.shape[1]):
        gap += np.square(near[:, None, axis] - moved[:, None, :, axis])
    np.sqrt(gap, out=gap)
    reach = 2.0 * space.kradius[d]
    live = ~classes.same[:, None, None] | np.triu(np.ones((M, M), dtype=bool))
    inside = gap + reach < cutoff[:, None, None] * (1.0 - TIE_BAND)
    return inside & live, ~inside & live & (gap - reach < cutoff[:, None, None] * (1.0 + TIE_BAND))


def _descend(space: _Space, classes: _Classes, cutoff: np.ndarray, d: int,
             c0: float) -> tuple[tuple, _Classes]:
    """One level down from ``classes``: (d, patterns and self flags, inside
    child pairs, int32 and uint8 edges (parent, k, l, child) of straddling
    ones), and their placement classes.  A child pair (k, l) of a class with
    part G and offset t has part R_k' G R_l and offset L (G t_l + t - t_k) R_k."""
    inside, cross = _ball_tests(space, classes, cutoff, d)
    kind = np.min_scalar_type(space.M - 1)
    parent, k, l = (x.astype(t) for x, t in zip(np.nonzero(cross), (np.int32, kind, kind)))
    g = classes.g[parent]
    moved = (space.orth @ space.shift.T).transpose(0, 2, 1)[g, l] + classes.shift[parent]
    moved -= space.shift[k]
    for kk in range(space.M):
        moved[k == kk] = space.L * moved[k == kk] @ space.rot[kk]
    kids = _Classes(space.child[classes.a[parent], k], space.child[classes.b[parent], l],
                    classes.same[parent] & (k == l), classes.r[parent], space.turn(k, g, l),
                    moved)
    kid_classes, child = _placements(kids, c0)
    return (d, classes[:3], inside, (parent, k, l, child)), kid_classes


def _inside_forms(space: _Space, d: int, a: np.ndarray, b: np.ndarray, inside: np.ndarray,
                  same: np.ndarray) -> np.ndarray:
    """Forms of the inside child pairs (k, l) of each parent, summed in the
    parent's frame: n_k n_l (delta + mu_k.g_a - mu_l.g_b)^2 + n_l g_a'C_k g_a
    + n_k g_b'C_l g_b, _block_sum's formula as a quadratic form in
    z = (delta, g_a, g_b), with the constant difference delta, from the
    weighted count, mean and centred moments of each pattern's children at
    depth d; ``a`` and ``b`` are the parents' patterns and ``inside`` is
    (parents, k, l).  A self parent sums k <= l and is folded (_fold); its
    pairs (k, k) count each point pair of child k once, so they take half
    weight and no mean term, which would cancel."""
    count, kmean, kcov = space.kcount[d], space.kmean[d], space.kcov[d]
    s1, own, diag = kmean.shape[2], np.flatnonzero(same)[:, None], np.arange(inside.shape[1])
    hit = inside.astype(float)
    hit[own, diag, diag] *= 0.5
    na, nb = count[a], count[b]
    w = hit * na[:, :, None] * nb[:, None, :]
    w[own, diag, diag] = 0.0
    wa, wb = w.sum(axis=2), w.sum(axis=1)
    mu_a, mu_b = kmean[a], kmean[b]
    forms = np.empty((len(a), 2 * s1 + 1, 2 * s1 + 1))
    forms[:, 0, 0] = wa.sum(axis=1)
    forms[:, 0, 1:s1 + 1] = np.einsum("pk,pkt->pt", wa, mu_a)
    forms[:, 0, s1 + 1:] = -np.einsum("pl,plt->pt", wb, mu_b)
    forms[:, 1:, 0] = forms[:, 0, 1:]
    forms[:, 1:s1 + 1, 1:s1 + 1] = (mu_a.transpose(0, 2, 1) @ (wa[:, :, None] * mu_a)
                                    + _mixed(np.einsum("pkl,pl->pk", hit, nb), kcov, a))
    forms[:, s1 + 1:, s1 + 1:] = (mu_b.transpose(0, 2, 1) @ (wb[:, :, None] * mu_b)
                                  + _mixed(np.einsum("pk,pkl->pl", na, hit), kcov, b))
    ab = -(mu_a.transpose(0, 2, 1) @ w @ mu_b)
    forms[:, 1:s1 + 1, s1 + 1:] = ab
    forms[:, s1 + 1:, 1:s1 + 1] = ab.transpose(0, 2, 1)
    _fold(forms, same)
    return forms


def _fold(forms: np.ndarray, same: np.ndarray) -> None:
    """Turn the forms of self classes, whose pairs lie in one cell, into forms
    in that cell's g alone: at z = (0, g, g) the four g blocks add up in the
    a-block, and the delta row and b-block are cleared."""
    s = (forms.shape[1] + 1) // 2
    q = forms[same]
    folded = q[:, 1:s, 1:s] + q[:, s:, s:] + (q[:, 1:s, s:] + q[:, s:, 1:s])
    forms[same] = 0.0
    forms[same, 1:s, 1:s] = folded


def _mixed(weight: np.ndarray, kcov: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """sum_k weight[p, k] kcov[patterns[p], k] for each parent p, one pattern at a time."""
    out = np.empty((len(patterns),) + kcov.shape[2:])
    for pattern in np.flatnonzero(np.bincount(patterns)):
        pick = patterns == pattern
        out[pick] = (weight[pick] @ kcov[pattern].reshape(kcov.shape[1], -1)).reshape(
            -1, *kcov.shape[2:])
    return out


def _leaf_forms(space: _Space, classes: _Classes, limit: np.ndarray) -> np.ndarray:
    """Forms of classes of level-(n-1) cell pairs, from the points of local
    V_1 under the walk's rule: d2 < ``limit`` (per class, the _below_sqrt of
    its inner cutoff in cell units).  With w the near pairs (x of a, y of b)
    times the weights omega_a(x) omega_b(y): sum w (delta + phi_x.g_a -
    phi_y.g_b)^2; a self class keeps its pairs x < y and is folded (_fold).
    Classes go in blocks of at most PAIR_CHUNK point pairs, as the walk's
    leaf chunks."""
    phi, nv, x = space.leaf_phi, len(space.leaf_phi), space.leaf_points
    M0 = space.weight.shape[1]
    s1 = phi.shape[1]
    outer = (phi[:, :, None] * phi[:, None, :]).reshape(nv, -1)
    ordered = np.triu(np.ones((nv, nv)), 1)
    forms = np.empty((len(classes.a), 2 * s1 + 1, 2 * s1 + 1))
    step = max(1, PAIR_CHUNK // nv**2)
    for lo in range(0, len(classes.a), step):
        rows = slice(lo, lo + step)
        c = classes.take(rows)
        y = x @ space.orth[c.g].transpose(0, 2, 1) + c.shift[:, None]
        w = np.square(x[:, None, 0] - y[:, None, :, 0])
        for axis in range(1, x.shape[1]):
            w += np.square(x[:, None, axis] - y[:, None, :, axis])
        np.less(w, limit[rows, None, None], out=w)          # near pairs: 1
        w[:, :M0] *= space.weight[c.a][:, :, None]
        w[:, :, :M0] *= space.weight[c.b][:, None]
        w[c.same] *= ordered
        wa, wb = w.sum(axis=2), w.sum(axis=1)
        forms[rows, 0, 0] = wa.sum(axis=1)
        forms[rows, 0, 1:s1 + 1] = wa @ phi
        forms[rows, 0, s1 + 1:] = -(wb @ phi)
        forms[rows, 1:, 0] = forms[rows, 0, 1:]
        forms[rows, 1:s1 + 1, 1:s1 + 1] = (wa @ outer).reshape(-1, s1, s1)
        forms[rows, s1 + 1:, s1 + 1:] = (wb @ outer).reshape(-1, s1, s1)
        ab = -(phi.T @ (w.reshape(-1, nv) @ phi).reshape(-1, nv, s1))
        forms[rows, 1:s1 + 1, s1 + 1:] = ab
        forms[rows, s1 + 1:, 1:s1 + 1] = ab.transpose(0, 2, 1)
    _fold(forms, classes.same)
    return forms


def _class_forms(space: _Space, system: FractalSystem, n: int,
                 radii: np.ndarray) -> np.ndarray:
    """Pair-sum forms of the level-1 cell pairs (i, j), i <= j, at each
    radius: (radii, pairs, D, D), D = 2s - 1, in z = (delta, g_i', g_j').

    Levels run down from 1, where every cell pair is its own class.  At each
    level (_descend), the ball test sorts each class's child pairs (k, l):
    one inside the cutoff adds its moment form (_inside_forms), one outside
    adds nothing, and the straddling ones fall into the placement classes of
    the next level.  Classes at level n - 1 are the leaves (_leaf_forms).
    The forms then come back up, UP_CLASSES at a time and the leaves
    LEAF_CLASSES at a time: each class's form is its inside children's plus
    its straddling children's, pulled back through P (_pull_back).  A self
    class's form is folded where it is made (_fold), so it reads only the
    a-block, g_i' of the pair (i, i) at the root.  A level keeps its
    patterns, self and inside flags, and 10 bytes a straddling child pair,
    so the forms of two levels, D^2 float64 a class, are the largest arrays
    held: gasket3 L9 at m = 1..6 peaks at 357 MiB RSS.
    """
    M, L, D = space.M, space.L, 2 * space.s - 1
    ii, jj = np.triu_indices(M)
    shift = L * (space.shift[jj] - space.shift[ii])[:, None] @ space.rot[ii]
    scales, pair = len(radii), np.tile(np.arange(len(ii)), len(radii))
    classes = _Classes(space.child[0][ii][pair], space.child[0][jj][pair], (ii == jj)[pair],
                       np.repeat(np.arange(scales, dtype=np.int32), len(ii)),
                       space.turn(ii, 0 * ii, jj)[pair], shift[pair, 0])
    levels = []                      # (depth, patterns and self flags, inside children, edges)
    for j in range(1, n - 1):
        level, classes = _descend(space, classes, radii[classes.r] * L**j, n - j, system.c0)
        levels.append(level)
    limit = np.array([_below_sqrt(r * L**(n - 1) * (1.0 - TIE_BAND)) for r in radii])
    forms = None if levels else _leaf_forms(space, classes, limit[classes.r])    # n = 2
    while levels:
        d, (a, b, same), inside, (parent, k, l, child) = levels.pop()
        below, forms = forms, np.empty((len(a), D, D))
        for lo in range(0, len(a), UP_CLASSES):
            rows = slice(lo, lo + UP_CLASSES)
            forms[rows] = _inside_forms(space, d, a[rows], b[rows], inside[rows], same[rows])
        if below is not None:
            _pull_back(space, forms, below, parent, k, l, same[parent], child)
            continue
        order = np.argsort(child, kind="stable")
        starts = np.arange(0, len(classes.a) + LEAF_CLASSES, LEAF_CLASSES)
        cuts = np.searchsorted(child[order], starts)
        for first, lo, hi in zip(starts, cuts[:-1], cuts[1:]):
            rows, pick = slice(first, first + LEAF_CLASSES), order[lo:hi]
            leaves = _leaf_forms(space, classes.take(rows), limit[classes.r[rows]])
            _pull_back(space, forms, leaves, parent[pick], k[pick], l[pick], same[parent[pick]],
                       child[pick] - first)
        del classes, order           # the leaves are done
    return forms.reshape(scales, len(ii), *forms.shape[1:])


def _pull_back(space: _Space, forms: np.ndarray, below: np.ndarray, parent: np.ndarray,
               k: np.ndarray, l: np.ndarray, self_parent: np.ndarray,
               child: np.ndarray) -> None:
    """Add each child form below[child], pulled back through maps k and l,
    to forms[parent]: P' Q P with P = lift[self parent, k, l], UP_CLASSES
    child pairs at a time."""
    group = (k.astype(np.int64) * space.M + l) * 2 + self_parent
    order = np.argsort(group, kind="stable")
    bounds = np.flatnonzero(np.diff(group[order], prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for pick in np.split(order[lo:hi], np.arange(UP_CLASSES, hi - lo, UP_CLASSES)):
            first = pick[0]
            lift = space.lift[int(self_parent[first]), k[first], l[first]]
            q = below[child[pick]]
            size, dim = q.shape[:2]
            half = (q.reshape(-1, dim) @ lift).reshape(size, dim, dim).transpose(0, 2, 1)
            # Made before the +=, which gathers forms[parent[pick]] before its
            # right side runs.
            pulled = (half.reshape(-1, dim) @ lift).reshape(size, dim, dim)
            forms[parent[pick]] += pulled


def _cell_coefficients(space: _Space, system: FractalSystem, spec: FunctionSpec,
                       level: int) -> tuple[np.ndarray | None, int]:
    """(g, e): row i of g holds the coefficients of f o psi_i in S, for
    level-1 cell i and f the spec's function times 2^-e less a constant, with
    max |data 2^-e| in [1/2, 1) as in coefficient_table.  ``level`` is the
    level of the spec's data; g is None where the data are not all finite."""
    M0, g = system.M0, np.zeros(space.s)
    if spec.kind == "coord":
        g[M0 + spec.coord] = 1.0
        return space.P @ g, 0
    if not np.isfinite(spec.data).all():
        return None, 0
    _, e = np.frexp(np.max(np.abs(spec.data)))
    data = np.ldexp(spec.data, -e)
    if level == 0:
        g[1:M0] = data[1:] - data[0]
        return space.P @ g, e
    corner = data[system.cells[1]] - data[system.v0_ids[0]]
    cells = np.zeros((system.M, space.s))
    cells[:, 0] = corner[:, 0]
    cells[:, 1:M0] = corner[:, 1:] - corner[:, :1]
    return cells, e


def class_coefficient_table(system: FractalSystem, hs: HarmonicStructure,
                            specs: list[FunctionSpec], n: int, ms: list[int],
                            params: LipschitzParams) -> np.ndarray:
    """Coefficients of coord and harmonic specs from placement classes:
    (len(ms), len(specs)), within about 1e-15 relative of coefficient_table
    on the sampled values, in a time set by the number of classes, not by
    #V_n or len(specs).

    Each function's pair sum is the sum over level-1 cell pairs (i, j),
    i <= j, of z' Q z, z = (delta, g_i', g_j') from _cell_coefficients and
    Q the pair's form (_class_forms).  Each column is evaluated alone, so
    its coefficients do not depend on the other specs.  Data that are not
    all finite give NaN coefficients, as the walk does.  Scales are checked
    as in coefficient_table; a spec of another kind, a coordinate out of
    range, harmonic data of a wrong length or no harmonic structure raise
    ValueError.
    """
    _check_scales(ms, n, system)
    if any(spec.kind not in CLASS_KINDS for spec in specs):
        raise ValueError(f"the class path takes only {' and '.join(CLASS_KINDS)} specs")
    if hs is None:
        raise ValueError("the class path requires a solved harmonic structure")
    levels = [spec.data_level(system, hs) for spec in specs]
    space = _Space(system, hs, n)
    forms = _class_forms(space, system, n, np.array([params.cutoff(m) for m in ms]))
    ii, jj = np.triu_indices(system.M)
    table = np.full((len(ms), len(specs)), math.nan)
    for col, (spec, level) in enumerate(zip(specs, levels)):
        g, e = _cell_coefficients(space, system, spec, level)
        if g is None:
            continue
        z = np.concatenate([g[ii, :1] - g[jj, :1], g[ii, 1:], g[jj, 1:]], axis=1)
        sums = np.maximum(np.einsum("pi,rpij,pj->r", z, forms, z), 0.0)
        table[:, col] = np.ldexp(_coefficient_from_sum(params, np.array(ms),
                                                       system.vertex_count(n), sums), e)
    return table


def spec_coefficient_table(system: FractalSystem, hs: HarmonicStructure,
                           specs: list[FunctionSpec], n: int, ms: list[int],
                           params: LipschitzParams) -> np.ndarray:
    """Coefficients of each spec's function at the scales ms: (len(ms), len(specs)).

    The coord and harmonic specs take the class path, in one
    class_coefficient_table call; the others (perturb:) are sampled on V_n
    and take the walk, one column and one coefficient_table call each: the
    walk's chunks hold PAIR_CHUNK // F pairs of F columns, so bits would
    depend on F.
    """
    by_class = np.array([spec.kind in CLASS_KINDS for spec in specs], dtype=bool)
    table = np.empty((len(ms), len(specs)))
    if by_class.any():
        table[:, by_class] = class_coefficient_table(
            system, hs, [s for s, c in zip(specs, by_class) if c], n, ms, params)
    for k in np.flatnonzero(~by_class):
        column = specs[k].sample(system, hs, n).values[:, None]
        table[:, [k]] = coefficient_table(system, column, n, ms, params)
    return table
