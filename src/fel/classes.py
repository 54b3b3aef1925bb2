"""Pair sums by placement class, for functions that the maps send into one space.

The space S holds the harmonic functions and the coordinates, and composition
with any map sends it into itself.  A ``coord:`` or ``harmonic:`` spec lies in
S on every level-1 cell, so on each cell pair its pair sum is a quadratic form
in the two cells' coefficients.  That form depends only on the pair's
placement class: the owned-corner masks of the two cells, their depth, the
cutoff in cell units and the relative similitude psi_a^-1 psi_b (orthogonal
part and offset in cell units).  Each class is worked out once, from the
moment forms of the owned sets where the pair lies inside the cutoff, from
its child pairs' forms pulled back through the maps where it straddles, and
from point pairs of local V_1 at level n - 1, under the walk's tie rule.  So
the cost follows the number of classes, not #V_n pairs or the number of
functions, and the coefficients agree with the walk of fel.lipschitz to about
1e-15 relative, not bit for bit.  Raw vertex data and ``perturb:`` specs
still take the walk.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .energy import FunctionSpec
from .harmonic import HarmonicStructure
from .ifs import FractalSystem
from .lipschitz import (PAIR_CHUNK, TIE_BAND, LipschitzParams, _below_sqrt, _check_scales,
                        _coefficient_from_sum, _owners, coefficient_table)

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
# two snowflake L4 tables of one function, blocks of 2^10 classes peaked
# 2.5 MiB higher, and blocks of 2^8 classes took 25 ms longer.
LEAF_CLASSES = 1 << 9
# Parents, and child pairs of one (k, l), per block on the way up; the
# largest level of the benchmark's runs, 1,886 classes, fits in one.
UP_CLASSES = 1 << 11


class _Space:
    """The function space S of one system and the owned sets of its cells.

    S is spanned by the harmonic functions and the coordinates, in the basis
    1, h_1, ..., h_{M0-1}, x - p_0 (h_q harmonic with V_0 data the indicator
    of V_0 point q, p_0 the first V_0 point).  Every map sends S into itself:
    f o psi_i has coefficients P[i] @ g, whose harmonic block comes from the
    V_1 extension operator and whose coordinate block is U_i / L plus the
    offset psi_i(p_0) - p_0 in the constant.  Pair sums never see the
    constant, so moments and forms act on the other s - 1 coordinates.

    A level-j cell owns its local V_{n-j} less the corners that a smaller
    cell owns.  The corners it owns, its mask, follow from its parent's mask
    and its map index alone (``child``), so its owned set depends only on the
    mask and the depth n - j.  Per depth d and mask (lists over d of arrays
    over masks) the space keeps the count, mean and centred second moments
    of the basis over the owned set and the ball of the owned points, in the
    cell's frame; for d >= 1, the same of each child's owned set in the
    parent's frame (``kcount`` ... ``kradius``, with a map axis); and the
    owned points of local V_1 for the leaf stage.
    """

    def __init__(self, system: FractalSystem, hs: HarmonicStructure, n: int):
        M, M0 = system.M, system.M0
        self.M, self.s, self.L = M, M0 + system.dim, system.L
        s = self.s
        v1 = system.vertex_count(1)
        ext = np.zeros((v1, M0))                 # h_q on V_1, column q
        ext[system.promote[0], np.arange(M0)] = 1.0
        ext[np.bincount(system.promote[0], minlength=v1) == 0] = hs.extension_matrix
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
        self.leaf_points = system.points[1]
        self.leaf_phi = np.concatenate([ext[:, 1:], system.points[1] - p0], axis=1)
        self._masks(system)
        self._moments(system, n - 1)
        # Pullbacks of a child pair (k, l)'s z = (f_a - f_b constant, g_a', g_b')
        # from its parent's z; a self parent's z is its g', its form the a-block.
        D, A, p = 2 * s - 1, self.P[:, 1:, 1:], self.P[:, 0, 1:]
        self.pull_pair = np.zeros((M, M, D, D))
        self.pull_self = np.zeros((M, M, D, s - 1))
        for k in range(M):
            for l in range(M):
                self.pull_pair[k, l, 0] = np.r_[1.0, p[k], -p[l]]
                self.pull_pair[k, l, 1:s, 1:s] = A[k]
                self.pull_pair[k, l, s:, s:] = A[l]
                self.pull_self[k, l] = np.concatenate([[p[k] - p[l]], A[k], A[l]])

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

    def _masks(self, system: FractalSystem) -> None:
        """The masks reachable from the root, which owns all of V_0, as rows
        of ``owns``, and ``child[mask, k]``, the mask of child k.  A child
        owns a V_1 point off V_0 if it is the smallest child containing it,
        and a V_0 point if, besides, the parent owns that point."""
        owner = _owners(system, 1)
        corner_of = np.full(system.vertex_count(1), -1)
        corner_of[system.promote[0]] = np.arange(system.M0)
        full = (1 << system.M0) - 1
        masks, index, child = [full], {full: 0}, []
        for mask in masks:                       # grows while it is read
            row = []
            for k, ids in enumerate(system.cells[1].tolist()):
                kid = 0
                for q, u in enumerate(ids):
                    if owner[u] == k and (corner_of[u] < 0 or mask >> corner_of[u] & 1):
                        kid |= 1 << q
                if kid not in index:
                    index[kid] = len(masks)
                    masks.append(kid)
                row.append(index[kid])
            child.append(row)
        self.child = np.array(child, dtype=np.int32)
        self.owns = (np.array(masks)[:, None] >> np.arange(system.M0)) & 1 == 1

    def _moments(self, system: FractalSystem, depth: int) -> None:
        """Moments by depth from depth 0 up, children combined as in Chan,
        Golub & LeVeque; balls from the points of V_d, as the walk's."""
        A, p, M0 = self.P[:, 1:, 1:], self.P[:, 0, 1:], system.M0
        nm = len(self.owns)
        ids = np.arange(M0)                      # V_0 in V_d
        self.count, self.mean, self.cov, self.center, self.radius = [], [], [], [], []
        self.kcount, self.kmean, self.kcov, self.kcenter, self.kradius = ([None] for _ in range(5))
        for d in range(depth + 1):
            if d:
                ids = system.promote[d - 1][ids]
            pts = system.points[d]
            owned = np.ones((nm, len(pts)), dtype=bool)
            owned[:, ids] = self.owns
            if d == 1:
                self.leaf_owned = owned
            count = owned.sum(axis=1).astype(float)
            center, radius = np.zeros((nm, system.dim)), np.zeros(nm)
            for mask in np.flatnonzero(count):
                x = pts[owned[mask]]
                center[mask] = x.mean(axis=0)
                radius[mask] = np.sqrt(((x - center[mask]) ** 2).sum(axis=1)).max()
            if d == 0:
                phi = np.concatenate([np.eye(M0)[:, 1:], pts - system.points[0][0]], axis=1)
                mean, cov = np.zeros((nm, self.s - 1)), np.zeros((nm, self.s - 1, self.s - 1))
                for mask in np.flatnonzero(count):
                    mean[mask] = phi[self.owns[mask]].mean(axis=0)
                    dev = phi[self.owns[mask]] - mean[mask]
                    cov[mask] = dev.T @ dev
            else:
                kids = self.child
                kcount = self.count[-1][kids]
                kmean = p + np.einsum("kut,mku->mkt", A, self.mean[-1][kids])
                kcov = A.transpose(0, 2, 1) @ self.cov[-1][kids] @ A
                mean = np.einsum("mk,mkt->mt", kcount, kmean) / count[:, None]
                dev = kmean - mean[:, None]
                cov = kcov.sum(axis=1) + np.einsum("mk,mkt,mku->mtu", kcount, dev, dev)
                self.kcount.append(kcount)
                self.kmean.append(kmean)
                self.kcov.append(kcov)
                self.kcenter.append(np.einsum("kab,mkb->mka", self.rot / self.L,
                                              self.center[-1][kids]) + self.shift)
                self.kradius.append(self.radius[-1][kids] / self.L)
            for store, value in zip((self.count, self.mean, self.cov, self.center, self.radius),
                                    (count, mean, cov, center, radius)):
                store.append(value)


class _Classes(NamedTuple):
    """Cell pairs (a, b) of one level, one row each, with a <= b: 41 bytes on 3-D maps."""

    a: np.ndarray            # mask of a
    b: np.ndarray            # mask of b
    same: np.ndarray         # a = b, summed over its unordered pairs
    r: np.ndarray            # radius index
    g: np.ndarray            # its orthogonal part psi_a^-1 psi_b, index in _Space.orth
    shift: np.ndarray        # (pairs, N) its offset, in cell units

    def take(self, pick) -> "_Classes":
        return _Classes(*(x[pick] for x in self))


def _placements(pairs: _Classes, c0: float) -> tuple[_Classes, np.ndarray]:
    """The placement classes of ``pairs`` and each pair's int32 class, keyed by one
    mixed-radix column (masks, self flag, radius, part) and the rounded offset."""
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
    """The walk's tests of each class's live child pairs (k, l) at depth d,
    k <= l in a self class: wholly inside the cutoff, and straddling it."""
    a, b, M = classes.a, classes.b, space.M
    near_a = space.kcenter[d][a]
    near_b = space.kcenter[d][b] @ space.orth[classes.g].transpose(0, 2, 1) + classes.shift[:, None]
    gap = np.zeros((len(a), M, M))
    for axis in range(near_a.shape[2]):
        gap += np.square(near_a[:, :, None, axis] - near_b[:, None, :, axis])
    np.sqrt(gap, out=gap)
    reach = space.kradius[d][a][:, :, None] + space.kradius[d][b][:, None]
    live = (space.kcount[d][a] > 0)[:, :, None] & (space.kcount[d][b] > 0)[:, None]
    live[classes.same] &= np.triu(np.ones((M, M), dtype=bool))
    inside = gap + reach < cutoff[:, None, None] * (1.0 - TIE_BAND)
    return inside & live, ~inside & live & (gap - reach < cutoff[:, None, None] * (1.0 + TIE_BAND))


def _descend(space: _Space, classes: _Classes, cutoff: np.ndarray, d: int,
             c0: float) -> tuple[tuple, _Classes]:
    """One level down from ``classes``: (d, masks and self flags, inside
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
    count, mean and centred moments of each mask's children at depth d;
    ``a`` and ``b`` are the parents' masks and ``inside`` is (parents, k,
    l).  A self parent sums k <= l, and its form, in the a-block, uses the
    child means less the parent's mean, which leaves its value unchanged."""
    count, kmean, kcov = space.kcount[d], space.kmean[d], space.kcov[d]
    s1 = kmean.shape[2]
    forms = np.zeros((len(a), 2 * s1 + 1, 2 * s1 + 1))
    pair = np.flatnonzero(~same)
    if len(pair):
        hit = inside[pair].astype(float)
        na, nb = count[a[pair]], count[b[pair]]
        w = hit * na[:, :, None] * nb[:, None, :]
        wa, wb = w.sum(axis=2), w.sum(axis=1)
        mu_a, mu_b = kmean[a[pair]], kmean[b[pair]]
        forms[pair, 0, 0] = wa.sum(axis=1)
        forms[pair, 0, 1:s1 + 1] = np.einsum("pk,pkt->pt", wa, mu_a)
        forms[pair, 0, s1 + 1:] = -np.einsum("pl,plt->pt", wb, mu_b)
        forms[pair, 1:, 0] = forms[pair, 0, 1:]
        forms[pair, 1:s1 + 1, 1:s1 + 1] = (
            mu_a.transpose(0, 2, 1) @ (wa[:, :, None] * mu_a)
            + _mixed(np.einsum("pkl,pl->pk", hit, nb), kcov, a[pair]))
        forms[pair, s1 + 1:, s1 + 1:] = (
            mu_b.transpose(0, 2, 1) @ (wb[:, :, None] * mu_b)
            + _mixed(np.einsum("pk,pkl->pl", na, hit), kcov, b[pair]))
        ab = -(mu_a.transpose(0, 2, 1) @ w @ mu_b)
        forms[pair, 1:s1 + 1, s1 + 1:] = ab
        forms[pair, s1 + 1:, 1:s1 + 1] = ab.transpose(0, 2, 1)
    own = np.flatnonzero(same)
    if len(own):
        hit = inside[own].astype(float)
        diag = np.arange(hit.shape[1])
        hit = hit + np.triu(hit, 1).transpose(0, 2, 1)   # both orders of k < l
        n = count[a[own]]
        w = hit * n[:, :, None] * n[:, None, :]
        w[:, diag, diag] = 0.0
        mu = kmean[a[own]] - space.mean[d][a[own]][:, None]
        forms[own, 1:s1 + 1, 1:s1 + 1] = (
            mu.transpose(0, 2, 1) @ (w.sum(axis=2)[:, :, None] * mu)
            - mu.transpose(0, 2, 1) @ w @ mu
            + _mixed(np.einsum("pkl,pl->pk", hit, n), kcov, a[own]))
    return forms


def _mixed(weight: np.ndarray, kcov: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """sum_k weight[p, k] kcov[masks[p], k] for each parent p, one mask at a time."""
    out = np.empty((len(masks),) + kcov.shape[2:])
    for mask in np.flatnonzero(np.bincount(masks)):
        pick = masks == mask
        out[pick] = (weight[pick] @ kcov[mask].reshape(kcov.shape[1], -1)).reshape(
            -1, *kcov.shape[2:])
    return out


def _leaf_forms(space: _Space, classes: _Classes, limit: np.ndarray) -> np.ndarray:
    """Forms of classes of level-(n-1) cell pairs, from their owned points of
    local V_1 under the walk's rule: d2 < ``limit`` (per class, the
    _below_sqrt of its inner cutoff in cell units).  With w the near pairs
    (x of a, y of b): sum w (delta + phi_x.g_a - phi_y.g_b)^2, and for a
    self pair, over its pairs x < y, (phi_x.g - phi_y.g)^2 = phi'(deg - w)phi.
    Points a mask does not own are NaN, which compares as far.  Classes go
    in blocks of at most PAIR_CHUNK point pairs, as the walk's leaf chunks,
    self pairs apart."""
    phi, nv = space.leaf_phi, len(space.leaf_phi)
    s1 = phi.shape[1]
    points = np.where(space.leaf_owned[:, :, None], space.leaf_points, np.nan)
    outer = (phi[:, :, None] * phi[:, None, :]).reshape(nv, -1)
    centred = phi - phi.mean(axis=0)
    centred_outer = (centred[:, :, None] * centred[:, None, :]).reshape(nv, -1)
    ordered = np.triu(np.ones((nv, nv)), 1)
    forms = np.zeros((len(classes.a), 2 * s1 + 1, 2 * s1 + 1))
    step = max(1, PAIR_CHUNK // nv**2)
    for same in (False, True):
        picked = np.flatnonzero(classes.same == same)
        for lo in range(0, len(picked), step):
            rows = picked[lo:lo + step]
            c = classes.take(rows)
            x = points[c.a]
            y = points[c.b] @ space.orth[c.g].transpose(0, 2, 1) + c.shift[:, None]
            w = np.square(x[:, :, None, 0] - y[:, None, :, 0])
            for axis in range(1, x.shape[2]):
                w += np.square(x[:, :, None, axis] - y[:, None, :, axis])
            np.less(w, limit[rows, None, None], out=w)          # near pairs: 1
            if same:
                w *= ordered
                w += w.transpose(0, 2, 1).copy()
                forms[rows, 1:s1 + 1, 1:s1 + 1] = (
                    (w.sum(axis=2) @ centred_outer).reshape(-1, s1, s1)
                    - centred.T @ (w.reshape(-1, nv) @ centred).reshape(-1, nv, s1))
                continue
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
    its straddling children's, pulled back through P (_pull_back).  A level
    keeps its masks, self and inside flags, and 10 bytes a straddling child
    pair, so the forms of two levels, D^2 float64 a class, are the largest
    arrays held: gasket3 L9 at m = 1..6 peaks at 856 MiB RSS, not 1,867.
    """
    M, L, D = space.M, space.L, 2 * space.s - 1
    ii, jj = np.triu_indices(M)
    shift = L * (space.shift[jj] - space.shift[ii])[:, None] @ space.rot[ii]
    scales, pair = len(radii), np.tile(np.arange(len(ii)), len(radii))
    classes = _Classes(space.child[0][ii][pair], space.child[0][jj][pair], (ii == jj)[pair],
                       np.repeat(np.arange(scales, dtype=np.int32), len(ii)),
                       space.turn(ii, 0 * ii, jj)[pair], shift[pair, 0])
    levels = []                      # (depth, masks and self flags, inside children, edges)
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
    to forms[parent]: P' Q P with P = pull_pair[k, l], or pull_self[k, l]
    into the a-block of a self parent; UP_CLASSES child pairs at a time."""
    s = space.s
    group = (k.astype(np.int64) * space.M + l) * 2 + self_parent
    order = np.argsort(group, kind="stable")
    bounds = np.flatnonzero(np.diff(group[order], prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for pick in np.split(order[lo:hi], np.arange(UP_CLASSES, hi - lo, UP_CLASSES)):
            first = pick[0]
            lift = (space.pull_self if self_parent[first] else space.pull_pair)[k[first], l[first]]
            q = below[child[pick]]
            size, dim = q.shape[:2]
            half = (q.reshape(-1, dim) @ lift).reshape(size, dim, -1).transpose(0, 2, 1)
            pulled = (half.reshape(-1, dim) @ lift).reshape(size, lift.shape[1], -1)
            if self_parent[first]:
                forms[parent[pick], 1:s, 1:s] += pulled
            else:
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
    corner = data[system.cells[1]] - data[system.promote[0][0]]
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
