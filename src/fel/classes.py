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
        self.child = np.array(child)
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
    """Cell pairs (a, b) of one level, one row each, with a <= b."""

    a: np.ndarray            # mask of a
    b: np.ndarray            # mask of b
    same: np.ndarray         # a = b, summed over its unordered pairs
    r: np.ndarray            # radius index
    rot: np.ndarray          # (pairs, N, N) orthogonal part of psi_a^-1 psi_b
    shift: np.ndarray        # (pairs, N) its offset, in cell units

    def take(self, pick) -> "_Classes":
        return _Classes(*(x[pick] for x in self))


def _placements(pairs: _Classes, c0: float) -> tuple[_Classes, np.ndarray]:
    """The placement classes of ``pairs``, and the class of each pair: pairs
    agree in their masks, self flag, radius and rounded relative similitude."""
    key = np.column_stack([pairs.a, pairs.b, pairs.same, pairs.r,
                           np.rint(pairs.rot.reshape(len(pairs.a), -1) / KEY_STEP),
                           np.rint(pairs.shift / (KEY_STEP * c0))]).astype(np.int64)
    order = np.lexsort(key.T[::-1])
    first = np.r_[True, (key[order[1:]] != key[order[:-1]]).any(axis=1)]
    klass = np.empty(len(key), dtype=np.int64)
    klass[order] = np.cumsum(first) - 1
    return pairs.take(order[first]), klass


def _ball_test(gap: np.ndarray, reach: np.ndarray,
               cutoff: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The walk's tests of balls ``gap`` apart with radii summing to ``reach``:
    wholly inside the cutoff, and straddling it."""
    inside = gap + reach < cutoff * (1.0 - TIE_BAND)
    return inside, ~inside & (gap - reach < cutoff * (1.0 + TIE_BAND))


def _inside_forms(kids, a: np.ndarray, b: np.ndarray, inside: np.ndarray,
                  same: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Forms of the inside child pairs (k, l) of each parent, summed in the
    parent's frame: n_k n_l (delta + mu_k.g_a - mu_l.g_b)^2 + n_l g_a'C_k g_a
    + n_k g_b'C_l g_b, _block_sum's formula as a quadratic form in
    z = (delta, g_a, g_b), with the constant difference delta.  ``kids``
    holds the count, mean and centred moments of each mask's children,
    (masks, children, ...); ``a`` and ``b`` are the parents' masks and
    ``inside`` is (parents, k, l).  A self parent sums k <= l, and its form,
    in the a-block, uses the child means less the parent's ``mean``, which
    leaves its value unchanged."""
    count, kmean, kcov = kids
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
        mu = kmean[a[own]] - mean[own][:, None]
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
            y = points[c.b] @ c.rot.transpose(0, 2, 1) + c.shift[:, None]
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
    level, the ball test sorts each class's child pairs (k, l): one inside
    the cutoff adds its moment form (_inside_forms), one outside adds
    nothing, and the straddling ones fall into the placement classes of the
    next level.  Classes at level n - 1 are the leaves (_leaf_forms).  The
    forms then come back up: each class's form is its inside children's plus
    its straddling children's, pulled back through P (_pull_back).  Leaf
    forms, the most numerous, go into their parents LEAF_CLASSES at a time,
    so no more of them are held.
    """
    M, N, L = space.M, system.dim, space.L
    ii, jj = np.triu_indices(M)
    rot = space.rot[ii].transpose(0, 2, 1) @ space.rot[jj]
    shift = L * (space.shift[jj] - space.shift[ii])[:, None] @ space.rot[ii]
    self_pair = ii == jj
    rot[self_pair], shift[self_pair] = np.eye(N), 0.0
    scales = len(radii)
    classes = _Classes(np.tile(space.child[0][ii], scales), np.tile(space.child[0][jj], scales),
                       np.tile(self_pair, scales), np.repeat(np.arange(scales), len(ii)),
                       np.tile(rot, (scales, 1, 1)), np.tile(shift[:, 0], (scales, 1)))
    upper = np.triu(np.ones((M, M), dtype=bool))
    levels = []                      # (depth, classes, inside children, edges to the next level)
    for j in range(1, n - 1):
        d = n - j
        a, b = classes.a, classes.b
        near_a = space.kcenter[d][a]
        near_b = space.kcenter[d][b] @ classes.rot.transpose(0, 2, 1) + classes.shift[:, None]
        gap = np.zeros((len(a), M, M))
        for axis in range(N):
            gap += np.square(near_a[:, :, None, axis] - near_b[:, None, :, axis])
        np.sqrt(gap, out=gap)
        live = (space.kcount[d][a] > 0)[:, :, None] & (space.kcount[d][b] > 0)[:, None]
        live[classes.same] &= upper
        inside, cross = _ball_test(gap, space.kradius[d][a][:, :, None]
                                   + space.kradius[d][b][:, None],
                                   (radii[classes.r] * L**j)[:, None, None])
        inside &= live
        cross &= live
        parent, k, l = np.nonzero(cross)
        same = classes.same[parent] & (k == l)
        rot = (space.rot[k].transpose(0, 2, 1) @ classes.rot[parent] @ space.rot[l])
        shift = L * ((classes.rot[parent] @ space.shift[l][:, :, None])[:, :, 0]
                     + classes.shift[parent] - space.shift[k])[:, None] @ space.rot[k]
        rot[same], shift[same] = np.eye(N), 0.0
        kids = _Classes(space.child[a[parent], k], space.child[b[parent], l], same,
                        classes.r[parent], rot, shift[:, 0])
        kid_classes, child = _placements(kids, system.c0)
        levels.append((d, classes, inside, (parent, k, l, classes.same[parent], child)))
        classes = kid_classes
    limit = np.array([_below_sqrt(r * L**(n - 1) * (1.0 - TIE_BAND)) for r in radii])
    if not levels:                   # n = 2: the level-1 pairs are the leaves
        forms = _leaf_forms(space, classes, limit[classes.r])
        return forms.reshape(scales, len(ii), *forms.shape[1:])
    forms = None
    for d, parents, inside, edges in reversed(levels):
        below, forms = forms, _inside_forms((space.kcount[d], space.kmean[d], space.kcov[d]),
                                            parents.a, parents.b, inside, parents.same,
                                            space.mean[d][parents.a])
        if below is not None:
            _pull_back(space, forms, below, *edges)
            continue
        parent, k, l, self_parent, child = edges
        order = np.argsort(child, kind="stable")
        starts = np.arange(0, len(classes.a) + LEAF_CLASSES, LEAF_CLASSES)
        cuts = np.searchsorted(child[order], starts)
        for first, lo, hi in zip(starts, cuts[:-1], cuts[1:]):
            rows, pick = slice(first, first + LEAF_CLASSES), order[lo:hi]
            leaves = _leaf_forms(space, classes.take(rows), limit[classes.r[rows]])
            _pull_back(space, forms, leaves, parent[pick], k[pick], l[pick], self_parent[pick],
                       child[pick] - first)
    return forms.reshape(scales, len(ii), *forms.shape[1:])


def _pull_back(space: _Space, forms: np.ndarray, below: np.ndarray, parent: np.ndarray,
               k: np.ndarray, l: np.ndarray, self_parent: np.ndarray,
               child: np.ndarray) -> None:
    """Add each child form below[child], pulled back through maps k and l,
    to forms[parent]: P' Q P with P = pull_pair[k, l], or pull_self[k, l]
    into the a-block of a self parent."""
    s = space.s
    group = (k * space.M + l) * 2 + self_parent
    order = np.argsort(group, kind="stable")
    bounds = np.flatnonzero(np.diff(group[order], prepend=-1, append=-1))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        pick = order[lo:hi]
        first = pick[0]
        lift = (space.pull_self if self_parent[first] else space.pull_pair)[k[first], l[first]]
        q = below[child[pick]]
        size, dim = q.shape[:2]
        half = (q.reshape(-1, dim) @ lift).reshape(size, dim, -1)
        pulled = (half.transpose(0, 2, 1).reshape(-1, dim) @ lift).reshape(size, lift.shape[1], -1)
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
