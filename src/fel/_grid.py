"""Spatial-hash helpers: tolerance-based point merging.

Vertex coordinates are irrational in general, so canonical point identity is
decided by a grid hash with cell size equal to the merge tolerance.  Distinct
vertices of a valid system are two orders of magnitude farther apart than the
tolerance, which makes the quantization unambiguous; the only delicate case is
a point whose coordinate lands (up to float noise) exactly on a cell boundary,
handled by a guarded neighbor-cell check.
"""

from __future__ import annotations

import itertools

import numpy as np

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

