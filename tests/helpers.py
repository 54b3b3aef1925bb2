import math
from dataclasses import dataclass

import numpy as np

from fel.ifs import Similitude, build
from fel.lipschitz import pair_power_sums
from fel.presets import load_maps


def make_system(name, level, **kw):
    maps, nm = load_maps(name)
    return build(maps, level, name=nm, **kw)


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
    distance is below r (1 - 1e-9), the strict < of exact arithmetic."""
    pts = system.points[f.level]
    v = f.values
    r = params.cutoff(m)
    total = 0.0
    for i in range(len(pts)):
        d = np.linalg.norm(pts - pts[i], axis=1)
        mask = d < r * (1 - 1e-9)
        mask[i] = False
        total += ((v[i] - v[mask]) ** 2).sum()
    n = len(pts)
    return params.base ** (m * params.alpha) * math.sqrt(
        params.base ** (m * params.d) * total / n**2
    )


def brute_force_pairs(system, n, radius):
    """All unordered V_n pairs (i < j) under the ties-out cutoff of the pair
    sums: sqrt(d2) < r (1 - 1e-9), d2 summed axis by axis."""
    pts = system.points[n]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    ii, jj = np.nonzero(np.sqrt(d2) < radius * (1 - 1e-9))
    keep = ii < jj
    return set(zip(ii[keep].tolist(), jj[keep].tolist()))


def brute_force_degrees(system, n, radius):
    """Degree of each V_n point in the cutoff graph of brute_force_pairs."""
    pairs = np.array(list(brute_force_pairs(system, n, radius)), dtype=np.int64)
    return np.bincount(pairs.ravel(), minlength=system.vertex_count(n))


def walk_degrees(system, n, radius):
    """The same degrees read from the pair-sum walk: with the indicator of
    point i as the function, the pair sum counts the pairs that contain i."""
    return pair_power_sums(system, n, [radius], np.eye(system.vertex_count(n)))[0]


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


def points_in_symplex(system, m, index, n):
    """Ids of V_n points lying in the level-m symplex with the given index."""
    if n < m:
        raise ValueError("need n >= m")
    span = system.M ** (n - m)
    rows = system.cells[n][index * span : (index + 1) * span]
    return np.unique(rows)
