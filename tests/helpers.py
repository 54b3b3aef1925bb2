import math

import numpy as np

from fel.ifs import Similitude, build
from fel.lipschitz import iter_radius_pairs
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
    pts = system.points[n]
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    ii, jj = np.nonzero(d2 < radius * radius)
    keep = ii < jj
    return set(zip(ii[keep].tolist(), jj[keep].tolist()))


def enumerated_pairs(system, n, radius):
    got = set()
    for i, j, _ in iter_radius_pairs(system, n, radius):
        got.update(zip(i.tolist(), j.tolist()))
    return got
