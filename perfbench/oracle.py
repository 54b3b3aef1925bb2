"""All-pairs oracle for the Lipschitz pair sums, owned by the benchmark.

For every cutoff r the oracle computes S(r), the sum of (f(x) - f(y))^2 over
unordered V_n pairs with |x - y| < r, under each tie convention.  Lattice
fractals put many pairs at exactly the cutoff distance; a pair within
TIE_BAND * r of the sphere is a tie, and a convention decides all ties at once:

* ``low``: ties excluded, the strict < of exact arithmetic;
* ``high``: ties included;
* ``rounded``: float rounding decides, as in the seed's enumerators: a pair
  counts when sqrt(d2) < r and d2 < r_max^2, with d2 summed axis by axis and
  r_max the largest cutoff of the call.

``low`` and ``high`` bracket every convention.  A coefficient passes when it
matches one convention to REL_TOL, so dropping a single pair fails it.

The scan visits every pair: points are sorted by their first coordinate and
a pair is skipped only when that coordinate alone separates it by more than
the largest cutoff.  Sums of squares are non-negative, so no cancellation
limits the accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TIE_BAND = 1e-9
REL_TOL = 1e-10
# Upper bound on the elements of one block of the scan (2 MB of float64).
BLOCK_ELEMENTS = 1 << 18


@dataclass(frozen=True)
class PairSums:
    """Pair sums per convention: row k belongs to ``radii[k]``, columns to f."""

    radii: np.ndarray
    low: np.ndarray            # (k, F) ties excluded
    high: np.ndarray           # (k, F) ties included
    rounded: np.ndarray        # (k, F) float rounding decides
    low_count: np.ndarray      # (k,) pairs in the low sum
    high_count: np.ndarray     # (k,) pairs in the high sum


def pair_sums(points: np.ndarray, values: np.ndarray, radii) -> PairSums:
    """S(r) for every radius of one call; ``values`` is (N,) or (N, F)."""
    radii = np.asarray(radii, dtype=float)
    vals = np.asarray(values, dtype=float)
    vals = vals[:, None] if vals.ndim == 1 else vals
    order = np.argsort(points[:, 0], kind="stable")
    pts, vals = points[order], vals[order]
    x = pts[:, 0]
    n, width = vals.shape
    edges = np.concatenate([radii * (1.0 - TIE_BAND), radii * (1.0 + TIE_BAND)])
    reach = float(edges.max())
    r_max2 = float(radii.max()) ** 2
    partials = []
    counts = np.zeros(len(edges), dtype=np.int64)
    per_element = max(width, 3 * len(radii))
    a = 0
    while a < n:
        rows = n - a
        while True:
            hi = int(np.searchsorted(x, x[a + rows - 1] + reach, side="right"))
            if rows == 1 or rows * (hi - a) * per_element <= BLOCK_ELEMENTS:
                break
            rows = max(1, rows // 2)
        b = a + rows
        d2 = np.zeros((rows, hi - a))
        for axis in range(pts.shape[1]):
            d2 += (pts[a:b, None, axis] - pts[None, a:hi, axis]) ** 2
        d2[np.arange(hi - a)[None, :] <= np.arange(rows)[:, None]] = np.inf  # j > i only
        d2 = d2.reshape(1, -1)
        dist = np.sqrt(d2)
        banded = dist < edges[:, None]
        rounded = (dist < radii[:, None]) & (d2 < r_max2)
        inside = np.concatenate([banded, rounded]).astype(float)
        sq = ((vals[a:b, None, :] - vals[None, a:hi, :]) ** 2).reshape(-1, width)
        partials.append(inside @ sq)
        counts += banded.sum(axis=1)
        a = b
    k = len(radii)
    total = np.array([[math.fsum(p[e, f] for p in partials) for f in range(width)]
                      for e in range(3 * k)]).reshape(3 * k, width)
    return PairSums(radii=radii, low=total[:k], high=total[k:2 * k],
                    rounded=total[2 * k:], low_count=counts[:k], high_count=counts[k:])


def coefficient(pair_sum, m: int, base: float, alpha: float, d: float, n_points: int):
    """Lipschitz coefficient base^(m alpha) (base^(m d) 2 S / N^2)^(1/2)."""
    integral = base ** (m * d) * 2.0 * np.asarray(pair_sum) / float(n_points) ** 2
    return base ** (m * alpha) * np.sqrt(integral)


def matches(value, conventions, rel: float = REL_TOL) -> bool:
    """True when ``value`` equals the table of one convention to ``rel``."""
    value = np.asarray(value, dtype=float)
    return any(bool(np.all(np.abs(value - ref) <= rel * np.abs(ref)))
               for ref in map(np.asarray, conventions))
