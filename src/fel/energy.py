"""Level-m Dirichlet energies, harmonic extension, and samplable functions.

The level-m energy of f is rho^m times the sum over m-symplices of the base
form evaluated on the pulled-back vertex values.  Harmonic extension fills in
finer-level vertices cell by cell with the minimizing interior values, which
leaves the energy sequence constant; arbitrary functions give a nondecreasing
sequence.

Functions are specified in a small mini-language shared with the CLI:

* ``coord:k``            -- the k-th Euclidean coordinate (0-based),
* ``harmonic:v1,v2,...`` -- harmonic extension of the given vertex data
                            (#V_0 values for level-0 data, #V_1 for level-1),
* ``perturb:<spec>:<vertex-index>:<delta>`` -- a base spec with one vertex of
  the sampling level shifted by delta.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .harmonic import HarmonicStructure
from .ifs import FractalSystem

MONOTONE_SLACK = 1e-9
EXACT_SUM_CHUNK = 1 << 16
EXACT_SUM_MAX_TERMS = 1 << 26
_SUM_BINS = 2046  # one bin per scale 2^s, s = -1074 .. 971


@dataclass(frozen=True)
class VertexFunction:
    """Real values indexed by the vertex ids of some V_m."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def _check_level(system: FractalSystem, f: VertexFunction) -> None:
    if not 0 <= f.level <= system.max_level:
        raise ValueError(f"level {f.level} not built")
    if f.values.shape != (system.vertex_count(f.level),):
        raise ValueError(
            f"function has {f.values.shape[0]} values but V_{f.level} has "
            f"{system.vertex_count(f.level)} vertices"
        )


def exact_sum(terms) -> float:
    """The correctly rounded sum of float64 terms: math.fsum(terms), bit for bit.

    Each finite term is mant * 2^s exactly, with mant an integer, |mant| <
    2^53, and s = max(e - 53, -1074) from its frexp exponent e.  The high 27
    and low 26 bits of mant go into one bin per s, added by np.bincount over
    chunks of EXACT_SUM_CHUNK terms.  Every bin total is an integer below
    2^53, so exact, while the input holds at most EXACT_SUM_MAX_TERMS = 2^26
    terms; longer input raises ValueError (the point cap keeps cells and
    vertices far below it).  math.fsum of the scaled bin totals rounds the
    exact sum once, which is also what math.fsum of the terms returns.

    Non-finite terms follow fsum: nan gives nan, inf gives inf, and +inf
    with -inf raises ValueError.  A finite sum beyond the float range raises
    OverflowError.  fsum's overflow test also depends on the order of the
    terms (1e308, 1e308, -1e308 overflows; 1e308, -1e308, 1e308 does not),
    while this sum does not; on nonnegative terms, such as energies, both
    raise exactly when the sum leaves the float range.
    """
    x = np.asarray(terms, dtype=float)
    if x.size > EXACT_SUM_MAX_TERMS:
        raise ValueError(f"exact_sum takes at most {EXACT_SUM_MAX_TERMS} terms (got {x.size})")
    x = x.reshape(-1)
    hi_bins = np.zeros(_SUM_BINS)
    lo_bins = np.zeros(_SUM_BINS)
    special = []
    for start in range(0, x.size, EXACT_SUM_CHUNK):
        chunk = x[start:start + EXACT_SUM_CHUNK]
        finite = np.isfinite(chunk)
        if not finite.all():
            special.append(chunk[~finite])
            chunk = chunk[finite]
        scale = np.maximum(np.frexp(chunk)[1] - 53, -1074)
        mant = np.ldexp(chunk, -scale)
        hi = np.floor(mant * 2.0**-26)
        bins = scale + 1074
        hi_bins += np.bincount(bins, weights=hi, minlength=_SUM_BINS)
        lo_bins += np.bincount(bins, weights=mant - hi * 2.0**26, minlength=_SUM_BINS)
    scaled = [math.ldexp(float(bins[b]), int(b) + shift)
              for bins, shift in ((hi_bins, 26 - 1074), (lo_bins, -1074))
              for b in np.flatnonzero(bins)]
    if special:
        scaled.extend(np.unique(np.concatenate(special)).tolist())
    return math.fsum(scaled)


def nonnegative_sum(terms) -> float:
    """exact_sum of nonnegative terms, inf where the exact sum of finite
    terms leaves the float range (exact_sum raises OverflowError there)."""
    try:
        return exact_sum(terms)
    except OverflowError:
        return math.inf


def _cells_energy(hs: HarmonicStructure, cols: list[np.ndarray], level: int) -> float:
    """rho^level times the exact sum of the cells' edge sums (inf beyond the
    float range); cols[p] holds the values at corner p of every cell."""
    a = hs.matrix.entries
    cell_energy = np.zeros(cols[0].shape[0])
    for p, q in itertools.combinations(range(len(cols)), 2):
        cell_energy += a[p, q] * (cols[p] - cols[q]) ** 2
    return float(hs.rho**level * nonnegative_sum(cell_energy))


def energy_m(system: FractalSystem, hs: HarmonicStructure, f: VertexFunction) -> float:
    """E^(m)(f,f) = rho^m * sum over m-symplices of the pulled-back base form.

    Each cell contributes the edge sum sum_{p<q} a_pq (f_p - f_q)^2 of the
    base form.  Its terms are nonnegative, so nothing cancels, and a
    near-constant function keeps full relative precision.  Per-cell energies
    are combined by exact_sum, a binned exact accumulation equal to
    math.fsum, so the result does not depend on the order of the cells.
    """
    _check_level(system, f)
    cells = system.cells[f.level]
    return _cells_energy(hs, [f.values[cells[:, p]] for p in range(system.M0)], f.level)


def harmonic_extension(system: FractalSystem, hs: HarmonicStructure,
                       f: VertexFunction, n: int) -> VertexFunction:
    """Extend f from its level to level n with minimal-energy interior values.

    Each level-k step is two scatters: the promoted level-k values keep their
    vertices, and each level-k cell writes its interior values, the
    extension matrix applied to its corner values, to its new vertices
    system.new_vertices(k).  FractalSystem checks at construction that the
    two write every vertex of level k + 1 exactly once.
    """
    _check_level(system, f)
    if not f.level <= n <= system.max_level:
        raise ValueError(f"target level {n} out of range [{f.level}, {system.max_level}]")
    values = f.values
    for k in range(f.level, n):
        values = _extend_one(system, hs, values, k)
    return VertexFunction(level=n, values=values)


def _extend_one(system: FractalSystem, hs: HarmonicStructure,
                values: np.ndarray, k: int) -> np.ndarray:
    out = np.empty(system.vertex_count(k + 1))
    out[system.promote[k]] = values
    out[system.new_vertices(k)] = values[system.cells[k]] @ hs.extension_matrix.T
    return out


@dataclass
class EnergySequence:
    """The nondecreasing sequence m -> E^(m)(f,f)."""

    tag: str
    entries: list[tuple[int, float]]
    monotone_ok: bool


def energy_sequence(system: FractalSystem, hs: HarmonicStructure, f: VertexFunction,
                    m0: int = 0, tag: str = "") -> EnergySequence:
    """Evaluate E^(m) for m0 <= m <= f.level on the restrictions of f.

    The corner values of every top-level cell are gathered once.  Each lower
    level restricts them through child rows: level-m cell w has the children
    w*M + k in cells[m+1], and map k_p = system.fixing_maps[p] fixes V_0
    point p, so corner p of w is corner p of child w*M + k_p.  The column of
    corner p one level down is thus the strided view col[k_p::M], and no
    level copies values.  Each level's energy is the same edge sum as
    energy_m, combined by the same exact_sum, so every entry equals energy_m
    of the restriction of f to V_m bit for bit.
    """
    _check_level(system, f)
    cells = system.cells[f.level]
    cols = [f.values[cells[:, p]] for p in range(system.M0)]
    entries = []
    for m in range(f.level, m0 - 1, -1):
        if m < f.level:
            cols = [col[k::system.M] for col, k in zip(cols, system.fixing_maps)]
        entries.append((m, _cells_energy(hs, cols, m)))
    entries.reverse()
    monotone_ok = all(
        e2 >= e1 - MONOTONE_SLACK * max(1.0, abs(e1))
        for (_, e1), (_, e2) in zip(entries, entries[1:])
    )
    return EnergySequence(tag=tag, entries=entries, monotone_ok=monotone_ok)


# -- samplable functions ----------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    """A function samplable on any V_n, parsed from the mini-language."""

    tag: str
    kind: str
    coord: int = 0
    data: np.ndarray | None = None
    base: "FunctionSpec | None" = None
    vertex_index: int = 0
    delta: float = 0.0

    def sample(self, system: FractalSystem, hs: HarmonicStructure | None,
               level: int) -> VertexFunction:
        if self.kind == "coord":
            if not 0 <= self.coord < system.dim:
                raise ValueError(f"coordinate {self.coord} out of range")
            return VertexFunction(level, system.points[level][:, self.coord].copy())
        if self.kind == "harmonic":
            if hs is None:
                raise ValueError("harmonic sampling requires a solved harmonic structure")
            data_level = 0 if len(self.data) == system.M0 else 1
            if data_level == 1 and len(self.data) != system.vertex_count(1):
                raise ValueError(
                    f"harmonic data must have {system.M0} (V_0) or "
                    f"{system.vertex_count(1)} (V_1) values"
                )
            if level < data_level:
                raise ValueError("sampling level below the data level")
            return harmonic_extension(system, hs, VertexFunction(data_level, self.data), level)
        if self.kind == "perturb":
            out = self.base.sample(system, hs, level).values.copy()
            if not 0 <= self.vertex_index < len(out):
                raise ValueError(f"vertex index {self.vertex_index} out of range at level {level}")
            out[self.vertex_index] += self.delta
            return VertexFunction(level, out)
        raise ValueError(f"unknown function kind {self.kind}")


def parse_function_spec(text: str) -> FunctionSpec:
    text = text.strip()
    head, _, rest = text.partition(":")
    if head == "coord":
        return FunctionSpec(tag=text, kind="coord", coord=int(rest))
    if head == "harmonic":
        data = np.array([float(v) for v in rest.split(",")])
        if len(data) < 2:
            raise ValueError("harmonic spec needs at least #V_0 values")
        return FunctionSpec(tag=text, kind="harmonic", data=data)
    if head == "perturb":
        base_text, idx, delta = rest.rsplit(":", 2)
        return FunctionSpec(tag=text, kind="perturb", base=parse_function_spec(base_text),
                            vertex_index=int(idx), delta=float(delta))
    raise ValueError(f"unknown function spec {text!r}")


def random_corpus(system: FractalSystem, count: int, seed: int,
                  include_coords: bool = True) -> list[FunctionSpec]:
    """Seeded corpus: harmonic extensions of uniform data on V_0 and V_1,
    plus the coordinate functions; a negative count raises ValueError."""
    if count < 0:
        raise ValueError(f"corpus size must be >= 0 (got {count})")
    rng = np.random.default_rng(seed)
    specs: list[FunctionSpec] = []
    if include_coords:
        specs.extend(parse_function_spec(f"coord:{k}") for k in range(system.dim))
    n1 = system.vertex_count(1)
    for k in range(count):
        size = system.M0 if k % 2 == 0 else n1
        data = rng.uniform(-1.0, 1.0, size=size)
        specs.append(parse_function_spec("harmonic:" + ",".join(f"{v:.17g}" for v in data)))
    return specs
