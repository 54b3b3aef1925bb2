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
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .harmonic import HarmonicStructure
from .ifs import FractalSystem

MONOTONE_SLACK = 1e-9
EXACT_SUM_MAX_TERMS = 1 << 26
# Cells per block of _corner_blocks, the energy path's one kernel: a block's
# corner gather (M0 x 128 KiB of float64) and scratch rows (128 KiB each)
# stay in L2.  2^14 had the lowest median energy-deep wall time of
# 2^13-2^16, over three runs each, when only the edge sums were blocked.
ENERGY_BLOCK = 1 << 14


@dataclass(frozen=True)
class VertexFunction:
    """Real values indexed by the vertex ids of some V_m, held C-contiguous."""

    level: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.ascontiguousarray(self.values, dtype=float))


def _check_level(system: FractalSystem, f: VertexFunction) -> None:
    if not 0 <= f.level <= system.max_level:
        raise ValueError(f"level {f.level} not built")
    if f.values.shape != (system.vertex_count(f.level),):
        raise ValueError(
            f"function has {f.values.shape[0]} values but V_{f.level} has "
            f"{system.vertex_count(f.level)} vertices"
        )


def nonnegative_sum(blocks) -> float:
    """The correctly rounded sum of the nonnegative float64 terms of the
    arrays in blocks, binned one at a time (a generator may reuse one
    buffer); inf beyond the float range.

    Each term x splits by its bits into a high part, x with the low 26
    mantissa bits cleared, and an exact low part x - high, both binned by
    np.bincount at the biased exponent field E = (bits >> 52) & 0x7FF of x.
    In bin E (E = 0 holds the subnormals, on the grid of E = 1) high parts
    are multiples of 2^(max(E, 1) - 1049) below 2^27 such units and low
    parts multiples of 2^(max(E, 1) - 1075) below 2^26 such units, so with
    at most EXACT_SUM_MAX_TERMS = 2^26 terms (more raise ValueError) every
    partial bin total is exact until it passes 2^1024, where the sum does.
    The finite bins are added as integers in units of 2^-1074 and rounded
    once: math.fsum of them can overflow on a sum that rounds to the
    largest float.  nan and inf fill the top bin, E = 0x7FF, and make a sum
    in range nan or inf (the high part of a quiet nan is nan).
    """
    bins = np.zeros((2, 2048))
    count = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for x in blocks:
            x = np.asarray(x, dtype=float)
            count += x.size
            if count > EXACT_SUM_MAX_TERMS:
                raise ValueError(f"at most {EXACT_SUM_MAX_TERMS} terms (got {count})")
            bits = x.reshape(-1).view(np.int64)
            exponent = (bits >> 52) & 0x7FF
            hi = (bits & ~((1 << 26) - 1)).view(np.float64)
            lo = bits.view(np.float64) - hi
            bins[0] += np.bincount(exponent, weights=hi, minlength=2048)
            bins[1] += np.bincount(exponent, weights=lo, minlength=2048)
    finite, units = bins[:, :-1], 0
    try:
        for total in finite[finite != 0].tolist():
            num, den = total.as_integer_ratio()   # den = 2^k, k <= 1074
            units += num << (1075 - den.bit_length())
        total = units / (1 << 1074)
    except OverflowError:   # an inf bin total, or a sum beyond the float range
        return math.inf
    return float(bins[0, -1]) or total


def _row_blocks(array: np.ndarray) -> Iterator[np.ndarray]:
    """Views of ENERGY_BLOCK consecutive rows of array at a time, in order."""
    return (array[start:start + ENERGY_BLOCK] for start in range(0, len(array), ENERGY_BLOCK))


def _corner_blocks(table: np.ndarray, cells: np.ndarray) -> Iterator[np.ndarray]:
    """table at the corners of each _row_blocks block of cells, gathered into
    one buffer that every block reuses.  The ids are in range, and mode="clip"
    lets np.take write straight into the buffer, where "raise" gathers a copy."""
    buffer = np.empty((min(len(cells), ENERGY_BLOCK),) + cells.shape[1:] + table.shape[1:])
    for rows in _row_blocks(cells):
        yield np.take(table, rows, axis=0, out=buffer[:len(rows)], mode="clip")


def _cells_energy(hs: HarmonicStructure, values: np.ndarray, cells: np.ndarray,
                  level: int) -> float:
    """rho^level times the exact sum of the edge sums of the cells (rows of
    ids into values), inf beyond the float range.

    Each _corner_blocks block forms its edge sums in buffers that every block
    and pair reuses, and nonnegative_sum bins them as they come.  Each cell
    takes the steps of one full-length pass in the same order: from zero, add
    a_pq * (f_p - f_q)^2 for the pairs p < q in itertools.combinations order,
    so every cell energy keeps its bits.  A unit a_pq skips its multiply,
    which would leave every bit as it is.
    """
    a = hs.matrix.entries
    pairs = [(p, q, a[p, q]) for p, q in itertools.combinations(range(cells.shape[1]), 2)]
    energy, term = np.empty((2, min(len(cells), ENERGY_BLOCK)))

    def edge_sums():
        for corners in _corner_blocks(values, cells):
            block, step = energy[:len(corners)], term[:len(corners)]
            block.fill(0.0)
            for p, q, a_pq in pairs:
                np.square(np.subtract(corners[:, p], corners[:, q], out=step), out=step)
                if a_pq != 1.0:
                    step *= a_pq
                block += step
            yield block

    return float(hs.rho**level * nonnegative_sum(edge_sums()))


def energy_m(system: FractalSystem, hs: HarmonicStructure, f: VertexFunction) -> float:
    """E^(m)(f,f) = rho^m * sum over m-symplices of the pulled-back base form.

    Each cell contributes the edge sum sum_{p<q} a_pq (f_p - f_q)^2 of the
    base form.  Its terms are nonnegative, so nothing cancels, and a
    near-constant function keeps full relative precision.  Per-cell energies
    are combined by nonnegative_sum, a binned exact accumulation rounded
    once, so the result does not depend on the order of the cells.
    """
    _check_level(system, f)
    return _cells_energy(hs, f.values, system.cells[f.level], f.level)


def harmonic_extension(system: FractalSystem, hs: HarmonicStructure,
                       f: VertexFunction, n: int) -> VertexFunction:
    """Extend f from its level to level n with minimal-energy interior values.

    The result is one array for V_n, which never shares f's memory.  V_k is
    its first #V_k values for k >= 1, and level-k cell w's new points are
    the s = #V_1 - #V_0 ids from #V_k + w * s on, in the order of the
    extension rows: each step writes the extension matrix applied to the
    corner values of one _corner_blocks block of level-k cells straight into
    the ids after V_k.  Only the step from V_0, whose ids interleave with the
    new ones in V_1, scatters.
    """
    _check_level(system, f)
    if not f.level <= n <= system.max_level:
        raise ValueError(f"target level {n} out of range [{f.level}, {system.max_level}]")
    values = np.empty(system.vertex_count(n))
    extension = hs.extension_matrix.T
    if f.level == 0 < n:
        level1 = values[:system.vertex_count(1)]
        new = np.ones(len(level1), dtype=bool)
        new[system.v0_ids] = False
        level1[system.v0_ids] = f.values
        level1[new] = (f.values[None, :] @ extension)[0]
    else:
        values[:len(f.values)] = f.values
    for k in range(max(f.level, 1), n):
        _refine(values, system.vertex_count(k), system.cells[k], extension)
    return VertexFunction(level=n, values=values)


def _refine(values: np.ndarray, n: int, cells: np.ndarray, extension: np.ndarray) -> None:
    """Write the interior values of the cells, rows of ids into values[:n],
    to values[n:], s = extension.shape[1] per cell in cell order.  The block
    buffer dies on return, before the next level's is made."""
    tail = values[n:n + len(cells) * extension.shape[1]].reshape(len(cells), -1)
    for corners, rows in zip(_corner_blocks(values[:n], cells), _row_blocks(tail)):
        np.matmul(corners, extension, out=rows)


@dataclass
class EnergySequence:
    """The nondecreasing sequence m -> E^(m)(f,f)."""

    tag: str
    entries: list[tuple[int, float]]
    monotone_ok: bool


def energy_sequence(system: FractalSystem, hs: HarmonicStructure, f: VertexFunction,
                    m0: int = 0, tag: str = "") -> EnergySequence:
    """Evaluate E^(m) for m0 <= m <= f.level on the restrictions of f.

    f on V_m is the first #V_m values of f for m >= 1, and f read at
    system.v0_ids for m = 0, so the sequence copies no values past V_0.
    Each level's energy is the same blocked edge sum as energy_m, combined
    by the same nonnegative_sum, so every entry equals energy_m of the
    restriction of f to V_m bit for bit.
    m0 outside [0, f.level] raises ValueError.
    """
    _check_level(system, f)
    if not 0 <= m0 <= f.level:
        raise ValueError(f"first level {m0} out of range [0, {f.level}]")
    entries = []
    for m in range(f.level, m0 - 1, -1):
        values = (f.values[system.v0_ids] if m == 0 < f.level
                  else f.values[:system.vertex_count(m)])
        entries.append((m, _cells_energy(hs, values, system.cells[m], m)))
    entries.reverse()
    monotone_ok = all(
        e2 >= e1 - MONOTONE_SLACK * max(1.0, abs(e1))
        for (_, e1), (_, e2) in zip(entries, entries[1:])
    )
    return EnergySequence(tag=tag, entries=entries, monotone_ok=monotone_ok)


# -- samplable functions ----------------------------------------------------


@dataclass(frozen=True)
class FunctionSpec:
    """A function samplable on any V_n, parsed from the mini-language.  The
    data of a harmonic spec is read-only, so it stays the values its tag names."""

    tag: str
    kind: str
    coord: int = 0
    data: np.ndarray | None = None
    base: "FunctionSpec | None" = None
    vertex_index: int = 0
    delta: float = 0.0

    def sample(self, system: FractalSystem, hs: HarmonicStructure | None,
               level: int) -> VertexFunction:
        """The function on V_level, in an array of its own; a level outside
        [0, system.max_level] raises ValueError."""
        if not 0 <= level <= system.max_level:
            raise ValueError(f"sampling level {level} out of range [0, {system.max_level}]")
        if self.kind == "coord":
            self.data_level(system, hs)
            return VertexFunction(level, system.points[level][:, self.coord].copy())
        if self.kind == "harmonic":
            data_level = self.data_level(system, hs)
            if level < data_level:
                raise ValueError("sampling level below the data level")
            return harmonic_extension(system, hs, VertexFunction(data_level, self.data), level)
        if self.kind == "perturb":
            out = self.base.sample(system, hs, level).values
            if not 0 <= self.vertex_index < len(out):
                raise ValueError(f"vertex index {self.vertex_index} out of range at level {level}")
            out[self.vertex_index] += self.delta
            return VertexFunction(level, out)
        raise ValueError(f"unknown function kind {self.kind}")

    def data_level(self, system: FractalSystem, hs: HarmonicStructure | None) -> int:
        """Level of the data that define a coord or harmonic spec: 0 for a
        coordinate or #V_0 values, 1 for #V_1 values.  A coordinate out of
        range, another number of values, or harmonic data without a solved
        harmonic structure raise ValueError."""
        if self.kind == "coord":
            if not 0 <= self.coord < system.dim:
                raise ValueError(f"coordinate {self.coord} out of range")
            return 0
        if hs is None:
            raise ValueError("harmonic sampling requires a solved harmonic structure")
        if len(self.data) == system.M0:
            return 0
        if len(self.data) != system.vertex_count(1):
            raise ValueError(
                f"harmonic data must have {system.M0} (V_0) or "
                f"{system.vertex_count(1)} (V_1) values"
            )
        return 1


def parse_function_spec(text: str) -> FunctionSpec:
    text = text.strip()
    head, _, rest = text.partition(":")
    if head == "coord":
        return FunctionSpec(tag=text, kind="coord", coord=int(rest))
    if head == "harmonic":
        data = np.array([float(v) for v in rest.split(",")])
        if len(data) < 2:
            raise ValueError("harmonic spec needs at least #V_0 values")
        data.flags.writeable = False   # the tag names these values
        return FunctionSpec(tag=text, kind="harmonic", data=data)
    if head == "perturb":
        base_text, idx, delta = rest.rsplit(":", 2)
        return FunctionSpec(tag=text, kind="perturb", base=parse_function_spec(base_text),
                            vertex_index=int(idx), delta=float(delta))
    raise ValueError(f"unknown function spec {text!r}")


def random_corpus(system: FractalSystem, count: int, seed: int) -> list[FunctionSpec]:
    """Seeded corpus: the coordinate functions, then harmonic extensions of
    data on V_0 and V_1 drawn uniformly from [-1, 1), in order, from the
    stream of numpy's default_rng(seed), which fel makes without importing
    numpy.random; a negative count or seed raises ValueError."""
    if count < 0:
        raise ValueError(f"corpus size must be >= 0 (got {count})")
    if seed < 0:
        raise ValueError(f"corpus seed must be >= 0 (got {seed})")
    from ._pcg64 import uniform_stream   # only corpus runs compile the generator
    draws = uniform_stream(seed)
    specs = [parse_function_spec(f"coord:{k}") for k in range(system.dim)]
    n1 = system.vertex_count(1)
    for k in range(count):
        size = system.M0 if k % 2 == 0 else n1
        data = itertools.islice(draws, size)
        specs.append(parse_function_spec("harmonic:" + ",".join(f"{v:.17g}" for v in data)))
    return specs
