import itertools
import json
import math
import struct
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fel.energy as energy_module
from fel.energy import (ENERGY_BLOCK, EXACT_SUM_MAX_TERMS, VertexFunction, _cells_energy,
                        energy_m, energy_sequence, harmonic_extension, nonnegative_sum,
                        parse_function_spec, random_corpus)
from fel.errors import InvariantViolation
from fel.harmonic import energy0, solve_ndhs, unit_matrix
from fel.ifs import FractalSystem, build
from fel.lipschitz import hoelder_estimate

from helpers import (edge_sum_energy, lift_ids, locate, make_system, maps_of,
                     sample_digests, traced_peak)

# float.hex of every energy_sequence entry of random_corpus(system, 4, seed=1),
# sampled at the system's top level, as the unblocked edge-sum kernel and the
# frexp/ldexp exact_sum computed them.
ENERGY_BITS = json.loads((Path(__file__).parent / "energy_bits.json").read_text())
# helpers.sample_digests of the presets at their benchmark levels and of the
# examples/ systems at their build_digests.json levels, as the full-length
# gather-matmul-scatter extension computed them.
SAMPLE_DIGESTS = json.loads((Path(__file__).parent / "sample_digests.json").read_text())


def gasket2_with_promote(k, corrupt):
    """FractalSystem from the gasket2 L2 tables with promote[k] passed through corrupt."""
    system = make_system("gasket2", 2)
    promote = list(system.promote)
    promote[k] = corrupt(promote[k].copy())
    return FractalSystem(maps=system.maps, name=system.name, points=system.points,
                         cells=system.cells, promote=promote, c0=system.c0,
                         reflections=system.reflections)


def glue_first_two(ids):
    ids[1] = ids[0]
    return ids


class TestEnergyM:
    def test_level0_reduces_to_base_form(self, gasket2_l8, gasket2_hs):
        f = VertexFunction(0, np.array([1.0, 0.0, 0.0]))
        assert energy_m(gasket2_l8, gasket2_hs, f) == pytest.approx(2.0, rel=1e-12)

    def test_constant_vanishes_at_every_level(self, gasket2_l8, gasket2_hs):
        for m in (0, 2, 4):
            f = VertexFunction(m, np.full(gasket2_l8.vertex_count(m), 2.5))
            assert energy_m(gasket2_l8, gasket2_hs, f) == pytest.approx(0.0, abs=1e-12)

    def test_level1_harmonic_extension_cross_check(self, gasket2_l8, gasket2_hs):
        f = harmonic_extension(gasket2_l8, gasket2_hs,
                               VertexFunction(0, np.array([1.0, 0.0, 0.0])), 1)
        # rho * sum of cell energies, evaluated long-hand
        direct = sum(
            energy0(unit_matrix(3), f.values[gasket2_l8.cells[1][i]])
            for i in range(3)
        )
        assert (5.0 / 3.0) * direct == pytest.approx(2.0, rel=1e-12)
        assert energy_m(gasket2_l8, gasket2_hs, f) == pytest.approx(2.0, rel=1e-12)

    def test_level_mismatch_rejected(self, gasket2_l8, gasket2_hs):
        with pytest.raises(ValueError):
            energy_m(gasket2_l8, gasket2_hs, VertexFunction(1, np.zeros(7)))

    def test_symmetry_equivariance(self, gasket2_l8, gasket2_hs):
        rng = np.random.default_rng(21)
        m = 3
        f = rng.normal(size=gasket2_l8.vertex_count(m))
        base = energy_m(gasket2_l8, gasket2_hs, VertexFunction(m, f))
        for ref in gasket2_l8.reflections:
            perm = locate(gasket2_l8, ref.apply(gasket2_l8.points[m]), m)
            assert (perm >= 0).all()
            rotated = energy_m(gasket2_l8, gasket2_hs, VertexFunction(m, f[perm]))
            assert rotated == pytest.approx(base, abs=1e-10 * max(1.0, base))

    def test_polarization_identity(self, gasket2_l8, gasket2_hs):
        rng = np.random.default_rng(22)
        m = 2
        size = gasket2_l8.vertex_count(m)
        f, g = rng.normal(size=size), rng.normal(size=size)
        ef = energy_m(gasket2_l8, gasket2_hs, VertexFunction(m, f))
        eg = energy_m(gasket2_l8, gasket2_hs, VertexFunction(m, g))
        eplus = energy_m(gasket2_l8, gasket2_hs, VertexFunction(m, f + g))
        eminus = energy_m(gasket2_l8, gasket2_hs, VertexFunction(m, f - g))
        assert eplus + eminus == pytest.approx(2 * ef + 2 * eg, abs=1e-10 * (1 + ef + eg))

    def test_independent_of_cell_order(self):
        # Exact accumulation: reordering the cells gives the same float.
        system = make_system("gasket3", 5)
        hs = solve_ndhs(system)
        rng = np.random.default_rng(24)
        n = 5
        f = VertexFunction(n, rng.normal(size=system.vertex_count(n)))
        before = energy_m(system, hs, f)
        system.cells[n] = system.cells[n][rng.permutation(system.cells[n].shape[0])]
        assert energy_m(system, hs, f) == before

    @pytest.mark.parametrize("preset, level", [("gasket2", 6), ("gasket3", 4),
                                               ("snowflake", 3)])
    def test_near_constant_harmonic_energy_is_exact(self, preset, level):
        # Data 1000 + 1e-3 p / #V_0 on V_0: every E_m of its harmonic extension
        # equals the edge sum of the data.  The per-cell form -v'Av cancels
        # here and missed it by up to 71 % (snowflake L3).
        system = make_system(preset, level)
        hs = solve_ndhs(system)
        data = 1000.0 + 1e-3 * np.arange(system.M0) / system.M0
        a = hs.matrix.entries
        exact = math.fsum(a[p, q] * (data[p] - data[q]) ** 2
                          for p, q in itertools.combinations(range(system.M0), 2))
        f = harmonic_extension(system, hs, VertexFunction(0, data), level)
        seq = energy_sequence(system, hs, f)
        assert [m for m, _ in seq.entries] == list(range(level + 1))
        for _, e in seq.entries:
            assert abs(e - exact) <= 1e-12 * exact
        assert seq.monotone_ok


class TestHarmonicExtension:
    def test_midpoint_rule(self, gasket2_l8, gasket2_hs):
        f = harmonic_extension(gasket2_l8, gasket2_hs,
                               VertexFunction(0, np.array([1.0, 0.0, 0.0])), 1)
        v0 = gasket2_l8.points[0]
        for point, value in zip(gasket2_l8.points[1], f.values):
            if min(np.linalg.norm(point - v) for v in v0) < 1e-9:
                continue
            expected = 0.4 if np.linalg.norm(point - v0[0]) < 0.51 else 0.2
            assert value == pytest.approx(expected, abs=1e-12)

    def test_restriction_is_exact(self, gasket2_l8, gasket2_hs):
        rng = np.random.default_rng(23)
        data = rng.normal(size=3)
        f = harmonic_extension(gasket2_l8, gasket2_hs, VertexFunction(0, data), 4)
        lift = lift_ids(gasket2_l8, 0, 4)
        assert np.array_equal(f.values[lift], data)

    def test_constant_stays_constant(self, snowflake_l5, snowflake_hs):
        f = harmonic_extension(snowflake_l5, snowflake_hs,
                               VertexFunction(0, np.full(6, 1.25)), 3)
        assert np.abs(f.values - 1.25).max() <= 1e-12

    def test_energy_invariance_multi_level(self, gasket2_l8, gasket2_hs):
        f0 = VertexFunction(0, np.array([1.0, 0.0, 0.0]))
        e0 = energy_m(gasket2_l8, gasket2_hs, f0)
        for n in (3, 6):
            fn = harmonic_extension(gasket2_l8, gasket2_hs, f0, n)
            en = energy_m(gasket2_l8, gasket2_hs, fn)
            assert en == pytest.approx(e0, rel=1e-9)

    def test_conflicting_writes_detected(self):
        # Two V_0 points promoted onto one V_1 vertex: the extension would
        # write it twice, and FractalSystem rejects the tables at construction.
        # (The V_1 vertex that lost its promotion counts as new, so it is
        # still written.)
        with pytest.raises(InvariantViolation, match="1 vertices of V_1 more than once"):
            gasket2_with_promote(0, glue_first_two)

    def test_uncovered_vertex_detected(self):
        # Glued one level down, the V_2 vertex that lost its promotion is in
        # no slot table, so no write reaches it.
        with pytest.raises(InvariantViolation, match="V_2 more than once and leave 1 unwritten"):
            gasket2_with_promote(1, glue_first_two)

    def test_unwritten_vertex_detected_by_count(self):
        # One extra row in V_2: every table names each id once, but the two
        # tables together fall one write short of #V_2.
        system = make_system("gasket2", 2)
        points = [*system.points[:2], np.vstack([system.points[2], system.points[2][:1]])]
        with pytest.raises(InvariantViolation,
                           match="write 0 vertices of V_2 more than once and leave 1 unwritten"):
            FractalSystem(maps=system.maps, name=system.name, points=points,
                          cells=system.cells, promote=system.promote, c0=system.c0,
                          reflections=system.reflections)

    def test_level_overflow(self, gasket2_l8, gasket2_hs):
        with pytest.raises(ValueError):
            harmonic_extension(gasket2_l8, gasket2_hs,
                               VertexFunction(0, np.zeros(3)), 9)

    @pytest.mark.parametrize("name", list(SAMPLE_DIGESTS))
    def test_sample_digests_pinned(self, name):
        # The blocked extension keeps every bit of the sampled values.
        pinned = SAMPLE_DIGESTS[name]
        system = build(maps_of(name), pinned["level"])
        assert sample_digests(system, solve_ndhs(system)) == pinned["values"]

    @pytest.mark.parametrize("fixture", ["gasket2_l8", "gasket3_l8", "snowflake_l5"])
    def test_matches_global_minimizer_on_v2(self, fixture, request):
        # Cell-by-cell extension must agree with the one-shot minimizer of the
        # level-2 form over all interior vertices, built independently here.
        system = request.getfixturevalue(fixture)
        hs = request.getfixturevalue(fixture.split("_")[0] + "_hs")
        n2 = system.vertex_count(2)
        a = hs.matrix.entries
        lap = np.zeros((n2, n2))
        for row in system.cells[2]:
            for p in range(system.M0):
                for q in range(system.M0):
                    if p != q:
                        lap[row[p], row[q]] -= a[p, q]
        np.fill_diagonal(lap, 0.0)
        np.fill_diagonal(lap, -lap.sum(axis=1))
        boundary = lift_ids(system, 0, 2)
        interior = np.setdiff1d(np.arange(n2), boundary)
        rng = np.random.default_rng(77)
        f = rng.normal(size=system.M0)
        solved = np.empty(n2)
        solved[boundary] = f
        solved[interior] = np.linalg.solve(
            lap[np.ix_(interior, interior)], -lap[np.ix_(interior, boundary)] @ f
        )
        ext = harmonic_extension(system, hs, VertexFunction(0, f), 2)
        np.testing.assert_allclose(ext.values, solved, atol=1e-10)


class TestEnergySequence:
    def test_harmonic_input_constant_sequence(self, gasket2_l8, gasket2_hs):
        f = harmonic_extension(gasket2_l8, gasket2_hs,
                               VertexFunction(0, np.array([0.3, -1.2, 0.5])), 6)
        seq = energy_sequence(gasket2_l8, gasket2_hs, f)
        values = [e for _, e in seq.entries]
        assert seq.monotone_ok
        assert max(values) - min(values) <= 1e-9 * max(1.0, max(values))

    def test_coordinate_function_nondecreasing(self, gasket2_l8, gasket2_hs):
        f = parse_function_spec("coord:0").sample(gasket2_l8, gasket2_hs, 6)
        seq = energy_sequence(gasket2_l8, gasket2_hs, f)
        values = [e for _, e in seq.entries]
        assert seq.monotone_ok
        assert values == sorted(values)
        assert values[-1] > values[0]

    def test_perturbed_extension_strictly_larger(self, gasket2_l8, gasket2_hs):
        spec = parse_function_spec("perturb:harmonic:1,0,0:11:1")
        f = spec.sample(gasket2_l8, gasket2_hs, 4)
        seq = energy_sequence(gasket2_l8, gasket2_hs, f)
        assert seq.entries[-1][1] > seq.entries[0][1] + 0.5
        assert seq.monotone_ok

    def test_random_corpus_monotone(self, gasket2_l8, gasket2_hs):
        for spec in random_corpus(gasket2_l8, 8, seed=99):
            f = spec.sample(gasket2_l8, gasket2_hs, 5)
            seq = energy_sequence(gasket2_l8, gasket2_hs, f, tag=spec.tag)
            assert seq.monotone_ok, spec.tag

    @pytest.mark.parametrize("fixture", ["gasket2_l8", "gasket3_l8", "snowflake_l5"])
    def test_matches_per_level_energies(self, fixture, request):
        # energy_sequence restricts through child rows; energy_m of the
        # restriction through lift is the reference, equal to the last bit.
        system = request.getfixturevalue(fixture)
        hs = request.getfixturevalue(fixture.split("_")[0] + "_hs")
        M, n = system.M, system.max_level
        fixing = [int(np.flatnonzero(system.cells[1][:, p] == system.promote[0][p])[0])
                  for p in range(system.M0)]
        for m in range(n):
            cells, children = system.cells[m], system.cells[m + 1]
            w = np.arange(cells.shape[0])
            for p, k in enumerate(fixing):
                assert np.array_equal(system.promote[m][cells[:, p]],
                                      children[w * M + k, p])
        f = VertexFunction(n, np.random.default_rng(25).normal(size=system.vertex_count(n)))
        for m0 in (0, 2):
            seq = energy_sequence(system, hs, f, m0=m0)
            expected = [(m, energy_m(system, hs,
                                     VertexFunction(m, f.values[lift_ids(system, m, n)])))
                        for m in range(m0, n + 1)]
            assert seq.entries == expected

    def test_strided_values_stored_contiguous(self, gasket2_l8, gasket2_hs):
        # A column of a (#V_n, F) table is a strided view; the energy
        # sequence reads it several times as slowly as a contiguous one.
        specs = random_corpus(gasket2_l8, 2, seed=5)
        table = np.column_stack([s.sample(gasket2_l8, gasket2_hs, 6).values for s in specs])
        f = VertexFunction(6, table[:, 3])
        assert f.values.flags.c_contiguous
        own = table[:, 3].copy()
        assert VertexFunction(6, own).values is own
        hexes = [[e.hex() for _, e in energy_sequence(gasket2_l8, gasket2_hs, g).entries]
                 for g in (f, VertexFunction(6, own))]
        assert hexes[0] == hexes[1]

    @pytest.mark.parametrize("m0", [-2, -1, 4])
    def test_first_level_out_of_range_rejected(self, gasket2_l8, gasket2_hs, m0):
        # m0 > f.level used to give no entries, and m0 = -2 a numpy
        # broadcasting error.
        f = parse_function_spec("coord:0").sample(gasket2_l8, gasket2_hs, 3)
        with pytest.raises(ValueError, match=r"first level -?\d+ out of range \[0, 3\]"):
            energy_sequence(gasket2_l8, gasket2_hs, f, m0=m0)

    @pytest.mark.parametrize("preset, level", [("gasket2", 7), ("gasket3", 5),
                                               ("snowflake", 4)])
    def test_energy_bits_pinned(self, preset, level):
        system = make_system(preset, level)
        hs = solve_ndhs(system)
        got = [[e.hex() for _, e in energy_sequence(system, hs,
                                                     spec.sample(system, hs, level)).entries]
               for spec in random_corpus(system, 4, seed=1)]
        assert got == ENERGY_BITS[preset]

    def test_v0_point_without_fixing_map_rejected(self):
        with pytest.raises(InvariantViolation, match="fixed point of no map"):
            gasket2_with_promote(0, lambda ids: np.roll(ids, 1))


def energy_outcome(value):
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def corner_table(cols):
    """(values, cells) whose cells read column p at corner p: the columns
    end to end, and cell w's corner p at the id of cols[p][w]."""
    count = len(cols[0])
    return np.concatenate(cols), np.arange(len(cols) * count).reshape(-1, count).T


class TestBlockedEdgeSums:
    """_cells_energy against the unblocked formula, at cell counts around
    the block size ENERGY_BLOCK = B: every cell energy keeps its bits."""

    COUNTS = [1, ENERGY_BLOCK - 1, ENERGY_BLOCK, ENERGY_BLOCK + 1, 3 * ENERGY_BLOCK + 7]

    @pytest.fixture(params=["gasket2", "snowflake"])
    def structure(self, request, gasket2_hs, snowflake_hs):
        # Unit conductances on gasket2, three distinct ones on the snowflake.
        return {"gasket2": (gasket2_hs, 3, 3), "snowflake": (snowflake_hs, 6, 7)}[request.param]

    @pytest.mark.parametrize("count", COUNTS)
    def test_contiguous_columns(self, structure, count):
        hs, corners, _ = structure
        cols = list(np.random.default_rng(count).normal(size=(corners, count)))
        assert _cells_energy(hs, *corner_table(cols), 5) == edge_sum_energy(hs, cols, 5)

    @pytest.mark.parametrize("count", COUNTS)
    def test_strided_columns(self, structure, count):
        # Corner p reads every M-th value of a longer column from offset
        # k_p, as a cell's corner sits at one child's corner one level down.
        hs, corners, M = structure
        base = np.random.default_rng(count + 1).normal(size=(corners, M * count))
        offsets = np.resize(np.arange(M), corners)
        cols = [col[k::M] for k, col in zip(offsets, base)]
        assert all(len(col) == count for col in cols)
        cells = (np.arange(corners) * M * count + offsets)[None, :] + M * np.arange(count)[:, None]
        assert _cells_energy(hs, base.ravel(), cells, 4) == edge_sum_energy(hs, cols, 4)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e200, 1e154])
    @pytest.mark.parametrize("count", [ENERGY_BLOCK - 1, ENERGY_BLOCK + 1, 3 * ENERGY_BLOCK + 7])
    def test_non_finite_and_huge_values(self, structure, count, bad):
        hs, corners, _ = structure
        rng = np.random.default_rng(count + 2)
        cols = list(rng.normal(size=(corners, count)))
        cols[1][rng.integers(count)] = bad
        cols[2][count - 1] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            got = _cells_energy(hs, *corner_table(cols), 3)
            expected = edge_sum_energy(hs, cols, 3)
        assert energy_outcome(got) == energy_outcome(expected)
        assert math.isnan(got) or got == math.inf


class TestMemoryBounds:
    """The energy path streams its cells in blocks: beside its input and
    output, no call holds as much as one (#cells, M0) corner gather of the
    level it works on, 4.05 MiB on gasket2 L11."""

    LEVEL = 11
    GATHER = 3**LEVEL * 3 * 8

    @pytest.fixture(scope="class")
    def setup(self):
        system = make_system("gasket2", self.LEVEL)
        hs = solve_ndhs(system)
        spec = random_corpus(system, 1, seed=4)[-1]
        return system, hs, spec, spec.sample(system, hs, self.LEVEL)

    def test_energy_sequence_and_energy_m(self, setup):
        system, hs, _, f = setup
        assert traced_peak(lambda: energy_sequence(system, hs, f)) < self.GATHER
        assert traced_peak(lambda: energy_m(system, hs, f)) < self.GATHER

    def test_hoelder_estimate(self, setup):
        system, _, _, f = setup
        assert traced_peak(lambda: hoelder_estimate(system, f, 0.5)) < self.GATHER

    def test_sample_beyond_output_and_level_below(self, setup):
        system, hs, spec, _ = setup
        levels = system.vertex_count(self.LEVEL) + system.vertex_count(self.LEVEL - 1)
        assert traced_peak(lambda: spec.sample(system, hs, self.LEVEL)) - 8 * levels < 2**20


# The largest float, and the run length whose 2^1010 terms overflow their bin.
MAX = 1.7976931348623157e308
RUN = 2**16 + 3


def sum_outcome(total, terms):
    """The float's bits, "nan", or the exception type a sum yields."""
    try:
        value = total(terms)
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


def oracle_sum(terms):
    """The correctly rounded sum of a list of nonnegative floats: the finite
    terms' exact sum, math.fsum or, where fsum's partial sums overflow, a
    Fraction sum of equal terms grouped, rounded once; inf beyond the float
    range, and otherwise nan if a term is nan and inf if one is."""
    finite = [t for t in terms if math.isfinite(t)]
    try:
        total = math.fsum(finite)
    except OverflowError:
        try:
            total = float(sum((Fraction(t) * k for t, k in Counter(finite).items()),
                              Fraction(0)))
        except OverflowError:
            total = math.inf
    if total == math.inf or len(finite) == len(terms):
        return total
    return math.nan if any(math.isnan(t) for t in terms) else math.inf


def same_as_oracle(terms):
    terms = np.asarray(terms, dtype=float)
    return (sum_outcome(nonnegative_sum, [terms])
            == sum_outcome(oracle_sum, terms.ravel().tolist()))


class TestExactSum:
    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(0.0, 1e300) | st.sampled_from(
                      [0.0, -0.0, 5e-324, 2.5e-310, math.nan, math.inf])))
    def test_small_arrays_match_fsum(self, terms):
        assert same_as_oracle(terms)

    @given(st.integers(0, 2**32 - 1),
           st.sampled_from([0, 1, 7, ENERGY_BLOCK - 1, ENERGY_BLOCK + 1, 12 * ENERGY_BLOCK + 11]),
           st.sampled_from([(-310.0, 300.0), (-3.0, 3.0), (-320.0, -308.0),
                            (296.0, 308.25)]))
    def test_large_arrays_match_fsum(self, seed, size, decades):
        rng = np.random.default_rng(seed)
        terms = 10.0 ** rng.uniform(*decades, size=size)
        terms[rng.random(size) < 0.05] = 0.0
        assert same_as_oracle(terms)

    @pytest.mark.parametrize("terms", [
        [], [0.0], [-0.0, -0.0], [5e-324, 5e-324], [1.0 + 2.0**-52, 2.0**-53],
        [math.nan], [1.0, math.nan, 2.0], [math.inf, 1.0], [math.nan, math.inf],
        [math.inf, math.inf], [math.inf, math.nan, math.inf, 1.0],
        [1.7e308, 1.7e308], [1e308, 1e308, math.nan], [1.7e308, 1e292],
        [2.0**1023, 2.0**1023 - 2.0**970], [MAX, 2.0**970 - 2.0**918],
        [2.0**1000, -0.0, 5e-324, 2.0**997, 2.0**-1050], [2.0**1023, 2.0**1020],
    ])
    def test_edge_cases_match_fsum(self, terms):
        assert same_as_oracle(terms)

    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(2.0**997, 2.0**1000)
                  | st.sampled_from([0.0, -0.0, 5e-324, 2.0**-1050, 2.5e-310, 1.0])))
    def test_top_of_range_with_subnormals_matches_fsum(self, terms):
        # At most 40 terms of at most 2^1000 keep every bin total finite.
        assert same_as_oracle(terms)

    def test_many_large_terms_stay_finite(self):
        # RUN * 2^1000 < 2^1017: one bin holds them all exactly.
        terms = np.full(RUN, 2.0**1000)
        assert nonnegative_sum([terms]) == RUN * 2.0**1000
        assert same_as_oracle(terms)

    def test_many_large_terms_overflow(self):
        # RUN * 2^1010 > 2^1026: the bin total overflows, and so does the sum.
        terms = np.full(RUN, 2.0**1010)
        assert nonnegative_sum([terms]) == math.inf
        assert same_as_oracle(terms)

    def test_two_dimensional_input_is_flattened(self):
        terms = np.random.default_rng(26).random((300, 7))
        assert nonnegative_sum([terms]) == math.fsum(terms.ravel().tolist())

    def test_too_many_terms_rejected(self):
        # A zero-stride view: the count is checked before any term is read.
        with pytest.raises(ValueError, match="at most"):
            nonnegative_sum([np.broadcast_to(1.0, (EXACT_SUM_MAX_TERMS + 1,))])


def split_blocks(terms, cuts):
    """terms cut at the sorted cuts, each block written in turn into one
    reused buffer, as _cells_energy hands its edge sums to nonnegative_sum."""
    buffer = np.empty(len(terms))
    for block in np.split(terms, sorted(cuts)):
        out = buffer[:len(block)]
        out[:] = block
        yield out


class TestExactSumBlocks:
    """Blocks sum as their concatenation, bit for bit."""

    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(0.0, 1e300) | st.sampled_from(
                      [0.0, -0.0, 5e-324, 2.5e-310, math.nan, math.inf])),
           st.lists(st.integers(0, 40), max_size=5))
    def test_blocks_match_one_array_and_fsum(self, terms, cuts):
        blocked = sum_outcome(nonnegative_sum, split_blocks(terms, cuts))
        assert blocked == sum_outcome(nonnegative_sum, [terms])
        assert same_as_oracle(terms)

    @given(arrays(np.float64, st.integers(1, 40),
                  elements=st.floats(2.0**1000, MAX)
                  | st.sampled_from([0.0, 5e-324, 2.5e-310, 2.0**-1050, 1.0, 3.5,
                                     math.inf, math.nan])),
           st.integers(0, 40), st.lists(st.integers(0, 120), max_size=5))
    def test_blocks_beyond_bins_match_one_array(self, terms, k, cuts):
        # Overflowing bins, sums beyond the float range and special terms in
        # any block give the one array's outcome.
        terms = np.concatenate([terms, np.repeat(terms[:k], 2)])
        assert (sum_outcome(nonnegative_sum, split_blocks(terms, cuts))
                == sum_outcome(nonnegative_sum, [terms]))
        assert same_as_oracle(terms)

    @settings(max_examples=200)
    @given(arrays(np.float64, st.integers(0, 40),
                  elements=st.floats(1e-320, 2.0**1023) | st.sampled_from(
                      [0.0, 5e-324, 2.0**-1050, MAX, 2.0**970, 2.0**970 - 2.0**918,
                       math.nan, math.inf])),
           st.sampled_from([None, 2.0**1000, 2.0**1010]), st.integers(0, 40),
           st.lists(st.integers(0, RUN + 40), max_size=3))
    def test_blocks_match_oracle(self, terms, big, at, cuts):
        # A run of RUN terms of 2^1000 fills one bin to 2^1016; one of 2^1010
        # overflows it.
        if big is not None:
            terms = np.insert(terms, min(at, len(terms)), np.full(RUN, big))
        assert (sum_outcome(nonnegative_sum, split_blocks(terms, cuts))
                == sum_outcome(oracle_sum, terms.tolist()))

    def test_overflow_across_blocks(self):
        # Each block's sum, RUN * 2^1007 < 2^1024, is in range; their total
        # is not.
        blocks = [np.full(RUN, 2.0**1007)] * 2
        assert nonnegative_sum(blocks[:1]) == RUN * 2.0**1007
        assert nonnegative_sum(iter(blocks)) == math.inf

    def test_special_terms_across_blocks(self):
        big = np.full(RUN, 2.0**1000)
        assert nonnegative_sum(iter([big, [math.inf], [1.0]])) == math.inf
        assert math.isnan(nonnegative_sum(iter([[math.nan], big])))
        assert math.isnan(nonnegative_sum(iter([[math.inf], big, [math.nan]])))

    def test_term_count_spans_blocks(self, monkeypatch):
        with pytest.raises(ValueError, match=r"at most \d+ terms \(got \d+\)"):
            nonnegative_sum(iter([np.ones(3), np.broadcast_to(1.0, (EXACT_SUM_MAX_TERMS - 2,))]))
        monkeypatch.setattr(energy_module, "EXACT_SUM_MAX_TERMS", 10)
        assert nonnegative_sum(iter([np.ones(5), [], np.ones(5)])) == 10.0
        with pytest.raises(ValueError, match=r"at most 10 terms \(got 11\)"):
            nonnegative_sum(iter([np.ones(5), np.ones(6)]))


class TestExactSumBeyondBins:
    """Sums at the top of the float range, where math.fsum of the terms or
    of the bin totals may overflow while the sum rounds to the largest
    float, against the oracle's Fraction sum."""

    @pytest.mark.parametrize("terms", [
        [MAX, 2.0**970 - 2.0**918], [1e308, 1e308, 1e308], [MAX, 2.0**970],
        [2.0**1023, 2.0**1023 - 2.0**970], [MAX, 2.0**969, 2.0**968, 2.0**968],
        [MAX, 2.0**969, 2.0**968, 2.0**968 - 2.0**916],
        [MAX, 2.0**970 - 2.0**918, 5e-324], [2.0**1023, 2.0**1023, 5e-324],
    ])
    def test_cases_match_fraction(self, terms):
        # MAX + 2^970 is the tie between MAX and 2^1024, which rounds to
        # even: beyond the float range.
        assert same_as_oracle(terms)

    def test_special_terms_after_overflowing_bins(self):
        big = [2.0**1023, 2.0**1023]
        assert nonnegative_sum([big + [math.inf]]) == math.inf
        assert nonnegative_sum([big + [math.nan]]) == math.inf
        near = [MAX, 2.0**970 - 2.0**918]
        assert nonnegative_sum([near]) == MAX
        assert nonnegative_sum([near + [math.inf]]) == math.inf
        assert math.isnan(nonnegative_sum([near + [math.nan]]))


class TestFunctionSpecs:
    def test_parse_roundtrip_tags(self):
        for text in ("coord:1", "harmonic:1,0,0", "perturb:harmonic:1,0,0:5:0.25"):
            assert parse_function_spec(text).tag == text

    def test_perturb_parses_nested_spec(self):
        spec = parse_function_spec("perturb:harmonic:0.5,0,0:7:-2.5")
        assert spec.kind == "perturb"
        assert spec.base.kind == "harmonic"
        assert spec.vertex_index == 7
        assert spec.delta == -2.5

    def test_bad_specs_rejected(self):
        for text in ("mystery:1", "coord:x", "harmonic:1", "perturb:coord:0"):
            with pytest.raises(ValueError):
                parse_function_spec(text)

    def test_harmonic_data_read_only(self, gasket2_l8, gasket2_hs):
        # A write would change the spec's energy (2 to 162 here) under its tag;
        # samples, perturb's included, are copies the caller may write.
        spec = parse_function_spec("harmonic:1,0,0")
        with pytest.raises(ValueError, match="read-only"):
            spec.data[0] = 9
        f = spec.sample(gasket2_l8, gasket2_hs, 0)
        f.values[0] = 9
        bumped = parse_function_spec("perturb:harmonic:1,0,0:0:8").sample(gasket2_l8, gasket2_hs, 0)
        assert np.array_equal(bumped.values, f.values)
        assert spec.data.tolist() == [1, 0, 0]

    def test_harmonic_data_length_checked(self, gasket2_l8, gasket2_hs):
        with pytest.raises(ValueError):
            parse_function_spec("harmonic:1,0,0,0").sample(gasket2_l8, gasket2_hs, 3)

    def test_v1_data_not_sampled_at_level_0(self, gasket2_l8, gasket2_hs):
        spec = parse_function_spec("harmonic:1,0,0,0.5,0.5,0")
        with pytest.raises(ValueError, match="sampling level below the data level"):
            spec.sample(gasket2_l8, gasket2_hs, 0)

    def test_v1_data_supported(self, gasket2_l8, gasket2_hs):
        spec = parse_function_spec("harmonic:1,0,0,0.5,0.5,0")
        f = spec.sample(gasket2_l8, gasket2_hs, 3)
        assert f.level == 3
        seq = energy_sequence(gasket2_l8, gasket2_hs, f, m0=1)
        values = [e for _, e in seq.entries]
        assert max(values) - min(values) <= 1e-9 * max(values)

    @pytest.mark.parametrize("text", ["coord:0", "harmonic:1,0,0", "perturb:coord:0:2:0.5"])
    def test_sampling_level_out_of_range_rejected(self, text):
        # coord and perturb used to return the top level's values labelled
        # level -1, and to raise IndexError one level past the top.
        system = make_system("gasket2", 3)
        hs = solve_ndhs(system)
        spec = parse_function_spec(text)
        for level in (-1, 4):
            with pytest.raises(ValueError, match=rf"sampling level {level} out of range \[0, 3\]"):
                spec.sample(system, hs, level)

    @pytest.mark.parametrize("text, level", [("harmonic:1,0,0", 0),
                                             ("harmonic:1,0,0,0.5,0.5,0", 1),
                                             ("perturb:harmonic:1,0,0:1:0.5", 0)])
    def test_sample_shares_no_memory_with_its_spec(self, gasket2_l8, gasket2_hs, text, level):
        # A sample at the data level that shared the spec's data array would
        # pass a write to it on to every later sample of the spec.
        spec = parse_function_spec(text)
        before = spec.sample(gasket2_l8, gasket2_hs, 3).values.copy()
        f = spec.sample(gasket2_l8, gasket2_hs, level)
        f.values[0] = 9.0
        assert spec.sample(gasket2_l8, gasket2_hs, 3).values.tolist() == before.tolist()
        g = harmonic_extension(gasket2_l8, gasket2_hs, f, level)
        assert not np.shares_memory(g.values, f.values)
        assert g.values.tolist() == f.values.tolist()

    def test_corpus_seeded_deterministic(self, gasket2_l8):
        a = [s.tag for s in random_corpus(gasket2_l8, 5, seed=123)]
        b = [s.tag for s in random_corpus(gasket2_l8, 5, seed=123)]
        assert a == b
        assert a[0] == "coord:0" and a[1] == "coord:1"

    @pytest.mark.parametrize("count, seed, message", [(-1, 0, "corpus size must be >= 0"),
                                                      (2, -3, r"corpus seed must be >= 0 \(got -3\)")])
    def test_corpus_rejects_negative_count_and_seed(self, gasket2_l8, count, seed, message):
        with pytest.raises(ValueError, match=message):
            random_corpus(gasket2_l8, count, seed=seed)


def test_nonnegative_sum_beyond_float_range_is_inf():
    # Energies and L2 norms read inf there.
    assert nonnegative_sum([np.array([1e308, 1e308])]) == math.inf
    assert nonnegative_sum([np.array([1.5, 2.5, 0.0])]) == 4.0
