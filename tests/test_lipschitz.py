import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fel
from fel import classes, lipschitz
from fel.characteristics import dimensions
from fel.energy import VertexFunction, harmonic_extension, parse_function_spec, random_corpus
from fel.errors import ResolutionTooCoarse
from fel.harmonic import solve_ndhs
from fel.classes import class_coefficient_table
from fel.lipschitz import (_below_sqrt, _CellTree, b_coefficient, batch_norm_reports,
                           coefficient_table, default_params, equivalence_experiment,
                           hoelder_estimate, norm_report, pair_power_sums)

from helpers import (brute_force_coefficient, brute_force_degrees, brute_force_pair_sums,
                     degrees_match, make_system, neighbor_pair_hoelder, traced_peak,
                     walk_degrees)

# float.hex of two walk shapes, as the walk that allocated its temporaries
# per chunk computed them: coefficient_table of random_corpus(gasket2, 4,
# seed=1) at L7 for m = 1..5 (many columns), and b_coefficient for m = 3..6
# of a seeded harmonic function on gasket3 L7 (one column, one scale per walk).
COEFFICIENT_BITS = json.loads((Path(__file__).parent / "coefficient_bits.json").read_text())


class TestPairEnumeration:
    """The pair set the coefficients sum over, read back from the walk as the
    degree of each V_n point in the cutoff graph, against an all-pairs scan."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_gasket_pair_sets_match_brute_force(self, gasket2_l8, m):
        radius = gasket2_l8.c0 / gasket2_l8.L**m
        for n in (4, 5):
            assert degrees_match(walk_degrees(gasket2_l8, n, radius),
                                 brute_force_degrees(gasket2_l8, n, radius))

    @pytest.mark.parametrize("base", [2, 3])
    def test_snowflake_pair_sets_match_brute_force(self, snowflake_l5, base):
        radius = snowflake_l5.c0 / base
        assert degrees_match(walk_degrees(snowflake_l5, 3, radius),
                             brute_force_degrees(snowflake_l5, 3, radius))

    @pytest.mark.parametrize("base", [2, 4])
    def test_gasket3_pair_sets_match_brute_force(self, gasket3_l8, base):
        radius = gasket3_l8.c0 / base
        assert degrees_match(walk_degrees(gasket3_l8, 4, radius),
                             brute_force_degrees(gasket3_l8, 4, radius))

    @pytest.mark.parametrize("n, leaf", [(1, 0), (2, 1)])
    def test_gasket_buckets_near_the_root(self, gasket2_l8, n, leaf):
        # At n = 1 the root is the leaf, so every pair of the 6 points of
        # V_1 is a self pair of the root, each to be counted once; at n = 2
        # the 15 points split into level-1 leaves.
        assert _CellTree(gasket2_l8, n, np.zeros((gasket2_l8.vertex_count(n), 1))).leaf == leaf
        for radius in np.array([0.25, 0.5, 0.75, 1.0, 2.0]) * gasket2_l8.c0:
            assert degrees_match(walk_degrees(gasket2_l8, n, radius),
                                 brute_force_degrees(gasket2_l8, n, radius))

    def test_interval_leaf_is_level_n_minus_one(self, interval_l5):
        # Level-k cells of the interval own 2^(5-k) points (one more in cell
        # 0), so the level-4 leaves own 2 or 3 points each.
        assert _CellTree(interval_l5, 5, np.zeros((interval_l5.vertex_count(5), 1))).leaf == 4
        for m in range(5):
            radius = interval_l5.c0 / 2**m
            assert degrees_match(walk_degrees(interval_l5, 5, radius),
                                 brute_force_degrees(interval_l5, 5, radius))

    def test_snowflake_leaves_at_level_n_minus_one(self, snowflake_l5, snowflake_hs):
        # Level-3 cells own up to 30 points; the pinned bits are those of
        # level-3 leaves in the nested numbering, within 2.2e-16 relative of
        # the exact all-pairs oracle (level-4 leaves gave 10 of them 1-3
        # ulps away).
        specs = random_corpus(snowflake_l5, 2, seed=1)
        cols = np.column_stack([s.sample(snowflake_l5, snowflake_hs, 4).values for s in specs])
        assert _CellTree(snowflake_l5, 4, cols).leaf == 3
        pinned = {
            "L": [["0x1.07609895a9fc9p-1", "0x1.07609895a9fc8p-1",
                   "0x1.726ac4dbfda5ap-2", "0x1.a78925770a81fp-1"],
                  ["0x1.41fae42e84768p-1", "0x1.41fae42e84768p-1",
                   "0x1.c59e76178ec00p-2", "0x1.0bcdaa068baeep+0"],
                  ["0x1.6349b2e451dd4p-1", "0x1.6349b2e451dd3p-1",
                   "0x1.fd75ac2b4457ep-2", "0x1.34e85d7c82447p+0"]],
            2.0: [["0x1.de62e0dd585d6p-2", "0x1.de62e0dd585d5p-2",
                   "0x1.4aff27173e2acp-2", "0x1.63f87eec074a0p-1"],
                  ["0x1.167076569dc2cp-1", "0x1.167076569dc2cp-1",
                   "0x1.8a4a29516b95dp-2", "0x1.c4747f4bdb8cdp-1"],
                  ["0x1.36ebf1e281e82p-1", "0x1.36ebf1e281e83p-1",
                   "0x1.b93447fe94e40p-2", "0x1.0300b559f8866p+0"]],
        }
        for base, table in pinned.items():
            params = default_params(snowflake_l5, snowflake_hs, base=base)
            got = coefficient_table(snowflake_l5, cols, 4, [1, 2, 3], params)
            assert [[v.hex() for v in row] for row in got.tolist()] == table

    @pytest.mark.parametrize("name, n", [("gasket2", 5), ("gasket3", 4), ("snowflake", 3)])
    def test_small_chunks_split_runs_and_grow_the_stack(self, request, monkeypatch, name, n):
        # With 64-slot buffers every frontier run, block and leaf chunk
        # splits, and the stack of pending cell pairs outgrows its 64 slots.
        monkeypatch.setattr(lipschitz, "PAIR_CHUNK", 64)
        system = request.getfixturevalue({"gasket2": "gasket2_l8", "gasket3": "gasket3_l8",
                                          "snowflake": "snowflake_l5"}[name])
        values = np.random.default_rng(n).uniform(-1.0, 1.0, (system.vertex_count(n), 3))
        tree = _CellTree(system, n, values)
        assert tree.leaf == n - 1
        for m in range(n):
            radius = system.c0 / system.L**m
            np.testing.assert_allclose(tree.pair_sum(radius),
                                       brute_force_pair_sums(system, n, radius, values),
                                       rtol=1e-13, atol=0.0)
        if name == "gasket2":
            assert tree.stack.shape[1] > 64


class TestPairSumInputs:
    """Radii and shapes at the edges of pair_power_sums."""

    def test_below_sqrt_of_zero_is_zero(self):
        assert _below_sqrt(0.0) == 0.0
        assert _below_sqrt(-1.0) == 0.0

    @pytest.mark.parametrize("radius", [0.0, -1.0])
    def test_nonpositive_radius_sums_no_pair(self, gasket2_l8, radius):
        values = np.random.default_rng(2).uniform(-1.0, 1.0, (gasket2_l8.vertex_count(4), 2))
        assert np.array_equal(pair_power_sums(gasket2_l8, 4, [radius], values), np.zeros((1, 2)))

    def test_nan_radius_rejected(self, gasket2_l8):
        with pytest.raises(ValueError, match="NaN"):
            pair_power_sums(gasket2_l8, 4, [0.5, math.nan], np.zeros(gasket2_l8.vertex_count(4)))

    def test_infinite_radius_sums_all_pairs(self, gasket2_l8):
        values = np.random.default_rng(3).uniform(-1.0, 1.0, (gasket2_l8.vertex_count(4), 2))
        np.testing.assert_allclose(pair_power_sums(gasket2_l8, 4, [math.inf], values)[0],
                                   brute_force_pair_sums(gasket2_l8, 4, math.inf, values),
                                   rtol=1e-13, atol=0.0)

    def test_no_radii_give_no_rows(self, gasket2_l8):
        values = np.zeros((gasket2_l8.vertex_count(3), 2))
        assert pair_power_sums(gasket2_l8, 3, [], values).shape == (0, 2)

    def test_no_columns_give_empty_tables(self, gasket2_l8, gasket2_hs):
        values = np.zeros((gasket2_l8.vertex_count(4), 0))
        assert pair_power_sums(gasket2_l8, 4, [0.5, 0.25], values).shape == (2, 0)
        params = default_params(gasket2_l8, gasket2_hs)
        assert coefficient_table(gasket2_l8, values, 4, [1, 2], params).shape == (2, 0)


# The two snowflake L4 coefficient tables of lipschitz-snowflake in a fresh
# process, with the minor page faults they take: 34.5 k when the walk
# allocated its temporaries per chunk and glibc trimmed the heap after each,
# 1.8 k with the walk's workspace (2-core x86-64 Xeon, Linux, glibc 2.36).
FAULT_PROBE = """
import resource
import numpy as np
import fel
from fel.lipschitz import coefficient_table
maps, name = fel.load_maps("snowflake")
system = fel.build(maps, 4, name=name)
hs = fel.solve_ndhs(system)
data = np.random.default_rng(1).uniform(-1.0, 1.0, system.M0)
f = fel.harmonic_extension(system, hs, fel.VertexFunction(0, data), 4)
params = [fel.default_params(system, hs, base=b) for b in (2.0, "L")]
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for p in params:
    coefficient_table(system, f.values, 4, [1, 2, 3], p)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
FAULT_BOUND = 5000


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the bound is measured with glibc's allocator on Linux")
def test_walk_does_not_refault_the_heap():
    src = str(Path(fel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", FAULT_PROBE], capture_output=True,
                          text=True, env=env, timeout=120, check=True)
    assert int(done.stdout) < FAULT_BOUND


# The profile's 8 examples: a snowflake example reads its 1,374 degrees from
# the walk in 128-column batches, 0.1-0.7 s.
@pytest.mark.parametrize("name, n", [("gasket2", 4), ("gasket3", 3), ("snowflake", 3),
                                     ("interval", 5)])
@settings(max_examples=8)
@given(octaves=st.floats(-1.0, 6.0), seed=st.integers(0, 2**32 - 1))
def test_leaf_rows_match_all_pairs(name, n, octaves, seed, gasket2_l8, gasket3_l8,
                                   snowflake_l5, interval_l5):
    # Full, empty and mixed rows of the leaf stage, self pairs among them,
    # against one all-pairs scan: the pair set exactly, the sums to 1e-13.
    # Radii run from 2 c0 down to c0/64; whole octaves put lattice pairs on
    # the cutoff sphere.
    system = {"gasket2": gasket2_l8, "gasket3": gasket3_l8, "snowflake": snowflake_l5,
              "interval": interval_l5}[name]
    radius = system.c0 * 2.0**-octaves
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, (system.vertex_count(n), 3))
    assert degrees_match(walk_degrees(system, n, radius), brute_force_degrees(system, n, radius))
    np.testing.assert_allclose(pair_power_sums(system, n, [radius], values)[0],
                               brute_force_pair_sums(system, n, radius, values),
                               rtol=1e-13, atol=0.0)


class TestCoefficients:
    def test_constant_vanishes(self, gasket2_l8, gasket2_hs):
        params = default_params(gasket2_l8, gasket2_hs)
        f = VertexFunction(5, np.ones(gasket2_l8.vertex_count(5)))
        for m in (1, 2):
            assert b_coefficient(gasket2_l8, f, m, params) == 0.0

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_brute_force(self, gasket2_l8, gasket2_hs, m):
        params = default_params(gasket2_l8, gasket2_hs)
        f = parse_function_spec("coord:0").sample(gasket2_l8, gasket2_hs, 4)
        fast = b_coefficient(gasket2_l8, f, m, params)
        slow = brute_force_coefficient(gasket2_l8, f, m, params)
        assert abs(fast - slow) <= 1e-12 * max(1.0, slow)

    @pytest.mark.parametrize("k", [0, 1])
    def test_snowflake_matches_exact_oracle(self, snowflake_l5, snowflake_hs, k):
        # b_3 of a coordinate column against the all-pairs oracle, which sums
        # the pair terms exactly; plain float order in the oracle alone is
        # 2.5e-14 relative off.
        params = default_params(snowflake_l5, snowflake_hs)
        f = random_corpus(snowflake_l5, 2, seed=1)[k].sample(snowflake_l5, snowflake_hs, 4)
        fast = b_coefficient(snowflake_l5, f, 3, params)
        slow = brute_force_coefficient(snowflake_l5, f, 3, params)
        assert abs(fast - slow) <= 1e-14 * slow

    def test_dyadic_equals_natural_when_l_is_2(self, gasket2_l8, gasket2_hs):
        params = default_params(gasket2_l8, gasket2_hs)
        dyadic = default_params(gasket2_l8, gasket2_hs, base=2.0)
        f = parse_function_spec("harmonic:1,0,0").sample(gasket2_l8, gasket2_hs, 5)
        for m in (1, 2):
            assert b_coefficient(gasket2_l8, f, m, dyadic) == \
                b_coefficient(gasket2_l8, f, m, params)

    def test_homogeneity(self, gasket2_l8, gasket2_hs):
        params = default_params(gasket2_l8, gasket2_hs)
        f = parse_function_spec("harmonic:0.2,-1,0.4").sample(gasket2_l8, gasket2_hs, 5)
        g = VertexFunction(5, -2.0 * f.values)
        for m in (1, 3):
            assert b_coefficient(gasket2_l8, g, m, params) == pytest.approx(
                2.0 * b_coefficient(gasket2_l8, f, m, params), rel=1e-12
            )

    @pytest.mark.parametrize("preset, n", [("gasket2", 5), ("gasket3", 4)])
    def test_power_of_two_scaling_is_exact(self, request, preset, n):
        # Squared increments of 2^600 f leave the float range; the table
        # must still be 2^600 times f's, bit for bit.
        system = request.getfixturevalue(f"{preset}_l8")
        hs = request.getfixturevalue(f"{preset}_hs")
        params = default_params(system, hs)
        cols = np.column_stack([s.sample(system, hs, n).values
                                for s in random_corpus(system, 4, seed=3)])
        ms = list(range(1, n))
        table = coefficient_table(system, cols, n, ms, params)
        big = coefficient_table(system, np.ldexp(cols, 600), n, ms, params)
        assert np.isfinite(big).all()
        assert np.array_equal(big, np.ldexp(table, 600))

    def test_resolution_guard(self, gasket2_l8, gasket2_hs):
        params = default_params(gasket2_l8, gasket2_hs)
        f = VertexFunction(2, np.zeros(gasket2_l8.vertex_count(2)))
        with pytest.raises(ResolutionTooCoarse):
            b_coefficient(gasket2_l8, f, 2, params)

    @pytest.mark.parametrize("m", [0, -1, 2.5, 2.0, True, np.float64(1.0), "1", None])
    def test_malformed_scale_rejected(self, gasket2_l8, gasket2_hs, m):
        params = default_params(gasket2_l8, gasket2_hs)
        f = VertexFunction(3, np.zeros(gasket2_l8.vertex_count(3)))
        with pytest.raises(ValueError, match="integer >= 1"):
            b_coefficient(gasket2_l8, f, m, params)
        with pytest.raises(ValueError, match="integer >= 1"):
            coefficient_table(gasket2_l8, f.values, 3, [1, m], params)

    @pytest.mark.parametrize("m", [3, 4, np.int64(3)])
    def test_scale_at_or_above_level_too_coarse(self, gasket2_l8, gasket2_hs, m):
        params = default_params(gasket2_l8, gasket2_hs)
        f = VertexFunction(3, np.zeros(gasket2_l8.vertex_count(3)))
        with pytest.raises(ResolutionTooCoarse):
            b_coefficient(gasket2_l8, f, m, params)
        with pytest.raises(ResolutionTooCoarse):
            coefficient_table(gasket2_l8, f.values, 3, [m, 1], params)

    def test_numpy_integer_scale_accepted(self, gasket2_l8, gasket2_hs):
        params = default_params(gasket2_l8, gasket2_hs)
        f = parse_function_spec("coord:0").sample(gasket2_l8, gasket2_hs, 4)
        assert b_coefficient(gasket2_l8, f, np.int64(2), params) == \
            b_coefficient(gasket2_l8, f, 2, params)

    def test_values_must_fit_the_level(self, gasket2_l8, gasket2_hs):
        # 100 values on V_3 (42 vertices) used to give a coefficient from the
        # first 42, and a level past max_level a bare IndexError.
        params = default_params(gasket2_l8, gasket2_hs)
        with pytest.raises(ValueError, match="rows"):
            b_coefficient(gasket2_l8, VertexFunction(3, np.arange(100.0)), 1, params)
        with pytest.raises(ValueError, match="rows"):
            coefficient_table(gasket2_l8, np.zeros((41, 2)), 3, [1, 2], params)
        with pytest.raises(ValueError, match="out of range"):
            coefficient_table(gasket2_l8, np.zeros(10), 9, [1], params)
        with pytest.raises(ValueError, match="out of range"):
            pair_power_sums(gasket2_l8, 0, [0.5], np.zeros(3))

    def test_empty_scale_list_rejected(self, gasket2_l8, gasket2_hs):
        params = default_params(gasket2_l8, gasket2_hs)
        values = np.zeros(gasket2_l8.vertex_count(3))
        with pytest.raises(ValueError):
            coefficient_table(gasket2_l8, values, 3, [], params)

    def test_snowflake_base_change_bound(self, snowflake_l5, snowflake_hs):
        # Lemma-style comparison at modest size; acceptance runs the full one.
        params_l = default_params(snowflake_l5, snowflake_hs, base="L")
        params_2 = default_params(snowflake_l5, snowflake_hs, base=2.0)
        big_d = 2.0 ** (params_l.alpha + params_l.d / 2.0)
        specs = random_corpus(snowflake_l5, 4, seed=5)
        cols = np.column_stack(
            [s.sample(snowflake_l5, snowflake_hs, 4).values for s in specs]
        )
        b_sup = coefficient_table(snowflake_l5, cols, 4, [1, 2], params_l).max(axis=0)
        a_sup = coefficient_table(snowflake_l5, cols, 4, [1, 2, 3], params_2).max(axis=0)
        for bs, as_ in zip(b_sup, a_sup):
            if bs == as_ == 0.0:
                continue
            assert bs <= big_d * as_ * (1 + 1e-12)
            assert as_ <= big_d * bs * (1 + 1e-12)

    def test_coefficient_bits_pinned(self, gasket2_l8, gasket2_hs, gasket3_l8, gasket3_hs):
        specs = random_corpus(gasket2_l8, 4, seed=1)
        cols = np.column_stack([s.sample(gasket2_l8, gasket2_hs, 7).values for s in specs])
        table = coefficient_table(gasket2_l8, cols, 7, [1, 2, 3, 4, 5],
                                  default_params(gasket2_l8, gasket2_hs))
        assert [[v.hex() for v in row] for row in table.tolist()] == COEFFICIENT_BITS["gasket2"]
        data = np.random.default_rng(1).uniform(-1.0, 1.0, gasket3_l8.M0)
        f = harmonic_extension(gasket3_l8, gasket3_hs, VertexFunction(0, data), 7)
        params = default_params(gasket3_l8, gasket3_hs)
        assert [b_coefficient(gasket3_l8, f, m, params).hex() for m in (3, 4, 5, 6)] == \
            COEFFICIENT_BITS["gasket3"]

    def test_batch_table_matches_single(self, gasket2_l8, gasket2_hs):
        params = default_params(gasket2_l8, gasket2_hs)
        specs = random_corpus(gasket2_l8, 3, seed=17)
        cols = np.column_stack(
            [s.sample(gasket2_l8, gasket2_hs, 5).values for s in specs]
        )
        table = coefficient_table(gasket2_l8, cols, 5, [1, 2], params)
        for k, spec in enumerate(specs):
            f = spec.sample(gasket2_l8, gasket2_hs, 5)
            for row, m in enumerate((1, 2)):
                assert table[row, k] == pytest.approx(
                    b_coefficient(gasket2_l8, f, m, params), rel=1e-12, abs=1e-15
                )


class TestNormReport:
    def test_constant_function(self, gasket2_l8, gasket2_hs):
        rep = norm_report(gasket2_l8, gasket2_hs,
                          parse_function_spec("harmonic:1,1,1"), 2, 5)
        assert rep.lip_norm == pytest.approx(1.0, abs=1e-12)
        assert rep.dirichlet_norm == pytest.approx(1.0, abs=1e-12)
        assert rep.ratio == pytest.approx(1.0, abs=1e-12)
        assert rep.sup_b == pytest.approx(0.0, abs=1e-12)

    def test_zero_function_ratio_undefined(self, gasket2_l8, gasket2_hs):
        rep = norm_report(gasket2_l8, gasket2_hs,
                          parse_function_spec("harmonic:0,0,0"), 2, 5)
        assert rep.ratio is None
        assert rep.lip_norm == 0.0

    @pytest.mark.parametrize("m_max", [2.5, True, 0, -1])
    def test_malformed_m_max_rejected(self, gasket2_l8, gasket2_hs, m_max):
        spec = parse_function_spec("harmonic:1,0,0")
        with pytest.raises(ValueError, match="m_max must be an integer >= 1"):
            norm_report(gasket2_l8, gasket2_hs, spec, m_max, 5)
        with pytest.raises(ValueError, match="m_max must be an integer >= 1"):
            batch_norm_reports(gasket2_l8, gasket2_hs, [spec], m_max, 5)

    def test_numpy_integer_m_max_accepted(self, gasket2_l8, gasket2_hs):
        spec = parse_function_spec("harmonic:1,0,0")
        assert norm_report(gasket2_l8, gasket2_hs, spec, np.int64(3), 5) == \
            norm_report(gasket2_l8, gasket2_hs, spec, 3, 5)

    def test_one_coefficient_table_per_report(self, snowflake_l5, snowflake_hs, monkeypatch):
        # L = 3: the report needs the base-L table only, not a second at base 2.
        calls = []

        def counted(*args):
            calls.append(args[-1].base)
            return class_coefficient_table(*args)

        monkeypatch.setattr(classes, "class_coefficient_table", counted)
        norm_report(snowflake_l5, snowflake_hs, parse_function_spec("coord:0"), 2, 4)
        assert calls == [3.0]

    def test_memory_does_not_grow_with_the_corpus(self):
        # The reports hold one sampled column at a time: 20 specs peak less
        # than one V_10 column above 4 specs, where a (#V_10, F) table of
        # all samples would peak 16 columns higher.
        system = make_system("gasket2", 10)
        hs = solve_ndhs(system)
        peaks = [traced_peak(lambda: batch_norm_reports(
                     system, hs, random_corpus(system, count, seed=1), 3, 10))
                 for count in (18, 2)]
        assert peaks[0] - peaks[1] < 8 * system.vertex_count(10)

    def test_harmonic_energy_two(self, gasket2_l8, gasket2_hs):
        rep = norm_report(gasket2_l8, gasket2_hs,
                          parse_function_spec("harmonic:1,0,0"), 3, 6)
        assert rep.dirichlet_energy == pytest.approx(2.0, rel=1e-9)
        assert rep.monotone_ok

    def test_triangle_inequality(self, gasket2_l8, gasket2_hs):
        specs = random_corpus(gasket2_l8, 4, seed=31)[gasket2_l8.dim:]
        params = default_params(gasket2_l8, gasket2_hs)
        vals = [s.sample(gasket2_l8, gasket2_hs, 5).values for s in specs]
        weight = 1.0 / gasket2_l8.vertex_count(5)

        def lip_norm(values):
            sup_b = max(
                b_coefficient(gasket2_l8, VertexFunction(5, values), m, params)
                for m in (1, 2)
            )
            return math.sqrt((values**2 * weight).sum()) + sup_b

        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                assert lip_norm(vals[i] + vals[j]) <= \
                    lip_norm(vals[i]) + lip_norm(vals[j]) + 1e-9

    def test_report_homogeneity(self, gasket2_l8, gasket2_hs):
        spec = parse_function_spec("harmonic:0.7,-0.2,0.1")
        base = norm_report(gasket2_l8, gasket2_hs, spec, 2, 5)
        for c in (0.5, 3.0):
            scaled_tag = "harmonic:" + ",".join(
                str(c * v) for v in (0.7, -0.2, 0.1)
            )
            rep = norm_report(gasket2_l8, gasket2_hs,
                              parse_function_spec(scaled_tag), 2, 5)
            assert rep.lip_norm == pytest.approx(c * base.lip_norm, rel=1e-9)
            assert rep.dirichlet_norm == pytest.approx(c * base.dirichlet_norm, rel=1e-9)
            assert rep.ratio == pytest.approx(base.ratio, rel=1e-9)

    def test_measure_refinement_stability(self, gasket2_l8, gasket2_hs):
        params = default_params(gasket2_l8, gasket2_hs)
        specs = random_corpus(gasket2_l8, 4, seed=41)
        tables = {}
        for level in (6, 7, 8):
            cols = np.column_stack(
                [s.sample(gasket2_l8, gasket2_hs, level).values for s in specs]
            )
            tables[level] = coefficient_table(
                gasket2_l8, cols, level, list(range(1, 5)), params
            )
        for n in (6, 7):
            for row, m in enumerate(range(1, 5)):
                if m > n - 3:
                    continue
                for k, spec in enumerate(specs):
                    hi, lo = tables[n + 1][row, k], tables[n][row, k]
                    if hi == lo == 0.0:
                        continue
                    assert abs(hi - lo) / max(hi, lo) < 0.10, (spec.tag, m, n)


class TestExperiment:
    def test_small_experiment(self, gasket2_l8, gasket2_hs):
        specs = random_corpus(gasket2_l8, 6, seed=59)
        summary = equivalence_experiment(gasket2_l8, gasket2_hs, specs, 3, 6)
        assert math.isfinite(summary.c_empirical)
        assert summary.c_empirical >= 1.0
        for rep in summary.reports:
            assert summary.min_ratio <= rep.ratio <= summary.max_ratio
            assert 1.0 / summary.c_empirical <= rep.ratio <= summary.c_empirical

    def test_constant_excluded(self, gasket2_l8, gasket2_hs):
        specs = [parse_function_spec("harmonic:0,0,0"),
                 parse_function_spec("harmonic:1,0,0")]
        summary = equivalence_experiment(gasket2_l8, gasket2_hs, specs, 2, 5)
        assert summary.excluded == ["harmonic:0,0,0"]

    def test_empty_corpus_rejected(self, gasket2_l8, gasket2_hs):
        with pytest.raises(ValueError, match="corpus is empty"):
            equivalence_experiment(gasket2_l8, gasket2_hs, [], 2, 5)
        with pytest.raises(ValueError, match="corpus is empty"):
            batch_norm_reports(gasket2_l8, gasket2_hs, [], 2, 5)


class TestHoelder:
    def test_constant_zero(self, gasket2_l8):
        f = VertexFunction(4, np.ones(gasket2_l8.vertex_count(4)))
        assert hoelder_estimate(gasket2_l8, f, 0.5) == 0.0

    def test_harmonic_finite_and_stable(self, gasket2_l8, gasket2_hs):
        gamma = (math.log(5) - math.log(3)) / (2 * math.log(2))
        f0 = VertexFunction(0, np.array([1.0, 0.0, 0.0]))
        estimates = [
            hoelder_estimate(
                gasket2_l8,
                harmonic_extension(gasket2_l8, gasket2_hs, f0, n),
                gamma,
            )
            for n in (6, 8)
        ]
        assert all(math.isfinite(e) and e > 0 for e in estimates)
        assert abs(estimates[1] - estimates[0]) / estimates[1] < 0.20

    def test_large_gamma_larger_constant(self, gasket2_l8, gasket2_hs):
        f = parse_function_spec("harmonic:1,0,0").sample(gasket2_l8, gasket2_hs, 6)
        low = hoelder_estimate(gasket2_l8, f, 0.37)
        high = hoelder_estimate(gasket2_l8, f, 0.999)
        assert high > low
        assert math.isfinite(high)

    def test_nan_value_gives_nan(self, gasket2_l8):
        # Python's max(best, nan) keeps best, which dropped the blocks whose
        # ratios held the nan.  The values are a function of the point, so
        # they do not depend on the numbering; V_0 point 0 gets the nan.
        x, y = gasket2_l8.points[4].T
        values = x + 2.0 * y**2
        assert hoelder_estimate(gasket2_l8, VertexFunction(4, values), 0.5) \
            == pytest.approx(1.9445436482630056, rel=1e-15)
        values[gasket2_l8.v0_ids[0]] = math.nan
        assert math.isnan(hoelder_estimate(gasket2_l8, VertexFunction(4, values), 0.5))

    def test_gamma_range_checked(self, gasket2_l8):
        f = VertexFunction(2, np.zeros(gasket2_l8.vertex_count(2)))
        for gamma in (0.0, 1.0, -0.3):
            with pytest.raises(ValueError):
                hoelder_estimate(gasket2_l8, f, gamma)

    @pytest.mark.parametrize("preset, n", [("gasket2", 7), ("gasket3", 5), ("snowflake", 4)])
    def test_matches_neighbor_pair_oracle(self, request, preset, n):
        system = request.getfixturevalue({"gasket2": "gasket2_l8", "gasket3": "gasket3_l8",
                                          "snowflake": "snowflake_l5"}[preset])
        hs = request.getfixturevalue(f"{preset}_hs")
        dims = dimensions(system, hs)
        gamma = (dims.d_w - dims.d_f) / 2.0
        for spec in random_corpus(system, 4, seed=14)[-4:]:
            f = spec.sample(system, hs, n)
            oracle = neighbor_pair_hoelder(system, f, gamma)
            assert oracle > 0
            assert hoelder_estimate(system, f, gamma) == pytest.approx(oracle, rel=1e-15, abs=0)

    def test_level_and_length_checked(self, gasket2_l8):
        # A wrong-length f used to give a silent estimate, and a level past
        # max_level an IndexError.
        with pytest.raises(ValueError, match="values"):
            hoelder_estimate(gasket2_l8, VertexFunction(4, np.arange(200.0)), 0.5)
        with pytest.raises(ValueError, match="not built"):
            hoelder_estimate(gasket2_l8, VertexFunction(9, np.zeros(29526)), 0.5)
        # At level 0 no cell pair was compared, and the estimate read 0.0.
        with pytest.raises(ValueError, match="level 1 or deeper"):
            hoelder_estimate(gasket2_l8, VertexFunction(0, np.array([0.0, 1.0, 5.0])), 0.5)
