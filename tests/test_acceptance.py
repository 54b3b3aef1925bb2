"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the lines
interleaved).  Every tolerance is pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from fel.characteristics import dimensions
from fel.energy import energy_sequence, parse_function_spec, random_corpus
from fel.harmonic import decimate, energy0, reproduce, solve_ndhs, unit_matrix
from fel.ifs import build
from fel.lipschitz import (b_coefficient, batch_norm_reports, coefficient_table,
                           default_params, equivalence_experiment, hoelder_estimate)
from fel.presets import load_maps

from helpers import (brute_force_coefficient, brute_force_degrees, count_vertices,
                     degrees_match, make_system, points_in_symplex, walk_degrees)

# Largest relative change of a norm ratio from level n - 1 to level n.
RATIO_STABILITY = 0.10


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_ndhs_gasket_family():
    details = []
    ok = True
    for name, n_dim in (("gasket2", 2), ("gasket3", 3)):
        start = time.perf_counter()
        maps, _ = load_maps(name)
        system = build(maps, 3, name=name)
        hs = solve_ndhs(system)
        elapsed = time.perf_counter() - start
        rho_expected = (n_dim + 3) / (n_dim + 1)
        dw_expected = math.log(n_dim + 3) / math.log(2)
        dims = dimensions(system, hs)
        ok &= abs(hs.rho - rho_expected) <= 1e-9
        ok &= abs(dims.d_w - dw_expected) <= 1e-9
        ok &= elapsed < 1.0
        details.append(f"{name}: rho={hs.rho:.12f} d_w={dims.d_w:.12f} {elapsed:.2f}s")
    _report(1, ok, "; ".join(details))


def test_criterion_2_dimension_constants(gasket2_l8, gasket2_hs,
                                         snowflake_l5, snowflake_hs):
    g_dims = dimensions(gasket2_l8, gasket2_hs)
    s_dims = dimensions(snowflake_l5, snowflake_hs)
    checks = [
        abs(g_dims.d_f - math.log(3) / math.log(2)) <= 1e-12,
        abs(g_dims.d_s - 2 * math.log(3) / math.log(5)) <= 1e-12,
        abs(s_dims.d_f - math.log(7) / math.log(3)) <= 1e-12,
        abs(g_dims.rho - g_dims.L ** (g_dims.d_w - g_dims.d_f)) <= 1e-12 * g_dims.rho,
        abs(s_dims.rho - s_dims.L ** (s_dims.d_w - s_dims.d_f)) <= 1e-12 * s_dims.rho,
        # snowflake rho is not in the paper: accept any converged fixed point
        snowflake_hs.residual(snowflake_l5) <= 1e-10,
        s_dims.rho > 1.0,
        s_dims.d_s < 2.0,
        s_dims.rho * s_dims.M > 2.0,
    ]
    _report(2, all(checks),
            f"gasket2 d_f={g_dims.d_f:.12f} d_s={g_dims.d_s:.12f}; "
            f"snowflake d_f={s_dims.d_f:.12f} rho={s_dims.rho:.9f} "
            f"residual={snowflake_hs.residual(snowflake_l5):.2e}")


def test_criterion_3_decimation_oracle(gasket2_l8):
    system = gasket2_l8
    b = reproduce(system, unit_matrix(3))
    boundary = system.v0_ids
    dec, ext = decimate(b, boundary)
    matrix_gap = float(np.abs(dec.entries - 0.6 * unit_matrix(3).entries).max())
    ok = matrix_gap <= 1e-12

    interior = np.setdiff1d(np.arange(system.vertex_count(1)), boundary)
    lap = -b.entries
    lap_ii = lap[np.ix_(interior, interior)]
    lap_ib = lap[np.ix_(interior, boundary)]
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(20):
        f = rng.normal(size=3)
        g = np.zeros(len(interior))
        for _ in range(200000):
            grad = 2.0 * (lap_ii @ g + lap_ib @ f)
            if np.linalg.norm(grad) < 1e-12:
                break
            step = (grad @ grad) / (2.0 * grad @ lap_ii @ grad)
            g = g - step * grad
        lifted = np.empty(system.vertex_count(1))
        lifted[boundary] = f
        lifted[interior] = g
        worst = max(worst, abs(energy0(b, lifted) - energy0(dec, f)))
    ok &= worst <= 1e-10
    _report(3, ok, f"entrywise gap={matrix_gap:.2e}, "
                   f"worst minimization mismatch={worst:.2e} over 20 vectors")


def test_criterion_4_vertex_combinatorics(gasket2_l8, gasket3_l8):
    ok = True
    details = []
    systems = {"gasket2": gasket2_l8, "gasket3": gasket3_l8,
               "snowflake": make_system("snowflake", 6, max_points=10_000_000)}
    for name, system in systems.items():
        M, v0, v1 = system.M, system.vertex_count(0), system.vertex_count(1)
        k0 = M * v0 - v1
        closed = [round(M**m * (v0 - k0 / (M - 1)) + k0 / (M - 1)) for m in range(9)]
        counts = count_vertices(system.maps, 8)
        ok &= counts == closed
        for m in range(1, system.max_level + 1):
            ok &= system.cells[m].shape[0] == M**m
        details.append(f"{name} #V_8={counts[8]}")
        # Eq. i3: #(V_n ∩ S) = #V_{n-m} exactly, for every symplex
        for m in (1, 2, 3):
            for n in range(m + 1, min(6, system.max_level) + 1):
                want = system.vertex_count(n - m)
                for s in range(M**m):
                    if len(points_in_symplex(system, m, s, n)) != want:
                        ok = False
                        details.append(f"{name} i3 fails at m={m} n={n} s={s}")
                        break
    _report(4, ok, "; ".join(details))


def test_criterion_5_energy_monotonicity(gasket2_l8, gasket2_hs):
    start = time.perf_counter()
    specs = random_corpus(gasket2_l8, 48, seed=505)  # 48 harmonic + 2 coords
    assert len(specs) == 50
    ok = True
    worst_drop = 0.0
    worst_spread = 0.0
    for spec in specs:
        f = spec.sample(gasket2_l8, gasket2_hs, 7)
        seq = energy_sequence(gasket2_l8, gasket2_hs, f, tag=spec.tag)
        values = [e for _, e in seq.entries]
        for e1, e2 in zip(values, values[1:]):
            worst_drop = max(worst_drop, e1 - e2)
            ok &= e2 >= e1 - 1e-9 * max(1.0, abs(e1))
        if spec.kind == "harmonic":
            # extensions are energy-invariant from the data level upward
            # (V_1 data is harmonic only above level 1)
            data_level = 0 if len(spec.data) == gasket2_l8.M0 else 1
            tail = values[data_level:]
            spread = (max(tail) - min(tail)) / max(max(tail), 1e-30)
            worst_spread = max(worst_spread, spread)
            ok &= spread <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report(5, ok, f"50 functions to level 7: worst decrease {worst_drop:.2e}, "
                   f"worst harmonic spread {worst_spread:.2e}, {elapsed:.1f}s")


def test_criterion_6_pair_enumeration_oracle(gasket2_l8, gasket2_hs):
    params = default_params(gasket2_l8, gasket2_hs)
    f_spec = parse_function_spec("harmonic:1,-0.5,0.25")
    ok = True
    pair_counts = []
    worst = 0.0
    for m in (1, 2):
        for n in (m + 1, 4, 5):
            radius = params.cutoff(m)
            walk = walk_degrees(gasket2_l8, n, radius)
            degrees = brute_force_degrees(gasket2_l8, n, radius)
            ok &= degrees_match(walk, degrees)
            pair_counts.append(int(degrees.sum()) // 2)
            f = f_spec.sample(gasket2_l8, gasket2_hs, n)
            value = b_coefficient(gasket2_l8, f, m, params)
            oracle = brute_force_coefficient(gasket2_l8, f, m, params)
            worst = max(worst, abs(value - oracle))
            ok &= abs(value - oracle) <= 1e-12 * max(1.0, oracle)
    _report(6, ok, f"walk degrees equal the all-pairs oracle's ({pair_counts} pairs), "
                   f"worst value gap {worst:.2e}")


def test_criterion_7_base_change(gasket2_l8, gasket2_hs,
                                 snowflake_l5, snowflake_hs):
    # Snowflake (L=3): (1/D) sup a ≤ sup b ≤ D sup a with D = 2^(alpha+d/2).
    params_l = default_params(snowflake_l5, snowflake_hs, base="L")
    params_2 = default_params(snowflake_l5, snowflake_hs, base=2.0)
    big_d = 2.0 ** (params_l.alpha + params_l.d / 2.0)
    specs = random_corpus(snowflake_l5, 6, seed=707)
    cols = np.column_stack(
        [s.sample(snowflake_l5, snowflake_hs, 4).values for s in specs]
    )
    sup_b = coefficient_table(snowflake_l5, cols, 4, [1, 2], params_l).max(axis=0)
    sup_a = coefficient_table(snowflake_l5, cols, 4, [1, 2, 3], params_2).max(axis=0)
    ok = True
    worst = 0.0
    for bs, as_ in zip(sup_b, sup_a):
        ok &= bs <= big_d * as_ * (1 + 1e-12)
        ok &= as_ <= big_d * bs * (1 + 1e-12)
        worst = max(worst, bs / as_, as_ / bs)
    # Gasket (L=2): a_m = b_m identically.
    g_params = default_params(gasket2_l8, gasket2_hs, base="L")
    assert g_params.base == 2.0
    g_cols = np.column_stack(
        [s.sample(gasket2_l8, gasket2_hs, 5).values
         for s in random_corpus(gasket2_l8, 4, seed=708)]
    )
    g2 = default_params(gasket2_l8, gasket2_hs, base=2.0)
    b_tab = coefficient_table(gasket2_l8, g_cols, 5, [1, 2], g_params)
    a_tab = coefficient_table(gasket2_l8, g_cols, 5, [1, 2], g2)
    ok &= bool(np.array_equal(b_tab, a_tab))
    _report(7, ok, f"snowflake D={big_d:.4f}, worst sup ratio {worst:.4f} "
                   f"over {len(specs)} functions; gasket a==b exactly")


def test_criterion_8_norm_equivalence(gasket2_l8, gasket2_hs):
    start = time.perf_counter()
    specs = random_corpus(gasket2_l8, 18, seed=808)  # 18 harmonic + 2 coords
    assert len(specs) == 20
    summary = equivalence_experiment(gasket2_l8, gasket2_hs, specs, 6, 8)
    coarse = batch_norm_reports(gasket2_l8, gasket2_hs, specs, 6, 7)
    elapsed = time.perf_counter() - start
    c = summary.c_empirical
    ok = math.isfinite(c) and not summary.excluded
    for rep in summary.reports:
        ok &= 1.0 / c <= rep.ratio <= c
    # Refinement: each ratio moves by less than RATIO_STABILITY from n = 7 to 8.
    changes = [abs(fine.ratio - rough.ratio) / abs(fine.ratio)
               if fine.ratio is not None and rough.ratio is not None else math.inf
               for fine, rough in zip(summary.reports, coarse)]
    worst_change = max(changes)
    ok &= worst_change < RATIO_STABILITY
    ok &= elapsed < 60.0
    _report(8, ok, f"C_empirical={c:.4f}, ratios in [{summary.min_ratio:.4f}, "
                   f"{summary.max_ratio:.4f}], worst ratio change n=7->8: "
                   f"{worst_change:.1%}, {elapsed:.1f}s")


def test_criterion_9_hoelder_diagnostic(gasket2_l8, gasket2_hs):
    dims = dimensions(gasket2_l8, gasket2_hs)
    gamma = (dims.d_w - dims.d_f) / 2.0
    specs = random_corpus(gasket2_l8, 10, seed=909)[gasket2_l8.dim:]
    ok = True
    worst = 0.0
    for spec in specs:
        estimates = {}
        for n in (6, 8):
            f = spec.sample(gasket2_l8, gasket2_hs, n)
            estimates[n] = hoelder_estimate(gasket2_l8, f, gamma)
        ok &= all(math.isfinite(e) for e in estimates.values())
        change = abs(estimates[8] - estimates[6]) / estimates[8]
        worst = max(worst, change)
        ok &= change < 0.20
    _report(9, ok, f"gamma={gamma:.4f}, 10 harmonic functions, "
                   f"worst constant drift n=6->8: {worst:.1%}")
