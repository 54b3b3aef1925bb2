import dataclasses

import numpy as np
import pytest

from fel import harmonic
from fel.energy import VertexFunction, harmonic_extension
from fel.errors import InvariantViolation, NoConvergence, SingularInterior
from fel.harmonic import (ConductivityMatrix, HarmonicStructure, _class_values_of,
                          decimate, energy0, from_off_diagonal, pair_orbit_classes,
                          reproduce, solve_ndhs, unit_matrix)


def quadratic_form(entries, f):
    # direct evaluation of (1/2) sum a_xy (f_x - f_y)^2
    n = len(f)
    total = 0.0
    for x in range(n):
        for y in range(n):
            total += 0.5 * entries[x, y] * (f[x] - f[y]) ** 2
    return total


def descend_to_minimum(lap_ii, cross, tol=1e-12, max_iter=200000):
    """Steepest descent with exact line search on g -> g'L_II g + 2 cross'g."""
    g = np.zeros(len(lap_ii))
    for _ in range(max_iter):
        grad = 2.0 * (lap_ii @ g + cross)
        gnorm = np.linalg.norm(grad)
        if gnorm < tol:
            return g
        step = (grad @ grad) / (2.0 * grad @ lap_ii @ grad)
        g = g - step * grad
    raise AssertionError("descent did not converge")


class TestConductivityMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ConductivityMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(ValueError):
            ConductivityMatrix(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        with pytest.raises(ValueError):
            ConductivityMatrix(np.array([[-1.0, 2.0], [2.0, -1.0]]))
        with pytest.raises(ValueError, match="square"):
            ConductivityMatrix(np.zeros((2, 3)))


class TestEnergy0:
    def test_constant_vanishes(self):
        a = unit_matrix(5)
        assert energy0(a, np.full(5, 3.7)) == pytest.approx(0.0, abs=1e-14)

    def test_corner_value(self):
        assert energy0(unit_matrix(3), np.array([1.0, 0.0, 0.0])) == pytest.approx(2.0)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(11)
        a = unit_matrix(4)
        f = rng.normal(size=4)
        assert energy0(a, 3.0 * f) == pytest.approx(9.0 * energy0(a, f), rel=1e-12)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(12)
        off = rng.uniform(0.1, 2.0, size=(5, 5))
        a = from_off_diagonal(off)
        f = rng.normal(size=5)
        assert energy0(a, f) == pytest.approx(quadratic_form(a.entries, f), rel=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            energy0(unit_matrix(3), np.zeros(4))


class TestReproduce:
    def test_quadratic_form_identity(self, gasket2_l8):
        rng = np.random.default_rng(5)
        a = unit_matrix(3)
        b = reproduce(gasket2_l8, a)
        f1 = rng.normal(size=gasket2_l8.vertex_count(1))
        direct = sum(
            energy0(a, f1[gasket2_l8.cells[1][i]]) for i in range(3)
        )
        assert energy0(b, f1) == pytest.approx(direct, rel=1e-12)

    def test_invariants_preserved(self, snowflake_l5):
        rng = np.random.default_rng(6)
        off = rng.uniform(0.5, 1.5, size=(6, 6))
        a = from_off_diagonal(off)
        b = reproduce(snowflake_l5, a)
        e = b.entries
        assert np.abs(e - e.T).max() <= 1e-13
        assert np.abs(e.sum(axis=1)).max() <= 1e-13
        assert (e - np.diag(np.diag(e))).min() >= 0.0

    def test_matrix_off_v0_rejected(self, gasket2_l8):
        with pytest.raises(ValueError, match="matrix must live on V_0"):
            reproduce(gasket2_l8, unit_matrix(4))

    def test_gasket_unit_weights(self, gasket2_l8):
        b = reproduce(gasket2_l8, unit_matrix(3))
        off = b.entries - np.diag(np.diag(b.entries))
        # 9 cell edges, each of unit conductance, none shared between cells
        assert np.isclose(off[off > 0], 1.0).all()
        assert (off > 0).sum() == 18


class TestDecimate:
    def test_gasket_three_fifths(self, gasket2_l8):
        b = reproduce(gasket2_l8, unit_matrix(3))
        dec, _ = decimate(b, gasket2_l8.v0_ids)
        expected = 0.6 * unit_matrix(3).entries
        assert np.abs(dec.entries - expected).max() <= 1e-12

    def test_extension_one_fifth_two_fifths(self, gasket2_l8):
        system = gasket2_l8
        b = reproduce(system, unit_matrix(3))
        _, ext = decimate(b, system.v0_ids)
        interior = np.setdiff1d(np.arange(system.vertex_count(1)), system.v0_ids)
        got = ext @ np.array([1.0, 0.0, 0.0])
        v0 = system.points[0]
        mids = system.points[1][interior]
        for value, point in zip(got, mids):
            near_first = np.linalg.norm(point - v0[0]) < 0.51
            assert value == pytest.approx(0.4 if near_first else 0.2, abs=1e-12)

    def test_no_interior_returns_input(self):
        a = unit_matrix(4)
        dec, ext = decimate(a, np.arange(4))
        assert np.array_equal(dec.entries, a.entries)
        assert ext.shape == (0, 4)

    def test_minimality_and_attainment(self, gasket2_l8):
        rng = np.random.default_rng(7)
        system = gasket2_l8
        b = reproduce(system, unit_matrix(3))
        boundary = system.v0_ids
        interior = np.setdiff1d(np.arange(system.vertex_count(1)), boundary)
        dec, ext = decimate(b, boundary)
        for _ in range(10):
            f = rng.normal(size=3)
            value = energy0(dec, f)
            g_free = rng.normal(size=len(interior))
            lifted = np.empty(system.vertex_count(1))
            lifted[boundary] = f
            lifted[interior] = g_free
            assert value <= energy0(b, lifted) + 1e-10
            lifted[interior] = ext @ f
            assert energy0(b, lifted) == pytest.approx(value, abs=1e-10)

    def test_schur_matches_gradient_descent(self, gasket2_l8):
        rng = np.random.default_rng(8)
        system = gasket2_l8
        b = reproduce(system, unit_matrix(3))
        boundary = system.v0_ids
        interior = np.setdiff1d(np.arange(system.vertex_count(1)), boundary)
        lap = -b.entries
        lap_ii = lap[np.ix_(interior, interior)]
        lap_ib = lap[np.ix_(interior, boundary)]
        dec, _ = decimate(b, boundary)
        for _ in range(20):
            f = rng.normal(size=3)
            g = descend_to_minimum(lap_ii, lap_ib @ f)
            lifted = np.empty(system.vertex_count(1))
            lifted[boundary] = f
            lifted[interior] = g
            assert energy0(b, lifted) == pytest.approx(energy0(dec, f), abs=1e-10)

    def test_singular_interior_raises(self):
        # interior vertices 2, 3 form an island not touching the boundary
        off = np.zeros((4, 4))
        off[0, 1] = off[1, 0] = 1.0
        off[2, 3] = off[3, 2] = 1.0
        b = from_off_diagonal(off)
        with pytest.raises(SingularInterior):
            decimate(b, np.array([0, 1]))

    def test_class_values_reject_a_non_constant_class(self):
        # Pairs (0, 1) and (0, 2) in one orbit class must carry one value.
        entries = np.array([[-3.0, 1.0, 2.0], [1.0, -2.0, 1.0], [2.0, 1.0, -3.0]])
        with pytest.raises(InvariantViolation, match="not constant on orbit class 0"):
            _class_values_of(entries, [[(0, 1), (0, 2)]])


class TestSolveNdhs:
    def test_gasket_rho(self, gasket2_l8, gasket2_hs):
        assert gasket2_hs.rho == pytest.approx(5.0 / 3.0, abs=1e-9)
        assert gasket2_hs.residual(gasket2_l8) <= 1e-10

    def test_gasket3_rho(self, gasket3_l8, gasket3_hs):
        assert gasket3_hs.rho == pytest.approx(1.5, abs=1e-9)
        assert gasket3_hs.residual(gasket3_l8) <= 1e-10

    def test_snowflake_structure(self, snowflake_l5, snowflake_hs):
        hs = snowflake_hs
        assert hs.rho > 1.0
        assert hs.residual(snowflake_l5) <= 1e-10
        off = hs.matrix.entries - np.diag(np.diag(hs.matrix.entries))
        mask = ~np.eye(6, dtype=bool)
        assert off[mask].min() > 0.0
        assert len(hs.orbit_classes) == 3

    def test_orbit_classes_partition_pairs(self, gasket2_l8, gasket3_l8, snowflake_l5):
        # Classes in order of their smallest pair, pairs in lexicographic order.
        assert pair_orbit_classes(gasket2_l8) == [[(0, 1), (0, 2), (1, 2)]]
        assert pair_orbit_classes(gasket3_l8) == [
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]]
        assert pair_orbit_classes(snowflake_l5) == [
            [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)],   # sides
            [(0, 2), (0, 4), (1, 3), (1, 5), (2, 4), (3, 5)],   # short diagonals
            [(0, 3), (1, 4), (2, 5)],                           # long diagonals
        ]

    def test_g_invariance(self, snowflake_l5, snowflake_hs):
        a = snowflake_hs.matrix.entries
        for ref in snowflake_l5.reflections:
            perm = ref.perm
            assert np.abs(a[np.ix_(perm, perm)] - a).max() <= 1e-10

    def test_normalization_and_scale_freedom(self, gasket2_l8, gasket2_hs):
        # T is homogeneous, so a globally rescaled start yields the same
        # normalized structure; the nearest-neighbor class is pinned to 1.
        nn = gasket2_hs.class_values[0]
        assert nn == pytest.approx(1.0, abs=1e-12)
        b7 = reproduce(gasket2_l8, from_off_diagonal(7.0 * np.ones((3, 3))))
        dec7, _ = decimate(b7, gasket2_l8.v0_ids)
        b1 = reproduce(gasket2_l8, unit_matrix(3))
        dec1, _ = decimate(b1, gasket2_l8.v0_ids)
        assert np.abs(dec7.entries - 7.0 * dec1.entries).max() <= 1e-12

    def test_no_convergence_carries_trace(self, snowflake_l5, monkeypatch):
        # The snowflake's three orbit classes do not settle in one step.
        monkeypatch.setattr(harmonic, "MAX_ITERATIONS", 1)
        with pytest.raises(NoConvergence, match="no fixed point after 1 iterations") as info:
            solve_ndhs(snowflake_l5)
        assert len(info.value.trace) == 1

    def test_interval_rho_is_two(self, interval_l5):
        hs = solve_ndhs(interval_l5)
        assert hs.rho == pytest.approx(2.0, abs=1e-12)

    def test_trace_recorded(self, snowflake_hs):
        assert len(snowflake_hs.iteration_trace) >= 2
        gaps = [g for g, _ in snowflake_hs.iteration_trace]
        assert gaps[-1] < 1e-12

    def test_copy_and_direct_construction_extend_alike(self, gasket2_l8, gasket2_hs):
        # The extension rows follow the system's new-vertex slots, so a copy
        # or a structure built from the matrices alone extends bit for bit alike.
        copy = dataclasses.replace(gasket2_hs)
        direct = HarmonicStructure(matrix=gasket2_hs.matrix, rho=gasket2_hs.rho,
                                   extension_matrix=gasket2_hs.extension_matrix)
        f0 = VertexFunction(0, np.array([1.0, 0.0, 0.0]))
        solved = harmonic_extension(gasket2_l8, gasket2_hs, f0, 3).values
        for hs in (copy, direct):
            np.testing.assert_array_equal(harmonic_extension(gasket2_l8, hs, f0, 3).values,
                                          solved)
