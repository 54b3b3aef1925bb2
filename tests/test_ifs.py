import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fel.ifs
from fel.errors import ConditionViolation, PointCapExceeded
from fel.ifs import (Similitude, _close_pairs, build, components, essential_fixed_points,
                    validate)
from fel.presets import load_maps

from helpers import (assert_matches_geometric, build_digests, cell_address, count_vertices,
                     locate, make_system, maps_of, overlapping_interval_maps,
                     perturbed_gasket_maps, points_in_symplex, rotated_gasket_maps,
                     symplex_neighborhoods)

SQ3 = math.sqrt(3.0)
# essential_fixed_points(maps).tolist() and the V_0 permutation of each
# reflection (None where it does not permute V_0) for the presets and three
# invalid systems, as per-point loops and nearest-point matching computed them.
PINS = json.loads((Path(__file__).parent / "fixed_point_pins.json").read_text())
INVALID_MAPS = {"perturbed": perturbed_gasket_maps, "rotated": rotated_gasket_maps,
                "overlapping": overlapping_interval_maps}
# SHA-256 of the build tables (helpers.build_digests) of the presets at their
# benchmark levels and of the examples/ systems at the deepest level under the
# default point cap, computed by the gluing that labelled every candidate:
# the gluing that slices out the few repeated ones must keep every bit.  The
# cells, promote and new_vertices pins are those of the int64 tables that
# gluing made, cast to int32.
BUILD_DIGESTS = json.loads((Path(__file__).parent / "build_digests.json").read_text())
# The examples/ systems at levels the geometric oracle merges in a few
# seconds: the flipped gasket's maps have orthogonal parts and the
# pentagasket is not on a lattice.
EXAMPLE_LEVELS = {"flipped-gasket": 5, "hexagasket": 3, "pentagasket": 4, "vicsek": 4}


def closed_form_counts(system, up_to):
    """Lemma-1 style closed form from the measured v0, v1."""
    M = system.M
    v0, v1 = system.vertex_count(0), system.vertex_count(1)
    k0 = M * v0 - v1
    return [M**m * (v0 - k0 / (M - 1)) + k0 / (M - 1) for m in range(up_to + 1)]


class TestSimilitude:
    def test_apply_examples(self):
        maps, _ = load_maps("gasket2")
        assert np.allclose(maps[1].apply([0.0, 0.0]), [0.5, 0.0])
        assert np.allclose(maps[2].apply([1.0, 0.0]), [0.75, SQ3 / 4])

    def test_apply_fixed_point_is_fixed(self):
        maps, _ = load_maps("snowflake")
        for s in maps:
            x = s.fixed_point()
            assert np.linalg.norm(s.apply(x) - x) <= 1e-10 * (1 + np.linalg.norm(x))

    def test_fixed_points_gasket(self):
        maps, _ = load_maps("gasket2")
        assert np.allclose(maps[0].fixed_point(), [0.0, 0.0])
        assert np.allclose(maps[2].fixed_point(), [0.5, SQ3 / 2])

    def test_fixed_point_linear_map_origin(self):
        maps, _ = load_maps("snowflake")
        assert np.allclose(maps[6].fixed_point(), [0.0, 0.0])

    def test_contraction_exact_ratio(self):
        rng = np.random.default_rng(3)
        for name in ("gasket2", "gasket3", "snowflake"):
            maps, _ = load_maps(name)
            x = rng.normal(size=maps[0].dim)
            y = rng.normal(size=maps[0].dim)
            for s in maps:
                lhs = np.linalg.norm(s.apply(x) - s.apply(y))
                rhs = np.linalg.norm(x - y) / s.scale
                assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_apply_rejects_wrong_dimension(self):
        maps, _ = load_maps("gasket2")
        with pytest.raises(ValueError, match="expected points of dimension 2"):
            maps[0].apply(np.zeros((4, 3)))

    def test_rejects_bad_rotation(self):
        with pytest.raises(ValueError):
            Similitude(scale=2.0, rotation=np.array([[1.0, 0.5], [0.0, 1.0]]),
                       translation=np.zeros(2))

    @pytest.mark.parametrize("scale, rotation, translation", [
        (2.0, [[1.0, 0.0], [0.0, 1.0]], [np.nan, 0.0]),
        (2.0, [[1.0, 0.0], [0.0, 1.0]], [np.inf, 0.0]),
        (2.0, [[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0]),
        (np.inf, [[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]),
    ], ids=["nan-translation", "inf-translation", "nan-rotation", "inf-scale"])
    def test_rejects_non_finite(self, scale, rotation, translation):
        # A NaN rotation passes the orthogonality check (nan > tol is False).
        with pytest.raises(ValueError, match="finite"):
            Similitude(scale=scale, rotation=np.array(rotation),
                       translation=np.array(translation))
        with pytest.raises(ValueError):
            Similitude(scale=0.5, rotation=np.eye(2), translation=np.zeros(2))


class TestEssentialFixedPoints:
    def test_gasket_all_essential(self):
        maps, _ = load_maps("gasket2")
        assert len(essential_fixed_points(maps)) == 3

    def test_snowflake_center_excluded(self):
        maps, _ = load_maps("snowflake")
        pts = essential_fixed_points(maps)
        assert len(pts) == 6
        assert np.linalg.norm(pts, axis=1).min() > 0.9  # origin not among them

    def test_single_essential_point_rejected(self):
        maps = [
            Similitude(scale=2.0, rotation=np.eye(2), translation=np.zeros(2)),
            Similitude(scale=2.0, rotation=-np.eye(2), translation=np.zeros(2)),
        ]
        with pytest.raises(ConditionViolation) as err:
            essential_fixed_points(maps)
        assert err.value.condition == 1

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_fixed_points_and_reflections_pinned(self, name):
        maps = INVALID_MAPS[name]() if name in INVALID_MAPS else load_maps(name)[0]
        system = build(maps, 1, run_validation=False)
        assert essential_fixed_points(maps).tolist() == PINS[name]["fixed_points"]
        assert [None if r.perm is None else r.perm.tolist()
                for r in system.reflections] == PINS[name]["perms"]

    def test_near_duplicate_chain_keeps_both_ends(self):
        # Fixed points 0, 0.6e-9, 1.2e-9 on the line (tolerance 1e-9): the
        # middle one lies within tolerance of the kept 0 and is dropped, and
        # 1.2e-9 is compared only with the kept points, so it stays.
        maps = [Similitude(scale=2.0, rotation=np.eye(1), translation=np.array([t]))
                for t in (0.0, 0.5, 0.3e-9, 0.6e-9)]
        assert essential_fixed_points(maps).tolist() == [[0.0], [1.0], [1.2e-9]]

    def test_duplicate_maps_rejected_by_build(self):
        maps, _ = load_maps("gasket2")
        with pytest.raises(ValueError, match="identical"):
            build([maps[0], maps[0], maps[1]], 2)

    def test_mixed_dimensions_rejected_by_build(self):
        maps, _ = load_maps("gasket2")
        line = Similitude(scale=2.0, rotation=np.eye(1), translation=np.zeros(1))
        with pytest.raises(ValueError, match="ambient dimension"):
            build(maps + [line], 2)

    def test_mixed_scales_rejected_by_build(self):
        maps, _ = load_maps("gasket2")
        third = Similitude(scale=3.0, rotation=np.eye(2), translation=np.zeros(2))
        with pytest.raises(ValueError, match="scaling factor"):
            build(maps + [third], 2)


class TestBuild:
    def test_gasket_level_counts(self, gasket2_l8):
        assert gasket2_l8.vertex_count(1) == 6
        assert gasket2_l8.vertex_count(2) == 15

    def test_snowflake_level1_count(self, snowflake_l5):
        assert snowflake_l5.vertex_count(1) == 6 * 7 - 12

    @pytest.mark.parametrize("fixture", ["gasket2_l8", "gasket3_l8", "snowflake_l5"])
    def test_counts_match_closed_form(self, fixture, request):
        system = request.getfixturevalue(fixture)
        expected = closed_form_counts(system, system.max_level)
        for m in range(system.max_level + 1):
            assert system.vertex_count(m) == round(expected[m])

    def test_interval_is_valid_nested_fractal(self, interval_l5):
        assert validate(interval_l5).all_ok
        assert [interval_l5.vertex_count(m) for m in range(4)] == [2, 3, 5, 9]

    def test_symplex_count_and_addresses(self, gasket2_l8):
        for m in (1, 2, 3):
            assert gasket2_l8.cells[m].shape == (3**m, 3)
        addr = [cell_address(gasket2_l8, 2, k) for k in range(9)]
        assert len(set(addr)) == 9
        assert addr[0] == (1, 1) and addr[-1] == (3, 3)

    def test_monotone_inclusion(self, gasket2_l8):
        sys_ = gasket2_l8
        for m in range(sys_.max_level):
            lifted = sys_.promote[m]
            assert lifted.shape == (sys_.vertex_count(m),)
            np.testing.assert_allclose(
                sys_.points[m + 1][lifted], sys_.points[m], atol=1e-12
            )

    def test_points_in_symplex_counts(self, snowflake_l5):
        # #(V_n ∩ S) = #V_{n-m} for every level-m symplex
        for m in (1, 2):
            for n in (3, 4):
                for s in (0, snowflake_l5.M**m - 1):
                    got = len(points_in_symplex(snowflake_l5, m, s, n))
                    assert got == snowflake_l5.vertex_count(n - m)

    def test_point_cap(self):
        maps, _ = load_maps("gasket2")
        with pytest.raises(PointCapExceeded):
            build(maps, 9, max_points=100)

    def test_int32_id_range_refused_whatever_the_cap(self, monkeypatch):
        # Level 19 of gasket2 has 3^20 candidates, more than int32 ids can
        # number.  The cap loop refuses it before the first level is merged.
        def merge(*args):
            raise AssertionError("a table was built past the id-range check")

        monkeypatch.setattr(fel.ifs, "_merge", merge)
        refused = f"level 19 needs {3**20} candidate points; .* at most {2**31 - 1}$"
        with pytest.raises(PointCapExceeded, match=refused):
            build(maps_of("gasket2"), 20, max_points=10**12)

    def test_build_retains_int32_ids(self):
        # What build(gasket2, 11) leaves allocated is its points, 4 bytes per
        # id of cells, promote and new_vertices, and under 64 KiB besides.
        maps = maps_of("gasket2")
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            system = build(maps, 11)
            retained = tracemalloc.get_traced_memory()[0] - held
        finally:
            tracemalloc.stop()
        points = sum(p.nbytes for p in system.points)
        ids = sum(a.size for table in (system.cells, system.promote, system.new_vertices)
                  for a in table)
        assert retained < points + 4 * ids + 2**16

    def test_build_peaks_at_its_tables(self):
        # Beyond what it keeps, build(gasket2, 11) holds at most one map image
        # of V_10 and the M * #V_10 int32 candidate ids of V_11, plus 256 KiB.
        # Holding all M images, or bincounts of a level, breaks the bound.
        maps = maps_of("gasket2")
        tracemalloc.start()
        try:
            system = build(maps, 11)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = system.vertex_count(10)
        assert peak - retained < 8 * system.dim * n + 4 * system.M * n + 2**18

    def test_build_reproducible_bitwise(self):
        a = make_system("gasket2", 4)
        b = make_system("gasket2", 4)
        for m in range(5):
            assert np.array_equal(a.points[m], b.points[m])
            assert np.array_equal(a.cells[m], b.cells[m])

    @pytest.mark.parametrize("name", sorted(BUILD_DIGESTS))
    def test_build_digests_pinned(self, name):
        pinned = dict(BUILD_DIGESTS[name])
        system = build(maps_of(name), pinned.pop("level"))
        assert build_digests(system) == pinned
        for table in (system.cells, system.promote, system.new_vertices):
            assert all(a.dtype == np.int32 for a in table)

    def test_count_vertices_agrees_with_stored(self, gasket2_l8):
        # The geometric oracle's counts equal the combinatorial build's.
        counts = count_vertices(gasket2_l8.maps, 8)
        assert counts == [gasket2_l8.vertex_count(m) for m in range(9)]


class TestGeometricOracle:
    @pytest.mark.parametrize("name", ["gasket2", "gasket3", "snowflake", *EXAMPLE_LEVELS])
    def test_build_matches_oracle(self, name):
        # Levels past 1 come from the V_1 gluing table; the oracle merges
        # every candidate by distance and must give the same bits.
        assert_matches_geometric(build(maps_of(name), EXAMPLE_LEVELS.get(name, 6)))

    def test_locate_roundtrip(self, gasket2_l8):
        ids = locate(gasket2_l8, gasket2_l8.points[2], 2)
        assert np.array_equal(ids, np.arange(gasket2_l8.vertex_count(2)))
        assert locate(gasket2_l8, np.array([[5.0, 5.0]]), 2)[0] == -1


class TestNeighborhoods:
    def test_self_membership_and_symmetry(self, gasket2_l8):
        hood = symplex_neighborhoods(gasket2_l8, 2)
        for s, members in enumerate(hood.members):
            assert s in members
            for t in members:
                assert s in hood.of(t)

    def test_gasket_level1_all_touch(self, gasket2_l8):
        hood = symplex_neighborhoods(gasket2_l8, 1)
        for s in range(3):
            assert list(hood.of(s)) == [0, 1, 2]

    def test_snowflake_center_touches_all(self, snowflake_l5):
        hood = symplex_neighborhoods(snowflake_l5, 1)
        # the 7th map is the center cell
        assert len(hood.of(6)) == 7

    def test_sstar_guarantee_holds_at_m1(self, gasket2_l8, snowflake_l5):
        # Brute-force all-pairs check of the S_* localization at m = 1.
        for system, n in ((gasket2_l8, 4), (snowflake_l5, 3)):
            hood = symplex_neighborhoods(system, 1)
            members = {s: set(points_in_symplex(system, 1, s, n).tolist())
                       for s in range(system.M)}
            pts = system.points[n]
            d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            ii, jj = np.nonzero((d < system.c0 / system.L) & (d > 0))
            for x, y in zip(ii.tolist(), jj.tolist()):
                ok = any(
                    x in members[s] and any(y in members[t] for t in hood.of(s))
                    for s in range(system.M)
                )
                assert ok

    @staticmethod
    def _sstar_violations(system, m, n):
        hood = symplex_neighborhoods(system, m)
        members = {s: set(points_in_symplex(system, m, s, n).tolist())
                   for s in range(system.M**m)}
        pts = system.points[n]
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        ii, jj = np.nonzero((d < system.c0 / system.L**m) & (d > 0))
        bad = []
        for x, y in zip(ii.tolist(), jj.tolist()):
            ok = any(
                any(y in members[t] for t in hood.of(s))
                for s in range(system.M**m)
                if x in members[s]
            )
            if not ok:
                bad.append((x, y))
        return bad

    def test_sstar_guarantee_clean_at_small_scale(self, gasket2_l8):
        # All-pairs scan to level 4 finds no pair violating the S_* guarantee.
        for m in (1, 2):
            for n in (3, 4):
                assert not self._sstar_violations(gasket2_l8, m, n)

    def test_sstar_guarantee_fails_at_m2_n5(self, gasket2_l8):
        # Known defect of the vertex-sharing neighborhood: 2-cells that touch
        # nowhere carry point pairs closer than c0/L^2 once both endpoints are
        # edge-interior (first at n = 5).  Pins the geometry that rules out
        # vertex-sharing neighborhoods as a filter for cutoff pairs.
        bad = self._sstar_violations(gasket2_l8, 2, 5)
        assert bad
        pts = gasket2_l8.points[5]
        x, y = bad[0]
        assert np.linalg.norm(pts[x] - pts[y]) < gasket2_l8.c0 / 4


class TestComponents:
    def test_chain_takes_several_rounds(self):
        # The path 15 - 14 - ... - 0, edges listed from the far end: label 0
        # needs several rounds to reach node 15.
        edges = [(k + 1, k) for k in reversed(range(15))]
        np.testing.assert_array_equal(components(16, edges), np.zeros(16))

    def test_separate_components_and_isolated_nodes(self):
        edges = [(7, 3), (3, 9), (9, 0), (5, 1), (8, 5), (2, 6), (6, 6)]
        np.testing.assert_array_equal(components(11, edges),
                                      [0, 1, 2, 0, 4, 1, 2, 0, 1, 0, 10])

    def test_no_edges(self):
        np.testing.assert_array_equal(components(4, []), np.arange(4))
        assert components(0, []).shape == (0,)


class TestValidate:
    @pytest.mark.parametrize("name", ["gasket2", "gasket3", "snowflake", *EXAMPLE_LEVELS])
    def test_presets_pass(self, name, request):
        fixture = {"gasket2": "gasket2_l8", "gasket3": "gasket3_l8",
                   "snowflake": "snowflake_l5"}.get(name)
        system = (request.getfixturevalue(fixture) if fixture else
                  build(maps_of(name), EXAMPLE_LEVELS[name], run_validation=False))
        report = validate(system)
        assert report.all_ok
        assert report.nesting_depth == 3
        assert report.failures == []

    def test_close_pairs_far_apart_keys(self):
        # Keys 1e10 apart on every axis: packing them into one int64 index
        # overflowed; key rows are sorted as rows.
        a = np.array([[0.0, 0.0, 0.0], [1e7, 1e7, 1e7]])
        assert set(map(tuple, _close_pairs(np.concatenate([a, a]), 1e-3).tolist())) == {
            (0, 2), (1, 3)}
        assert _close_pairs(np.concatenate([a, a[1:] + 1.0]), 1e-3).shape == (0, 2)
        assert set(map(tuple, _close_pairs(np.concatenate([a, a[1:] + 1e-4]), 1e-3).tolist())) \
            == {(1, 2)}

    def test_perturbed_gasket_fails_symmetry(self):
        # A horizontal slide of psi_3 keeps the three cells meeting in single
        # shared vertices (nesting survives) but makes V_0 scalene, so the
        # symmetry condition is what breaks.
        maps = perturbed_gasket_maps(0.1, 0.0)
        with pytest.raises(ConditionViolation) as err:
            build(maps, 3)
        assert err.value.condition == 5
        system = build(maps, 3, run_validation=False)
        report = validate(system)
        assert report.nesting_ok
        assert not report.symmetry_ok
        assert report.first_violation() == 5
        assert report.failures == [
            f"symmetry: reflection across pair {pair} does not permute V_0"
            for pair in ((0, 1), (0, 2), (1, 2))
        ]

    def test_overlapping_interval_fails_nesting(self):
        # The middle copy of [0,1] overlaps its neighbors on whole segments,
        # producing coincident non-vertex points at depth 1.
        system = build(overlapping_interval_maps(), 3, run_validation=False)
        report = validate(system)
        assert not report.nesting_ok
        assert report.first_violation() == 3
        assert report.failures == [
            "nesting: cells 1 and 2 meet off-vertex near [0.375] at depth 1",
            "symmetry: reflection across pair (0, 1) does not permute V_0",
            "symmetry: reflection across pair (1, 2) does not permute V_0",
        ]
        # Past level 1 the build assumes nesting, so coincident points that are
        # not glued images of V_0 stay apart; the geometric merge finds 9, 17.
        assert [system.vertex_count(m) for m in range(4)] == [3, 5, 11, 29]
        assert count_vertices(system.maps, 3) == [3, 5, 9, 17]
        with pytest.raises(ConditionViolation) as err:
            build(overlapping_interval_maps(), 3)
        assert err.value.condition == 3

    def test_rotated_gasket_fails_connectivity(self):
        # psi_3 rotated: its fixed point stops being essential and its cell
        # floats free of the other two.
        system = build(rotated_gasket_maps(), 3, run_validation=False)
        assert system.M0 == 2
        report = validate(system)
        assert report.nesting_ok
        assert not report.connectivity_ok
        assert report.first_violation() == 4
        assert report.failures == [
            "connectivity: the level-1 neighbor graph is disconnected",
            "symmetry: reflection across pair (0, 1) does not map cell 3 onto a cell",
        ]
