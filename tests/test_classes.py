"""Pair sums by placement class against the walk, and the nested fractals of
examples/ (Vicsek set, pentagasket, hexagasket, flipped gasket)."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fel import classes, lipschitz
from fel.classes import class_coefficient_table, spec_coefficient_table
from fel.cli import main
from fel.energy import energy_sequence, parse_function_spec, random_corpus
from fel.harmonic import solve_ndhs
from fel.ifs import build
from fel.lipschitz import (LipschitzParams, b_coefficient, batch_norm_reports,
                           coefficient_table, default_params, norm_report)
from fel.presets import load_maps

from helpers import brute_force_degrees, degrees_match, walk_degrees

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def solved(name, level):
    source = EXAMPLES / f"{name}.json" if (EXAMPLES / f"{name}.json").exists() else name
    system = build(load_maps(source)[0], level)
    return system, solve_ndhs(system)


# rho from decimation-reproduction, against its closed form.  Two of them by
# hand from the decimation on V_1, where each cell carries a copy of the
# fixed-point form A and resistances between V_0 points are rho times A's:
# * Vicsek set: between opposite corners of V_0, the current runs through
#   three cells in series, corner cell - centre cell - corner cell, each
#   between diagonal corners (the other two corner cells are dead ends), so
#   the resistance is 3 times A's between diagonal corners: rho = 3.
# * hexagasket: each cell meets its neighbours at the corners next but one
#   to its V_0 point.  By symmetry A traced onto those three corners is a
#   triangle of equal conductances c, so A's resistance between corners two
#   apart is 2/(3c).  In V_1 a cell whose V_0 point is free is an edge of
#   conductance 3c/2 between its junctions.  From p_0 to p_2, the two end
#   triangles turned into stars (legs 1/(3c)) leave two paths between their
#   centres, of 4/(3c) and 8/(3c), so the resistance is
#   1/(3c) + 8/(9c) + 1/(3c) = 14/(9c) = (7/3) (2/(3c)): rho = 7/3.
CLOSED_FORMS = {
    "vicsek": 3.0,
    "pentagasket": (9.0 + math.sqrt(161.0)) / 10.0,   # Adams, Smith, Strichartz & Teplyaev 2003
    "hexagasket": 7.0 / 3.0,
    "flipped-gasket": 5.0 / 3.0,
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_example_rho_matches_closed_form(name):
    _, hs = solved(name, 2)
    assert hs.rho == pytest.approx(CLOSED_FORMS[name], rel=1e-12, abs=0.0)


def test_flipped_gasket_matches_gasket2():
    # Every flipped map is det -1, so its placements carry an orthogonal part.
    # Each cell lists its corners in another slot order, which reorders the
    # three edge terms of its energy: energies agree to rounding, not in bits.
    level = 7
    plain, plain_hs = solved("gasket2", level)
    flipped, flipped_hs = solved("flipped-gasket", level)
    assert flipped_hs.rho.hex() == plain_hs.rho.hex()
    assert [flipped.vertex_count(m) for m in range(level + 1)] == \
        [plain.vertex_count(m) for m in range(level + 1)]
    specs = [parse_function_spec(t) for t in ("coord:0", "coord:1", "harmonic:0.3,-1,0.8")]
    for spec in specs:
        a = energy_sequence(plain, plain_hs, spec.sample(plain, plain_hs, level)).entries
        b = energy_sequence(flipped, flipped_hs, spec.sample(flipped, flipped_hs, level)).entries
        np.testing.assert_allclose([e for _, e in b], [e for _, e in a], rtol=1e-15, atol=0.0)
    ms = list(range(1, level))
    tables = [class_coefficient_table(s, h, specs, level, ms, default_params(s, h))
              for s, h in ((plain, plain_hs), (flipped, flipped_hs))]
    np.testing.assert_allclose(tables[1], tables[0], rtol=1e-12, atol=0.0)


# n = 2 makes the level-1 cell pairs the leaves, with no level between.
CASES = [("gasket2", 7), ("gasket3", 5), ("snowflake", 4), ("vicsek", 4), ("pentagasket", 4),
         ("hexagasket", 4), ("flipped-gasket", 4), ("gasket2", 2), ("gasket3", 2),
         ("snowflake", 2)]


@pytest.mark.parametrize("name, level", CASES)
def test_class_path_matches_walk(name, level):
    system, hs = solved(name, level)
    specs = random_corpus(system, 4, seed=level) + [parse_function_spec(
        "harmonic:" + ",".join(["0.25"] * system.M0))]
    values = np.column_stack([s.sample(system, hs, level).values for s in specs])
    ms = list(range(1, level))
    for base in ("L", 2.0):
        params = default_params(system, hs, base)
        walk = coefficient_table(system, values, level, ms, params)
        by_class = class_coefficient_table(system, hs, specs, level, ms, params)
        # The constant: its class coefficients vanish exactly; the walk sees
        # the rounding of the harmonic extension, far below the others.
        assert (by_class[:, -1] == 0.0).all()
        assert walk[:, -1].max() <= 1e-12 * walk[:, :-1].min()
        np.testing.assert_allclose(by_class[:, :-1], walk[:, :-1], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name, level", [("pentagasket", 3), ("hexagasket", 3), ("vicsek", 3),
                                         ("flipped-gasket", 5)])
def test_example_pair_sets_match_brute_force(name, level):
    # The walk's pair set on the systems whose leaves moved up to level
    # n - 1 (the gasket walks always ended there), off a lattice on the
    # pentagasket and with orthogonal parts on the flipped gasket.
    system = build(load_maps(EXAMPLES / f"{name}.json")[0], level)
    for radius in system.c0 / np.array([2.0, system.L, system.L**2]):
        assert degrees_match(walk_degrees(system, level, radius),
                             brute_force_degrees(system, level, radius))


@pytest.mark.parametrize("field", ["alpha", "d", "c0", "base"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_params_reject_each_field(field, bad):
    good = {"alpha": 0.9, "d": 1.5, "c0": 1.0, "base": 2.0}
    with pytest.raises(ValueError, match="need finite alpha > 0"):
        LipschitzParams(**{**good, field: bad})


def test_params_reject_base_one():
    with pytest.raises(ValueError, match="base > 1"):
        LipschitzParams(alpha=0.9, d=1.5, c0=1.0, base=1.0)


@pytest.mark.parametrize("data", ["nan,0,0", "inf,0,0", "1,-inf,0"])
def test_non_finite_data_gives_nan_quietly(gasket2_l8, gasket2_hs, data):
    spec = parse_function_spec("harmonic:" + data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = class_coefficient_table(gasket2_l8, gasket2_hs, [spec], 5, [1, 2],
                                        default_params(gasket2_l8, gasket2_hs))
    assert np.isnan(table).all()


@pytest.mark.parametrize("spec, hs, message", [
    ("perturb:coord:0:3:0.5", True, "takes only coord and harmonic"),
    ("coord:2", True, "coordinate 2 out of range"),
    ("harmonic:1,0", True, "harmonic data must have 3"),
    ("coord:0", False, "requires a solved harmonic structure"),
])
def test_class_path_rejects_what_it_cannot_sum(gasket2_l8, gasket2_hs, spec, hs, message):
    with pytest.raises(ValueError, match=message):
        class_coefficient_table(gasket2_l8, gasket2_hs if hs else None,
                                [parse_function_spec(spec)], 4, [1],
                                default_params(gasket2_l8, gasket2_hs))


def test_nan_corpus_line_is_excluded(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("harmonic:nan,0,0\nharmonic:1,0,0\n", encoding="utf-8")
    assert main(["equivalence", "gasket2", "--corpus", str(corpus), "--mmax", "2",
                 "--level", "5"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1] == '"harmonic:nan,0,0",nan,nan,undefined'
    assert err.splitlines()[-1] == "excluded (undefined ratio): harmonic:nan,0,0"


def test_huge_data_keeps_finite_coefficients(capsys):
    # The walk printed 1.0463613329172623e+308 and 1.2315077394454729e+308.
    assert main(["lipschitz", "gasket2", "--function", "harmonic:1e308,-1e308,0",
                 "--mmax", "2", "--level", "4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    np.testing.assert_allclose([[float(v) for v in r[1:]] for r in rows],
                               [[1.0463613329172623e+308] * 2, [1.2315077394454729e+308] * 2],
                               rtol=1e-12, atol=0.0)


def test_raw_data_and_perturb_take_the_walk(gasket2_l8, gasket2_hs, monkeypatch):
    walked, classed = [], []
    walk, by_class = lipschitz.pair_power_sums, classes.class_coefficient_table
    monkeypatch.setattr(lipschitz, "pair_power_sums",
                        lambda system, n, radii, values: walked.append(values.shape) or
                        walk(system, n, radii, values))
    monkeypatch.setattr(classes, "class_coefficient_table",
                        lambda system, hs, specs, *rest: classed.append(len(specs)) or
                        by_class(system, hs, specs, *rest))
    params = default_params(gasket2_l8, gasket2_hs)
    specs = [parse_function_spec(t) for t in
             ("coord:0", "perturb:harmonic:0,1,0:3:0.5", "harmonic:1,0,0")]
    table = spec_coefficient_table(gasket2_l8, gasket2_hs, specs, 5, [1, 2], params)
    assert classed == [2] and walked == [(gasket2_l8.vertex_count(5), 1)]
    f = specs[1].sample(gasket2_l8, gasket2_hs, 5)
    walked_alone = coefficient_table(gasket2_l8, f.values, 5, [1, 2], params)
    assert table[:, 1].tolist() == walked_alone.tolist()
    b_coefficient(gasket2_l8, f, 2, params)
    coefficient_table(gasket2_l8, f.values, 5, [1], params)
    assert classed == [2] and len(walked) == 4


def test_report_alone_equals_report_in_corpus(gasket2_l8, gasket2_hs, snowflake_l5,
                                              snowflake_hs):
    specs = random_corpus(gasket2_l8, 4, seed=3) + [
        parse_function_spec("perturb:harmonic:0,1,0:3:0.5")]
    corpus = batch_norm_reports(gasket2_l8, gasket2_hs, specs, 3, 6)
    for spec, report in zip(specs, corpus):
        assert norm_report(gasket2_l8, gasket2_hs, spec, 3, 6) == report
    # A walk over several columns chunks its pairs by their number, so each
    # perturb: spec of a corpus takes a walk of its own.
    specs = [parse_function_spec(t) for t in ("perturb:harmonic:1,0,0,0,0,0:5:0.5",
                                              "perturb:coord:0:7:-0.25", "perturb:coord:1:3:2.0")]
    corpus = batch_norm_reports(snowflake_l5, snowflake_hs, specs, 3, 4)
    for spec, report in zip(specs, corpus):
        assert norm_report(snowflake_l5, snowflake_hs, spec, 3, 4) == report
