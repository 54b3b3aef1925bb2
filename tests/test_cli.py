import io
import json
import math
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fel
from fel import classes, harmonic, lipschitz
from fel.cli import main
from fel.energy import parse_function_spec
from fel.harmonic import solve_ndhs
from fel.presets import definition_from_maps, load_maps, write_definition
from fel.ifs import build, validate
from fel.render import render_svg

from helpers import (locate, make_system, overlapping_interval_maps, perturbed_gasket_maps,
                     rotated_gasket_maps)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_describe_gasket2(capsys):
    code, out, _ = run(capsys, "describe", "gasket2")
    assert code == 0
    assert "M: 3" in out
    assert "L: 2" in out
    assert "#V_2: 15" in out
    assert "condition 3 (nesting, verified to depth 3): pass" in out


def test_describe_with_ndhs(capsys):
    code, out, _ = run(capsys, "describe", "gasket2", "--with-ndhs")
    assert code == 0
    assert "rho: 1.666666666" in out
    assert "d_s: 1.365" in out


def test_solve_ndhs_output(capsys, tmp_path):
    trace = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "solve-ndhs", "gasket2", "--trace", str(trace))
    assert code == 0
    assert "rho: 1.666666666" in out
    assert "orbit class 0" in out
    lines = trace.read_text().splitlines()
    assert lines[0] == "iter,gap,rho_estimate"
    assert len(lines) >= 2


def test_energy_csv(capsys):
    code, out, _ = run(capsys, "energy", "gasket2",
                       "--function", "harmonic:1,0,0", "--levels", "0..4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,E_m,monotone_ok"
    assert len(lines) == 6
    for line in lines[1:]:
        m, e, mono = line.split(",")
        assert float(e) == pytest.approx(2.0, rel=1e-9)
        assert mono == "true"


def test_energy_at_level_zero(capsys):
    # V_0 alone: the system is built to level 1, as render builds it.
    code, out, _ = run(capsys, "energy", "gasket2", "--function", "harmonic:1,0,0",
                       "--levels", "0..0")
    assert code == 0
    assert out == "m,E_m,monotone_ok\n0,2,true\n"


@pytest.mark.parametrize("data, energy", [("nan,0,0", "nan"), ("1e200,0,0", "inf")])
def test_energy_csv_non_finite(capsys, data, energy):
    # nan and overflowing data give nan and inf energies, not numbers.
    code, out, _ = run(capsys, "energy", "gasket2", "--function", f"harmonic:{data}",
                       "--levels", "0..2")
    assert code == 0
    assert out == "m,E_m,monotone_ok\n" + "".join(f"{m},{energy},false\n" for m in range(3))


def test_equivalence_summary_ignores_corpus_order(capsys, tmp_path):
    # harmonic:1e200,0,0 has lip_norm = dirichlet_norm = inf, so its ratio is
    # nan: undefined and excluded, wherever it stands in the corpus.
    specs = ["harmonic:1e200,0,0", "harmonic:1,0,0"]
    summaries = []
    for order in (specs, specs[::-1]):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("\n".join(order) + "\n")
        code, out, err = run(capsys, "equivalence", "gasket2", "--corpus", str(corpus),
                             "--mmax", "2", "--level", "5")
        assert code == 0
        assert '"harmonic:1e200,0,0",inf,inf,undefined' in out.splitlines()
        assert "excluded (undefined ratio): harmonic:1e200,0,0" in err
        summaries.append(out.splitlines()[-1])
    assert summaries[0] == summaries[1]
    assert all(math.isfinite(float(v)) for v in summaries[0].split(",")[1:])


def test_lipschitz_csv_and_base_flag(capsys):
    code, out, _ = run(capsys, "lipschitz", "gasket2", "--function", "coord:0",
                       "--mmax", "2", "--level", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "m,a_m,b_m"
    first = lines[1].split(",")
    assert first[1] == first[2]  # L = 2: bases coincide
    code, out, _ = run(capsys, "lipschitz", "gasket2", "--function", "coord:0",
                       "--mmax", "2", "--level", "5", "--base", "L")
    rows = out.splitlines()[1].split(",")
    assert rows[1] == "" and rows[2] != ""


@pytest.mark.parametrize("fractal, expected_calls", [("gasket2", 1), ("snowflake", 2)])
def test_lipschitz_both_bases_share_one_table_when_l_is_2(capsys, monkeypatch, fractal,
                                                         expected_calls):
    # L = 2 makes the base-2 and base-L parameters equal, so one table fills
    # both columns; the snowflake (L = 3) needs two.  Either way the CSV is the
    # one that two separate tables give.  coord:0 takes the class path.
    calls = []
    table = classes.class_coefficient_table

    def spy(*args):
        calls.append(args)
        return table(*args)

    monkeypatch.setattr(classes, "class_coefficient_table", spy)
    code, out, _ = run(capsys, "lipschitz", fractal, "--function", "coord:0",
                       "--mmax", "2", "--level", "4")
    assert code == 0
    assert len(calls) == expected_calls
    system = make_system(fractal, 4)
    hs = solve_ndhs(system)
    spec = parse_function_spec("coord:0")
    a_col, b_col = (table(system, hs, [spec], 4, [1, 2],
                          lipschitz.default_params(system, hs, base))[:, 0]
                    for base in (2.0, "L"))
    assert out == "m,a_m,b_m\n" + "".join(f"{m},{a:.17g},{b:.17g}\n"
                                          for m, a, b in zip((1, 2), a_col, b_col))


def test_equivalence_runs_one_level(capsys, monkeypatch, tmp_path):
    levels = []
    reports = lipschitz.batch_norm_reports

    def spy(system, hs, specs, m_max, n):
        levels.append(n)
        return reports(system, hs, specs, m_max, n)

    monkeypatch.setattr(lipschitz, "batch_norm_reports", spy)
    code, _, _ = run(capsys, "equivalence", "gasket2", "--corpus", str(tmp_path / "c.txt"),
                     "--generate-corpus", "2", "--mmax", "2", "--level", "5")
    assert code == 0
    assert levels == [5]


def test_equivalence_csv_and_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    args = ["equivalence", "gasket2", "--corpus", str(corpus),
            "--generate-corpus", "3", "--seed", "11",
            "--mmax", "2", "--level", "5"]
    code1, out1, _ = run(capsys, *args)
    assert code1 == 0
    # second run re-reads the written corpus: byte-identical CSV
    code2, out2, _ = run(capsys, "equivalence", "gasket2", "--corpus", str(corpus),
                         "--mmax", "2", "--level", "5")
    assert code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "tag,lip_norm,dirichlet_norm,ratio"
    assert lines[-1].startswith("summary,")
    summary = lines[-1].split(",")
    assert float(summary[3]) >= 1.0


def test_render_counts_polygons(tmp_path, capsys):
    out_file = tmp_path / "g.svg"
    code, _, _ = run(capsys, "render", "gasket2", "--level", "1",
                     "--out", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    assert svg.count("<polygon") == 3
    code, _, _ = run(capsys, "render", "snowflake", "--level", "1",
                     "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().count("<polygon") == 7


def test_render_constant_function_single_color(tmp_path, capsys):
    out_file = tmp_path / "c.svg"
    code, _, _ = run(capsys, "render", "gasket2", "--level", "2",
                     "--function", "harmonic:1,1,1", "--out", str(out_file))
    assert code == 0
    svg = out_file.read_text()
    fills = {line.split('fill="')[1].split('"')[0]
             for line in svg.splitlines() if "<circle" in line}
    assert len(fills) == 1


def test_render_svg_rejects_unbuilt_level_and_wrong_values():
    system = make_system("gasket2", 2)
    with pytest.raises(ValueError, match="level 3 not built"):
        render_svg(system, 3)
    with pytest.raises(ValueError, match="vertex count"):
        render_svg(system, 1, np.zeros(system.vertex_count(2)))


def test_solve_ndhs_no_convergence_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(harmonic, "MAX_ITERATIONS", 1)
    code, _, err = run(capsys, "solve-ndhs", "snowflake")
    assert code == 2
    assert "numerical failure" in err


def test_render_rejects_3d(tmp_path, capsys):
    code, _, err = run(capsys, "render", "gasket3", "--level", "1",
                       "--out", str(tmp_path / "x.svg"))
    assert code == 3


def test_exit_code_missing_file(capsys):
    code, _, err = run(capsys, "describe", "/nonexistent/file.json")
    assert code == 3
    assert "error" in err


def test_exit_code_condition_violation(tmp_path, capsys):
    maps = perturbed_gasket_maps()
    from fel.presets import definition_from_maps
    path = tmp_path / "bad.json"
    write_definition(definition_from_maps(maps, "bad"), path)
    code, out, err = run(capsys, "describe", str(path))
    assert code == 1
    assert "condition 5 (symmetry): FAIL" in out


def test_exit_code_bad_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["describe"])  # missing fractal argument
    assert exc.value.code == 3


def run_fresh(*argv):
    """Run the CLI in a fresh interpreter, so an escaping exception would show
    its traceback on stderr."""
    src = str(Path(fel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "fel.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.mark.parametrize("mmax", ["0", "-2"])
def test_exit_code_empty_scale_list(mmax):
    proc = run_fresh("lipschitz", "gasket2", "--function", "coord:0",
                     "--mmax", mmax, "--level", "3")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "error: need at least one scale m" in proc.stderr


def test_energy_beyond_float_range_is_inf():
    # Two level-1 cells of about 9.8e307 each: their exact sum leaves the
    # float range, which gives inf, as overflowing data does.
    proc = run_fresh("energy", "gasket2", "--function", "perturb:harmonic:0,0,0:4:7e153",
                     "--levels", "1..1")
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert proc.stdout == "m,E_m,monotone_ok\n1,inf,true\n"


@pytest.mark.parametrize("argv, csv", [
    (["energy", "gasket2", "--function", "harmonic:1e200,0,0", "--levels", "0..2"],
     "m,E_m,monotone_ok\n0,inf,false\n1,inf,false\n2,inf,false\n"),
    (["energy", "gasket2", "--function", "harmonic:inf,0,0", "--levels", "0..2"],
     "m,E_m,monotone_ok\n0,inf,false\n1,nan,false\n2,nan,false\n"),
    (["lipschitz", "gasket2", "--function", "harmonic:inf,0,0", "--mmax", "2", "--level", "5"],
     "m,a_m,b_m\n1,nan,nan\n2,nan,nan\n"),
], ids=["energy-1e200", "energy-inf", "lipschitz-inf"])
def test_non_finite_data_leaves_stderr_clean(argv, csv):
    # inf and nan in the CSV are the answer; numpy's warnings are not shown.
    proc = run_fresh(*argv)
    assert proc.returncode == 0
    assert proc.stdout == csv
    assert proc.stderr == ""


def test_lipschitz_beyond_float_range_is_finite():
    # Squared increments of about 4.9e307 overflow when summed unscaled; the
    # coefficients themselves are near 1e153.
    proc = run_fresh("lipschitz", "gasket2", "--function", "perturb:harmonic:0,0,0:4:7e153",
                     "--mmax", "2", "--level", "5")
    assert proc.returncode == 0
    assert "overflow" not in proc.stderr
    assert "Traceback" not in proc.stderr
    rows = [line.split(",") for line in proc.stdout.splitlines()]
    assert rows[0] == ["m", "a_m", "b_m"] and [r[0] for r in rows[1:]] == ["1", "2"]
    assert all(math.isfinite(float(v)) for r in rows[1:] for v in r[1:])


_SCALE_TOKENS = ["0", "-1", "2.5", "x", "99", "1", "2", "3", "4"]
_LEVELS_TOKENS = ["0", "-1", "2.5", "x", "99", "3..1", "0..99", "-1..2", "0..2", "1..4"]
_FUNCTION_SPECS = [
    "coord:0", "coord:5", "coord:x", "harmonic:1,0,0", "harmonic:1,0", "harmonic:x,0,0",
    "harmonic:", "harmonic:nan,0,0", "harmonic:1,0,0,0,0,0", "perturb:coord:0:999:1",
    "perturb:coord:0:-1:1", "perturb:coord:0:1", "perturb:harmonic:0,0,0:4:7e153",
    "bogus", "",
]


@st.composite
def _malformed_argv(draw):
    function = draw(st.sampled_from(_FUNCTION_SPECS))
    if draw(st.booleans()):
        return ["energy", "gasket2", "--function", function,
                "--levels", draw(st.sampled_from(_LEVELS_TOKENS))]
    return ["lipschitz", "gasket2", "--function", function,
            "--mmax", draw(st.sampled_from(_SCALE_TOKENS)),
            "--level", draw(st.sampled_from(_SCALE_TOKENS))]


_DIMENSIONS = [2, 2.7, 2.0, 0, -1, 1, 3, True, "2", None, [2]]
_SCALES = [2.0, 1.0, 0.5, 0, -2.0, "2", "x", None, True, math.nan, math.inf]
_ENTRIES = [math.nan, math.inf, -math.inf, 1e300, "x", None, [1.0], True]
_FIELDS = [[], [1.0], [1.0] * 3, [1.0] * 9, [[1.0, 0.0], [0.0, 1.0]], "x", None, {}, 5]
_MAPS = [[], 5, "x", None, [[1, 2]], [5], [{}], {"rotation": [1.0], "translation": [0.0]}]


@st.composite
def _malformed_definition(draw):
    """gasket2's definition with its dimension, scale, one map's field, one
    entry of a field or the whole map list replaced."""
    definition = definition_from_maps(*load_maps("gasket2"))
    if draw(st.booleans()):
        definition["dimension"] = draw(st.sampled_from(_DIMENSIONS))
    if draw(st.booleans()):
        definition["scale"] = draw(st.sampled_from(_SCALES))
    k = draw(st.integers(0, 2))
    field = draw(st.sampled_from(["rotation", "translation"]))
    change = draw(st.sampled_from(["none", "entry", "field", "drop", "maps"]))
    if change == "entry":
        values = definition["maps"][k][field]
        values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(_ENTRIES))
    elif change == "field":
        definition["maps"][k][field] = draw(st.sampled_from(_FIELDS))
    elif change == "drop":
        del definition["maps"][k][field]
    elif change == "maps":
        definition["maps"] = draw(st.sampled_from(_MAPS))
    return definition


@st.composite
def _malformed_run(draw):
    """CLI argv on gasket2, or on a malformed definition file (None for gasket2)."""
    argv = draw(_malformed_argv())
    if draw(st.booleans()):
        return argv, None
    definition = draw(_malformed_definition())
    if draw(st.booleans()):
        argv = ["describe", "gasket2"]
    return argv, definition


# More examples than the profile's default: the draw space has about 1,400
# argv on gasket2 and many more definitions, and one example runs in
# milliseconds.
@settings(max_examples=150)
@given(_malformed_run())
def test_malformed_arguments_exit_cleanly(run_case):
    argv, definition = run_case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        if definition is not None:
            argv[1] = str(Path(tmp) / "bad.json")
            Path(argv[1]).write_text(json.dumps(definition), encoding="utf-8")
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse rejects a token with exit 3
            code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    # Exit 1 belongs to the ConditionViolation handler; gasket2 meets every
    # condition, a drawn definition may not.
    assert definition is not None or code != 1 or err.getvalue().startswith("error: condition ")


@pytest.mark.parametrize("dimension", [2.7, 0, -1, True, "2"])
def test_exit_code_malformed_dimension(tmp_path, dimension):
    # int() would truncate 2.7 to 2 and accept "2" and True; 0 would fail in numpy.
    definition = definition_from_maps(*load_maps("gasket2"))
    definition["dimension"] = dimension
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(definition), encoding="utf-8")
    proc = run_fresh("describe", str(path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "malformed fractal definition: dimension must be an integer >= 1" in proc.stderr


def test_negative_corpus_size_exits_3(tmp_path):
    corpus = tmp_path / "c.txt"
    proc = run_fresh("equivalence", "gasket2", "--corpus", str(corpus), "--generate-corpus",
                     "-1", "--mmax", "1", "--level", "3")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "corpus size must be >= 0" in proc.stderr
    assert not corpus.exists()


def test_negative_corpus_seed_exits_3(tmp_path):
    corpus = tmp_path / "c.txt"
    proc = run_fresh("equivalence", "gasket2", "--corpus", str(corpus), "--generate-corpus",
                     "2", "--seed", "-3", "--mmax", "1", "--level", "3")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "corpus seed must be >= 0 (got -3)" in proc.stderr
    assert not corpus.exists()


# (maps, first failed condition, condition report) of each failing test system
FAILING_SYSTEMS = {
    "overlap": (overlapping_interval_maps, 3, """\
condition 1 (essential fixed points): pass
condition 3 (nesting, verified to depth 3): FAIL
condition 4 (connectivity): pass
condition 5 (symmetry): FAIL
  nesting: cells 1 and 2 meet off-vertex near [0.375] at depth 1
  symmetry: reflection across pair (0, 1) does not permute V_0
  symmetry: reflection across pair (1, 2) does not permute V_0
"""),
    "perturbed": (perturbed_gasket_maps, 5, """\
condition 1 (essential fixed points): pass
condition 3 (nesting, verified to depth 3): pass
condition 4 (connectivity): pass
condition 5 (symmetry): FAIL
  symmetry: reflection across pair (0, 1) does not permute V_0
  symmetry: reflection across pair (0, 2) does not permute V_0
  symmetry: reflection across pair (1, 2) does not permute V_0
"""),
    "rotated": (rotated_gasket_maps, 4, """\
condition 1 (essential fixed points): pass
condition 3 (nesting, verified to depth 3): pass
condition 4 (connectivity): FAIL
condition 5 (symmetry): FAIL
  connectivity: the level-1 neighbor graph is disconnected
  symmetry: reflection across pair (0, 1) does not map cell 3 onto a cell
"""),
}


@pytest.mark.parametrize("extra", [[], ["--with-ndhs"]], ids=["report", "with-ndhs"])
@pytest.mark.parametrize("name", sorted(FAILING_SYSTEMS))
def test_describe_non_nested_exits_1(tmp_path, capsys, name, extra):
    # The full report prints, then the first violation exits 1 before any solve.
    maps, condition, report = FAILING_SYSTEMS[name]
    path = tmp_path / f"{name}.json"
    write_definition(definition_from_maps(maps(), name), path)
    code, out, err = run(capsys, "describe", str(path), *extra)
    assert code == 1
    assert out.endswith(report)
    assert "rho:" not in out
    assert err.startswith(f"error: condition {condition} violated: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("field, index, text", [
    ("translation", 0, "NaN"), ("translation", 1, "1e400"), ("rotation", 0, "NaN"),
])
def test_exit_code_non_finite_definition(tmp_path, field, index, text):
    # Three halving maps of the plane, one entry of the third replaced by `text`.
    definition = {"name": "bad", "dimension": 2, "scale": 2.0,
                  "maps": [{"rotation": [1.0, 0.0, 0.0, 1.0], "translation": t}
                           for t in ([0.0, 0.0], [0.5, 0.0], [0.25, 0.5])]}
    definition["maps"][2][field][index] = "@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(definition).replace('"@"', text), encoding="utf-8")
    proc = run_fresh("describe", str(path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "must be finite" in proc.stderr


@pytest.mark.parametrize("maps", [
    5, [[1, 2]], [{"rotation": [1.0, 0.0, 0.0, 1.0]}], [{"rotation": {}, "translation": [0, 0]}],
])
def test_exit_code_malformed_maps(tmp_path, maps):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "dimension": 2, "scale": 2.0, "maps": maps}),
                    encoding="utf-8")
    proc = run_fresh("describe", str(path))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "error: " in proc.stderr


def test_exit_code_invariant_violation(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise fel.InvariantViolation("a vertex failed to persist to the next level")

    monkeypatch.setattr(fel.cli, "build", broken)
    code, _, err = run(capsys, "describe", "gasket2")
    assert code == 2
    assert "invariant violated: a vertex failed to persist" in err


def test_point_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("FEL_MAX_POINTS", "10")
    code, _, err = run(capsys, "describe", "gasket2")
    assert code == 3
    assert "cap" in err


def test_point_cap_flag(capsys):
    code, _, err = run(capsys, "energy", "gasket2", "--function", "coord:0", "--levels", "0..9",
                       "--max-points", "100")
    assert code == 3
    assert "error: level 4 needs 243 candidate points (cap 100)" in err


def test_int32_id_range_refused_whatever_the_cap(capsys, monkeypatch):
    # The cap loop refuses level 19 (3^20 candidates) before any table is built.
    def merge(*args):
        raise AssertionError("a table was built past the id-range check")

    monkeypatch.setattr(fel.ifs, "_merge", merge)
    monkeypatch.setenv("FEL_MAX_POINTS", str(10**12))
    code, _, err = run(capsys, "energy", "gasket2", "--function", "coord:0", "--levels", "0..20")
    assert code == 3
    assert f"error: level 19 needs {3**20} candidate points; int32 vertex ids allow at most " \
        f"{2**31 - 1}" in err


def test_equivalence_with_every_function_excluded(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("harmonic:0,0,0\n", encoding="utf-8")
    code, out, err = run(capsys, "equivalence", "gasket2", "--corpus", str(corpus),
                         "--mmax", "2", "--level", "5")
    assert code == 0
    assert out.splitlines()[-1] == "summary,nan,nan,nan"
    assert err.splitlines()[-1] == "excluded (undefined ratio): harmonic:0,0,0"


def test_equivalence_scale_at_level_exits_3(tmp_path, capsys):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("harmonic:1,0,0\n", encoding="utf-8")
    code, out, err = run(capsys, "equivalence", "gasket2", "--corpus", str(corpus),
                         "--mmax", "5", "--level", "5")
    assert code == 3
    assert out == ""
    assert "error: need n > m for every m in [1, 2, 3, 4, 5] (n = 5)" in err


def test_export_roundtrip(tmp_path, capsys):
    exported = tmp_path / "g2.json"
    code, _, _ = run(capsys, "describe", "gasket2", "--export", str(exported))
    assert code == 0
    maps_a, _ = load_maps("gasket2")
    maps_b, name = load_maps(exported)
    sys_a = build(maps_a, 3)
    sys_b = build(maps_b, 3)
    # identical V_3 point sets under the merge tolerance, same report
    ids = locate(sys_a, sys_b.points[3], 3)
    assert (ids >= 0).all() and len(set(ids.tolist())) == sys_a.vertex_count(3)
    ra, rb = validate(sys_a), validate(sys_b)
    assert (ra.nesting_ok, ra.connectivity_ok, ra.symmetry_ok) == \
        (rb.nesting_ok, rb.connectivity_ok, rb.symmetry_ok)


def test_level_warning_to_stderr(capsys):
    code, _, err = run(capsys, "lipschitz", "gasket2", "--function", "coord:0",
                       "--mmax", "3", "--level", "5")
    assert code == 0
    assert "m_max + 3" in err
