"""Tests of the benchmark itself: declared metrics, result line, oracle, spans.

Run from the root of the repository: python3 -m pytest perfbench/tests
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import fel  # noqa: E402
from fel import lipschitz as lip  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declared_names_and_units():
    metrics = DECLARED["end_to_end"] + DECLARED["per_layer"]
    names = [m["name"] for m in metrics + DECLARED["workloads"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in DECLARED["end_to_end"])
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in DECLARED["end_to_end"])}]
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)


def test_result_line_round_trips():
    units = {"wall_s": "s", "lipschitz.pairs_in_cutoff": "count"}
    metrics = {"wall_s": 21.600000000000001 / 3.0, "lipschitz.pairs_in_cutoff": 30388989}
    line = run.result_line(4, 0, metrics, units)
    back = json.loads(line)
    assert back == {"correct": True, "attempted": 4, "failed": 0,
                    "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}
    assert json.dumps(back, allow_nan=False) == line
    assert json.loads(run.result_line(4, 1, metrics, units))["correct"] is False
    with pytest.raises(ValueError):
        run.result_line(1, 0, {"wall_s": math.nan}, units)


def test_layer_metrics_are_declared_names():
    tracer = spans.Tracer("t")
    with tracer.span("op"):
        with tracer.span("lipschitz.coefficient_table", base="L", level=4):
            pass
        with tracer.span("lipschitz.coefficient", m=3, level=7):
            pass
    names = [m["name"] for m in DECLARED["per_layer"]]
    trace = {"spans": tracer.spans, "span_cost_s": 1e-6}
    assert set(run.layer_metrics(trace, names)) == set(names)


def test_self_time_subtracts_children():
    tracer = spans.Tracer("t")
    with tracer.span("op"):
        with tracer.span("child"):
            sum(range(20000))
        with tracer.span("child"):
            sum(range(20000))
    own = spans.self_times(tracer.spans)
    outer = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    children = sum(s["end"] - s["start"] for s in tracer.spans[1:])
    assert own[0] == pytest.approx(outer - children, abs=1e-12)
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    assert all(s["run"] == "t" for s in tracer.spans)


def test_traced_fel_times_the_cli_without_changing_its_output(tmp_path):
    argv = ["lipschitz", "gasket2", "--function", "harmonic:0.3,-1,0.8", "--mmax", "2",
            "--level", "4", "--base", "both"]
    originals = (fel.build, fel.cli.build, lip.coefficient_table, fel.FunctionSpec.sample)
    assert fel.cli.main(argv + ["--out", str(tmp_path / "plain.csv")]) == 0
    tracer = spans.Tracer("t")
    with spans.traced_fel(tracer), tracer.span("op"):
        assert fel.cli.main(argv + ["--out", str(tmp_path / "traced.csv")]) == 0
    assert (fel.build, fel.cli.build, lip.coefficient_table, fel.FunctionSpec.sample) \
        == originals
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
    names = [s["name"] for s in tracer.spans]
    assert names == ["op", "ifs.build", "ifs.validate", "harmonic.solve_ndhs",
                     "energy.sample", "lipschitz.coefficient_table",
                     "lipschitz.coefficient_table"]
    assert tracer.spans[2]["parent"] == 1  # build validates
    assert [s["tags"] for s in tracer.spans[-2:]] == [{"base": "L", "level": 4}] * 2
    assert tracer.counts == {"ifs.vertices": 123, "harmonic.iterations": 1}
    assert [(c["level"], c["ms"]) for c in tracer.calls] == [(4, [1, 2])] * 2


def test_b_coefficient_span_covers_its_table():
    maps, name = fel.load_maps("gasket2")
    system = fel.build(maps, 4, name=name)
    hs = fel.solve_ndhs(system)
    f = fel.parse_function_spec("coord:0").sample(system, hs, 4)
    tracer = spans.Tracer("t")
    with spans.traced_fel(tracer):
        b = fel.b_coefficient(system, f, 2, fel.default_params(system, hs, base="L"))
    assert [(s["name"], s["tags"]) for s in tracer.spans] == \
        [("lipschitz.coefficient", {"m": 2, "level": 4})]
    assert tracer.calls[0]["table"].tolist() == [b]


def test_span_cost_is_small():
    assert 0.0 <= spans.span_cost(repeats=200, rounds=3) < 1e-3


# -- the oracle ---------------------------------------------------------------


@pytest.fixture(scope="module")
def gasket():
    maps, name = fel.load_maps("gasket2")
    system = fel.build(maps, 5, name=name)
    hs = fel.solve_ndhs(system)
    f = fel.parse_function_spec("harmonic:0.3,-1,0.8").sample(system, hs, 5).values
    return system, hs, f


def brute_terms(system, f, level, radius):
    """Every unordered pair: its distance and its term (f(x) - f(y))^2."""
    pts = system.points[level]
    i, j = np.triu_indices(len(pts), k=1)
    dist = np.sqrt(((pts[i] - pts[j]) ** 2).sum(axis=1))
    return dist, (f[i] - f[j]) ** 2


def test_pair_sums_bracket_the_ties(gasket):
    system, _, f = gasket
    radius = system.c0 / 4.0
    dist, terms = brute_terms(system, f, 5, radius)
    tie = np.abs(dist - radius) <= oracle.TIE_BAND * radius
    assert tie.sum() > 0, "the cutoff must hit lattice distances for this test"
    sums = oracle.pair_sums(system.points[5], f, [radius])
    assert sums.low[0, 0] == pytest.approx(terms[(dist < radius) & ~tie].sum(), rel=1e-13)
    assert sums.high[0, 0] == pytest.approx(terms[(dist < radius) | tie].sum(), rel=1e-13)
    assert sums.high_count[0] - sums.low_count[0] == tie.sum()
    assert sums.low[0, 0] <= sums.rounded[0, 0] <= sums.high[0, 0]


def test_oracle_accepts_each_tie_convention_and_rejects_a_dropped_pair(gasket):
    system, hs, f = gasket
    params = fel.default_params(system, hs, base="L")
    m, n_points = 2, system.vertex_count(5)
    radius = params.cutoff(m)
    dist, terms = brute_terms(system, f, 5, radius)
    tie = np.abs(dist - radius) <= oracle.TIE_BAND * radius
    inside = (dist < radius) & ~tie
    tables, sums = workloads.Workload(0, Path(".")).conventions(
        system, hs, 5, f, params.base, [m])
    expected = [t[0, 0] for t in tables]

    def coefficient(pair_sum):
        return oracle.coefficient(pair_sum, m, params.base, params.alpha, params.d, n_points)

    ties_out = coefficient(math.fsum(terms[inside]))
    ties_in = coefficient(math.fsum(terms[inside | tie]))
    rounding = lip.coefficient_table(system, f, 5, [m], params)[0]
    assert ties_in > ties_out * (1 + 1e-6), "the tie band must matter in this test"
    for accepted in (ties_out, ties_in, rounding):
        assert oracle.matches(accepted, expected)
    assert oracle.matches(rounding, [expected[2]])
    big = np.flatnonzero(inside)[np.argmax(terms[inside])]
    typical = np.flatnonzero(inside)[np.argsort(terms[inside])[inside.sum() // 2]]
    assert terms[typical] > 1e-6 * sums.low[0, 0]
    for dropped in (big, typical):
        for pair_sum in (sums.low[0, 0], sums.high[0, 0], sums.rounded[0, 0]):
            assert not oracle.matches(coefficient(pair_sum - terms[dropped]), expected)
    outside = np.flatnonzero(dist > radius * 1.5)[0]
    assert not oracle.matches(coefficient(sums.high[0, 0] + terms[outside]), expected)


def test_oracle_matches_coefficient_table_on_many_columns(gasket):
    system, hs, _ = gasket
    specs = fel.random_corpus(system, 6, seed=3)
    values = np.column_stack([s.sample(system, hs, 5).values for s in specs])
    for base in ("L", 2.0):
        params = fel.default_params(system, hs, base=base)
        table = lip.coefficient_table(system, values, 5, [1, 2, 3], params)
        tables, _ = workloads.Workload(0, Path(".")).conventions(
            system, hs, 5, values, params.base, [1, 2, 3])
        assert oracle.matches(table, tables)
        assert oracle.matches(table, [tables[2]])


def test_small_blocks_give_the_same_sums(gasket, monkeypatch):
    system, _, f = gasket
    radii = [system.c0 / 2.0, system.c0 / 8.0]
    whole = oracle.pair_sums(system.points[5], f, radii)
    monkeypatch.setattr(oracle, "BLOCK_ELEMENTS", 64)
    blocked = oracle.pair_sums(system.points[5], f, radii)
    np.testing.assert_allclose(blocked.low, whole.low, rtol=1e-13)
    np.testing.assert_allclose(blocked.high, whole.high, rtol=1e-13)
    np.testing.assert_allclose(blocked.rounded, whole.rounded, rtol=1e-13)
    assert (blocked.low_count == whole.low_count).all()


def test_energy_reference_matches_fel(gasket):
    system, hs, _ = gasket
    for data in ([0.3, -1.0, 0.8], np.linspace(-1, 1, system.vertex_count(1))):
        spec = fel.parse_function_spec("harmonic:" + ",".join(map(workloads.fmt, data)))
        f = spec.sample(system, hs, 4)
        assert workloads.data_energy(system, hs, spec.data) == pytest.approx(
            fel.energy_m(system, hs, f), rel=1e-12)


# -- the command ----------------------------------------------------------------


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "energy-deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_run_reports_every_declared_metric(trace):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "lipschitz-snowflake", "--seed", "5", "--seconds", "1",
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {n: e["unit"] for n, e in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
