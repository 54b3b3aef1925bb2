"""The benchmark's workloads.

Each workload is one operation that a single caller repeats in a closed loop:

* ``run`` is the operation as a user runs it.  The two CLI workloads call
  ``fel.cli.main`` in-process; the two library workloads call the public API
  through the ``fel`` package.  The traced replay is the same call inside
  ``spans.traced_fel``.
* ``check`` verifies one operation's output against the benchmark's own
  references, outside the timed region.  Later operations of a run are
  compared byte for byte with the verified output.

Inputs come only from the seed: the corpus seed of ``fel equivalence`` and
the random V_0 data of the single harmonic functions.
"""

from __future__ import annotations

import csv
import io
import math
from pathlib import Path

import numpy as np

import fel
from fel import cli

import oracle

FMT = "%.17g"              # the CLI's float format
RHO = {"gasket2": 5.0 / 3.0, "gasket3": 1.5}
RHO_TOL = 1e-9
RESIDUAL_TOL = 1e-10       # snowflake: |rho (De o R)(A) - A|, no closed form for rho
# Harmonic energies are constant in m to ENERGY_TOL * max(1, |E|), the scale
# of fel's MONOTONE_SLACK.  A purely relative 1e-9 is out of reach for nearly
# constant functions at gasket2 L12: energy_m's quadratic form loses about
# eps * sqrt(#cells) * rho^m * mean(f^2) / E (2.7e-9 relative at E = 0.026).
ENERGY_TOL = 1e-9
RATIO_TOL = 1e-12
CORPUS_SIZE = 18           # random functions; the coordinates come on top


def fmt(x) -> str:
    return FMT % float(x)


def seeded_harmonic(seed: int, count: int) -> str:
    """Harmonic spec with uniform random data on the #V_0 = count vertices."""
    data = np.random.default_rng(seed).uniform(-1.0, 1.0, size=count)
    return "harmonic:" + ",".join(fmt(v) for v in data)


def solve(preset: str, level: int):
    """load_maps, build (which validates) and solve_ndhs, as the CLI does."""
    maps, name = fel.load_maps(preset)
    system = fel.build(maps, level, name=name)
    return system, fel.solve_ndhs(system)


def csv_text(rows) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def exponents(system, rho: float) -> tuple[float, float]:
    """alpha = d_w / 2 and d = d_f from M, L and rho."""
    log_l = math.log(system.L)
    return math.log(system.M * rho) / (2.0 * log_l), math.log(system.M) / log_l


def data_energy(system, hs, data: np.ndarray) -> float:
    """Energy of harmonic data at its own level, summed edge by edge."""
    level = 0 if len(data) == system.M0 else 1
    cells = system.cells[level]
    a = hs.matrix.entries
    terms = [a[p, q] * (data[cells[:, p]] - data[cells[:, q]]) ** 2
             for p in range(system.M0) for q in range(p + 1, system.M0)]
    return hs.rho**level * math.fsum(np.concatenate(terms).tolist())


def close(value: float, reference: float, rel: float) -> bool:
    return abs(value - reference) <= rel * max(abs(reference), 1e-300)


def energy_close(value: float, reference: float) -> bool:
    return abs(value - reference) <= ENERGY_TOL * max(1.0, abs(reference))


def check_rho(preset: str, system, hs, failures: list[str]) -> None:
    if preset in RHO:
        if not close(hs.rho, RHO[preset], RHO_TOL):
            failures.append(f"{preset}: rho {hs.rho!r} is not {RHO[preset]!r}")
    elif not (hs.rho > 1.0 and hs.residual(system) <= RESIDUAL_TOL):
        failures.append(f"{preset}: rho {hs.rho!r} has residual {hs.residual(system):g}")


class Workload:
    """Base class: one operation per call of ``run``."""

    name = ""
    # (preset, level) pairs whose set-up a fresh process pays before any work
    setup: tuple[tuple[str, int], ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._oracle_cache: dict = {}
        self._solved: dict = {}

    def run(self) -> tuple[bytes, ...]:
        raise NotImplementedError

    def check(self, output: tuple[bytes, ...]) -> list[str]:
        raise NotImplementedError

    # -- helpers shared by the checks -----------------------------------

    def solved(self, preset: str, level: int):
        key = (preset, level)
        if key not in self._solved:
            self._solved[key] = solve(preset, level)
        return self._solved[key]

    def pair_sums(self, system, level: int, values: np.ndarray, radii) -> oracle.PairSums:
        key = (level, tuple(float(r) for r in radii))
        hit = self._oracle_cache.get(key)
        if hit is None or not np.array_equal(hit[0], values):
            hit = (values, oracle.pair_sums(system.points[level], values, radii))
            self._oracle_cache[key] = hit
        return hit[1]

    def conventions(self, system, hs, level, values, base, ms):
        """Oracle coefficient tables of one call, shape (len(ms), F), one per
        tie convention (ties out, ties in, rounding), and the pair sums."""
        radii = [system.c0 / base**m for m in ms]
        sums = self.pair_sums(system, level, values, radii)
        alpha, d = exponents(system, hs.rho)
        n_points = system.vertex_count(level)
        tables = [np.array([oracle.coefficient(pair_sum[k], m, base, alpha, d, n_points)
                            for k, m in enumerate(ms)])
                  for pair_sum in (sums.low, sums.high, sums.rounded)]
        return tables, sums

    def check_calls(self, calls: list[dict], failures: list[str]) -> int:
        """Check the coefficient tables a replay recorded (spans.Tracer.calls);
        return the pairs strictly inside the largest cutoff of each call."""
        pairs = 0
        for call in calls:
            system, hs = self.solved(self.preset, call["level"])
            tables, sums = self.conventions(
                system, hs, call["level"], call["values"], call["base"], call["ms"])
            if not oracle.matches(call["table"].reshape(tables[0].shape), tables):
                failures.append(f"coefficients at level {call['level']}, base "
                                f"{call['base']:g}, m = {call['ms']} miss the oracle")
            pairs += int(sums.low_count[int(np.argmin(call["ms"]))])
        return pairs


# -- fel equivalence gasket2 --------------------------------------------------


class Equivalence(Workload):
    name = "equivalence-g2"
    setup = (("gasket2", 8),)
    preset, level, m_max = "gasket2", 8, 6

    def argv(self):
        return ["equivalence", self.preset, "--corpus", str(self.workdir / "corpus.txt"),
                "--generate-corpus", str(CORPUS_SIZE), "--seed", str(self.seed),
                "--mmax", str(self.m_max), "--level", str(self.level),
                "--out", str(self.workdir / "ratios.csv")]

    def run(self):
        code = cli.main(self.argv())
        if code != 0:
            raise RuntimeError(f"fel equivalence exited with {code}")
        return ((self.workdir / "corpus.txt").read_bytes(),
                (self.workdir / "ratios.csv").read_bytes())

    def check(self, output):
        failures: list[str] = []
        corpus, table = (part.decode() for part in output)
        specs = [fel.parse_function_spec(line) for line in corpus.splitlines()]
        system, hs = self.solved(self.preset, self.level)
        check_rho(self.preset, system, hs, failures)
        if [s.tag for s in specs[:2]] != ["coord:0", "coord:1"] or len(specs) != 20 \
                or any(s.kind != "harmonic" for s in specs[2:]):
            return failures + [f"corpus of seed {self.seed} is not 2 coordinates "
                               f"+ {CORPUS_SIZE} harmonic functions"]
        rows = list(csv.reader(io.StringIO(table)))
        if rows[0] != ["tag", "lip_norm", "dirichlet_norm", "ratio"] or len(rows) != 22:
            return failures + ["ratios CSV does not have a header, 20 rows and a summary"]
        values = np.column_stack([s.sample(system, hs, self.level).values for s in specs])
        ms = list(range(1, self.m_max + 1))
        tables, _ = self.conventions(system, hs, self.level, values, system.L, ms)
        weight = 1.0 / system.vertex_count(self.level)
        ratios = []
        for col, (spec, row) in enumerate(zip(specs, rows[1:21])):
            tag, lip_n, dir_n, ratio = row[0], float(row[1]), float(row[2]), float(row[3])
            f = values[:, col]
            l2 = math.sqrt(math.fsum((f * f * weight).tolist()))
            if tag != spec.tag:
                failures.append(f"row {col + 1} is {tag!r}, corpus has {spec.tag!r}")
            if not oracle.matches(lip_n, [l2 + t[:, col].max() for t in tables]):
                failures.append(f"{tag}: lip_norm {lip_n!r} misses the oracle")
            if not close(ratio, lip_n / dir_n, RATIO_TOL):
                failures.append(f"{tag}: ratio {ratio!r} is not lip_norm / dirichlet_norm")
            if spec.kind == "harmonic" and not energy_close(
                    dir_n**2 - l2 * l2, data_energy(system, hs, spec.data)):
                failures.append(f"{tag}: dirichlet_norm {dir_n!r} misses the harmonic energy")
            ratios.append(ratio)
        summary = rows[21]
        expected = ["summary", fmt(min(ratios)), fmt(max(ratios)),
                    fmt(max(max(ratios), 1.0 / min(ratios)))]
        if summary != expected:
            failures.append(f"summary row {summary} is not {expected}")
        return failures


# -- fel lipschitz snowflake --------------------------------------------------


class LipschitzSnowflake(Workload):
    name = "lipschitz-snowflake"
    setup = (("snowflake", 4),)
    preset, level, m_max, v0_count = "snowflake", 4, 3, 6

    def spec(self) -> str:
        return seeded_harmonic(self.seed, self.v0_count)

    def run(self):
        out = self.workdir / "coefficients.csv"
        code = cli.main(["lipschitz", self.preset, "--function", self.spec(),
                         "--mmax", str(self.m_max), "--level", str(self.level),
                         "--base", "both", "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"fel lipschitz exited with {code}")
        return (out.read_bytes(),)

    def check(self, output):
        failures: list[str] = []
        system, hs = self.solved(self.preset, self.level)
        check_rho(self.preset, system, hs, failures)
        rows = list(csv.reader(io.StringIO(output[0].decode())))
        ms = list(range(1, self.m_max + 1))
        if rows[0] != ["m", "a_m", "b_m"] or [r[0] for r in rows[1:]] != [str(m) for m in ms]:
            return failures + [f"coefficient CSV rows are {rows}"]
        values = fel.parse_function_spec(self.spec()).sample(system, hs, self.level).values
        for column, base in ((1, 2.0), (2, system.L)):
            got = np.array([float(r[column]) for r in rows[1:]])
            tables, _ = self.conventions(system, hs, self.level, values, base, ms)
            if not oracle.matches(got, [t[:, 0] for t in tables]):
                failures.append(f"{rows[0][column]} = {got.tolist()} misses the oracle "
                                f"{[t[:, 0].tolist() for t in tables]}")
        return failures


# -- energies on the deepest levels ---------------------------------------------


class EnergyDeep(Workload):
    name = "energy-deep"
    setup = (("gasket2", 12), ("gasket3", 9), ("snowflake", 6))

    def run(self):
        lines = [["preset", "tag", "m", "E_m", "monotone_ok"]]
        rhos = []
        for preset, level in self.setup:
            system, hs = solve(preset, level)
            rhos.append(["rho", preset, fmt(hs.rho)])
            for spec in fel.random_corpus(system, CORPUS_SIZE, seed=self.seed):
                f = spec.sample(system, hs, level)
                seq = fel.energy_sequence(system, hs, f, tag=spec.tag)
                lines += [[preset, spec.tag, m, fmt(e), str(seq.monotone_ok).lower()]
                          for m, e in seq.entries]
            del system, hs
        return (csv_text(rhos + lines).encode(),)

    def check(self, output):
        failures: list[str] = []
        rows = list(csv.reader(io.StringIO(output[0].decode())))
        rhos = {r[1]: float(r[2]) for r in rows if r[0] == "rho"}
        by_function: dict[tuple[str, str], list[list[str]]] = {}
        for r in rows[len(self.setup) + 1:]:
            by_function.setdefault((r[0], r[1]), []).append(r)
        for preset, level in self.setup:
            system, hs = self.solved(preset, 3)
            check_rho(preset, system, hs, failures)
            if not close(rhos.get(preset, math.nan), hs.rho, RHO_TOL):
                failures.append(f"{preset}: reported rho {rhos.get(preset)} is not {hs.rho!r}")
            specs = fel.random_corpus(system, CORPUS_SIZE, seed=self.seed)
            for spec in specs:
                entries = by_function.get((preset, spec.tag), [])
                name = f"{preset} {spec.tag[:32]}"
                energies = [float(r[3]) for r in entries]
                if [int(r[2]) for r in entries] != list(range(level + 1)):
                    failures.append(f"{name}: levels {[r[2] for r in entries]}")
                    continue
                if any(r[4] != "true" for r in entries) or any(
                        e2 < e1 - fel.energy.MONOTONE_SLACK * max(1.0, abs(e1))
                        for e1, e2 in zip(energies, energies[1:])):
                    failures.append(f"{name}: energies are not monotone")
                if spec.kind == "harmonic":
                    start = 0 if len(spec.data) == system.M0 else 1
                    reference = data_energy(system, hs, spec.data)
                    if not all(energy_close(e, reference) for e in energies[start:]):
                        failures.append(f"{name}: energies are not "
                                        f"constant at {reference!r}")
        if len(by_function) != sum(CORPUS_SIZE + self.solved(p, 3)[0].dim
                                   for p, _ in self.setup):
            failures.append(f"{len(by_function)} energy sequences reported")
        return failures


# -- b_m at separate scales on gasket3 ----------------------------------------


class ScaleSweep(Workload):
    name = "scale-sweep-g3"
    setup = (("gasket3", 7),)
    preset, level, v0_count, scales = "gasket3", 7, 4, (6, 5, 4, 3)

    def run(self):
        system, hs = solve(self.preset, self.level)
        spec = fel.parse_function_spec(seeded_harmonic(self.seed, self.v0_count))
        f = spec.sample(system, hs, self.level)
        params = fel.default_params(system, hs, base="L")
        rows = [["rho", fmt(hs.rho)], ["m", "b_m"]]
        for m in self.scales:
            b = fel.b_coefficient(system, f, m, params)
            rows.append([m, fmt(b)])
        return (csv_text(rows).encode(),)

    def check(self, output):
        failures: list[str] = []
        rows = list(csv.reader(io.StringIO(output[0].decode())))
        system, hs = self.solved(self.preset, self.level)
        check_rho(self.preset, system, hs, failures)
        if not close(float(rows[0][1]), RHO[self.preset], RHO_TOL):
            failures.append(f"reported rho {rows[0][1]} is not 3/2")
        if [r[0] for r in rows[2:]] != [str(m) for m in self.scales]:
            return failures + [f"b_m rows are {rows[2:]}"]
        values = fel.parse_function_spec(seeded_harmonic(self.seed, self.v0_count)) \
            .sample(system, hs, self.level).values
        for m, row in zip(self.scales, rows[2:]):
            tables, _ = self.conventions(system, hs, self.level, values, system.L, [m])
            if not oracle.matches(float(row[1]), [t[0, 0] for t in tables]):
                failures.append(f"b_{m} = {row[1]} misses the oracle "
                                f"{[float(t[0, 0]) for t in tables]}")
        return failures


WORKLOADS = {w.name: w for w in (Equivalence, LipschitzSnowflake, EnergyDeep, ScaleSweep)}
