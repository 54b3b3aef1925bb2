"""Command-line entry point.

Subcommands: describe, solve-ndhs, energy, lipschitz, equivalence, render.
Exit codes: 0 success, 1 structural condition violation, 2 numerical failure
(no convergence, singular interior, degenerate structure), 3 I/O or
configuration error.  The environment variable FEL_MAX_POINTS overrides the
enumeration point cap.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import energy as energy_mod
from . import lipschitz as lip_mod
from .characteristics import dimensions
from .errors import (ConditionViolation, DegenerateStructure, InvariantViolation,
                     NoConvergence, PointCapExceeded, ResolutionTooCoarse,
                     SingularInterior, UnsupportedDimension)
from .harmonic import solve_ndhs
from .ifs import FractalSystem, build, validate
from .presets import (PRESET_NAMES, definition_from_maps, load_maps,
                      write_definition)
from .render import render_svg

_FMT = "%.17g"


def _warn_levels(m_max: int, level: int) -> None:
    # The recommended margin for measure approximation; informational only.
    if level < m_max + 3:
        print(f"note: level {level} is below m_max + 3 = {m_max + 3}; "
              "coefficients at the deepest scales are coarsely resolved",
              file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _fmt(x) -> str:
    return _FMT % float(x)


def _max_points(args) -> int | None:
    if args.max_points is not None:
        return args.max_points
    env = os.environ.get("FEL_MAX_POINTS")
    return int(env) if env else None


def _build_system(source: str, level: int, max_points: int | None) -> FractalSystem:
    maps, name = load_maps(source)
    return build(maps, level, max_points=max_points, name=name or source)


@contextlib.contextmanager
def _csv_writer(out: str | None):
    """A CSV writer on the file `out`, closed on leaving the block, or on stdout."""
    if not out:
        yield csv.writer(sys.stdout, lineterminator="\n")
        return
    with open(out, "w", newline="", encoding="utf-8") as handle:
        yield csv.writer(handle, lineterminator="\n")


def _parse_levels(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"levels must look like M0..N (got {text!r})"
        ) from exc


def _cmd_describe(args) -> int:
    maps, name = load_maps(args.fractal)
    system = build(maps, 3, max_points=_max_points(args),
                   name=name or args.fractal, run_validation=False)
    report = validate(system)
    print(f"name: {system.name}")
    print(f"M: {system.M}")
    print(f"L: {_fmt(system.L)}")
    print(f"dimension: {system.dim}")
    print(f"c0: {_fmt(system.c0)}")
    print(f"diameter (diam V_3): {_fmt(system.diameter)}")
    for m in range(4):
        print(f"#V_{m}: {system.vertex_count(m)}")
    # build raised ConditionViolation(1) if fewer than two fixed points are essential.
    print("condition 1 (essential fixed points): pass")
    print(f"condition 3 (nesting, verified to depth {report.nesting_depth}): "
          f"{'pass' if report.nesting_ok else 'FAIL'}")
    print(f"condition 4 (connectivity): {'pass' if report.connectivity_ok else 'FAIL'}")
    print(f"condition 5 (symmetry): {'pass' if report.symmetry_ok else 'FAIL'}")
    for line in report.failures:
        print(f"  {line}")
    if args.export:
        write_definition(definition_from_maps(system.maps, system.name), args.export)
        print(f"exported definition to {args.export}")
    if not report.all_ok:
        raise ConditionViolation(report.first_violation(), "; ".join(report.failures[:2]))
    if args.with_ndhs:
        hs = solve_ndhs(system)
        dims = dimensions(system, hs)
        print(f"rho: {_fmt(dims.rho)}")
        print(f"d_f: {_fmt(dims.d_f)}")
        print(f"d_w: {_fmt(dims.d_w)}")
        print(f"d_s: {_fmt(dims.d_s)}")
    return 0


def _cmd_solve_ndhs(args) -> int:
    system = _build_system(args.fractal, 3, _max_points(args))
    hs = solve_ndhs(system)
    print(f"name: {system.name}")
    for k, cls in enumerate(hs.orbit_classes):
        pairs = " ".join(f"({i},{j})" for i, j in cls)
        print(f"orbit class {k}: conductance {_fmt(hs.class_values[k])} pairs {pairs}")
    print("A:")
    for row in hs.matrix.entries:
        print("  " + " ".join(_fmt(v) for v in row))
    print(f"rho: {_fmt(hs.rho)}")
    print(f"iterations: {len(hs.iteration_trace)}")
    if args.trace:
        with _csv_writer(args.trace) as writer:
            writer.writerow(["iter", "gap", "rho_estimate"])
            for k, (gap, rho_est) in enumerate(hs.iteration_trace):
                writer.writerow([k, _fmt(gap), _fmt(rho_est)])
        print(f"trace written to {args.trace}")
    return 0


def _cmd_energy(args) -> int:
    m0, n = args.levels
    if m0 < 0 or n < m0:
        raise ValueError(f"bad level range {m0}..{n}")
    system = _build_system(args.fractal, max(n, 1), _max_points(args))
    hs = solve_ndhs(system)
    spec = energy_mod.parse_function_spec(args.function)
    f = spec.sample(system, hs, n)
    seq = energy_mod.energy_sequence(system, hs, f, m0=m0, tag=spec.tag)
    with _csv_writer(args.out) as writer:
        writer.writerow(["m", "E_m", "monotone_ok"])
        for m, e in seq.entries:
            writer.writerow([m, _fmt(e), str(seq.monotone_ok).lower()])
    return 0


def _cmd_lipschitz(args) -> int:
    # Imported here, so that the other subcommands do not load the class path.
    from .classes import spec_coefficient_table
    _warn_levels(args.mmax, args.level)
    system = _build_system(args.fractal, args.level, _max_points(args))
    hs = solve_ndhs(system)
    specs = [energy_mod.parse_function_spec(args.function)]
    params_l = lip_mod.default_params(system, hs, base="L")
    params_2 = lip_mod.default_params(system, hs, base=2.0)
    ms = list(range(1, args.mmax + 1))
    a_col = b_col = None
    if args.base in ("2", "both"):
        a_col = spec_coefficient_table(system, hs, specs, args.level, ms, params_2)[:, 0]
    if args.base == "both" and params_l == params_2:
        b_col = a_col          # L = 2: the two bases give one table
    elif args.base in ("L", "both"):
        b_col = spec_coefficient_table(system, hs, specs, args.level, ms, params_l)[:, 0]
    with _csv_writer(args.out) as writer:
        writer.writerow(["m", "a_m", "b_m"])
        for k, m in enumerate(ms):
            writer.writerow([m,
                             _fmt(a_col[k]) if a_col is not None else "",
                             _fmt(b_col[k]) if b_col is not None else ""])
    return 0


def _cmd_equivalence(args) -> int:
    _warn_levels(args.mmax, args.level)
    system = _build_system(args.fractal, args.level, _max_points(args))
    hs = solve_ndhs(system)
    if args.generate_corpus:
        specs = energy_mod.random_corpus(system, args.generate_corpus, seed=args.seed)
        Path(args.corpus).write_text(
            "".join(s.tag + "\n" for s in specs), encoding="utf-8"
        )
    else:
        lines = Path(args.corpus).read_text(encoding="utf-8").splitlines()
        specs = [energy_mod.parse_function_spec(line) for line in lines
                 if line.strip() and not line.lstrip().startswith("#")]
    summary = lip_mod.equivalence_experiment(system, hs, specs, args.mmax, args.level)
    with _csv_writer(args.out) as writer:
        writer.writerow(["tag", "lip_norm", "dirichlet_norm", "ratio"])
        for rep in summary.reports:
            writer.writerow([rep.tag, _fmt(rep.lip_norm), _fmt(rep.dirichlet_norm),
                             _fmt(rep.ratio) if rep.ratio is not None else "undefined"])
        writer.writerow(["summary", _fmt(summary.min_ratio), _fmt(summary.max_ratio),
                         _fmt(summary.c_empirical)])
    if summary.excluded:
        print("excluded (undefined ratio): " + ", ".join(summary.excluded),
              file=sys.stderr)
    return 0


def _cmd_render(args) -> int:
    system = _build_system(args.fractal, max(args.level, 1), _max_points(args))
    values = None
    if args.function:
        hs = solve_ndhs(system)
        values = energy_mod.parse_function_spec(args.function) \
            .sample(system, hs, args.level).values
    svg = render_svg(system, args.level, values)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


def _make_parser() -> _Parser:
    parser = _Parser(prog="fel", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    fractal_help = ("preset name (%s) or path to a JSON definition file"
                    % "|".join(PRESET_NAMES))

    p = sub.add_parser("describe", help="print structure and condition report")
    p.add_argument("--with-ndhs", action="store_true", help="also solve and print dimensions")
    p.add_argument("--export", help="write the definition back to a JSON file")
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("solve-ndhs", help="solve the renormalization fixed point")
    p.add_argument("--trace", help="write per-iteration CSV (iter, gap, rho_estimate)")
    p.set_defaults(func=_cmd_solve_ndhs)

    p = sub.add_parser("energy", help="energy sequence of a function")
    p.add_argument("--function", required=True,
                   help="coord:k | harmonic:v1,v2,... | perturb:<spec>:<idx>:<delta>")
    p.add_argument("--levels", required=True, type=_parse_levels, metavar="M0..N")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_energy)

    p = sub.add_parser("lipschitz", help="Lipschitz coefficients a_m, b_m")
    p.add_argument("--function", required=True)
    p.add_argument("--mmax", required=True, type=int)
    p.add_argument("--level", required=True, type=int,
                   help="counting-measure level n (needs n > mmax)")
    p.add_argument("--base", choices=("2", "L", "both"), default="both")
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_lipschitz)

    p = sub.add_parser("equivalence", help="norm-equivalence experiment over a corpus")
    p.add_argument("--corpus", required=True,
                   help="corpus file, one function spec per line")
    p.add_argument("--mmax", required=True, type=int)
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--generate-corpus", type=int, metavar="K", default=0,
                   help="generate K random harmonic functions (plus coordinates) "
                        "into the corpus file first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path (default stdout)")
    p.set_defaults(func=_cmd_equivalence)

    p = sub.add_parser("render", help="render symplices (and a function) to SVG")
    p.add_argument("--level", required=True, type=int)
    p.add_argument("--function", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)
    # Added last, so every --help lists them after the subcommand's own options.
    for p in sub.choices.values():
        p.add_argument("fractal", help=fractal_help)
        p.add_argument("--max-points", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        # Huge or non-finite data gives inf and nan in the output, which is
        # the result; numpy's warnings about it would only show internals.
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConditionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NoConvergence, SingularInterior, DegenerateStructure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError, json.JSONDecodeError, PointCapExceeded,
            ResolutionTooCoarse, UnsupportedDimension) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
