"""Command-line front end: solve, bench, tomo and gen subcommands.

Reports are delimited tables with a fixed column order
(engine, m, n, nnz, seed, IT, CPU_s, RSE, SNR, speedup_vs_grak) or JSON
documents carrying the full run metadata.  Identical invocations reproduce
identical reports except for the wall-time column.

Exit codes: 0 success, 2 bad flags or any other typed error, 3 ingestion
failure, 4 oracle failure, 5 run finished without converging (the report is
still written).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import sys
from dataclasses import replace

import numpy as np

from .diagnostics import compute_bounds, speedup
from .errors import (
    DegenerateGeometry,
    IncompleteRun,
    KaczlabError,
    NonFiniteEntry,
    OracleNotConverged,
    OracleUnavailable,
    ParseError,
    ReferenceUnavailable,
    TrivialNullSpace,
    UnsupportedField,
    ZeroRowOrColumn,
)
from .problems import (
    DEFAULT_ORACLE_TOL,
    LinearSystem,
    build_inconsistent_rhs,
    gen_gaussian,
    gen_sparse_gaussian,
    read_matrix_market,
    write_matrix_market,
    write_pgm,
)
from .sampling import STREAM_NOISE, STREAM_PLANTED, RngStream
from .solvers import ENGINES, run
from .stopping import RULE_KINDS, StoppingRule
from .tomo import TomoSpec, gen_paralleltomo, reconstruction_image

REPORT_COLUMNS = ("engine", "m", "n", "nnz", "seed", "IT", "CPU_s", "RSE",
                  "SNR", "speedup_vs_grak")

_CLI_STOP_KINDS = tuple(k for k in RULE_KINDS if k != "ase")
# the kinds whose cadence --check-period sets; lise's cadence is its window
_PERIOD_KINDS = [k for k in _CLI_STOP_KINDS if k != "lise"]


def _fmt(value, spec="{:.10g}") -> str:
    if value is None:
        return ""
    return spec.format(value)


def _parse_gen_spec(text: str, seed: int):
    """'gaussian:MxN' or 'sparse:MxN:DENSITY' to a matrix."""
    parts = text.split(":")
    try:
        dims = parts[1].lower().split("x")
        m, n = int(dims[0]), int(dims[1])
    except (IndexError, ValueError):
        raise ValueError(f"cannot parse generator spec {text!r}") from None
    kind = parts[0].lower()
    if kind == "gaussian" and len(parts) == 2:
        return gen_gaussian(m, n, seed)
    if kind == "sparse" and len(parts) == 3:
        return gen_sparse_gaussian(m, n, float(parts[2]), seed)
    raise ValueError(f"unknown generator spec {text!r} "
                     "(expected gaussian:MxN or sparse:MxN:DENSITY)")


def _parse_angles(text: str) -> tuple[float, ...]:
    """'start:step:stop' (inclusive), a comma list, or a single angle."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"angle range must be start:step:stop, got {text!r}")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise ValueError("angle step must be positive")
        return tuple(np.arange(start, stop + 0.5 * step, step))
    if "," in text:
        return tuple(float(p) for p in text.split(","))
    return (float(text),)


def _checked(cast, ok, rule: str):
    """An argparse type: ``cast`` of the flag's text, which must pass ``ok``."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in "invalid float value"
    return parse


def _assemble_system(args) -> LinearSystem:
    if args.matrix is not None:
        mat = read_matrix_market(args.matrix)
        provenance = args.matrix
    else:
        mat = _parse_gen_spec(args.gen, args.seed)
        provenance = f"{args.gen}:seed{args.seed}"
    if args.rhs == "nullspace":
        x_seed = RngStream(args.seed, STREAM_PLANTED).standard_normal(mat.n)
        b = build_inconsistent_rhs(mat, x_seed, noise_seed=args.seed,
                                   noise_scale=args.noise_scale,
                                   oracle_tol=args.oracle_tol)
    else:  # plain random right-hand side, nothing planted
        b = RngStream(args.seed, STREAM_NOISE).standard_normal(mat.m)
    system = LinearSystem(mat, b, provenance=provenance)
    if not args.no_reference:
        system = system.with_reference(args.oracle_tol)
    return system


def _make_rule(args) -> StoppingRule:
    return StoppingRule(kind=args.stop, tol=args.tol, window=args.window_L,
                        check_period=args.check_period)


def _report_row(report, system, speedup_vs_grak=None) -> dict:
    return {
        "engine": report.engine,
        "m": str(system.mat.m),
        "n": str(system.mat.n),
        "nnz": str(system.mat.nnz),
        "seed": str(report.seed),
        "IT": str(report.iterations),
        "CPU_s": _fmt(report.wall_time_s, "{:.6g}"),
        "RSE": _fmt(report.final_rse),
        "SNR": _fmt(report.snr),
        "speedup_vs_grak": _fmt(speedup_vs_grak),
    }


def _emit(args, rows, runs, bounds=None):
    """Write the report in the selected format to --report or stdout."""
    if args.format == "json":
        doc = {"schema": list(REPORT_COLUMNS), "rows": rows,
               "runs": [r.to_dict() for r in runs]}
        if bounds is not None:
            doc["bounds"] = bounds.to_dict()
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(",".join(REPORT_COLUMNS) + "\n")
        for row in rows:
            buf.write(",".join(row[c] for c in REPORT_COLUMNS) + "\n")
        if bounds is not None:
            buf.write("\n# bounds\n")
            for key, value in bounds.to_dict().items():
                if isinstance(value, list):
                    value = ";".join(f"{v:.12g}" for v in value)
                else:
                    value = f"{value:.12g}"
                buf.write(f"{key},{value}\n")
        text = buf.getvalue()
    if args.report:
        with open(args.report, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _maybe_bounds(args, system):
    if not getattr(args, "bounds", False):
        return None
    return compute_bounds(system.mat)


def _engine_list(text: str) -> list[str]:
    """The --engine names, each known and none repeated; ValueError otherwise."""
    engines = text.split(",")
    for engine in engines:
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected one of {', '.join(ENGINES)}")
    if len(set(engines)) < len(engines):
        # one row per engine: a repeat would report one set of runs twice
        raise ValueError(f"engine named twice in {text!r}")
    return engines


def cmd_solve(args) -> int:
    if len(_engine_list(args.engine)) > 1:
        raise ValueError("solve takes exactly one engine")
    rule = _make_rule(args)
    system = _assemble_system(args)
    report = run(args.engine, system, rule=rule, max_iters=args.max_iters,
                 seed=args.seed, eta_s=args.eta, trace_path=args.trace)
    report.bounds = _maybe_bounds(args, system)
    _emit(args, [_report_row(report, system)], [report], bounds=report.bounds)
    return 0 if report.converged else 5


def cmd_bench(args) -> int:
    engines = _engine_list(args.engine)
    rule = _make_rule(args)
    system = _assemble_system(args)
    all_runs: dict[str, list] = {}
    for engine in engines:
        all_runs[engine] = [
            run(engine, system, rule=rule, max_iters=args.max_iters,
                seed=args.seed + rep, eta_s=args.eta)
            for rep in range(args.reps)
        ]

    summaries = {}
    for engine, reps in all_runs.items():
        rses = [r.final_rse for r in reps if r.final_rse is not None]
        summaries[engine] = replace(
            reps[0],
            iterations=int(round(statistics.fmean(r.iterations for r in reps))),
            wall_time_s=statistics.fmean(r.wall_time_s for r in reps),
            final_rse=statistics.fmean(rses) if rses else None)

    rows = []
    for engine in engines:
        speed = None
        if "grak" in summaries:
            try:
                speed = speedup(summaries["grak"], summaries[engine])
            except IncompleteRun:  # a zero wall time leaves the cell empty
                pass
        rows.append(_report_row(summaries[engine], system, speedup_vs_grak=speed))
    flat_runs = [r for engine in engines for r in all_runs[engine]]
    bounds = _maybe_bounds(args, system)
    _emit(args, rows, flat_runs, bounds=bounds)
    return 0


def cmd_tomo(args) -> int:
    from .problems import snr as snr_score

    engines = _engine_list(args.engine)
    spec = TomoSpec(size=args.N, angles=_parse_angles(args.angles), rays=args.p)
    mat, x_true = gen_paralleltomo(spec)
    b = build_inconsistent_rhs(mat, x_true, noise_seed=args.seed,
                               noise_scale=args.noise_scale,
                               oracle_tol=args.oracle_tol)
    system = LinearSystem(
        mat, b, provenance=f"tomo:N{args.N}:p{args.p}:a{len(spec.angles)}:seed{args.seed}")
    if not args.no_reference:
        system = system.with_reference(args.oracle_tol)
    if args.images:
        os.makedirs(args.images, exist_ok=True)
        write_pgm(os.path.join(args.images, "exact.pgm"),
                  reconstruction_image(x_true, args.N))
    rows = []
    runs = []
    for engine in engines:
        report = run(engine, system, rule=None, max_iters=args.iters,
                     seed=args.seed, eta_s=args.eta)
        report.snr = snr_score(x_true, report.final_state.x)
        runs.append(report)
        rows.append(_report_row(report, system))
        if args.images:
            write_pgm(os.path.join(args.images, f"{engine}.pgm"),
                      reconstruction_image(report.final_state.x, args.N))
    _emit(args, rows, runs)
    return 0


def cmd_gen(args) -> int:
    mat = _parse_gen_spec(args.gen, args.seed)
    write_matrix_market(args.out, mat, comment=f"{args.gen} seed={args.seed}")
    return 0


def _add_problem_flags(p: argparse.ArgumentParser):
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--matrix", help="Matrix Market file to load")
    source.add_argument("--gen", help="generator spec: gaussian:MxN or sparse:MxN:DENSITY")
    p.add_argument("--rhs", choices=("nullspace", "randn"), default="nullspace",
                   help="right-hand side: planted solution plus orthogonal noise, "
                        "or plain standard-normal entries")
    _add_reference_flags(p)


def _add_reference_flags(p: argparse.ArgumentParser):
    """The noise and reference-oracle flags of every subcommand that builds b."""
    p.add_argument("--noise-scale", type=float, default=0.5,
                   help="orthogonal noise size relative to the planted signal")
    p.add_argument("--no-reference", action="store_true",
                   help="skip the least-squares reference oracle")
    p.add_argument("--oracle-tol", type=float, default=DEFAULT_ORACLE_TOL,
                   help="normal-equation tolerance of the reference oracle")


def _add_run_flags(p: argparse.ArgumentParser, default_engine: str, stop_flags: bool = True):
    """Engine, seed and report flags; ``stop_flags`` adds the stopping-rule,
    step-cap and bounds flags, which tomo's fixed budget has no use for."""
    p.add_argument("--engine", default=default_engine,
                   help=f"engine name(s), comma separated; one of {', '.join(ENGINES)}")
    p.add_argument("--eta", type=_checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
                   default=0.01, help="sampling ratio of the sampled engine")
    if stop_flags:
        p.add_argument("--stop", choices=_CLI_STOP_KINDS, default="lise",
                       help="stopping rule")
        p.add_argument("--tol", type=float, default=1e-4, help="stopping tolerance")
        p.add_argument("--window-L", type=int, default=400, dest="window_L",
                       help="lag L of the windowed stopping rule")
        p.add_argument("--check-period", type=int, default=None,
                       help="override the evaluation cadence of the "
                            f"{', '.join(_PERIOD_KINDS[:-1])} and {_PERIOD_KINDS[-1]} rules "
                            "(lise checks every L)")
        p.add_argument("--max-iters", type=_checked(int, lambda v: v >= 0, ">= 0"),
                       default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    if stop_flags:
        p.add_argument("--bounds", action="store_true",
                       help="append the convergence-bound report (desk-scale only)")
    p.add_argument("--report", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaczlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one engine on one problem")
    _add_problem_flags(p_solve)
    _add_run_flags(p_solve, default_engine="grak")
    p_solve.add_argument("--trace", help="stream one line per step to this file")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="compare engines over seeded repetitions")
    _add_problem_flags(p_bench)
    _add_run_flags(p_bench, default_engine=",".join(ENGINES))
    p_bench.add_argument("--reps", type=_checked(int, lambda v: v >= 1, ">= 1"),
                         default=10, help="repetitions per engine (seeds seed+0..seed+reps-1)")
    p_bench.set_defaults(func=cmd_bench)

    p_tomo = sub.add_parser("tomo", help="parallel-beam reconstruction benchmark")
    p_tomo.add_argument("--N", type=int, required=True, help="image side length")
    p_tomo.add_argument("--angles", default="0:1:178",
                        help="projection angles, start:step:stop or a comma list")
    p_tomo.add_argument("--p", type=int, required=True, help="rays per angle")
    p_tomo.add_argument("--iters", type=_checked(int, lambda v: v >= 0, ">= 0"), default=20000,
                        help="fixed iteration budget per engine")
    _add_reference_flags(p_tomo)
    _add_run_flags(p_tomo, default_engine=",".join(ENGINES), stop_flags=False)
    p_tomo.add_argument("--images", help="directory for exact/reconstructed PGM images")
    p_tomo.set_defaults(func=cmd_tomo)

    p_gen = sub.add_parser("gen", help="write a generated matrix to Matrix Market")
    p_gen.add_argument("--gen", required=True,
                       help="gaussian:MxN or sparse:MxN:DENSITY")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, help="output .mtx path")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, ParseError, UnsupportedField,
            ZeroRowOrColumn, NonFiniteEntry, DegenerateGeometry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OracleNotConverged, OracleUnavailable, TrivialNullSpace,
            ReferenceUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, KaczlabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
