"""Command-line front end.

Lists may be given inline as JSON literals ("[2, 1, 0]") or as paths to
JSON files ({"values": [...]}) or CSV files (one value per line).
Matrices, measures and step functions travel as JSON files in the
schemas used throughout the package.  Exit status: 0 for success or a
true verdict, 1 for a false verdict, 2 for malformed input or for
running out of memory.  Each command imports only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .eigenlists import DEFAULT_TOL, EigenList, check_majorization, reduce_to_equality
from .errors import MajorantError
from .serialize import dumps

if TYPE_CHECKING:
    from .horn import HermitianMatrix
    from .measures import CompactMeasure, StepFunction

MAX_MOMENT = 6
SEED_ENV = "MAJORANT_SEED"


def _load_list(source: str) -> EigenList:
    """Inline JSON list, JSON file, or CSV file (one value per line)."""
    text = source.strip()
    if text.startswith("["):
        return EigenList(np.asarray(json.loads(text), dtype=float))
    path = Path(source)
    if path.suffix.lower() == ".csv":
        values = [float(line) for line in path.read_text().splitlines() if line.strip()]
        return EigenList(np.asarray(values, dtype=float))
    data = json.loads(path.read_text())
    if isinstance(data, list):
        return EigenList(np.asarray(data, dtype=float))
    return EigenList.from_jsonable(data)


def _load_matrix(source: str) -> HermitianMatrix:
    from .horn import HermitianMatrix

    return HermitianMatrix.from_jsonable(json.loads(Path(source).read_text()))


def _load_measure(source: str) -> CompactMeasure:
    """Measure JSON, a `measure` report (its "measure" object), or a matrix
    JSON whose spectral distribution is taken."""
    from .horn import HermitianMatrix
    from .measures import CompactMeasure, from_matrix

    data = json.loads(Path(source).read_text())
    if isinstance(data, dict):
        if "entries" in data:
            return from_matrix(HermitianMatrix.from_jsonable(data))
        data = data.get("measure", data)
    return CompactMeasure.from_jsonable(data)


def _load_step(source: str) -> StepFunction:
    from .measures import StepFunction

    return StepFunction.from_jsonable(json.loads(Path(source).read_text()))


def _emit(payload: dict, out: str | None) -> None:
    text = dumps(payload)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _seed(args: argparse.Namespace) -> int:
    env = os.environ.get(SEED_ENV)
    try:
        return int(env) if env is not None else int(args.seed)
    except ValueError:
        raise MajorantError(f"{SEED_ENV} must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majorant",
        description="Constructions and checks for spectra, diagonals and spectral distributions.",
    )
    parser.add_argument("--version", action="version", version=f"majorant {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("majorize", help="prefix-sum comparison of two lists")
    s.add_argument("--p", required=True, help="compared list (inline JSON or file)")
    s.add_argument("--lambda", dest="lam", required=True, help="dominating list")
    s.add_argument("--mode", choices=["equality", "dominance"], default="equality")
    s.add_argument("--tol", type=float, default=DEFAULT_TOL)

    s = sub.add_parser("reduce", help="lower a dominating list to equal totals")
    s.add_argument("--p", required=True)
    s.add_argument("--lambda", dest="lam", required=True)
    s.add_argument("-o", "--output")

    s = sub.add_parser("construct", help="matrix with prescribed spectrum and diagonal")
    s.add_argument("--lambda", dest="lam", required=True, help="spectrum list")
    s.add_argument("--p", required=True, help="diagonal list")
    s.add_argument("--truncate", type=int, help="zero-pad both lists to this size")
    s.add_argument("-o", "--output")

    s = sub.add_parser("contraction", help="contraction L with diag(L*AL) prescribed")
    s.add_argument("--matrix", required=True, help="positive semidefinite matrix JSON file")
    s.add_argument("--p", required=True, help="target diagonal list")
    s.add_argument("-o", "--output")

    s = sub.add_parser("projection", help="projection with prescribed diagonal")
    s.add_argument("--p", required=True, help="diagonal list, entries in [0, 1]")
    s.add_argument("--rank", type=int, required=True)
    s.add_argument("--truncate", type=int, required=True, help="matrix size N")
    s.add_argument("-o", "--output")

    s = sub.add_parser("measure", help="spectral distribution, moments and tails")
    s.add_argument("source", help="matrix JSON file or measure JSON file")
    s.add_argument("-o", "--output")

    s = sub.add_parser("majorize-measure", help="spread-order comparison of two measures")
    s.add_argument("--m", required=True, help="candidate dominated measure (file)")
    s.add_argument("--n", required=True, help="candidate dominating measure (file)")
    s.add_argument(
        "--method",
        choices=["all", "hinge", "survivor", "convex_family"],
        default="all",
    )

    s = sub.add_parser("transport", help="step-function model of a measure")
    s.add_argument("--measure", required=True, help="measure JSON file")
    s.add_argument("--cells", type=int, required=True)
    s.add_argument("-o", "--output")

    s = sub.add_parser("pinch-experiment", help="randomized compression-inequality sweep")
    s.add_argument("--n", type=int, default=20)
    s.add_argument("--trials", type=int, default=1000)
    s.add_argument("--seed", type=int, default=0, help=f"overridden by ${SEED_ENV} when set")

    s = sub.add_parser("align", help="cell alignment of two step functions")
    s.add_argument("--f", required=True, help="step function JSON file")
    s.add_argument("--g", required=True, help="step function JSON file")
    s.add_argument("--eps", type=float, required=True)

    return parser


def _run(args: argparse.Namespace) -> int:
    if args.command == "majorize":
        report = check_majorization(_load_list(args.p), _load_list(args.lam), args.mode, args.tol)
        payload = {"mode": args.mode, "tol": args.tol, **report.to_jsonable()}
        print(dumps(payload))
        return 0 if report.holds else 1

    if args.command == "reduce":
        mu = reduce_to_equality(_load_list(args.p), _load_list(args.lam))
        _emit(mu.to_jsonable(), args.output)
        return 0

    if args.command == "construct":
        lam, p = _load_list(args.lam), _load_list(args.p)
        if args.truncate is not None:
            from .trace_class import realize_finite_rank

            matrix = realize_finite_rank(lam, p, args.truncate)
        else:
            from .horn import horn_construct

            matrix = horn_construct(lam, p)
        _emit(matrix.to_jsonable(), args.output)
        return 0

    if args.command == "contraction":
        from .horn import matrix_to_jsonable
        from .trace_class import contraction_diagonal

        L = contraction_diagonal(_load_matrix(args.matrix), _load_list(args.p))
        _emit(matrix_to_jsonable(L), args.output)
        return 0

    if args.command == "projection":
        from .trace_class import projection_with_diagonal

        matrix = projection_with_diagonal(_load_list(args.p), args.rank, args.truncate)
        _emit(matrix.to_jsonable(), args.output)
        return 0

    if args.command == "measure":
        from .measures import _hinge_tail, _survivor_tail, moment

        m = _load_measure(args.source)
        x = m.breakpoints()
        tails = zip(x.tolist(), _survivor_tail(m, x).tolist(), _hinge_tail(m, x).tolist())
        payload = {
            "measure": m.to_jsonable(),
            "moments": [moment(m, k) for k in range(MAX_MOMENT + 1)],
            "tails": [{"t": t, "survivor": s, "hinge": h} for t, s, h in tails],
        }
        _emit(payload, args.output)
        return 0

    if args.command == "majorize-measure":
        from .measures import majorize_measure

        m, n = _load_measure(args.m), _load_measure(args.n)
        methods = (
            ["hinge", "survivor", "convex_family"] if args.method == "all" else [args.method]
        )
        verdicts = {name: majorize_measure(m, n, name) for name in methods}
        majorized = all(verdicts.values())
        print(dumps({"methods": verdicts, "majorized": majorized}))
        return 0 if majorized else 1

    if args.command == "transport":
        from .measures import quantile_transport

        step = quantile_transport(_load_measure(args.measure), args.cells)
        _emit(step.to_jsonable(), args.output)
        return 0

    if args.command == "pinch-experiment":
        from .pinching import pinch_experiment

        report = pinch_experiment(args.n, args.trials, _seed(args))
        print(dumps(report))
        return 0 if report["holds"] else 1

    if args.command == "align":
        from .pinching import align_step_functions

        perm, achieved = align_step_functions(_load_step(args.f), _load_step(args.g), args.eps)
        print(dumps({"permutation": list(perm), "achieved": achieved, "bound": 2.0 * args.eps}))
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except MajorantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
