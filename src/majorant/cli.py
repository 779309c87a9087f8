"""Command-line front end.

Lists may be given inline as JSON literals ("[2, 1, 0]") or as paths to
JSON files ({"values": [...]}) or CSV files (one value per line).
Matrices, measures and step functions travel as JSON files in the
schemas used throughout the package.  Exit status: 0 for success or a
true verdict, 1 for a false verdict, 2 for malformed input, for running
out of memory or for an internal error.  A command returns its JSON
payload and exit status, and ``main`` alone writes the payload, to stdout
or to the ``-o`` file.  Commands reach the library through the package's
lazy public names (``mj.horn_construct`` loads ``majorant.horn`` on first
use), so each imports only the modules it runs; importing this module
loads no NumPy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

import majorant as mj

from .serialize import dumps

MAX_MOMENT = 6
SEED_ENV = "MAJORANT_SEED"


def _read(source: str):
    """The JSON document in the file ``source``."""
    return json.loads(Path(source).read_text())


def _load_list(source: str) -> mj.EigenList:
    """Inline JSON list, JSON file, or CSV file (one value per line)."""
    text = source.strip()
    if text.startswith("["):
        return mj.EigenList(json.loads(text))
    path = Path(source)
    if path.suffix.lower() == ".csv":
        return mj.EigenList([float(line) for line in path.read_text().splitlines() if line.strip()])
    data = _read(source)
    if isinstance(data, list):
        return mj.EigenList(data)
    return mj.EigenList.from_jsonable(data)


def _load_measure(source: str) -> mj.CompactMeasure:
    """Measure JSON, a `measure` report (its "measure" object), or a matrix
    JSON whose spectral distribution is taken."""
    data = _read(source)
    if isinstance(data, dict):
        if "entries" in data:
            return mj.from_matrix(mj.HermitianMatrix.from_jsonable(data))
        data = data.get("measure", data)
    return mj.CompactMeasure.from_jsonable(data)


def _seed(args: argparse.Namespace) -> int:
    env = os.environ.get(SEED_ENV)
    try:
        return int(env) if env is not None else int(args.seed)
    except ValueError:
        raise mj.MajorantError(f"{SEED_ENV} must be an integer, got {env!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="majorant",
        description="Constructions and checks for spectra, diagonals and spectral distributions.",
    )
    parser.add_argument("--version", action="version", version=f"majorant {mj.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("majorize", help="prefix-sum comparison of two lists")
    s.add_argument("--p", required=True, help="compared list (inline JSON or file)")
    s.add_argument("--lambda", dest="lam", required=True, help="dominating list")
    s.add_argument("--mode", choices=["equality", "dominance"], default="equality")
    s.add_argument("--tol", type=float)

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


def _run(args: argparse.Namespace) -> tuple[dict, int]:
    """The command's JSON payload and its exit status; ``main`` writes the payload."""
    if args.command == "majorize":
        from .eigenlists import DEFAULT_TOL

        tol = DEFAULT_TOL if args.tol is None else args.tol
        report = mj.check_majorization(_load_list(args.p), _load_list(args.lam), args.mode, tol)
        return {"mode": args.mode, "tol": tol, **report.to_jsonable()}, 0 if report.holds else 1

    if args.command == "reduce":
        return mj.reduce_to_equality(_load_list(args.p), _load_list(args.lam)).to_jsonable(), 0

    if args.command == "construct":
        lam, p = _load_list(args.lam), _load_list(args.p)
        if args.truncate is None:
            return mj.horn_construct(lam, p).to_jsonable(), 0
        return mj.realize_finite_rank(lam, p, args.truncate).to_jsonable(), 0

    if args.command == "contraction":
        from .horn import matrix_to_jsonable

        A = mj.HermitianMatrix.from_jsonable(_read(args.matrix))
        return matrix_to_jsonable(mj.contraction_diagonal(A, _load_list(args.p))), 0

    if args.command == "projection":
        return mj.projection_with_diagonal(_load_list(args.p), args.rank, args.truncate).to_jsonable(), 0

    if args.command == "measure":
        from .measures import _hinge_tail, _survivor_tail

        m = _load_measure(args.source)
        x = m.breakpoints()
        tails = zip(x.tolist(), _survivor_tail(m, x).tolist(), _hinge_tail(m, x).tolist())
        return {
            "measure": m.to_jsonable(),
            "moments": [mj.moment(m, k) for k in range(MAX_MOMENT + 1)],
            "tails": [{"t": t, "survivor": s, "hinge": h} for t, s, h in tails],
        }, 0

    if args.command == "majorize-measure":
        m, n = _load_measure(args.m), _load_measure(args.n)
        methods = (
            ["hinge", "survivor", "convex_family"] if args.method == "all" else [args.method]
        )
        verdicts = {name: mj.majorize_measure(m, n, name) for name in methods}
        majorized = all(verdicts.values())
        return {"methods": verdicts, "majorized": majorized}, 0 if majorized else 1

    if args.command == "transport":
        return mj.quantile_transport(_load_measure(args.measure), args.cells).to_jsonable(), 0

    if args.command == "pinch-experiment":
        report = mj.pinch_experiment(args.n, args.trials, _seed(args))
        return report, 0 if report["holds"] else 1

    if args.command == "align":
        f, g = (mj.StepFunction.from_jsonable(_read(source)) for source in (args.f, args.g))
        perm, achieved = mj.align_step_functions(f, g, args.eps)
        return {"permutation": list(perm), "achieved": achieved, "bound": 2.0 * args.eps}, 0

    raise AssertionError(f"unhandled command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        payload, code = _run(args)
        text = dumps(payload)
        out = getattr(args, "output", None)
        if out:
            Path(out).write_text(text + "\n")
        else:
            print(text)
        return code
    except (mj.MajorantError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a defect, not a verdict: exit 1 must only ever mean "false"
        import traceback

        traceback.print_exc()
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def run_process() -> None:
    """Entry point of a ``majorant`` process (``python -m majorant.cli`` or the script).

    What a process imports before its command runs, NumPy above all (this
    module imports none), lives until exit: it is imported with the
    collector off and then frozen out of its sight (``gc.freeze``), so no
    collection traces it again.  The collector is on for the command's own
    garbage, and what the command leaves is frozen too, so that finalizing
    the interpreter has nothing young to trace.  Output, ``atexit`` and the
    flushing of streams and files are those of a normal exit.
    """
    gc.disable()
    import numpy  # noqa: F401  (every command loads it)

    gc.freeze()
    gc.enable()
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run_process()
