"""Benchmark for majorant: one workload, one seed, one closed-loop run.

Usage::

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process, one thread, one caller: each operation starts
when the previous one has returned and its output has been checked.

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs whole rounds of the inputs untraced and traced by
turns, with spans around every call into the package's modules in the
traced rounds, and reports the per-layer metrics.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the line before it records the machine, the versions
and the thread setting.  Results and spans are also written under
``perfbench/out/``.
"""

import os

# BLAS and OpenMP run one thread, here and in every process started from here;
# this has to happen before NumPy is first imported.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fresh processes timed for set-up, spread through the run; the median is reported
SETUP_PROBES = 7
#: share of the operations faster than the reported op_p10_ms
LOW_SHARE = 0.10
#: an operation tail needs this many operations beyond it ...
TAIL_BEYOND = 10
#: ... and is reported only from this many operations up
TAIL_MIN_OPS = 40
#: a run goes on past ``--seconds`` until it has this many operations, so
#: that op_p10_ms is at least the fifth fastest and a tail is recorded
MIN_OPS = 50
#: repetitions of the in-process yardsticks of the traced run
PROBE_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["construct", "spread_order", "pinch_sweep", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import, build the inputs and run one warm-up operation")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def set_up(workload: str, seed: int):
    """Import the package, build the seeded inputs, run one warm-up operation."""
    import workloads

    w = workloads.make(workload, seed, OUT)
    w.check(0, w.run(0))
    return w


def new_tally() -> dict:
    return {"latencies": [], "attempted": 0, "failed": [], "wrong": [], "op_counts": []}


def timed_loop(w, tally: dict, seconds: float, min_ops: int = 0, tracer=None) -> None:
    """Closed loop: run, time, check, until ``seconds`` have passed.

    Results are added to ``tally``.  Operation numbers go on from the
    tally's ``attempted``, and the loop also goes on until ``attempted``
    reaches ``min_ops``.
    """
    from workloads import CheckFailed

    from majorant import MajorantError

    latencies, failed, wrong, op_counts = (tally[k] for k in ("latencies", "failed", "wrong", "op_counts"))
    i = tally["attempted"]
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or i < min_ops:
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out = w.run(i)
        except MajorantError as exc:
            failed.append(f"op {i}: {type(exc).__name__}: {exc}")
            out = None
        else:
            latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            counts = tracer.end_op(*child_spans(w))
            if out is not None:
                op_counts.append(counts)
        if out is not None:
            try:
                w.check(i, out)
            except CheckFailed as exc:
                wrong.append(f"op {i}: wrong output: {exc}")
        i += 1
    tally["attempted"] = i


def child_spans(w) -> tuple:
    """Spans and counts of the CLI processes the last operation started, if traced."""
    spans, counts = [], {}
    for rec in w.take_child_records():
        base = len(spans)
        spans.extend([n, s, e, p if p < 0 else p + base] for n, s, e, p in rec["spans"])
        for name, n in rec["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return spans, counts


def tail(latencies: list) -> tuple:
    """(value, percentile): the latency with exactly TAIL_BEYOND operations above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def low_quantile(latencies: list) -> float:
    """The latency with LOW_SHARE of the operations below it (nearest rank)."""
    ordered = sorted(latencies)
    return ordered[max(0, round(LOW_SHARE * len(ordered)) - 1)]


def setup_seconds(args) -> float:
    """Wall time of a fresh process that only sets up, from launch to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, w) -> tuple:
    # one set-up probe after each slice of the run, so that a change in
    # machine speed during the run reaches set-up and operations alike
    loop, setups = new_tally(), []
    for _ in range(SETUP_PROBES):
        timed_loop(w, loop, args.seconds / SETUP_PROBES)
        setups.append(setup_seconds(args))
    # a run too slow to reach MIN_OPS in time goes on until it does
    timed_loop(w, loop, 0, min_ops=MIN_OPS)
    lat = loop["latencies"]
    metrics = {"setup_s": metric(statistics.median(setups), "s")}
    if lat:
        metrics["op_p10_ms"] = metric(low_quantile(lat) * 1e3, "ms")
    metrics["peak_rss_mb"] = metric(w.peak_rss_kb() / 1024.0, "MB")
    # recorded beside the result, not reported as metrics: on a shared host
    # they move with the share of the run the host spends slowed down
    details = {"setup_samples_s": setups, "ops": len(lat)}
    if lat:
        details["ops_per_s"] = len(lat) / sum(lat)
        details["op_p50_ms"] = statistics.median(lat) * 1e3
    if len(lat) >= TAIL_MIN_OPS:
        value, pct = tail(lat)
        details["op_tail_ms"] = value * 1e3
        details["tail_percentile"] = pct
    return loop, metrics, details


def yardsticks(w, seed: int) -> dict:
    """In-process reference timings: eigvalsh and the serializer at the workload's size."""
    import numpy as np
    from workloads import random_hermitian

    import majorant as mj
    from majorant.serialize import dumps

    a = random_hermitian(np.random.default_rng([seed, 9]), w.probe_n)
    payload = mj.HermitianMatrix(a).to_jsonable()

    def median_ms(fn):
        samples = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            fn()
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples) * 1e3

    return {"eigvalsh_ms": median_ms(lambda: np.linalg.eigvalsh(a)),
            "dumps_ms": median_ms(lambda: dumps(payload))}


def per_layer(args, w) -> tuple:
    import tracer as tr

    probes = yardsticks(w, args.seed)
    recorder = tr.Tracer(keep_ops=w.pool)
    # whole rounds of the input pool, untraced and traced by turns, so that a
    # drift in machine speed shows in both halves of the overhead ratio
    plain, loop = new_tally(), new_tally()
    t_end = time.perf_counter() + args.seconds
    while time.perf_counter() < t_end or not loop["attempted"]:
        timed_loop(w, plain, 0, min_ops=plain["attempted"] + w.pool)
        uninstall = tr.install(recorder)
        w.traced = True  # the CLI workload starts its processes through cli_child.py
        try:
            timed_loop(w, loop, 0, min_ops=loop["attempted"] + w.pool, tracer=recorder)
        finally:
            w.traced = False
            uninstall()

    first_round = loop["op_counts"][: w.pool]

    def per_op(name: str) -> float:
        return sum(c[name] for c in first_round) / len(first_round)

    ms = recorder.mean_ms
    construct_ms = recorder.direct_ms("horn.horn_construct")
    trials = getattr(w, "TRIALS", 0)
    values = {
        "horn.apply_t_transform_ms": (ms("horn.apply_t_transform"), "ms"),
        "horn.apply_t_transform_calls": (per_op("horn.apply_t_transform"), "count"),
        "horn.hermitian_checks": (per_op("horn.HermitianMatrix"), "count"),
        "horn.hermitian_check_ms": (ms("horn.HermitianMatrix"), "ms"),
        "horn.t_transform_chain_ms": (ms("horn.t_transform_chain"), "ms"),
        "horn.horn_construct_ms": (construct_ms, "ms"),
        "horn.eigvalsh_ms": (probes["eigvalsh_ms"], "ms"),
        "horn.construct_over_eigvalsh": (construct_ms / probes["eigvalsh_ms"], "ratio"),
        "trace_class.realize_finite_rank_ms": (ms("trace_class.realize_finite_rank"), "ms"),
        "trace_class.projection_with_diagonal_ms": (ms("trace_class.projection_with_diagonal"), "ms"),
        "trace_class.contraction_diagonal_ms": (ms("trace_class.contraction_diagonal"), "ms"),
        "eigenlists.check_majorization_calls": (per_op("eigenlists.check_majorization"), "count"),
        "eigenlists.check_majorization_ms": (ms("eigenlists.check_majorization"), "ms"),
        "eigenlists.reduce_to_equality_ms": (ms("eigenlists.reduce_to_equality"), "ms"),
        "measures.hinge_ms": (ms("measures.majorize_measure.hinge"), "ms"),
        "measures.survivor_ms": (ms("measures.majorize_measure.survivor"), "ms"),
        "measures.convex_family_ms": (ms("measures.majorize_measure.convex_family"), "ms"),
        "measures.survivor_calls": (per_op("measures.CompactMeasure.survivor"), "count"),
        "measures.breakpoints_calls": (per_op("measures.CompactMeasure.breakpoints"), "count"),
        "measures.integrate_function_calls": (per_op("measures.integrate_function"), "count"),
        "pinching.eigh_per_trial": (per_op("numpy.eigh") / trials if trials else 0.0, "count"),
        "pinching.positive_part_ms": (ms("pinching.positive_part"), "ms"),
        "pinching.convex_pinch_check_ms": (ms("pinching.convex_pinch_check"), "ms"),
        "pinching.matrix_function_ms": (ms("pinching.matrix_function"), "ms"),
        "sampling.random_hermitian_ms": (ms("sampling.random_hermitian"), "ms"),
        "serialize.dumps_ms": (probes["dumps_ms"], "ms"),
        "serialize.output_bytes": (per_op_bytes(w), "B"),
    }
    values.update(cli_figures(w.records))
    for layer in tr.LAYERS:
        values[f"{layer}.self_ms"] = (recorder.layer_self_ms(layer), "ms")
    traced_p50 = statistics.median(loop["latencies"])
    values["trace.overhead_ratio"] = (traced_p50 / statistics.median(plain["latencies"]), "ratio")
    metrics = {name: metric(v, unit) for name, (v, unit) in values.items()}
    merged = {key: plain[key] + loop[key] for key in ("attempted", "failed", "wrong")}
    details = {"traced_ops": len(loop["latencies"]), "untraced_ops": len(plain["latencies"]),
               "probes": probes, "calls": recorder.summary()}
    processes = [{k: v for k, v in rec.items() if k not in ("spans", "counts")}
                 for rec in w.records[: 3 * w.pool]]
    write_json(f"spans-{args.workload}-seed{args.seed}.json",
               {"workload": args.workload, "seed": args.seed, "ops": recorder.kept,
                "cli_processes": processes})
    return merged, metrics, details


def per_op_bytes(w) -> float:
    """Bytes the CLI wrote per operation (files and stdout), over one round of inputs."""
    first = getattr(w, "first", {})
    if not first:
        return 0.0
    sizes = [sum(len(out[k]) for k in ("matrix", "measure", "verdict")) for out in first.values()]
    return sum(sizes) / len(sizes)


def cli_figures(records: list) -> dict:
    """Interpreter start, import and each command's main(), from the traced CLI processes."""
    def median_ms(values):
        return statistics.median(values) / 1e6 if values else 0.0

    main_ns = {}
    for rec in records:
        for name, start, end, parent in rec["spans"]:
            if name == "cli.main" and parent < 0:
                main_ns.setdefault(rec["command"], []).append(end - start)
    return {
        "cli.python_start_ms": (median_ms([r["entered_ns"] - r["launched_ns"] for r in records]), "ms"),
        "cli.import_ms": (median_ms([r["import_ns"][1] - r["import_ns"][0] for r in records]), "ms"),
        "cli.construct_ms": (median_ms(main_ns.get("construct", [])), "ms"),
        "cli.measure_ms": (median_ms(main_ns.get("measure", [])), "ms"),
        "cli.majorize_measure_ms": (median_ms(main_ns.get("majorize-measure", [])), "ms"),
    }


def write_json(name: str, data: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name).write_text(json.dumps(data) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "majorant" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
    sys.path[:0] = [str(SRC), str(HERE)]

    w = set_up(args.workload, args.seed)
    try:
        if args.setup_probe:
            return 0
        if args.trace:
            loop, metrics, details = per_layer(args, w)
        else:
            loop, metrics, details = end_to_end(args, w)
    finally:
        w.close()

    for line in (loop["failed"] + loop["wrong"])[:5]:
        print(line, file=sys.stderr)
    result = {
        "correct": not loop["wrong"],
        "attempted": loop["attempted"],
        "failed": len(loop["failed"]),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **details}
    write_json(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {**record, "result": result, "failed": loop["failed"], "wrong": loop["wrong"]})
    record.pop("calls", None)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
