"""Show that the benchmark's output checks reject wrong outputs.

Usage: ``python3 perfbench/selftest.py`` from the root of a checkout.

For each workload a correct output must pass its check, and each
deliberately wrong output must fail it with the expected message:

* construct: a diagonal moved by a small rotation (spectrum intact),
  and a matrix whose top eigenvalue is raised by 1e-6;
* spread_order: one route's verdict flipped, and all three flipped;
* pinch_sweep: a report with one trial missing;
* cli: a matrix file that differs from the same invocation's first
  output by one byte, in a digit too small for the numeric checks.

Exit status 0 when every wrong output is caught, 1 otherwise.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
os.environ["PYTHONPATH"] = str(SRC)
sys.path[:0] = [str(SRC), str(HERE)]

import copy  # noqa: E402
import re  # noqa: E402

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 7


def expect(label: str, check, out, needle: str) -> bool:
    """True when ``check(0, out)`` fails with a message containing ``needle``."""
    try:
        check(0, out)
    except wl.CheckFailed as exc:
        caught = needle in str(exc)
        print(f"{'caught' if caught else 'WRONG REASON'}: {label}: {exc}")
        return caught
    print(f"MISSED: {label}")
    return False


def construct_cases() -> list:
    w = wl.Construct(SEED)
    out = w.run(0)
    w.check(0, out)
    a, rest = wl.entries(out[0]), out[1:]
    rot = np.eye(a.shape[0], dtype=complex)
    c, s = np.cos(1e-4), np.sin(1e-4)
    rot[:2, :2] = [[c, -s], [s, c]]
    rotated = rot @ a @ rot.conj().T
    _, vecs = np.linalg.eigh(a)
    top = vecs[:, -1:]
    wrong_spectrum = a + 1e-6 * (top @ top.conj().T)
    return [
        expect("construct, perturbed diagonal", w.check, (rotated, *rest), "diagonal off"),
        expect("construct, wrong eigenvalue", w.check, (wrong_spectrum, *rest), "spectrum off"),
    ]


def spread_cases() -> list:
    w = wl.SpreadOrder(SEED)
    out = w.run(0)
    w.check(0, out)
    one = dict(out, survivor=not out["survivor"])
    every = {method: not verdict for method, verdict in out.items()}
    return [
        expect("spread_order, one route flipped", w.check, one, "routes disagree"),
        expect("spread_order, verdict flipped", w.check, every, "verdict"),
    ]


def pinch_cases() -> list:
    w = wl.PinchSweep(SEED)
    out = w.run(0)
    w.check(0, out)
    short = copy.deepcopy(out)
    short["checks"]["positive_part"]["count"] -= 1
    short["checks"]["convex_family"]["count"] -= w.FAMILY
    return [expect("pinch_sweep, one trial missing", w.check, short, "trials missing")]


def cli_cases() -> list:
    w = wl.Cli(SEED, HERE / "out" / f"selftest-{os.getpid()}")
    try:
        w.check(0, w.run(0))
        out = w.run(0)
        w.check(0, out)
        # last digit of the first 17-digit number: a change of one unit in the 17th place
        match = re.search(rb"\d{17}(?=[,\]])", out["matrix"])
        k = match.end() - 1
        digit = b"1" if out["matrix"][k:k + 1] != b"1" else b"2"
        flipped = dict(out, matrix=out["matrix"][:k] + digit + out["matrix"][k + 1:])
        return [expect("cli, one byte differs", w.check, flipped, "differs from the same invocation")]
    finally:
        w.close()


def main() -> int:
    results = construct_cases() + spread_cases() + pinch_cases() + cli_cases()
    print(f"selftest: {sum(results)} of {len(results)} wrong outputs caught")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
