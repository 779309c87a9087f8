"""The four workloads: seeded inputs, one operation, and its output check.

Each workload builds a small pool of inputs from the seed with NumPy
alone, runs one fixed-size user-level task per operation (input
``i % pool``), and checks every output against a computation made apart
from the program, or against a property the theorem guarantees.  A
check that fails raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import majorant as mj

HERE = Path(__file__).resolve().parent

#: tolerance on spectra and diagonals of matrices whose entries are O(1)
MATRIX_TOL = 1e-9

METHODS = ("hinge", "survivor", "convex_family")


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- seeded inputs ---------------------------------------------------------


def summable_spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    """Decreasing positive list lam_k ~ u_k / k^2, the head of a summable spectrum."""
    return np.sort(rng.uniform(0.5, 1.5, n) / np.arange(1, n + 1) ** 2)[::-1]


def mix_down(rng: np.random.Generator, values: np.ndarray, parts: int = 4) -> np.ndarray:
    """Sorted convex combination of random permutations of ``values``.

    A doubly stochastic image of a list is majorized by it with the same
    total, so the result is a feasible diagonal for spectrum ``values``.
    """
    weights = rng.dirichlet(np.ones(parts))
    mixed = sum(w * rng.permutation(values) for w in weights)
    return np.sort(mixed)[::-1]


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / (2.0 * np.sqrt(n))


# -- independent checks ----------------------------------------------------


def majorized(small: np.ndarray, big: np.ndarray, tol: float) -> bool:
    """Prefix sums of the sorted, zero-padded lists: small's below big's, equal totals."""
    n = max(small.size, big.size)
    s = np.cumsum(np.sort(np.pad(small, (0, n - small.size)))[::-1])
    b = np.cumsum(np.sort(np.pad(big, (0, n - big.size)))[::-1])
    return bool(np.all(s <= b + tol) and abs(s[-1] - b[-1]) <= tol)


def check_majorizing_pair(p: np.ndarray, lam: np.ndarray) -> None:
    require(majorized(p, lam, 1e-12 * lam.size), "input diagonal is not majorized by the spectrum")


def entries(matrix) -> np.ndarray:
    return np.asarray(getattr(matrix, "entries", matrix))


def check_spectrum_and_diagonal(matrix, lam: np.ndarray, p: np.ndarray, what: str) -> None:
    a = entries(matrix)
    n = a.shape[0]
    require(a.shape == (n, n) and n == lam.size == p.size, f"{what}: wrong shape {a.shape}")
    require(float(np.max(np.abs(a - a.conj().T))) <= 1e-10, f"{what}: not self-adjoint")
    spec = np.linalg.eigvalsh(a)[::-1]
    err = float(np.max(np.abs(spec - np.sort(lam)[::-1])))
    require(err <= MATRIX_TOL, f"{what}: spectrum off by {err:.3e}")
    err = float(np.max(np.abs(np.diag(a).real - p)))
    require(err <= MATRIX_TOL, f"{what}: diagonal off by {err:.3e}")


def second_moment(m: mj.CompactMeasure) -> float:
    atoms = sum(w * x * x for x, w in m.atoms)
    pieces = sum(w * (a * a + a * b + b * b) / 3.0 for a, b, w in m.pieces)
    return float(atoms + pieces)


# -- workloads ---------------------------------------------------------------


class Workload:
    """Defaults for a workload that runs in-process and holds nothing to clean up."""

    name = ""
    pool = 1
    #: size of the in-process eigvalsh and serializer yardsticks of a traced run
    probe_n = 200
    #: set by a traced run; only the CLI workload acts on it
    traced = False
    #: records of traced child processes (the CLI workload's)
    records: tuple = ()

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        raise NotImplementedError

    def take_child_records(self) -> list[dict]:
        return []

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that runs the operations."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


class Construct(Workload):
    """One trace-class job per operation on a positive spectrum truncated at N.

    horn_construct on (lam, p); realize_finite_rank of a rank-3N/4
    spectrum with a full-length diagonal; a rank-2N/5 projection with a
    prescribed [0, 1] diagonal; and a contraction with an N/2-long
    compressed diagonal inside the first matrix.
    """

    name = "construct"
    N = 200
    probe_n = N
    pool = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        n = self.N
        self.jobs = []
        for _ in range(self.pool):
            lam = summable_spectrum(rng, n)
            lam_r = summable_spectrum(rng, 3 * n // 4)
            rank = 2 * n // 5
            ones = np.concatenate([np.ones(rank), np.zeros(n - rank)])
            job = {
                "lam": lam,
                "p": mix_down(rng, lam),
                "lam_r": lam_r,
                "p_r": mix_down(rng, np.pad(lam_r, (0, n - lam_r.size))),
                "rank": rank,
                "q": np.clip(mix_down(rng, ones), 0.0, 1.0),
                "pc": mix_down(rng, lam[: n // 2]) * rng.uniform(0.5, 0.95),
            }
            check_majorizing_pair(job["p"], job["lam"])
            check_majorizing_pair(job["p_r"], job["lam_r"])
            check_majorizing_pair(job["q"], ones)
            self.jobs.append(job)

    def run(self, i: int):
        job = self.jobs[i % self.pool]
        a = mj.horn_construct(job["lam"], job["p"])
        b = mj.realize_finite_rank(job["lam_r"], job["p_r"], self.N)
        proj = mj.projection_with_diagonal(job["q"], job["rank"], self.N)
        contraction = mj.contraction_diagonal(a, job["pc"])
        return a, b, proj, contraction

    def check(self, i: int, out) -> None:
        job = self.jobs[i % self.pool]
        a, b, proj, contraction = out
        n = self.N
        check_majorizing_pair(job["p"], job["lam"])
        check_spectrum_and_diagonal(a, job["lam"], job["p"], "horn_construct")
        lam_r = np.pad(job["lam_r"], (0, n - job["lam_r"].size))
        check_spectrum_and_diagonal(b, lam_r, job["p_r"], "realize_finite_rank")
        ones = (np.arange(n) < job["rank"]).astype(float)
        check_spectrum_and_diagonal(proj, ones, job["q"], "projection_with_diagonal")
        pm = entries(proj)
        err = float(np.max(np.abs(pm @ pm - pm)))
        require(err <= MATRIX_TOL, f"projection: |P^2 - P| = {err:.3e}")
        L = np.asarray(contraction)
        a = entries(a)
        target = np.pad(job["pc"], (0, n - job["pc"].size))
        err = float(np.max(np.abs(np.diag(L.conj().T @ a @ L).real - target)))
        require(err <= MATRIX_TOL, f"contraction: diag(L*AL) off by {err:.3e}")
        norm = float(np.linalg.norm(L, 2))
        require(norm <= 1.0 + MATRIX_TOL, f"contraction: |L| = {norm!r} > 1")


class SpreadOrder(Workload):
    """One pair of measures per operation, decided by all three routes.

    Half the pool is (diagonal distribution, spectral distribution) of a
    random Hermitian K x K matrix, true by Schur's theorem and checked
    against a NumPy prefix-sum oracle.  The other half is atom-and-piece
    pairs ordered by construction, and reverses of such pairs, which are
    false because spreading raised the second moment.  A false verdict
    ends the routes' scans early, so reversed pairs are built one size up;
    the sizes make the three kinds cost the same.
    """

    name = "spread_order"
    K = 50
    #: (atoms, pieces) of the base of an ordered pair, and of a reversed one
    ORDERED_BASE = (16, 8)
    REVERSED_BASE = (18, 9)
    pool = 16

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.pairs = []
        for k in range(self.pool):
            kind = ("schur", "schur", "ordered", "reversed")[k % 4]
            if kind == "schur":
                h = random_hermitian(rng, self.K)
                d, e = np.diag(h).real.copy(), np.linalg.eigvalsh(h)
                pair = (mj.CompactMeasure.from_points(d), mj.CompactMeasure.from_points(e))
                # equal-weight atoms: the spread order is majorization of the lists
                self.pairs.append({"kind": kind, "pair": pair, "expect": majorized(d, e, 1e-9)})
            elif kind == "ordered":
                lower, upper = self._ordered_pair(rng, *self.ORDERED_BASE)
                self.pairs.append({"kind": kind, "pair": (lower, upper), "expect": True})
            else:
                lower, upper = self._ordered_pair(rng, *self.REVERSED_BASE)
                differ = second_moment(upper) > second_moment(lower) + 1e-9
                self.pairs.append(
                    {"kind": kind, "pair": (upper, lower), "expect": False if differ else None}
                )

    @staticmethod
    def _ordered_pair(rng: np.random.Generator, n_atoms: int, n_pieces: int):
        """(lower, upper) with lower below upper in the spread order.

        From a base of ``n_atoms`` atoms and ``n_pieces`` uniform pieces,
        ``lower`` collapses half the pieces onto their midpoints and merges
        atom pairs at their barycenter; ``upper`` splits every atom into a
        symmetric pair or a centered piece and widens every piece.  Each
        move keeps the mean and lowers (raises) every convex integral.
        """
        w = rng.dirichlet(np.ones(n_atoms + n_pieces))
        xs = rng.uniform(-2.0, 2.0, n_atoms)
        starts = rng.uniform(-2.0, 2.0, n_pieces)
        widths = rng.uniform(0.1, 1.0, n_pieces)
        atoms = list(zip(xs, w[:n_atoms]))
        pieces = list(zip(starts, starts + widths, w[n_atoms:]))

        low_atoms = [((a + b) / 2.0, m) for a, b, m in pieces[: n_pieces // 2]]
        for (x1, w1), (x2, w2) in zip(atoms[0::2], atoms[1::2]):
            low_atoms.append(((w1 * x1 + w2 * x2) / (w1 + w2), w1 + w2))
        lower = mj.CompactMeasure(atoms=tuple(low_atoms), pieces=tuple(pieces[n_pieces // 2 :]))

        up_atoms, up_pieces = [], []
        for k, (x, m) in enumerate(atoms):
            d = float(rng.uniform(0.1, 1.0))
            if k % 3:
                up_atoms += [(x - d, m / 2.0), (x + d, m / 2.0)]
            else:
                up_pieces.append((x - d, x + d, m))
        for a, b, m in pieces:
            widen = float(rng.uniform(0.1, 0.5))
            up_pieces.append((a - widen, b + widen, m))
        upper = mj.CompactMeasure(atoms=tuple(up_atoms), pieces=tuple(up_pieces))
        return lower, upper

    def run(self, i: int) -> dict:
        m, n = self.pairs[i % self.pool]["pair"]
        return {method: mj.majorize_measure(m, n, method) for method in METHODS}

    def check(self, i: int, verdicts: dict) -> None:
        case = self.pairs[i % self.pool]
        values = [verdicts[method] for method in METHODS]
        require(all(isinstance(v, bool) for v in values), "verdicts must be booleans")
        require(len(set(values)) == 1, f"{case['kind']} pair: routes disagree {verdicts}")
        if case["expect"] is not None:
            require(values[0] == case["expect"], f"{case['kind']} pair: verdict {values[0]}")


class PinchSweep(Workload):
    """One ``pinch_experiment(n=20, trials=20)`` per operation, seeds from the pool."""

    name = "pinch_sweep"
    N = 20
    TRIALS = 20
    pool = 16
    #: convex_pinch_check calls per trial: square, abs, exp, three hinges, one random cone element
    FAMILY = 7

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        self.seeds = [int(s) for s in rng.integers(0, 2**63, size=self.pool)]

    def run(self, i: int) -> dict:
        return mj.pinch_experiment(self.N, self.TRIALS, self.seeds[i % self.pool])

    def check(self, i: int, report: dict) -> None:
        require(report.get("seed") == self.seeds[i % self.pool], "report names the wrong seed")
        require(report.get("n") == self.N and report.get("trials") == self.TRIALS, "wrong size")
        checks = report["checks"]
        require(checks["positive_part"]["count"] == self.TRIALS, "positive-part trials missing")
        require(checks["convex_family"]["count"] == self.FAMILY * self.TRIALS, "convex checks missing")
        worst = min(checks["positive_part"]["min_witness"], checks["convex_family"]["min_witness"])
        require(report["min_witness"] == worst, "min_witness is not the worst check")
        require(report["min_witness"] >= -1e-9, f"witness {report['min_witness']!r} below -1e-9")
        require(report["holds"] is True, "pinching inequalities reported as failing")


class Cli(Workload):
    """One ``majorant`` pipeline of three processes per operation, at size N.

    ``construct -o``, then ``measure`` on that file, then
    ``majorize-measure`` of the prescribed diagonal's distribution
    against the matrix.  Every process pays interpreter start, import
    and the 17-digit serializer.  Outputs of a repeated invocation must
    be byte-identical to its first run.
    """

    name = "cli"
    N = 32
    probe_n = N
    pool = 8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 4])
        n = self.N
        self.dir = workdir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.records: list[dict] = []
        self.taken = 0
        self.child_peak_kb = 0
        self.first: dict[int, dict] = {}
        self.inputs = []
        for k in range(self.pool):
            lam = summable_spectrum(rng, n)
            p = mix_down(rng, lam)
            check_majorizing_pair(p, lam)
            locs, counts = np.unique(p, return_counts=True)
            diag_measure = {
                "atoms": [{"x": float(x), "mass": int(c) / n} for x, c in zip(locs, counts)],
                "pieces": [],
            }
            files = {name: self.dir / f"{name}{k}.json" for name in ("lam", "p", "d", "a", "m")}
            files["lam"].write_text(json.dumps({"values": lam.tolist()}))
            files["p"].write_text(json.dumps({"values": p.tolist()}))
            files["d"].write_text(json.dumps(diag_measure))
            self.inputs.append({"lam": lam, "p": p, "files": files})

    def _majorant(self, args: list[str]) -> subprocess.CompletedProcess:
        if self.traced:
            record = self.dir / f"child{len(self.records)}.json"
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(record), *args]
        else:
            cmd = [sys.executable, "-m", "majorant.cli", *args]
        stdout, stderr = self.dir / "stdout", self.dir / "stderr"
        launched = time.monotonic_ns()
        with stdout.open("wb") as out, stderr.open("wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err)
            # wait4 rather than wait: it also gives the child's own peak memory
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
        done = subprocess.CompletedProcess(cmd, proc.returncode, stdout.read_bytes(),
                                           stderr.read_bytes())
        if self.traced:
            data = json.loads(record.read_text())
            record.unlink()
            data.update(command=args[0], launched_ns=launched, exited_ns=time.monotonic_ns())
            self.records.append(data)
        return done

    def run(self, i: int) -> dict:
        files = self.inputs[i % self.pool]["files"]
        for output in (files["a"], files["m"]):
            output.unlink(missing_ok=True)  # no stale file can pass for this op's output
        steps = [
            self._majorant(["construct", "--lambda", str(files["lam"]), "--p", str(files["p"]),
                            "-o", str(files["a"])]),
            self._majorant(["measure", str(files["a"]), "-o", str(files["m"])]),
            self._majorant(["majorize-measure", "--m", str(files["d"]), "--n", str(files["a"])]),
        ]
        return {
            "returncodes": [s.returncode for s in steps],
            "stderr": b"".join(s.stderr for s in steps),
            "matrix": files["a"].read_bytes(),
            "measure": files["m"].read_bytes(),
            "verdict": steps[2].stdout,
        }

    def check(self, i: int, out: dict) -> None:
        case = self.inputs[i % self.pool]
        lam, p = case["lam"], case["p"]
        require(out["returncodes"] == [0, 0, 0],
                f"exit codes {out['returncodes']}: {out['stderr'][-300:]!r}")
        data = json.loads(out["matrix"])
        a = np.array([[complex(re, im) for re, im in row] for row in data["entries"]])
        require(data["dim"] == self.N, "construct: wrong dimension")
        check_spectrum_and_diagonal(a, lam, p, "construct")

        report = json.loads(out["measure"])
        xs = np.array([atom["x"] for atom in report["measure"]["atoms"]])
        masses = np.array([atom["mass"] for atom in report["measure"]["atoms"]])
        require(xs.size == self.N and not report["measure"]["pieces"], "measure: wrong atoms")
        require(float(np.max(np.abs(xs - np.sort(lam)))) <= MATRIX_TOL, "measure: atoms off")
        require(float(np.max(np.abs(masses - 1.0 / self.N))) <= 1e-12, "measure: masses off")
        moments = [float(np.mean(lam**k)) for k in range(len(report["moments"]))]
        require(np.allclose(report["moments"], moments, rtol=1e-9, atol=1e-12), "measure: moments off")
        for tail in report["tails"]:
            hinge = float(np.mean(np.maximum(lam - tail["t"], 0.0)))
            require(abs(tail["hinge"] - hinge) <= MATRIX_TOL, "measure: hinge tail off")
            require(abs(tail["survivor"] - hinge) <= MATRIX_TOL, "measure: survivor tail off")

        verdict = json.loads(out["verdict"])
        require(verdict["majorized"] is True and all(verdict["methods"].values())
                and len(verdict["methods"]) == 3, f"majorize-measure: {verdict}")

        first = self.first.setdefault(i % self.pool, out)
        for key in ("matrix", "measure", "verdict"):
            require(out[key] == first[key], f"{key}: output differs from the same invocation's first run")

    def take_child_records(self) -> list[dict]:
        """Records of the traced processes started since the last call."""
        new, self.taken = self.records[self.taken :], len(self.records)
        return new

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the largest ``majorant`` process started."""
        return self.child_peak_kb

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (Construct, SpreadOrder, PinchSweep, Cli)}


def make(name: str, seed: int, out_dir: Path):
    cls = WORKLOADS[name]
    if cls is Cli:
        return Cli(seed, out_dir / f"cli-{os.getpid()}")
    return cls(seed)
