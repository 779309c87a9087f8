"""Command-line interface: exit codes, file round trips, determinism."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import majorant
from majorant.cli import main
from majorant.serialize import dumps

from child_process import run_python


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMajorize:
    def test_true_verdict_exits_zero(self, capsys):
        code, out, _ = run(
            capsys, "majorize", "--p", "[2, 2]", "--lambda", "[3, 1]", "--mode", "equality"
        )
        assert code == 0
        report = json.loads(out)
        assert report["holds"] is True
        assert report["slack"] == [1.0, 0.0]

    def test_false_verdict_exits_one(self, capsys):
        code, out, _ = run(
            capsys, "majorize", "--p", "[3, 1]", "--lambda", "[2, 2]", "--mode", "dominance"
        )
        assert code == 1
        assert json.loads(out)["first_violation"] == 1

    def test_bare_array_list_file(self, capsys, tmp_path):
        p = tmp_path / "p.json"
        p.write_text("[2, 2]")
        code, out, _ = run(capsys, "majorize", "--p", str(p), "--lambda", "[3, 1]")
        assert code == 0
        assert json.loads(out)["slack"] == [1.0, 0.0]

    def test_list_files(self, capsys, tmp_path):
        p = tmp_path / "p.json"
        p.write_text('{"values": [2, 2]}')
        lam = tmp_path / "l.csv"
        lam.write_text("3\n1\n")
        code, out, _ = run(capsys, "majorize", "--p", str(p), "--lambda", str(lam))
        assert code == 0 and json.loads(out)["holds"]

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "majorize", "--p", str(bad), "--lambda", "[1]")
        assert code == 2
        assert "error" in err

    def test_unsorted_inline_list_exits_two(self, capsys):
        code, _, err = run(capsys, "majorize", "--p", "[1, 2]", "--lambda", "[3, 1]")
        assert code == 2 and "error" in err

    def test_infinite_tol_exits_two(self, capsys):
        code, out, err = run(capsys, "majorize", "--p", "[2]", "--lambda", "[1]", "--tol", "inf")
        assert (code, out) == (2, "")
        assert err == "error: tol must be finite and nonnegative\n"


class TestConstructPipeline:
    def test_construct_measure_round_trip(self, capsys, tmp_path):
        out_file = tmp_path / "matrix.json"
        code, _, _ = run(
            capsys, "construct", "--lambda", "[2, 1, 0]", "--p", "[1, 1, 1]",
            "-o", str(out_file),
        )
        assert code == 0
        data = json.loads(out_file.read_text())
        assert data["dim"] == 3
        diag = [row[i][0] for i, row in enumerate(data["entries"])]
        np.testing.assert_allclose(diag, [1, 1, 1], atol=1e-10)

        code, out, _ = run(capsys, "measure", str(out_file))
        assert code == 0
        measure = json.loads(out)["measure"]
        locs = sorted(a["x"] for a in measure["atoms"])
        np.testing.assert_allclose(locs, [0, 1, 2], atol=1e-8)
        assert all(abs(a["mass"] - 1 / 3) < 1e-12 for a in measure["atoms"])

        # spectral distribution matches the equal-mass measure of the
        # input list, in both directions
        m_file = tmp_path / "spectrum.json"
        m_file.write_text(json.dumps({
            "atoms": [{"x": 2, "mass": 1 / 3}, {"x": 1, "mass": 1 / 3},
                      {"x": 0, "mass": 1 / 3}],
            "pieces": [],
        }))
        spec_file = tmp_path / "constructed.json"
        code, out, _ = run(capsys, "measure", str(out_file), "-o", str(spec_file))
        constructed = tmp_path / "constructed_measure.json"
        constructed.write_text(json.dumps(json.loads(spec_file.read_text())["measure"]))
        for a, b in ((constructed, m_file), (m_file, constructed)):
            code, out, _ = run(capsys, "majorize-measure", "--m", str(a), "--n", str(b))
            assert code == 0
            verdict = json.loads(out)
            assert verdict["majorized"] and all(verdict["methods"].values())

    def test_construct_with_truncation(self, capsys, tmp_path):
        out_file = tmp_path / "padded.json"
        code, _, _ = run(
            capsys, "construct", "--lambda", "[1]", "--p", "[0.5, 0.5]",
            "--truncate", "4", "-o", str(out_file),
        )
        assert code == 0
        assert json.loads(out_file.read_text())["dim"] == 4

    def test_infeasible_exits_two(self, capsys):
        code, _, err = run(capsys, "construct", "--lambda", "[1, 1]", "--p", "[2, 0]")
        assert code == 2 and "error" in err


class TestOtherCommands:
    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "--p", "[1, 1]", "--lambda", "[3, 2]")
        assert code == 0
        assert json.loads(out)["values"] == [1.5, 0.5]

    def test_contraction(self, capsys, tmp_path):
        a_file = tmp_path / "a.json"
        a_file.write_text(json.dumps({
            "dim": 2,
            "entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        }))
        code, out, _ = run(capsys, "contraction", "--matrix", str(a_file), "--p", "[0.5]")
        assert code == 0
        data = json.loads(out)
        assert data["dim"] == 2
        assert data["entries"][0][0][0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_projection(self, capsys):
        code, out, _ = run(
            capsys, "projection", "--p", "[0.5, 0.5]", "--rank", "1", "--truncate", "2"
        )
        assert code == 0
        entries = json.loads(out)["entries"]
        assert entries[0][0][0] == pytest.approx(0.5, abs=1e-12)

    def test_transport_and_align(self, capsys, tmp_path):
        m_file = tmp_path / "m.json"
        m_file.write_text(json.dumps({
            "atoms": [{"x": 0.0, "mass": 0.5}, {"x": 1.0, "mass": 0.5}],
            "pieces": [],
        }))
        f_file = tmp_path / "f.json"
        code, _, _ = run(
            capsys, "transport", "--measure", str(m_file), "--cells", "4",
            "-o", str(f_file),
        )
        assert code == 0
        assert json.loads(f_file.read_text()) == {"N": 4, "values": [0, 0, 1, 1]}

        g_file = tmp_path / "g.json"
        g_file.write_text(json.dumps({"N": 4, "values": [1.0, 0.0, 1.0, 0.0]}))
        code, out, _ = run(
            capsys, "align", "--f", str(f_file), "--g", str(g_file), "--eps", "0.1"
        )
        assert code == 0
        result = json.loads(out)
        assert result["achieved"] == 0.0
        assert sorted(result["permutation"]) == [0, 1, 2, 3]

    def test_measure_report_reads_back(self, capsys, tmp_path):
        # construct -o A; measure A -o m; transport --measure m
        a_file, report = tmp_path / "a.json", tmp_path / "report.json"
        assert run(capsys, "construct", "--lambda", "[2, 1, 0]", "--p", "[1, 1, 1]",
                   "-o", str(a_file))[0] == 0
        assert run(capsys, "measure", str(a_file), "-o", str(report))[0] == 0
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(json.loads(report.read_text())["measure"]))
        code, out, _ = run(capsys, "transport", "--measure", str(report), "--cells", "4")
        assert code == 0
        assert out == run(capsys, "transport", "--measure", str(bare), "--cells", "4")[1]
        for command in (["measure", str(report)],
                        ["majorize-measure", "--m", str(report), "--n", str(bare)]):
            assert run(capsys, *command)[0] == 0

    @pytest.mark.parametrize("n", [None, 2.7, True])
    def test_step_function_with_a_bad_cell_count_exits_two(self, capsys, tmp_path, n):
        f_file = tmp_path / "f.json"
        f_file.write_text(json.dumps({"N": n, "values": [1.0, 0.0]}))
        code, out, err = run(capsys, "align", "--f", str(f_file), "--g", str(f_file),
                             "--eps", "0.1")
        assert (code, out) == (2, "")
        assert err == "error: declared N must be an integer\n"

    def test_matrix_with_a_boolean_dim_exits_two(self, capsys, tmp_path):
        a_file = tmp_path / "a.json"
        a_file.write_text(json.dumps({"dim": True, "entries": [[[1.0, 0.0]]]}))
        code, out, err = run(capsys, "contraction", "--matrix", str(a_file), "--p", "[0.5]")
        assert (code, out) == (2, "")
        assert err == "error: declared dim must be an integer\n"

    def test_file_without_a_measure_exits_two(self, capsys, tmp_path):
        m_file = tmp_path / "m.json"
        m_file.write_text(json.dumps({"moments": []}))
        code, _, err = run(capsys, "transport", "--measure", str(m_file), "--cells", "4")
        assert code == 2
        assert '"atoms"' in err


class TestPinchExperimentCommand:
    def test_reports_are_byte_identical(self, capsys):
        _, first, _ = run(capsys, "pinch-experiment", "--n", "6", "--trials", "10",
                          "--seed", "7")
        _, second, _ = run(capsys, "pinch-experiment", "--n", "6", "--trials", "10",
                           "--seed", "7")
        assert first == second

    def test_verdict_and_seed(self, capsys):
        code, out, _ = run(capsys, "pinch-experiment", "--n", "8", "--trials", "25",
                           "--seed", "3")
        assert code == 0
        report = json.loads(out)
        assert report["seed"] == 3
        assert report["min_witness"] >= -1e-9

    def test_env_seed_overrides_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("MAJORANT_SEED", "11")
        _, env_out, _ = run(capsys, "pinch-experiment", "--n", "5", "--trials", "8",
                            "--seed", "3")
        monkeypatch.delenv("MAJORANT_SEED")
        _, direct_out, _ = run(capsys, "pinch-experiment", "--n", "5", "--trials", "8",
                               "--seed", "11")
        assert env_out == direct_out
        assert json.loads(env_out)["seed"] == 11

    def test_malformed_env_seed_names_the_variable(self, capsys, monkeypatch):
        monkeypatch.setenv("MAJORANT_SEED", "abc")
        code, out, err = run(capsys, "pinch-experiment", "--n", "3", "--trials", "2")
        assert code == 2 and out == ""
        assert "MAJORANT_SEED" in err

    def test_out_of_range_seed_exits_two(self, capsys):
        code, _, err = run(capsys, "pinch-experiment", "--n", "3", "--trials", "2",
                           "--seed", "-1")
        assert code == 2 and "64-bit" in err

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run(capsys, "pinch-experiment", "--n", "4", "--trials", "5",
                        "--seed", "1")
        value = out.split('"min_witness": ')[1].split(",")[0]
        mantissa = value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) >= 16  # 17 significant digits requested


class TestListOutputIsPinned:
    """SHA-256 of what ``majorize`` and ``reduce`` print, as the parent of the adopt change printed them.

    ``majorize`` prints every prefix slack, so its last digits pin the
    prefix sums; ``reduce`` prints the reduced list, bit for bit.
    """

    # the n = 32 lists of TestMeasureOutputIsPinned, and the head of the diagonal
    _lam = [1.0 / k for k in range(1, 33)]
    _p = sorted((0.5 * (a + b) for a, b in zip(_lam, _lam[::-1])), reverse=True)
    LAM32, P32, P16 = json.dumps(_lam), json.dumps(_p), json.dumps(_p[:16])
    CASES = [
        pytest.param(("majorize", "--p", "[2, 2]", "--lambda", "[3, 1]", "--mode", "equality"), 0,
                     "20988cc009aaa6efb624a3829aa2981aff7ba03a55e99bcefa9c5fe6ed140229", id="majorize-readme"),
        pytest.param(("majorize", "--p", "[3, 1]", "--lambda", "[2, 2]", "--mode", "dominance"), 1,
                     "711f4831a20c5c3679063c02c958303db7a0615e45277921c4a9045e8dfe3e12", id="majorize-false"),
        pytest.param(("majorize", "--p", P32, "--lambda", LAM32), 0,
                     "9350b9c7f11a30ef87119c63e65293e78090afaaffe2990871471050abf71da2", id="majorize-n32"),
        pytest.param(("reduce", "--p", "[1, 1]", "--lambda", "[3, 2]"), 0,
                     "f8f196a25f9db9dec8857fc329860339203b07103116979f44d9ca9d572e3ae4", id="reduce-readme"),
        pytest.param(("reduce", "--p", P16, "--lambda", LAM32), 0,
                     "08b6e03783171491c1acb2e4aac9b29cf1a7c16a48bca06797ce402c90bd34c5", id="reduce-n32"),
    ]

    @pytest.mark.parametrize("argv, code, digest", CASES)
    def test_stdout_digest(self, capsys, tmp_path, argv, code, digest):
        got, out, _ = run(capsys, *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if argv[0] == "reduce":
            out_file = tmp_path / "mu.json"
            assert run(capsys, *argv, "-o", str(out_file))[0] == 0
            assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestFailuresAreNotVerdicts:
    """Exit 1 means a false verdict; running out of memory exits 2 with one ``error:`` line."""

    @pytest.mark.parametrize("exc", [
        MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"),
        MemoryError(),
    ], ids=["numpy-message", "bare"])
    @pytest.mark.parametrize("command", ["majorize-measure", "construct"])
    def test_memory_error_exits_two(self, capsys, monkeypatch, tmp_path, command, exc):
        def exhausted(*args, **kwargs):
            raise exc

        point = tmp_path / "point.json"
        point.write_text(json.dumps({"atoms": [{"x": 1.0, "mass": 1.0}]}))
        if command == "construct":
            monkeypatch.setattr(majorant, "horn_construct", exhausted)
            argv = ("construct", "--lambda", "[2, 1, 0]", "--p", "[1, 1, 1]")
        else:
            monkeypatch.setattr(majorant, "majorize_measure", exhausted)
            argv = ("majorize-measure", "--m", str(point), "--n", str(point))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert (str(exc) or "MemoryError") in err

    @pytest.mark.parametrize("command", ["majorize-measure", "construct"])
    def test_unexpected_exception_exits_two(self, capsys, monkeypatch, tmp_path, command):
        # a defect in a route is reported with its traceback, and never as exit 1
        def broken(*args, **kwargs):
            raise RuntimeError("route failed")

        point = tmp_path / "point.json"
        point.write_text(json.dumps({"atoms": [{"x": 1.0, "mass": 1.0}]}))
        if command == "construct":
            monkeypatch.setattr(majorant, "horn_construct", broken)
            argv = ("construct", "--lambda", "[2, 1, 0]", "--p", "[1, 1, 1]")
        else:
            monkeypatch.setattr(majorant, "majorize_measure", broken)
            argv = ("majorize-measure", "--m", str(point), "--n", str(point))
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert "in broken" in err
        assert err.splitlines()[-1] == "error: internal error: RuntimeError: route failed"

    def test_moment_overflow_exits_two(self, capsys, tmp_path):
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({"atoms": [{"x": 1e60, "mass": 0.5}, {"x": -1e60, "mass": 0.5}],
                                    "pieces": []}))
        code, out, err = run(capsys, "measure", str(wide))
        assert code == 2
        assert out == ""
        assert err == "error: moment of order 6 overflows float64\n"

    @pytest.mark.parametrize("argv, message", [
        (("construct", "--lambda", "[1e308, -1e308]", "--p", "[0, 0]"),
         "spread of lam overflows float64"),
        (("majorize", "--p", "[1e308, 0.8e308, 0.1e308]", "--lambda", "[1e308, 1e308, 0]"),
         "prefix sums overflow float64"),
    ], ids=["construct-spread", "majorize-prefix-sums"])
    def test_float64_overflow_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_overflowed_slack_exits_two(self, capsys):
        code, out, err = run(capsys, "majorize", "--p", "[-0.85e308, -0.85e308]",
                             "--lambda", "[1e308, -1e308]", "--mode", "dominance")
        assert (code, out) == (2, "")
        assert err == "error: prefix sums overflow float64\n"


def test_majorize_measure_on_a_large_measure_file(tmp_path):
    # convex_family integrates every atom at every threshold, in blocks: about 55 ms here
    m = majorant.CompactMeasure.from_points(np.random.default_rng(2028).uniform(size=3000))
    m_file, point = tmp_path / "atoms.json", tmp_path / "point.json"
    m_file.write_text(json.dumps(m.to_jsonable()))
    point.write_text(json.dumps({"atoms": [{"x": m.mean(), "mass": 1.0}]}))
    done = run_python("-m", "majorant.cli", "majorize-measure", "--m", str(point), "--n", str(m_file))
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert json.loads(done.stdout) == {
        "methods": {"hinge": True, "survivor": True, "convex_family": True}, "majorized": True}


class TestConstructionOutputIsPinned:
    """SHA-256 of the JSON that construction commands print, as version 0.1.0 printed it.

    Constructions are bit-identical from release to release (README
    "Numerical conventions"); any change to these digests is a change
    of output, not of speed.
    """

    CASES = [
        pytest.param(
            ("construct", "--lambda", "[2, 1, 0]", "--p", "[1, 1, 1]"),
            "395d2d7cc5d46fe83f06281c0bff33c40e16fe86214970a39582282b2034cc7d",
            id="construct",
        ),
        pytest.param(
            ("construct", "--lambda", "[1]", "--p", "[0.5, 0.5]", "--truncate", "4"),
            "8b2c152111697ea07ec390e2067aca5007680a40d4f8e6e4a5b0b9da99364923",
            id="construct-truncate",
        ),
        pytest.param(
            ("projection", "--p", "[0.5, 0.5]", "--rank", "1", "--truncate", "2"),
            "3c52f26df125ce98fb11acc8290197d3b0228dc404cb20a1bd00cca442d45b20",
            id="projection",
        ),
        pytest.param(
            ("projection", "--p", "[0.75, 0.75, 0.25, 0.25]", "--rank", "2", "--truncate", "4"),
            "30460cfb402bf905bda290db0e7226fcf0fefcca33647d67713203203fcd15e5",
            id="projection-rank-2",
        ),
    ]

    @pytest.mark.parametrize("argv, digest", CASES)
    def test_stdout_and_file_digests(self, capsys, tmp_path, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        out_file = tmp_path / "out.json"
        assert run(capsys, *argv, "-o", str(out_file))[0] == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestContractionOutputIsPinned:
    """SHA-256 of ``contraction`` on a ``construct -o`` file, as the eigensolver's frame gives it.

    A matrix read from a file carries no mixing chain, so its
    contraction takes ``np.linalg.eigh`` and prints the same bytes
    whether or not the in-process construction kept its chain.
    """

    CASES = [
        pytest.param("[0.5]", "bf29f5a518e4a6c71a499a76741feb20b7355440910a77ab4de43edc5e1dff71",
                     id="readme"),
        pytest.param("[1.5, 0.5]", "1810f55cd650f154b226fbe1a25b86e1e37bf847f98d87ca3a2fdebaab07b74e",
                     id="tour"),
    ]

    @pytest.mark.parametrize("p, digest", CASES)
    def test_stdout_and_file_digests(self, capsys, tmp_path, p, digest):
        a_file, out_file = tmp_path / "a.json", tmp_path / "L.json"
        assert run(capsys, "construct", "--lambda", "[2, 1, 0]", "--p", "[1, 1, 1]",
                   "-o", str(a_file))[0] == 0
        argv = ("contraction", "--matrix", str(a_file), "--p", p)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert run(capsys, *argv, "-o", str(out_file))[0] == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestMeasureOutputIsPinned:
    """SHA-256 of ``measure`` reports, as the tails read one threshold at a time printed them.

    Reading every breakpoint's tails in one array call per mode does the
    same arithmetic element by element, so the bytes must not move.
    """

    LAM32 = [1.0 / k for k in range(1, 33)]
    SOURCES = {
        "readme": ("[2, 1, 0]", "[1, 1, 1]"),
        # cli workload size: a construction at n = 32 from a 1/k spectrum
        # and the average of it and its reverse
        "n32": (json.dumps(LAM32), json.dumps(sorted(
            (0.5 * (a + b) for a, b in zip(LAM32, LAM32[::-1])), reverse=True))),
    }
    # atoms on a 1/8 grid, some of them on piece ends, and overlapping pieces
    PIECES = {
        "atoms": [{"x": k / 8 - 2.0, "mass": 1 / 64} for k in range(32)],
        "pieces": [{"a": -3.0, "b": 1.0, "mass": 0.25}, {"a": 0.0, "b": 1.875, "mass": 0.125},
                   {"a": 1.5, "b": 2.25, "mass": 0.125}],
    }
    CASES = [
        pytest.param("readme", "871a3d3bc88602bdd5eaf915e7a68399ee0181dab497bfa1eba924c9c0dcba96",
                     id="readme"),
        pytest.param("n32", "50f0be397ab81b3bc53b28974d3317a19c4f90febaac5c84bd646fb31f71002c",
                     id="n32"),
        pytest.param("pieces", "458a3850f6a129f1e8bca8f9e63022eab18c5ece91ad4835988069ec45c84bab",
                     id="pieces"),
    ]

    @pytest.mark.parametrize("source, digest", CASES)
    def test_stdout_and_file_digests(self, capsys, tmp_path, source, digest):
        src, out_file = tmp_path / "src.json", tmp_path / "m.json"
        if source == "pieces":
            src.write_text(json.dumps(self.PIECES))
        else:
            lam, p = self.SOURCES[source]
            assert run(capsys, "construct", "--lambda", lam, "--p", p, "-o", str(src))[0] == 0
        code, out, _ = run(capsys, "measure", str(src))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert run(capsys, "measure", str(src), "-o", str(out_file))[0] == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestMajorizeMeasureOutputIsPinned:
    """SHA-256 and exit code of ``majorize-measure``, as the tails rebuilt per call printed them.

    Reading the tail tables each measure builds once does the same
    arithmetic, so neither the verdicts nor their bytes may move.
    """

    TRUE = "4be26bf0edfe233fb9aa39ffb505ea294a82d7ff8b82b2b56cb5f541ae7d960e"
    FALSE = "e0a9b6440e6e43ec3ad492a53c5ccdc0fcbe249275ac4d95db0c982df38860e0"
    CASES = [
        # the README pair: a point mass at the mean below the README construction
        pytest.param("point", "a3", 0, TRUE, id="readme"),
        # cli workload shape: the diagonal distribution below an n = 32 construction
        pytest.param("diag", "a32", 0, TRUE, id="n32"),
        pytest.param("a32", "diag", 1, FALSE, id="false"),
    ]

    @pytest.mark.parametrize("m, n, code, digest", CASES)
    def test_stdout_and_exit_code(self, capsys, tmp_path, m, n, code, digest):
        lam32, p32 = (json.loads(s) for s in TestMeasureOutputIsPinned.SOURCES["n32"])
        files = {name: tmp_path / f"{name}.json" for name in ("point", "diag", "a3", "a32")}
        files["point"].write_text(json.dumps({"atoms": [{"x": 1.0, "mass": 1.0}]}))
        files["diag"].write_text(json.dumps({"atoms": [
            {"x": x, "mass": p32.count(x) / 32} for x in sorted(set(p32))]}))
        for name, lam, p in (("a3", [2, 1, 0], [1, 1, 1]), ("a32", lam32, p32)):
            assert run(capsys, "construct", "--lambda", json.dumps(lam), "--p", json.dumps(p),
                       "-o", str(files[name]))[0] == 0
        got, out, _ = run(capsys, "majorize-measure", "--m", str(files[m]), "--n", str(files[n]))
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTransportOutputIsPinned:
    """SHA-256 of ``transport --cells 100``, as the quantiles read from the grid printed them."""

    CASES = [
        pytest.param("readme", "765696df6f2f1e23faba277bf646e6f62e531458865c34dca61e619f6817a59d",
                     id="readme"),
        pytest.param("pieces", "8f037c0c29aa8bfbb1fb019b1804bab9e10c1455bc5893e9eb3d885ceb0c3619",
                     id="pieces"),
    ]

    @pytest.mark.parametrize("source, digest", CASES)
    def test_stdout_and_file_digests(self, capsys, tmp_path, source, digest):
        src, out_file = tmp_path / "src.json", tmp_path / "f.json"
        if source == "pieces":
            src.write_text(json.dumps(TestMeasureOutputIsPinned.PIECES))
        else:
            assert run(capsys, "construct", "--lambda", "[2, 1, 0]", "--p", "[1, 1, 1]",
                       "-o", str(src))[0] == 0
        argv = ("transport", "--measure", str(src), "--cells", "100")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert run(capsys, *argv, "-o", str(out_file))[0] == 0
        assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


class TestAlignOutputIsPinned:
    """SHA-256 of what ``align`` prints for the README's transported f.

    f is ``transport --cells 100`` of the README construction.  g is f
    itself (the identity permutation) or f reversed and shifted by 0.03,
    which moves every cell.
    """

    CASES = [
        pytest.param("readme", "59477f26854135a7830e97bdfe7d0becb315612f1c5ce45fa01744e787d7cab9",
                     id="readme"),
        pytest.param("reversed", "4321ec240fb54b2239bcb99020161931977f70877331207e605b9d55ddb31f74",
                     id="reversed"),
    ]

    @pytest.mark.parametrize("g, digest", CASES)
    def test_stdout_digest(self, capsys, tmp_path, g, digest):
        a_file, f_file, g_file = tmp_path / "a.json", tmp_path / "f.json", tmp_path / "g.json"
        assert run(capsys, "construct", "--lambda", "[2, 1, 0]", "--p", "[1, 1, 1]",
                   "-o", str(a_file))[0] == 0
        assert run(capsys, "transport", "--measure", str(a_file), "--cells", "100",
                   "-o", str(f_file))[0] == 0
        values = json.loads(f_file.read_text())["values"]
        if g == "reversed":
            values = [v + 0.03 for v in values[::-1]]
        g_file.write_text(json.dumps({"N": 100, "values": values}))
        code, out, _ = run(capsys, "align", "--f", str(f_file), "--g", str(g_file), "--eps", "0.1")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        if g == "reversed":
            assert json.loads(out)["permutation"] != list(range(100))


class TestPinchExperimentOutputIsPinned:
    """SHA-256 of what ``pinch-experiment`` prints, as the trial-at-a-time sweep printed it.

    Blocks of trials change the cost of the sweep, not its report: the
    README call runs through many blocks and must print the same bytes.
    """

    CASES = [
        pytest.param(
            ("--n", "20", "--trials", "1000", "--seed", "7"),
            "b77d24c97a277a9c45f075404bd13ec1a5aead4267081b31369d79151f03ba32",
            id="readme",
        ),
        pytest.param(
            ("--n", "3", "--trials", "5", "--seed", "2"),
            "4cf9a0a99e905e455dbc7f37aefa1e6ca70da4e174cd71dbf02cec2735cf6e5b",
            id="small",
        ),
    ]

    @pytest.mark.parametrize("argv, digest", CASES)
    def test_stdout_digest(self, capsys, monkeypatch, argv, digest):
        monkeypatch.delenv("MAJORANT_SEED", raising=False)
        code, out, _ = run(capsys, "pinch-experiment", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("obj, message", [
    (float("nan"), "cannot serialize a non-finite number"),
    ({"slack": [1.0, np.inf]}, "cannot serialize a non-finite number"),
    ({1, 2}, "cannot serialize object of type set"),
    ([object()], "cannot serialize object of type object"),
    (np.int64(1), "cannot serialize object of type int64"),
    (np.True_, "cannot serialize object of type bool"),
    (np.array([1.0]), "cannot serialize object of type ndarray"),
], ids=["nan", "inf-in-a-report", "set", "object", "numpy-integer", "numpy-bool", "ndarray"])
def test_serializer_rejects(obj, message):
    with pytest.raises(majorant.InvalidInput) as caught:
        dumps(obj)
    assert str(caught.value) == message


def test_serializer_writes_a_numpy_float_as_its_float():
    # np.float64 subclasses float, so it is a Python value
    assert dumps([np.float64(0.1)]) == dumps([0.1])


def loaded_submodules(code: str) -> set[str]:
    """The ``majorant.*`` modules a fresh interpreter holds after running ``code``."""
    code += "\nimport sys; print(*(m for m in sys.modules if m.startswith('majorant.')))\n"
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


def after_command(*argv: str) -> set[str]:
    return loaded_submodules(f"from majorant.cli import main\nassert main({list(argv)!r}) == 0")


class TestProcessesImportOnlyWhatTheyRun:
    """Every process compiles the modules it imports, so it skips those it never runs."""

    def test_bare_package_import_loads_no_submodule(self):
        assert loaded_submodules("import majorant") == set()

    def test_cli_import_loads_no_numpy(self):
        # so that run_process can import NumPy with the collector off
        done = run_python("-c", "import sys, majorant.cli; print('numpy' in sys.modules)")
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    def test_serialize_import_loads_no_numpy(self):
        done = run_python("-c", "import sys, majorant.serialize; print('numpy' in sys.modules)")
        assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr

    @pytest.mark.parametrize("extra", [(), ("--truncate", "4")], ids=["plain", "truncate"])
    def test_construct(self, tmp_path, extra):
        loaded = after_command("construct", "--lambda", "[2, 1]", "--p", "[1.5, 1.5]", *extra,
                               "-o", str(tmp_path / "a.json"))
        assert "majorant.horn" in loaded
        assert not loaded & {"majorant.measures", "majorant.pinching", "majorant.sampling"}

    def test_measure_and_majorize_measure(self, tmp_path):
        a_file = str(tmp_path / "a.json")
        assert main(["construct", "--lambda", "[2, 1, 0]", "--p", "[1, 1, 1]", "-o", a_file]) == 0
        for argv in (("measure", a_file, "-o", str(tmp_path / "m.json")),
                     ("majorize-measure", "--m", a_file, "--n", a_file)):
            loaded = after_command(*argv)
            assert "majorant.measures" in loaded
            assert not loaded & {"majorant.pinching", "majorant.sampling", "majorant.trace_class"}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def majorant_process(*argv: str):
    """``python -m majorant.cli *argv`` in a fresh interpreter; output as bytes."""
    return run_python("-m", "majorant.cli", *argv, text=False)


def console_script_call() -> str:
    """What the installed ``majorant`` script runs, read from ``[project.scripts]``."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    module, func = re.search(r'^\[project\.scripts\]\nmajorant = "([\w.]+):(\w+)"$',
                             text, re.M).groups()
    return f"from {module} import {func}; {func}()"


class TestProcessOutputIsPinned:
    """The pinned digests again, through ``python -m majorant.cli`` in a process of its own.

    The in-process tests call ``main``; these run the ``__main__`` path,
    which pauses the collector during the imports and freezes the heap
    around the command, and must print the same bytes and exit codes.
    """

    @pytest.mark.parametrize("argv, digest", TestConstructionOutputIsPinned.CASES)
    def test_construction_digests(self, tmp_path, argv, digest):
        done = majorant_process(*argv)
        assert (done.returncode, done.stderr) == (0, b"")
        assert sha256(done.stdout) == digest
        out_file = tmp_path / "out.json"
        done = majorant_process(*argv, "-o", str(out_file))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert sha256(out_file.read_bytes()) == digest

    @pytest.mark.parametrize("source, digest", TestMeasureOutputIsPinned.CASES)
    def test_measure_digests(self, capsys, tmp_path, source, digest):
        src, out_file = tmp_path / "src.json", tmp_path / "m.json"
        if source == "pieces":
            src.write_text(json.dumps(TestMeasureOutputIsPinned.PIECES))
        else:
            lam, p = TestMeasureOutputIsPinned.SOURCES[source]
            assert run(capsys, "construct", "--lambda", lam, "--p", p, "-o", str(src))[0] == 0
        done = majorant_process("measure", str(src))
        assert (done.returncode, done.stderr) == (0, b"")
        assert sha256(done.stdout) == digest
        done = majorant_process("measure", str(src), "-o", str(out_file))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert sha256(out_file.read_bytes()) == digest

    @pytest.mark.parametrize("m, n, code, digest", TestMajorizeMeasureOutputIsPinned.CASES)
    def test_majorize_measure_digests_and_exit_codes(self, capsys, tmp_path, m, n, code, digest):
        lam32, p32 = (json.loads(s) for s in TestMeasureOutputIsPinned.SOURCES["n32"])
        files = {"point": tmp_path / "point.json", "diag": tmp_path / "diag.json"}
        files["point"].write_text(json.dumps({"atoms": [{"x": 1.0, "mass": 1.0}]}))
        files["diag"].write_text(json.dumps({"atoms": [
            {"x": x, "mass": p32.count(x) / 32} for x in sorted(set(p32))]}))
        for name, lam, p in (("a3", [2, 1, 0], [1, 1, 1]), ("a32", lam32, p32)):
            files[name] = tmp_path / f"{name}.json"
            assert run(capsys, "construct", "--lambda", json.dumps(lam), "--p", json.dumps(p),
                       "-o", str(files[name]))[0] == 0
        done = majorant_process("majorize-measure", "--m", str(files[m]), "--n", str(files[n]))
        assert (done.returncode, done.stderr) == (code, b"")
        assert sha256(done.stdout) == digest

    def test_malformed_input_exits_two_with_one_error_line(self):
        done = majorant_process("construct", "--lambda", "[1, 1]", "--p", "[2, 0]")
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr.startswith(b"error: ") and done.stderr.count(b"\n") == 1

    @pytest.mark.parametrize("entry", [
        'import runpy; runpy.run_module("majorant.cli", run_name="__main__", alter_sys=True)',
        console_script_call(),
    ], ids=["python-m", "console-script"])
    def test_collector_around_the_command(self, entry):
        # at exit: how many collections ran while NumPy's import heap was not yet
        # frozen, whether the collector is on, and how many objects it still tracks
        argv, code, digest = TestListOutputIsPinned.CASES[1].values
        script = (
            "import atexit, gc, sys\n"
            "early = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and 'numpy' in sys.modules"
            " and not gc.get_freeze_count() and early.append(info))\n"
            "atexit.register(lambda: print(len(early), gc.isenabled(), len(gc.get_objects()),"
            " file=sys.stderr))\n"
            f"sys.argv[1:] = {list(argv)!r}\n"
            f"{entry}\n"
        )
        done = run_python("-c", script)
        assert done.returncode == code, done.stderr
        assert sha256(done.stdout.encode()) == digest
        early, enabled, young = done.stderr.split()
        # the imports ran with the collector off, the command with it on, and
        # exit found nothing young to collect
        assert (early, enabled, young) == ("0", "True", "0")


def test_importing_the_cli_leaves_the_collector_alone(tmp_path):
    # library callers, this test process and the benchmark's traced child import
    # majorant.cli and call main(): only a process run as the CLI freezes its heap
    script = (
        "import gc\n"
        "from majorant.cli import main\n"
        "assert gc.isenabled() and gc.get_freeze_count() == 0, 'import'\n"
        "assert main(['construct', '--lambda', '[2, 1, 0]', '--p', '[1, 1, 1]',"
        f" '-o', {str(tmp_path / 'a.json')!r}]) == 0\n"
        "assert gc.isenabled() and gc.get_freeze_count() == 0, 'main'\n"
    )
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
