"""The benchmark's tracer wraps one operation of every layer and puts everything back.

``perfbench/tracer.py`` looks up methods of the package by name
(``CompactMeasure.__post_init__``, ``survivor``, ``breakpoints`` and
``HermitianMatrix.__post_init__``) and wraps every public function, so a
rename in ``src/`` makes every traced benchmark run fail.  This runs one
small operation through each layer under it, as a traced run does.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import majorant
import majorant.horn as horn
import majorant.measures as measures

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracer")


def test_tracer_wraps_every_layer_and_restores_it(tracer):
    modules = [importlib.import_module(f"majorant.{layer}") for layer in tracer.LAYERS]
    for name in majorant.__all__:
        getattr(majorant, name)  # resolve the lazy names first, so none is cached while wrapped
    owners = [majorant, *modules, measures.CompactMeasure, horn.HermitianMatrix, np.linalg]
    before = [dict(vars(owner)) for owner in owners]
    original_post_init = measures.CompactMeasure.__post_init__

    recorder = tracer.Tracer()
    uninstall = tracer.install(recorder)
    try:
        assert measures.CompactMeasure.__post_init__ is not original_post_init
        recorder.begin_op()
        a = majorant.horn_construct([3.0, 2.0, 1.0, 0.5], [1.75, 1.75, 1.5, 1.5])
        L = majorant.contraction_diagonal(a, [1.0, 0.5])
        assert np.allclose(np.diag(L.conj().T @ a.entries @ L).real, [1.0, 0.5, 0.0, 0.0])
        m = majorant.CompactMeasure.from_points([0.0, 1.0, 2.0, 3.0])
        n = majorant.CompactMeasure.from_points([-1.0, 1.0, 2.0, 4.0])
        for method in ("hinge", "survivor", "convex_family"):
            assert majorant.majorize_measure(m, n, method)
            assert not majorant.majorize_measure(n, m, method)
        assert majorant.pinch_experiment(3, 2, 0)["holds"]
        assert majorant.serialize.dumps(majorant.HermitianMatrix(a.entries).to_jsonable())
        counts = recorder.end_op()
    finally:
        uninstall()

    for name in ("horn.horn_construct", "trace_class.contraction_diagonal", "horn.HermitianMatrix",
                 "measures.CompactMeasure", "measures.majorize_measure.hinge",
                 "measures.majorize_measure.survivor", "measures.majorize_measure.convex_family",
                 "pinching.pinch_experiment", "serialize.dumps"):
        assert counts[name] >= 1, name
    for owner, attrs in zip(owners, before):
        for attr, value in attrs.items():
            assert vars(owner)[attr] is value, (owner, attr)


def test_benchmark_selftest_catches_every_wrong_output():
    # the self-test builds each workload's inputs and runs the CLI workload in
    # a directory of its own, named after its process, which it must remove
    proc = subprocess.Popen([sys.executable, "perfbench/selftest.py"], cwd=PERFBENCH.parent,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    out, err = proc.communicate()
    assert proc.returncode == 0, out + err
    assert "selftest: 6 of 6 wrong outputs caught" in out
    assert not (PERFBENCH / "out" / f"selftest-{proc.pid}").exists()
