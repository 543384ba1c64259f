"""Self-tests of the benchmark's own logic.

Run from the repository root with

    python3 -m pytest -q benchmarks/selftest.py

The file name keeps these tests out of the default test collection; the
smoke runs start the benchmark once per workload and take about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_knife_edge_negative_leaves_the_disc():
    rng = np.random.default_rng(7)
    for _ in range(50):
        pair = workloads.knife_edge_pair(rng, int(rng.integers(2, 7)), outside=True)
        assert np.max(np.abs(np.linalg.eigvals(pair.S))) > 1 + 1e-6


def test_knife_edge_positive_stays_in_the_disc():
    rng = np.random.default_rng(8)
    for _ in range(50):
        pair = workloads.knife_edge_pair(rng, int(rng.integers(2, 7)), outside=False)
        assert np.max(np.abs(np.linalg.eigvals(pair.S))) <= 1 + 1e-12


def test_trace_invariant_separates_stranger_not_conjugate():
    rng = np.random.default_rng(9)
    first = workloads.model_pair(rng, 2, 5)
    conjugate = workloads.haar_conjugate(rng, *first)
    stranger = workloads.haar_conjugate(rng, *workloads.model_pair(rng, 2, 5))
    assert not workloads.invariants_separate(first, conjugate)
    assert workloads.invariants_separate(first, stranger)


def test_self_time_on_synthetic_span_tree():
    S = lambda sid, parent, t0, t1: [sid, parent, f"s{sid}", t0, t1, False, {}]  # noqa: E731
    tree = [
        S(0, -1, 0.0, 10.0),
        S(1, 0, 1.0, 3.0),
        S(2, 1, 1.5, 2.0),
        S(3, 0, 4.0, 6.0),
        S(4, 0, 8.0, 9.5),
    ]
    assert spans.self_times(tree) == pytest.approx([4.5, 1.5, 0.5, 2.0, 1.5])
    # overlapping and overhanging children count once, inside the parent only
    assert spans.covered([(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)], 0.0, 10.0) == pytest.approx(6.0)


def test_layer_metrics_count_decided_comparisons():
    jue, fui = spans.JUE, spans.FUI
    tree = [
        [0, -1, jue, 0.0, 4.0, False, {}],
        [1, 0, fui, 1.0, 3.0, False, {"kron_bytes": 100}],
        [2, -1, jue, 5.0, 6.0, False, {}],
        [3, -1, spans.NUMRAD, 7.0, 8.0, True, {"eig": 10}],
    ]
    m = spans.layer_metrics(tree, [jue, fui, spans.NUMRAD], rounds=2)
    assert m[f"{jue}.calls"] == 1.0
    assert m[f"{jue}.self_s"] == pytest.approx(1.5)
    assert m[f"{jue}.dfs_decided_ratio"] == 0.5
    assert m[f"{fui}.kron_bytes"] == 100
    assert m[f"{spans.NUMRAD}.errors"] == 0.5
    assert m["numrad.eig_calls_per_call"] == 10


def test_recorder_restores_bindings():
    import symbidisc
    from symbidisc import classify

    original = classify.numerical_radius
    rec = spans.Recorder()
    rec.bind(spans.targets({"numrad": ["numerical_radius"]}))
    try:
        assert classify.numerical_radius is not original
        symbidisc.is_gamma_contraction(symbidisc.make_pair([[0.5]], [[0.0]]))
    finally:
        rec.unbind()
    assert classify.numerical_radius is original
    assert symbidisc.numerical_radius is original
    assert [s[spans.NAME] for s in rec.spans] == [spans.NUMRAD]
    assert rec.spans[0][spans.ATTRS]["eig"] > 0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["classify", "model", "certify", "scale"])
def test_smoke_run(name, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
           "--seconds", "0.1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = bench["per_layer"] if trace else bench["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
