"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json

import pytest

import child
import run
from tracer import self_times

TINY = {
    "lift": [["verify", "lifting", "--m", "3", "--words", "2"]],
    "enum": [["specialize", "--m", "3", "--n", "5", "--enumerate"]],
}


def test_self_times_on_hand_built_tree():
    # a [0, 100] has children b [10, 40] and c [30, 60], which overlap,
    # and d [90, 120], which runs past a's end; b has a child e [15, 20].
    spans = [
        ("a", 0, 100, -1),
        ("b", 10, 40, 0),
        ("e", 15, 20, 1),
        ("c", 30, 60, 0),
        ("d", 90, 120, 0),
        ("c", 200, 210, -1),
    ]
    got = {k: round(v * 1e9) for k, v in self_times(spans).items()}
    assert got == {"a": 100 - 50 - 10, "b": 30 - 5, "e": 5, "c": 30 + 10, "d": 30}


def test_expected_orders_from_formulas():
    assert child.expected_order(3, 5) == 4080
    assert child.expected_order(3, 7) == 254016
    assert child.expected_order(3, 11) == 1073740800
    assert child.expected_order(4, 5) is None


def _report(checks, command="specialize", m=3, n=5):
    return json.dumps({
        "command": command,
        "params": {"m": str(m), "n": str(n)},
        "checks": [
            {"name": name, "status": status, "expected": None, "actual": actual}
            for name, status, actual in checks
        ],
    })


@pytest.mark.parametrize(
    "code, checks, failed",
    [
        (0, [("group_order_phi", "pass", "4080"), ("group_order_eta", "pass", "4080")], 0),
        (1, [("group_order_phi", "pass", "4080"), ("group_order_eta", "pass", "4080")], 1),
        (0, [("group_order_phi", "fail", "4080"), ("group_order_eta", "pass", "4080")], 1),
        (0, [("group_order_phi", "pass", "4096"), ("group_order_eta", "pass", "4096")], 2),
        (0, [("group_order_phi", "pass", "4080"), ("group_order_eta", "pass", "4081")], 2),
        (0, [("group_order", "skip", None)], 4),
    ],
)
def test_correctness_gate(code, checks, failed):
    argv = ["specialize", "--m", "3", "--n", "5", "--enumerate"]
    attempted, failures = child.check_call(argv, code, _report(checks), None)
    assert attempted == 1 + len(checks) + 3
    assert len(failures) == failed


def test_gate_counts_a_crash():
    assert child.check_call(["verify", "basis"], None, "", "ValueError: x") == (
        1, ["verify basis: ValueError: x"])


@pytest.mark.parametrize("trace", [False, True])
def test_output_schema_at_tiny_sizes(monkeypatch, trace):
    monkeypatch.setattr(run, "workload_calls", lambda name, seed: TINY[name])
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    spec = run.load_spec()
    for name in TINY:
        result = run.run_workload(name, seed=1, seconds=0, trace=trace)
        line = json.loads(json.dumps(run.summary(result, spec, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert line["attempted"] >= 1
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            entry = line["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert isinstance(entry["value"], (int, float))
        if trace and name == "enum":
            # phi and eta are each enumerated once: 2 x 4080 states
            assert line["metrics"]["spectool.bfs.states"]["value"] == 2 * 4080
            assert line["metrics"]["spectool.bfs.products"]["value"] == 2 * 4080 * 3
        if trace and name == "lift":
            assert line["metrics"]["clifford.conjugation_matrix.calls"]["value"] > 0
            # phi and psi each evaluate every word once
            letters = line["metrics"]["presentation.evaluate.letters"]["value"]
            assert letters == 2 * result["letters"] > 0
        if name == "lift":
            assert result["letters"] > 0
        else:
            assert result["letters"] is None
        if not trace:
            assert line["metrics"]["wall_s"]["value"] > 0


def test_deadline_is_a_time_not_a_failure(monkeypatch):
    # a repetition longer than the deadline is stopped and reads as the
    # seconds it ran, not as a failed check
    calls = [["verify", "lifting", "--m", "4", "--words", "400"]]
    monkeypatch.setattr(run, "workload_calls", lambda name, seed: calls)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "DEADLINE_S", 1)
    result = run.run_workload("lift", seed=1, seconds=0, trace=False)
    assert result["timed_out"] >= 1
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["wall_s"] >= 0.9
