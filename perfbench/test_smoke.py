"""Smoke test of the benchmark itself, at a tiny input size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every workload prints every metric of ``BENCHMARK.json`` by
name and unit in both modes, that the digest gate passes the real
outputs, that a perturbed output is counted as a failed op, and that a
hung op ends the run with a non-zero exit and no result line.
"""

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def tiny_run(workload, trace, perturb=None):
    lines = []
    result = run.run(workload, seed=1, seconds=0.1, trace=trace, size="tiny",
                     perturb=perturb, setups=1, log=lines.append)
    return result, lines


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    result, lines = tiny_run(workload, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for m in wanted:
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(m["unit"])
                   for line in lines)
    json.dumps(result)  # the last line must serialise


def test_perturbed_output_trips_the_digest_gate():
    def corrupt(result):
        return OpResult(result.digest[::-1], result.layers)

    result, lines = tiny_run("service-jobs", 0, perturb=corrupt)
    assert result["failed"] == result["attempted"] >= run.MIN_OPS
    assert not result["correct"]
    assert any(line.startswith("fail_ratio = 1.0000") for line in lines)


def test_tail_keeps_ten_beyond_or_stays_above_the_median():
    samples = [float(i) for i in range(100)]
    value, percentile, beyond = run.tail(samples)
    assert (value, beyond) == (89.0, 10) and percentile == 90.0
    value, _, beyond = run.tail([float(i) for i in range(8)])
    assert beyond == 3 and value == 4.0 > 3.5
    value, _, beyond = run.tail([float(i) for i in range(9)])
    assert beyond == 3 and value == 5.0 > 4.0
    value, _, beyond = run.tail([float(i) for i in range(21)])
    assert beyond == 9 and value == 11.0 > 10.0
    assert run.tail([1.0, 2.0, 3.0]) is None


class Hang:
    """A workload whose every op blocks for five times the run's deadline."""

    def __init__(self, seed, size, workdir):
        pass

    def setup(self):
        pass

    def op(self, traced):
        time.sleep(5)

    def close(self):
        pass


def test_a_hung_op_ends_the_run_without_a_result(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, "hang", Hang)
    monkeypatch.setattr(run, "DEADLINE_S", 1)
    began = time.monotonic()
    code = run.main(["--workload", "hang", "--seconds", "8"])
    assert code == 3
    assert time.monotonic() - began < 10
    captured = capsys.readouterr()
    assert "DeadlineExpired" in captured.err
    assert captured.out == ""
