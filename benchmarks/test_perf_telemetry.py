"""Telemetry overhead guard: the disabled layer must cost nothing.

Two claims are enforced:

* the no-op default (``NULL_TELEMETRY``) costs well under a microsecond
  per instrumentation site, so sprinkling spans through the campaign and
  scoring layers leaves uninstrumented runs unchanged;
* even a *fully enabled* pipeline (recorder sink + profiler) changes the
  scoring-and-detection hot path by a bounded factor, because spans wrap
  whole stages, never inner loops.

Bounds are deliberately generous (CI machines are noisy); the scoring
benchmark's 3x speedup floor in ``test_perf_scoring.py`` is the
fine-grained regression guard and runs in the same CI job with telemetry
disabled.
"""

import json
import statistics
import time
from contextlib import nullcontext

from repro.core import CarrierDetector
from repro.telemetry import NULL_TELEMETRY, Recorder, Telemetry, use_telemetry

#: Interleaved disabled/enabled ``detect()`` pairs behind the overhead median.
OVERHEAD_ROUNDS = 15


def _best_of(fn, repeats=3):
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def test_null_span_cost_is_negligible(output_dir):
    iterations = 100_000
    telemetry = NULL_TELEMETRY

    def spin():
        for index in range(iterations):
            with telemetry.span("capture", index=index, stage="capture"):
                pass
        return iterations

    elapsed, _ = _best_of(spin)
    per_call_us = 1e6 * elapsed / iterations
    (output_dir / "BENCH_telemetry_null.json").write_text(
        json.dumps({"iterations": iterations, "per_call_us": per_call_us}, indent=2)
    )
    # Real sites fire a handful of times per capture; 5 us a call would
    # still be invisible, and the no-op is far below it.
    assert per_call_us < 5.0


def test_enabled_pipeline_overhead_bounded(i7_ldm_result, output_dir):
    result = i7_ldm_result
    telemetry = Telemetry(sinks=[Recorder()], profile=True)
    arms = {"disabled": nullcontext, "enabled": lambda: use_telemetry(telemetry)}
    times = {name: [] for name in arms}
    values = {}

    # Interleave the two arms, alternating which goes first, so drift on
    # the machine lands on both alike instead of reading as overhead;
    # then compare medians rather than best cases.
    for round_index in range(OVERHEAD_ROUNDS):
        order = sorted(arms, reverse=bool(round_index % 2))
        for name in order:
            with arms[name]():
                start = time.perf_counter()
                values[name] = CarrierDetector().detect(result)
                times[name].append(time.perf_counter() - start)
    disabled, enabled = values["disabled"], values["enabled"]
    disabled_s = statistics.median(times["disabled"])
    enabled_s = statistics.median(times["enabled"])

    assert [d.frequency for d in disabled] == [d.frequency for d in enabled]
    overhead = enabled_s / disabled_s - 1.0
    (output_dir / "BENCH_telemetry_overhead.json").write_text(
        json.dumps(
            {
                "disabled_s": disabled_s,
                "enabled_s": enabled_s,
                "overhead_fraction": overhead,
            },
            indent=2,
        )
    )
    # One detect span + one score span + two counters over a ~100 ms
    # stage: the true overhead is microseconds. 25% absorbs CI noise.
    assert overhead < 0.25
