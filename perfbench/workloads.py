"""The three workloads: one fixed op each, driven by a single closed-loop client.

Each workload class has the same shape:

* ``setup()`` — everything before the first timed op can begin
  (imports, service or pool start, one warm-up op);
* ``op(traced)`` — one op; returns an :class:`OpResult` carrying the
  digest of the op's output and, when ``traced``, the op's layer record;
* ``inline_digest()`` — the same output computed through the inline
  route (``run_fase``/``run_survey`` at ``workers=1`` in this process),
  the golden for seeds without a committed one;
* ``close()`` — stop what ``setup()`` started.

The seed only chooses inputs (the simulated machines' random streams);
the program never sees anything but the generated campaign arguments.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import (
    PIPELINE_LAYERS,
    Tracer,
    install_pipeline,
    install_service,
    layer_totals,
    traced_run_shard,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Input sizes. ``full`` is what the benchmark measures; ``tiny`` keeps
#: the same shape at a fraction of the cost for the smoke test.
SIZES = {
    "full": {"scan_span": 4e6, "survey_span": 4e6, "service_span": 4e5, "fres": 50.0},
    "tiny": {"scan_span": 2e5, "survey_span": 4e5, "service_span": 1e5, "fres": 100.0},
}


def digest(data):
    return hashlib.sha256(data).hexdigest()


def report_digest(report):
    """SHA-256 of a ``SurveyReport`` with its wall-clock telemetry removed."""
    data = report.to_dict()
    data.pop("telemetry", None)
    return digest(json.dumps(data, sort_keys=True).encode())


@dataclass
class OpResult:
    digest: str
    layers: dict = field(default_factory=dict)


def _sum(totals, layers, index=0):
    return sum(totals.get(layer, (0.0, 0, 0))[index] for layer in layers)


def pipeline_metrics(totals):
    """Per-layer metrics of the system/spectrum/core layers from span totals."""
    return {
        "system.emitter_render_s": _sum(totals, ["system.emitter_render"]),
        "system.environment_render_s": _sum(totals, ["system.environment_render"]),
        "system.render_calls": _sum(
            totals, ["system.emitter_render", "system.environment_render"], 1
        ),
        "spectrum.capture_self_s": _sum(totals, ["spectrum.capture"]),
        "spectrum.captures": _sum(totals, ["spectrum.capture"], 1),
        "core.score_s": _sum(totals, ["core.score"]),
        "core.detect_self_s": _sum(totals, ["core.detect"]),
        "core.group_classify_s": _sum(totals, ["core.group_classify"]),
        "core.campaign_self_s": _sum(totals, ["core.campaign"]),
        "core.detections": _sum(totals, ["core.detect"], 2),
    }


def _union_length(intervals, low, high):
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    covered = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


class ScanCold:
    """A fresh ``python -m repro scan`` process per op; startup is inside the op."""

    name = "scan-cold"

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir
        self.argv = [
            "scan",
            "--machine",
            "corei7_desktop",
            "--seed",
            str(seed),
            "--span-high",
            repr(self.size["scan_span"]),
            "--fres",
            repr(self.size["fres"]),
        ]
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def setup(self):
        # The op's child imports the same modules; importing them here
        # first compiles and caches them, as a user's first run would.
        start = time.perf_counter()
        import repro.cli  # noqa: F401

        self.import_s = time.perf_counter() - start
        from repro import FaseConfig

        config = FaseConfig(span_high=self.size["scan_span"], fres=self.size["fres"])
        self.bins = 2 * config.n_alternations * config.grid().n_bins

    def op(self, traced):
        trace_path = self.workdir / "scan-trace.json"
        if traced:
            command = [sys.executable, str(HERE / "scan_child.py"), str(trace_path)]
        else:
            command = [sys.executable, "-m", "repro"]
        spawned = time.perf_counter()
        proc = subprocess.run(
            command + self.argv, env=self.env, stdout=subprocess.PIPE, timeout=120, check=True
        )
        exited = time.perf_counter()
        result = OpResult(digest(proc.stdout))
        if traced:
            record = json.loads(trace_path.read_text())
            trace_path.unlink()
            totals = record["layers"]
            wall = exited - spawned
            spawn_s = record["started"] - spawned
            exit_s = exited - record["ended"]
            import_s = totals["import.repro"][0]
            spanned = import_s + _sum(totals, PIPELINE_LAYERS)
            named = spawn_s + exit_s + spanned
            result.layers = {
                **pipeline_metrics(totals),
                "import.repro_s": import_s,
                "process.spawn_s": spawn_s,
                "process.exit_s": exit_s,
                "trace.op_wall_s": wall,
                "trace.coverage": named / wall,
                "trace.span_coverage": spanned / wall,
            }
        return result

    def inline_digest(self):
        import repro.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            repro.cli.main(self.argv)
        return digest(out.getvalue().encode())

    def close(self):
        pass


class SurveyFanout:
    """One whole ``run_survey`` per op: 2 machines x 2 pairs x 4 bands on the pool."""

    name = "survey-fanout"
    machines = ("corei7_desktop", "turionx2_laptop")

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir
        self.workers = min(2, os.cpu_count() or 1)

    def setup(self):
        start = time.perf_counter()
        from repro import FaseConfig
        from repro.survey import DEFAULT_PAIRS, run_survey

        self.import_s = time.perf_counter() - start
        self.run_survey = run_survey
        self.pairs = DEFAULT_PAIRS
        self.config = FaseConfig(
            span_high=self.size["survey_span"], fres=self.size["fres"], name="perfbench survey"
        )
        self.bins = (
            len(self.machines) * len(self.pairs)
            * self.config.n_alternations * self.config.grid().n_bins
        )
        self.op(traced=False)  # warm-up: first fork of a pool, first-touch pages

    def _survey(self, workers, shard_fn=None):
        return self.run_survey(
            machines=list(self.machines),
            pairs=self.pairs,
            config=self.config,
            bands=4,
            seed=self.seed,
            workers=workers,
            shard_fn=shard_fn,
        )

    def op(self, traced):
        if not traced:
            return OpResult(report_digest(self._survey(self.workers)))
        spool = self.workdir / "shards"
        spool.mkdir(exist_ok=True)
        start = time.perf_counter()
        report = self._survey(self.workers, functools.partial(traced_run_shard, str(spool)))
        end = time.perf_counter()
        records = [json.loads(path.read_text()) for path in spool.iterdir()]
        shutil.rmtree(spool)
        wall = end - start
        busy = sum(r["end"] - r["start"] for r in records)
        totals = {}
        for record in records:
            for layer, values in record["layers"].items():
                entry = totals.setdefault(layer, [0.0, 0, 0])
                for index, value in enumerate(values):
                    entry[index] += value
        lanes = self.workers * wall
        shards_running = _union_length([(r["start"], r["end"]) for r in records], start, end)
        # Lane accounting: each worker lane is either idle (waiting for
        # the parent to plan, dispatch or aggregate) or inside a shard,
        # where the traced layers' self times are the attributed part.
        spanned = _sum(totals, PIPELINE_LAYERS)
        attributed = spanned + (lanes - busy)
        result = OpResult(report_digest(report))
        result.layers = {
            **pipeline_metrics(totals),
            "survey.shard_busy_s": busy,
            "survey.worker_util": busy / lanes,
            "survey.parent_overhead_s": wall - shards_running,
            "survey.shard_retries": report.ledger.n_failures,
            "trace.op_wall_s": wall,
            "trace.coverage": attributed / lanes,
            "trace.span_coverage": spanned / lanes,
        }
        return result

    def inline_digest(self):
        return report_digest(self._survey(workers=1))

    def close(self):
        pass


class ServiceJobs:
    """Submit a small job, follow its event stream to the end, fetch the result.

    The service's follow stream polls its events log every 0.1 s, so the
    moment the client sees the end is quantised to that grid, counted
    from when the stream connects. Connecting right after every submit
    locks the grid to the job: op latency then jumps by a whole 0.1 s
    step whenever the job's run time crosses a grid line, and the
    median flips between steps from run to run. Each op therefore
    connects after a delay spread evenly over one poll interval (a
    golden-ratio sequence), which averages the lag over the phase. The
    delay stays below the job's own run time (dispatch plus a ~0.13 s
    shard), so it does not postpone the client's view of completion.
    Should a job ever end before the delay does, the delay is a latency
    floor: :attr:`late_connects` counts those ops and the run prints it.
    """

    name = "service-jobs"
    tenants = ("alice", "bob")
    #: The follow stream's poll interval when this benchmark was defined.
    #: Fixed on purpose: the op must not change when the service's own
    #: ``stream_poll_s`` does.
    stream_poll_s = 0.1

    def __init__(self, seed, size, workdir):
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir
        self.service = None
        self.n_ops = 0
        #: Ops whose job was already terminal when the stream connected.
        self.late_connects = 0

    def setup(self):
        start = time.perf_counter()
        from repro import FaseConfig
        from repro.io import _config_to_dict
        from repro.service import FaseService, ServiceClient
        from repro.service.queue import CANCELLED, COMPLETED
        from repro.survey import DEFAULT_PAIRS, run_survey

        self.import_s = time.perf_counter() - start
        self.terminal = (COMPLETED, CANCELLED)
        self.run_survey = run_survey
        self.pair = DEFAULT_PAIRS[0]
        self.config = FaseConfig(
            span_high=self.size["service_span"], fres=self.size["fres"], name="perfbench job"
        )
        self.wire_config = _config_to_dict(self.config)
        self.bins = self.config.n_alternations * self.config.grid().n_bins
        self.service = FaseService(self.workdir / "store")
        host, port = self.service.start()
        self.client = ServiceClient(f"http://{host}:{port}")
        self.op(traced=False)  # warm-up: first connection, first journal fsync
        self.late_connects = 0

    def _job(self):
        tenant = self.tenants[self.n_ops % len(self.tenants)]
        self.n_ops += 1
        return self.client.submit(
            tenant,
            machines=["corei7_desktop"],
            pairs=[[op.value for op in self.pair]],
            config=self.wire_config,
            bands=2,
            seed=self.seed,
        )

    def _follow(self, job_id):
        time.sleep((self.n_ops * 0.6180339887) % 1.0 * self.stream_poll_s)
        if self.service.store.job_state(job_id) in self.terminal:
            self.late_connects += 1
        stream = self.client.stream_events(job_id)
        while True:
            try:
                next(stream)
            except StopIteration as stop:
                return stop.value

    def op(self, traced):
        tracer = install_service(install_pipeline(Tracer()), self.service) if traced else None
        try:
            t_submit = time.perf_counter()
            job_id = self._job()
            t_submitted = time.perf_counter()
            state = self._follow(job_id)
            t_terminal = time.perf_counter()
            report = self.client.result(job_id)
            t_done = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.uninstall()
        if state != "completed":
            raise RuntimeError(f"{job_id} ended {state!r}")
        result = OpResult(report_digest(report))
        if traced:
            spans = tracer.since(t_submit)
            claims = [s for s in spans if s[0] == "service.store_claim"]
            hits = [s for s in claims if s[4] == job_id]
            completes = [s for s in spans if s[0] == "service.store_complete" and s[4] == job_id]
            first_claim = min(s[2] for s in hits)
            last_complete = max(s[2] for s in completes)
            wall = t_done - t_submit
            shard_spans = [
                (s[1], s[2])
                for s in spans
                if s[0] in ("service.shard_run", "service.store_complete") or s in hits
            ]
            dispatch_wait = first_claim - t_submit
            stream_lag = t_terminal - last_complete
            # Critical path: wait for dispatch, shards running (the union
            # of claim/run/complete spans; gaps are the remainder), the
            # stream noticing the end, then the result fetch.
            named = (
                dispatch_wait
                + _union_length(shard_spans, first_claim, last_complete)
                + stream_lag
                + (t_done - t_terminal)
            )
            # The waits above are intervals, so ``named`` is near the op
            # wall by construction. What the layers' own spans cover (the
            # client's round trips and every store, journal and shard
            # span on any thread) drops when unattributed work grows.
            spanned = _union_length(
                [(t_submit, t_submitted), (t_terminal, t_done)]
                + [(s[1], s[2]) for s in spans],
                t_submit,
                t_done,
            )
            totals = layer_totals(spans)
            result.layers = {
                **pipeline_metrics(totals),
                "service.client_http_s": (t_submitted - t_submit) + (t_done - t_terminal),
                "service.store_submit_s": _sum(totals, ["service.store_submit"]),
                "service.store_claim_s": _sum(totals, ["service.store_claim"]),
                "service.claim_hit_ratio": len(hits) / len(claims),
                "service.store_complete_s": _sum(totals, ["service.store_complete"]),
                "service.store_other_s": _sum(totals, ["service.store_other"]),
                "service.journal_appends": _sum(totals, ["service.journal_append"], 1),
                "service.journal_append_s": _sum(totals, ["service.journal_append"]),
                "service.dispatch_wait_s": dispatch_wait,
                # Inclusive: the pipeline layers above are its breakdown.
                "service.shard_run_s": sum(
                    s[2] - s[1] for s in spans if s[0] == "service.shard_run"
                ),
                "service.stream_lag_s": stream_lag,
                "trace.op_wall_s": wall,
                "trace.coverage": named / wall,
                "trace.span_coverage": spanned / wall,
            }
        return result

    def inline_digest(self):
        return report_digest(
            self.run_survey(
                machines=["corei7_desktop"],
                pairs=[self.pair],
                config=self.config,
                bands=2,
                seed=self.seed,
                workers=1,
            )
        )

    def close(self):
        if self.service is not None:
            self.service.stop()
            self.service = None


WORKLOADS = {cls.name: cls for cls in (ScanCold, SurveyFanout, ServiceJobs)}
