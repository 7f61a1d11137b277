"""Outside-in layer tracing: spans recorded around calls into each layer.

Nothing here edits ``src/``. :class:`Tracer` replaces a layer's public
functions with timing wrappers for as long as it is installed and puts
the originals back on exit. Every wrapped call becomes one span
``(layer, start, end, self_s, tag)`` where ``self_s`` is the call's
duration minus the time its wrapped callees took, so summing ``self_s``
over a layer never counts a nested call twice.

The survey pool runs shards in forked worker processes, so the parent's
wrappers never see them. :func:`traced_run_shard` is the benchmark-owned
``shard_fn``: it installs a fresh tracer inside the worker around
``run_shard`` and writes that shard's layer totals to a spool directory.
"""

from __future__ import annotations

import inspect
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from types import FunctionType

#: The pipeline layers whose self time counts as attributed work in the
#: coverage figure. What no wrapped call covers (argument parsing,
#: machine build, report formatting, ``run_shard``'s own bookkeeping) is
#: the remainder.
PIPELINE_LAYERS = (
    "system.emitter_render",
    "system.environment_render",
    "spectrum.capture",
    "core.score",
    "core.detect",
    "core.group_classify",
    "core.campaign",
)

#: Public JobStore methods, grouped into the three store metrics the
#: benchmark reports by name; every other public method is "other".
STORE_GROUPS = {"submit": "submit", "claim": "claim", "complete_shard": "complete"}


class Tracer:
    """Install timing wrappers on layer functions; collect spans in memory."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn, tag=None):
        """A wrapper recording one span per call of ``fn``.

        ``tag(args, result)`` optionally labels the span from the call's
        arguments and result (the store's claim wrapper records which job
        a claim returned, or ``None`` for an empty poll).
        """
        spans = self.spans
        stack_of = self._stack

        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                label = tag(args, result) if tag is not None else None
                spans.append((layer, start, end, duration - frame[0], label))

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, layer, tag=None):
        """Replace ``owner.attr`` (a function, method or static method)."""
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, staticmethod):
            replacement = staticmethod(self.wrap(layer, original.__func__, tag))
        else:
            replacement = self.wrap(layer, original, tag)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def since(self, start):
        """The spans that began at or after ``start``."""
        return [span for span in list(self.spans) if span[1] >= start]


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


def _public_methods(cls):
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and isinstance(value, (FunctionType, staticmethod))
    ]


def install_pipeline(tracer):
    """Wrap the system, spectrum and core layers (what every shard runs)."""
    from repro.core import campaign, detect, heuristic, pipeline
    from repro.spectrum.analyzer import SpectrumAnalyzer
    from repro.system.emitter import Emitter
    from repro.system.environment import RFEnvironment

    for cls in _subclasses(Emitter):
        if "render" in vars(cls):
            tracer.patch(cls, "render", "system.emitter_render")
    tracer.patch(RFEnvironment, "mean_power", "system.environment_render")
    tracer.patch(SpectrumAnalyzer, "capture", "spectrum.capture")
    for name in _public_methods(heuristic.HeuristicScorer):
        tracer.patch(heuristic.HeuristicScorer, name, "core.score")
    tracer.patch(detect.CarrierDetector, "detect", "core.detect", lambda args, found: len(found))
    tracer.patch(pipeline, "group_harmonics", "core.group_classify")
    tracer.patch(pipeline, "classify_sources", "core.group_classify")
    tracer.patch(campaign.MeasurementCampaign, "run_with_activities", "core.campaign")
    return tracer


def install_service(tracer, service):
    """Wrap the job store, its journal appends and the fleet's shard binding."""
    from repro.service import queue
    from repro.service.queue import JobStore

    def claimed_job(args, result):
        return None if result is None else result.job_id

    def completed_job(args, result):
        return args[1] if len(args) > 1 else None

    for name in _public_methods(JobStore):
        group = STORE_GROUPS.get(name, "other")
        tag = claimed_job if name == "claim" else completed_job if group == "complete" else None
        tracer.patch(JobStore, name, f"service.store_{group}", tag)
    tracer.patch(queue, "append_line", "service.journal_append")
    tracer.patch(service.fleet, "shard_fn", "service.shard_run")
    return tracer


def layer_totals(spans):
    """``{layer: [self_s, calls, count]}`` summed over ``spans``.

    ``count`` sums integer tags (the detector's tag is how many carriers
    a call found); other tags are labels and are not summed.
    """
    totals = defaultdict(lambda: [0.0, 0, 0])
    for layer, _start, _end, self_s, tag in spans:
        entry = totals[layer]
        entry[0] += self_s
        entry[1] += 1
        if isinstance(tag, int):
            entry[2] += tag
    return dict(totals)


def traced_run_shard(spool_dir, spec):
    """``run_shard`` with the pipeline layers traced, inside the worker.

    Bind the spool directory with :func:`functools.partial`; the partial
    pickles by reference, so the pool can send it to forked workers. The
    shard's span totals land in ``<spool_dir>/<pid>-<n>.json``.
    """
    from repro.survey.shards import run_shard

    with install_pipeline(Tracer()) as tracer:
        start = time.perf_counter()
        try:
            return run_shard(spec)
        finally:
            end = time.perf_counter()
            record = {
                "shard_id": spec.shard_id,
                "start": start,
                "end": end,
                "layers": layer_totals(tracer.spans),
            }
            path = Path(spool_dir) / f"{os.getpid()}-{time.monotonic_ns()}.json"
            path.write_text(json.dumps(record))
