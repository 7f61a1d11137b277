"""The survey route oracle: every execution route yields the same bytes.

One small fixed plan runs through every way the survey engine can
execute it — inline, on the process pool, under the stall watchdog, with
``keep_spectra``, and resumed from every record prefix of its manifest —
and through the campaign service: the in-process :class:`WorkerFleet`
(read back through :meth:`JobStore.job_report`) and a hub-only
:class:`FaseService` drained by one :class:`WorkerHost` over HTTP.
Each route's :class:`~repro.survey.SurveyReport` is reduced to the
SHA-256 of its JSON form minus the wall-clock ``telemetry`` block, and
every digest must equal one pinned constant. The ``keep_spectra`` rows
are pinned the same way, byte for byte.

A new route joins by adding one entry to :data:`ROUTES`. A route that
cannot match is a bug in the route, not a constant to re-pin: the
constants below were computed once and must only change together with
a deliberate change to what the survey measures.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import threading

import numpy as np
import pytest

from repro import FaseConfig, MicroOp, run_survey
from repro.service import FaseService, JobStore, ServiceClient, WorkerFleet, WorkerHost
from repro.survey.chaos import count_records, truncate_manifest

pytestmark = pytest.mark.survey

MACHINES = ("corei7_desktop", "turionx2_laptop")
ONE_PAIR = ((MicroOp.LDM, MicroOp.LDL1),)

#: Small but real: a 200-bin grid over 0-100 kHz with the paper's falt1.
CONFIG = FaseConfig(
    span_low=0.0, span_high=1e5, fres=500.0, falt1=43.3e3, f_delta=2.5e3, name="route oracle"
)
PLAN = dict(machines=MACHINES, pairs=ONE_PAIR, config=CONFIG, seed=3)

#: SHA-256 of ``SurveyReport.to_dict()`` minus ``telemetry`` (sorted-key JSON).
REPORT_DIGEST = "a73d84e951902583cfc7c46f8810eb96ea15a0bf00e222a4ab9ed6702a303ac8"

#: SHA-256 of every shard's ``keep_spectra`` rows (float64, C order),
#: concatenated in sorted shard-id order.
SPECTRA_DIGEST = "2f16f853ba4809e048caa464a6f007a7edbf2f277e261a4b3c4f718006b9a8bd"

#: Route name -> ``run_survey`` keyword arguments on top of :data:`PLAN`.
ROUTES = {
    "inline": dict(workers=1),
    "pool": dict(workers=2),
    "watched-pool": dict(workers=2, shard_timeout_s=60),
    "keep-spectra-inline": dict(workers=1, keep_spectra=True),
    "keep-spectra-pool": dict(workers=2, keep_spectra=True),
}


def report_digest(report):
    data = report.to_dict()
    data.pop("telemetry")
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def spectra_digest(report):
    digest = hashlib.sha256()
    for shard_id in sorted(report.spectra):
        digest.update(np.ascontiguousarray(report.spectra[shard_id].power, "<f8").tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def route_runs():
    """Each route's report, run once for the whole module."""
    return {name: run_survey(**PLAN, **kwargs) for name, kwargs in ROUTES.items()}


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_route_report_matches_pinned_digest(route_runs, route):
    report = route_runs[route]
    assert report.n_completed == report.n_shards == len(MACHINES)
    assert report_digest(report) == REPORT_DIGEST


@pytest.mark.parametrize("route", ["keep-spectra-inline", "keep-spectra-pool"])
def test_keep_spectra_rows_match_pinned_digest(route_runs, route):
    assert spectra_digest(route_runs[route]) == SPECTRA_DIGEST


def test_keep_spectra_rows_are_pure_across_worker_counts(route_runs):
    """Serial and pooled spectra agree row for row, and each shard's
    rows describe its campaign: one row per planned falt on the plan's
    grid, every row wrapped as a trace with its label."""
    serial = route_runs["keep-spectra-inline"].spectra
    pooled = route_runs["keep-spectra-pool"].spectra
    assert sorted(serial) == sorted(pooled)
    assert len(serial) == len(MACHINES)
    n_bins = CONFIG.grid().n_bins
    for shard_id, ours in serial.items():
        theirs = pooled[shard_id]
        assert np.array_equal(ours.power, theirs.power)
        assert ours.falts == theirs.falts
        assert ours.labels == theirs.labels
        assert ours.flagged == theirs.flagged
        assert ours.n_rows == len(CONFIG.falts())
        assert ours.power.shape == (ours.n_rows, n_bins)
        assert (ours.power >= 0).all()
        trace = ours.trace(0)
        assert trace.power_mw.shape == (n_bins,)
        assert trace.label == ours.labels[0]


def test_without_keep_spectra_no_rows_come_home(route_runs):
    assert route_runs["pool"].spectra == {}
    assert route_runs["inline"].spectra == {}


def test_resume_from_every_manifest_prefix_matches(tmp_path):
    """A parent killed after any number of durable manifest appends
    resumes to the pinned report: every record prefix is a kill point."""
    pristine = tmp_path / "pristine"
    first = run_survey(**PLAN, workers=1, manifest_dir=pristine)
    assert report_digest(first) == REPORT_DIGEST
    n_records = count_records(pristine)
    assert n_records >= len(MACHINES)
    for keep in range(n_records + 1):
        manifest_dir = tmp_path / f"prefix-{keep}"
        shutil.copytree(pristine, manifest_dir)
        assert truncate_manifest(manifest_dir, keep) == keep
        resumed = run_survey(**PLAN, workers=1, manifest_dir=manifest_dir)
        assert report_digest(resumed) == REPORT_DIGEST, f"prefix of {keep} record(s)"


def test_in_process_fleet_matches_pinned_digest(tmp_path):
    """The service's in-process route: a store drained by its fleet."""
    store = JobStore(tmp_path / "store").open()
    job_id = store.submit("oracle", **PLAN)
    fleet = WorkerFleet(store, workers=2).start()
    try:
        assert fleet.drain(timeout_s=120.0)
    finally:
        fleet.stop()
    report = store.job_report(job_id)
    assert report.n_completed == report.n_shards == len(MACHINES)
    assert report_digest(report) == REPORT_DIGEST


def test_hub_and_one_http_worker_host_match_pinned_digest(tmp_path):
    """The service's remote route: a hub-only service with no local
    workers, drained by one :class:`WorkerHost` speaking HTTP."""
    with FaseService(tmp_path / "svc", workers=0) as service:
        host, port = service.start()
        url = f"http://{host}:{port}"
        client = ServiceClient(url)
        job_id = client.submit(
            "oracle",
            machines=list(MACHINES),
            pairs=[[x.value, y.value] for x, y in ONE_PAIR],
            config=CONFIG,
            seed=PLAN["seed"],
        )
        worker = WorkerHost(url, name="host-a", poll_interval_s=0.05, max_shards=len(MACHINES))
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            assert client.wait(job_id, timeout_s=120.0)["state"] == "completed"
        finally:
            worker.stop()
            thread.join(timeout=30.0)
        report = client.result(job_id)
    assert report.n_completed == report.n_shards == len(MACHINES)
    assert report_digest(report) == REPORT_DIGEST
