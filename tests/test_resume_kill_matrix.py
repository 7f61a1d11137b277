"""A fault-screened durable campaign killed after ANY scene build resumes byte-identically.

The runner property (``tests/test_prop_runner.py``) kills a clean
campaign, whose captures never re-capture. Under a fault plan the
screening rounds re-capture flagged falts against the whole cohort, so a
kill can land between two screening re-captures; resume replays every
journaled attempt through the same capture loop, and the resumed archive
must equal the uninterrupted one however the kill fell. The campaign is
the capture-routes one (``corei7_desktop``, 0–1 MHz at fres 100,
``FaultPlan.default()``).
"""

from __future__ import annotations

import hashlib
import tempfile
from pathlib import Path

import pytest

from repro.io import save_campaign
from tests.test_capture_routes import ALL_SEEDS, KillAfter, campaign, machine, record, route

pytestmark = pytest.mark.runner

#: More scene builds than any seed's uninterrupted run makes.
MAX_BUILDS = 64


def digest(result, directory):
    archive = save_campaign(result, directory / "archive.npz")
    return hashlib.sha256(archive.read_bytes()).hexdigest()


def resumed_digests(seed, n_workers=1):
    """``{k: archive sha256}`` of the run killed after k scene builds, then
    resumed, for every k until the killed run completes on its own."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for k in range(MAX_BUILDS):
            journal_dir = tmp / f"kill-{k}"
            try:
                record(
                    campaign(
                        seed,
                        n_workers=n_workers,
                        journal_dir=journal_dir,
                        machine_=KillAfter(machine(seed), k),
                    )
                )
            except KeyboardInterrupt:
                pass
            else:
                return digests
            resumed = record(campaign(seed, n_workers=n_workers, journal_dir=journal_dir))
            digests[k] = digest(resumed, tmp)
    raise AssertionError(f"seed {seed}: the campaign made more than {MAX_BUILDS} scene builds")


@pytest.mark.parametrize("seed", ALL_SEEDS)
def test_every_kill_point_resumes_to_the_uninterrupted_archive(seed):
    digests = resumed_digests(seed)
    assert digests
    uninterrupted = route(seed, "durable")[1]
    assert {k for k, got in digests.items() if got != uninterrupted} == set()


def test_every_kill_point_resumes_identically_on_two_workers():
    seed = 1  # kills 6, 7, 8 and 10 land between two screening re-captures
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        uninterrupted = digest(record(campaign(seed, n_workers=2, journal_dir=tmp / "j")), tmp)
    digests = resumed_digests(seed, n_workers=2)
    assert digests
    assert {k for k, got in digests.items() if got != uninterrupted} == set()
