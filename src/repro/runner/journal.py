"""Append-only, crash-safe checkpoint journal for FASE campaigns.

A real FASE survey records spectra over hours; losing the whole campaign
to a crash at capture 4 of 5 wastes everything the run already earned.
:class:`CampaignJournal` checkpoints each completed capture to its own
record file as soon as the analyzer returns, so a killed run resumes
without redoing any capture the journal already holds.

Durability model
----------------

The journal is a directory. Every write — the header and each capture
record — goes through the same crash-safe sequence: write a sibling
``*.tmp`` file, flush and ``fsync`` it, ``os.replace`` it over the final
name, then ``fsync`` the directory so the rename itself is durable. A
kill at any point leaves either the old state or the new state on disk,
never a half-written record under a valid name; stray ``*.tmp`` files are
simply ignored on resume.

Records are append-only: a capture retry writes a *new* record file
(``record-00003-a1.npz``) rather than mutating the old one, so the
journal keeps every attempt that produced a trace, each with the index's
cumulative fault/timeout events. Resume replays them
(:meth:`CampaignJournal.attempts`); :meth:`CampaignJournal.records`, the
highest valid attempt per index, is what recovery rebuilds an archive
from. Every record carries the format marker and a SHA-256 checksum over
its identity fields and trace bytes; a record that fails to load, fails
its checksum, or disagrees with the campaign grid is skipped — its
attempt is simply redone, which is always safe because captures are pure
functions of (seed, index, attempt).
"""

from __future__ import annotations

import hashlib
import io as _io
import json
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import JournalError
from ..faults.injectors import FaultEvent
from ..io import (
    _activity_from_dict,
    _activity_to_dict,
    _config_from_dict,
    _config_to_dict,
    _write_npz_deterministic,
    mmap_npz_member,
)
from ..journalutil import CAPTURE_FIELDS, atomic_write
from ..journalutil import journal_dirname  # noqa: F401  (re-exported, its old home)
from ..spectrum.trace import SpectrumTrace

#: Format marker of the journal header, for forward compatibility.
JOURNAL_FORMAT = "fase-journal-v1"
#: Format marker of each capture record.
RECORD_FORMAT = "fase-journal-record-v1"

_HEADER_NAME = "HEADER.json"
_RECORD_RE = re.compile(r"^record-(\d{5})-a(\d+)\.npz$")


def campaign_fingerprint(config, machine_name, activity_label, rng):
    """Identity of one campaign: what it measures and from which seed.

    Two runs with the same fingerprint produce byte-identical captures,
    so resuming one from the other's journal is sound. The fingerprint
    covers the capture-relevant config fields, the machine, the activity
    label, and the root generator's seed material (entropy *and* spawn
    key — ``run_fase`` derives one child stream per pair).
    """
    config_dict = _config_to_dict(config)
    seed_seq = rng.bit_generator.seed_seq
    payload = {
        "config": {name: config_dict[name] for name in CAPTURE_FIELDS},
        "machine_name": machine_name,
        "activity_label": activity_label,
        "entropy": str(seed_seq.entropy),
        "spawn_key": [int(key) for key in seed_seq.spawn_key],
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


def _record_checksum(index, attempt, falt, power):
    digest = hashlib.sha256()
    digest.update(
        json.dumps([RECORD_FORMAT, int(index), int(attempt), repr(float(falt))]).encode("utf-8")
    )
    digest.update(np.ascontiguousarray(power).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class JournalRecord:
    """One journaled capture, decoded and checksum-verified."""

    index: int
    attempt: int
    activity: object  # AlternationActivity
    trace: object  # SpectrumTrace
    events: tuple  # FaultEvent ledger accumulated for this index


class CampaignJournal:
    """On-disk checkpoint journal of one campaign's completed captures.

    ``directory`` is created on :meth:`create`; :meth:`exists` reports
    whether a header is already present, :meth:`open` validates it
    (format marker, optional fingerprint match), :meth:`append`
    checkpoints one capture, :meth:`attempts` returns every valid record
    for resume to replay, and :meth:`records` the best one per index.
    """

    def __init__(self, directory):
        self.directory = Path(directory)
        self._header = None

    # -- header -------------------------------------------------------

    @property
    def header(self):
        if self._header is None:
            raise JournalError(f"journal at {str(self.directory)!r} is not open")
        return self._header

    def exists(self):
        return (self.directory / _HEADER_NAME).is_file()

    def create(self, fingerprint, config, machine_name, activity_label, falts):
        """Start a fresh journal (atomic header write)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        header = {
            "format": JOURNAL_FORMAT,
            "fingerprint": fingerprint,
            "config": _config_to_dict(config),
            "machine_name": machine_name,
            "activity_label": activity_label,
            "falts": [float(falt) for falt in falts],
        }
        atomic_write(
            self.directory / _HEADER_NAME,
            json.dumps(header, indent=2, sort_keys=True).encode("utf-8"),
        )
        self._header = header
        return self

    def open(self, fingerprint=None):
        """Load and validate an existing journal header.

        With ``fingerprint`` given, a mismatch (different campaign, seed,
        or machine in the same directory) raises :class:`JournalError`
        rather than silently splicing foreign captures into this run.
        """
        path = self.directory / _HEADER_NAME
        if not path.is_file():
            raise JournalError(f"no campaign journal at {str(self.directory)!r}")
        try:
            header = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise JournalError(
                f"journal header at {str(path)!r} is unreadable: {exc}"
            ) from exc
        if header.get("format") != JOURNAL_FORMAT:
            raise JournalError(
                f"unsupported journal format {header.get('format')!r} at {str(path)!r}"
            )
        if fingerprint is not None and header.get("fingerprint") != fingerprint:
            raise JournalError(
                f"journal at {str(self.directory)!r} belongs to a different campaign "
                "(config/machine/seed fingerprint mismatch); remove the directory or "
                "point --checkpoint-dir elsewhere"
            )
        self._header = header
        return self

    def config(self):
        return _config_from_dict(self.header["config"])

    # -- records ------------------------------------------------------

    def append(self, index, attempt, activity, trace, events=()):
        """Checkpoint one completed capture (atomic, fsync'd).

        ``events`` is the *cumulative* fault/timeout ledger for this
        capture index (all attempts so far), so resuming from the latest
        record alone reconstructs the full per-index history.
        """
        meta = {
            "format": RECORD_FORMAT,
            "index": int(index),
            "attempt": int(attempt),
            "falt": float(activity.falt),
            "activity": _activity_to_dict(activity),
            "trace_label": trace.label,
            "events": [
                {
                    "fault": event.fault,
                    "index": event.index,
                    "attempt": event.attempt,
                    "detail": event.detail,
                }
                for event in events
            ],
            "checksum": _record_checksum(index, attempt, activity.falt, trace.power_mw),
        }
        buffer = _io.BytesIO()
        # Records are written uncompressed (ZIP_STORED) so a resume can
        # memory-map the power member straight out of the checkpoint file
        # instead of copying it onto the heap; the loader still accepts
        # compressed records written by earlier versions.
        _write_npz_deterministic(
            buffer, {"meta": json.dumps(meta), "power": trace.power_mw}, compress=False
        )
        name = f"record-{int(index):05d}-a{int(attempt)}.npz"
        atomic_write(self.directory / name, buffer.getvalue())

    def attempts(self, grid, mmap=True):
        """{(index, attempt): :class:`JournalRecord`} — every valid record.

        The one scan of the journal directory. A record counts when it
        survives every check: loadable archive, format marker, checksum,
        and a trace shaped for ``grid``. Damaged or stale files are
        skipped silently — the corresponding attempt is simply redone on
        resume.

        With ``mmap=True`` (default) each trace *references* its
        checkpoint file through a read-only ``np.memmap`` rather than
        copying the bytes: checksum verification pages the record through
        once, after which the OS may evict the pages — a resumed
        full-span campaign holds O(1) heap per checkpoint, not O(bins).
        Compressed legacy records fall back to a heap copy.
        """
        if not self.directory.is_dir():
            return {}
        found = {}
        for path in sorted(self.directory.iterdir()):
            if _RECORD_RE.match(path.name) is None:
                continue
            record = self._load_record(path, grid, mmap=mmap)
            if record is not None:
                found.setdefault((record.index, record.attempt), record)
        return found

    def records(self, grid, mmap=True):
        """{index: :class:`JournalRecord`} — the highest valid attempt per index.

        The view of :meth:`attempts` that
        :func:`~repro.runner.durable.recover_campaign` rebuilds a lost
        archive from: each index's latest trace, whose cumulative events
        hold the index's whole history.
        """
        best = {}
        for (index, _), record in sorted(self.attempts(grid, mmap=mmap).items()):
            best[index] = record
        return best

    def _load_record(self, path, grid, mmap=True):
        try:
            power = mmap_npz_member(path, "power") if mmap else None
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"]))
                if power is None:
                    power = np.asarray(archive["power"], dtype=float)
        except Exception:
            # Truncated mid-write, not an npz, missing members: the record
            # never became durable — treat as absent.
            return None
        if power.dtype != np.dtype(float):
            power = np.asarray(power, dtype=float)
        if meta.get("format") != RECORD_FORMAT:
            return None
        try:
            index = int(meta["index"])
            attempt = int(meta["attempt"])
            activity = _activity_from_dict(meta["activity"])
            checksum = meta["checksum"]
            events = tuple(
                FaultEvent(
                    fault=event["fault"],
                    index=event["index"],
                    attempt=event["attempt"],
                    detail=event["detail"],
                )
                for event in meta.get("events", ())
            )
        except (KeyError, TypeError, ValueError):
            return None
        if power.shape != (grid.n_bins,):
            return None
        if checksum != _record_checksum(index, attempt, meta["falt"], power):
            return None
        trace = SpectrumTrace(grid, power, label=meta.get("trace_label", ""))
        return JournalRecord(
            index=index, attempt=attempt, activity=activity, trace=trace, events=events
        )

    def discard(self):
        """Delete the journal directory and everything in it."""
        if self.directory.exists():
            shutil.rmtree(self.directory)
        self._header = None
