"""Shared append-only journal primitives.

Three subsystems persist state as checksummed JSON-lines logs: the
campaign journal (:mod:`repro.runner.journal`), the survey manifest
(:mod:`repro.survey.manifest`), and the service job store
(:mod:`repro.service.queue`). They share one durability discipline —
this module is that discipline, extracted so the layers cannot drift:

* **atomic writes** (:func:`atomic_write`, with
  :func:`fsync_directory`): tmp sibling + fsync + rename + directory
  fsync, so a kill at any point leaves either the old bytes or the new
  bytes, never a torn file under a valid name;
* **checksummed lines** (:func:`checksum_record`, :func:`encode_line`,
  :func:`decode_line`): each appended line carries a SHA-256 over its
  payload, so the loader can tell a fully durable record from the
  fragment a kill-mid-write leaves behind;
* **fsync'd appends** (:func:`append_line`): one complete line per
  record, flushed and fsync'd before the append returns — the record is
  either durable or it never happened;
* **torn-tail sealing** (:func:`ensure_line_boundary`): a log killed
  mid-write ends without a newline; appending straight onto that
  fragment would weld the fresh record to the garbage and lose both.
  Writing one ``\\n`` first turns the fragment into its own
  (checksum-failing) line, which loaders skip as damage;
* **damage-tolerant iteration** (:func:`iter_journal`): yields each
  line's decoded record (or ``None`` for damage) plus whether it is the
  final line, so callers can distinguish a torn tail (a kill — expected)
  from interior corruption.

Appends are deliberately *not* atomic — that is the point of an
append-only log. The contract is that loaders tolerate damage instead.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

__all__ = [
    "atomic_write",
    "fsync_directory",
    "checksum_record",
    "encode_line",
    "decode_line",
    "ensure_line_boundary",
    "append_line",
    "iter_journal",
    "read_complete_lines",
    "journal_dirname",
    "CAPTURE_FIELDS",
]

#: Capture-relevant config fields: the ones that change what a capture
#: *measures*. Runtime knobs (workers, timeouts, retry budgets) are
#: deliberately excluded so tuning them between runs never orphans a
#: journal. Shared by the campaign journal's fingerprint and the survey
#: manifest's plan fingerprint.
CAPTURE_FIELDS = (
    "span_low",
    "span_high",
    "fres",
    "falt1",
    "f_delta",
    "n_alternations",
    "n_averages",
)


def journal_dirname(label):
    """A filesystem-safe journal directory name for a label.

    Shared by ``run_fase`` (per activity-pair journals), the survey
    engine (per-shard journals and heartbeats) and the service's job
    store and worker hosts, so every layer maps labels like
    ``"LDM/LDL1"`` or ``"corei7_desktop:LDM/LDL1:0-4MHz"`` onto the same
    on-disk names.
    """
    return "".join(ch if ch.isalnum() or ch in "._-" else "-" for ch in label)


def fsync_directory(directory):
    """Flush a directory's metadata (a rename) to disk where supported."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(path, data):
    """Crash-safe write: tmp sibling, fsync, rename over, fsync the dir.

    The one durability primitive every journal layer shares (campaign
    headers and records, the survey manifest's header, the job store's
    header): a kill at any point leaves either the old bytes or the new
    bytes under the final name, never a torn file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    fsync_directory(path.parent)


def checksum_record(record):
    """SHA-256 hex digest of a record's canonical (sorted-keys) JSON."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()


def encode_line(record):
    """One journal line: the record enveloped with its own checksum."""
    return json.dumps({"record": record, "sha256": checksum_record(record)}, sort_keys=True)


def decode_line(line):
    """The record a line carries, or ``None`` if the line is damaged.

    ``line`` may be ``bytes`` or ``str``. Damage — a torn tail, a flipped
    byte, a checksum mismatch — never raises: the caller treats ``None``
    as "this record never became durable" and moves on.
    """
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        envelope = json.loads(line)
        record = envelope["record"]
        if envelope["sha256"] != checksum_record(record):
            return None
        return record
    except (UnicodeDecodeError, ValueError, KeyError, TypeError):
        return None


def ensure_line_boundary(path):
    """Seal a torn tail so the next append starts on a fresh line.

    Returns ``True`` when a seal was written (the previous run was killed
    mid-append), ``False`` when the log already ends cleanly or does not
    exist. Raises ``OSError`` on an unwritable log — callers own the
    degradation policy.
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            if size == 0:
                return False
            handle.seek(size - 1)
            last = handle.read(1)
    except FileNotFoundError:
        return False
    if last == b"\n":
        return False
    with open(path, "ab") as handle:
        handle.write(b"\n")
        handle.flush()
        os.fsync(handle.fileno())
    return True


def append_line(path, record):
    """Append one checksummed record line, flushed and fsync'd.

    When this returns, the record is durable. Raises ``OSError`` on
    failure (``ENOSPC``, a yanked volume) — whether that degrades the
    journal or fails the operation is the caller's policy, not this
    layer's.
    """
    line = encode_line(record)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
        handle.flush()
        os.fsync(handle.fileno())


def read_complete_lines(path, offset=0):
    """Raw complete lines from a byte offset: ``(lines, next_offset)``.

    The incremental read primitive behind live log tailing. Only
    newline-*terminated* lines are returned — a torn tail (an append
    caught mid-write) stays invisible until its newline lands, and
    ``next_offset`` never advances past it, so the fragment is re-read
    whole on the next call. Lines are raw ``bytes`` without their
    newline, in file order, empty lines included (offset arithmetic is
    exact: ``next_offset == offset + sum(len(line) + 1)``). A missing
    file or an offset at/past the last newline yields ``([], offset)``
    — callers poll, they do not error.
    """
    offset = max(0, int(offset))
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            data = handle.read()
    except FileNotFoundError:
        return [], offset
    end = data.rfind(b"\n")
    if end < 0:
        return [], offset
    return data[:end].split(b"\n"), offset + end + 1


def iter_journal(path):
    """Yield ``(record_or_none, is_last_line)`` for every non-blank line.

    ``record_or_none`` is ``None`` for a damaged line; a damaged *final*
    line is the kill-mid-write signature (a torn tail), damage anywhere
    else is corruption. Raises ``OSError`` when the log itself cannot be
    read — that is an environment failure, not damage to tolerate.
    """
    with open(path, "rb") as handle:
        raw_lines = handle.read().split(b"\n")
    lines = [line for line in raw_lines if line.strip()]
    for position, line in enumerate(lines):
        yield decode_line(line), position == len(lines) - 1
