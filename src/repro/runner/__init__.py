"""Durable campaign execution: checkpoint/resume, timeouts, salvage.

A real FASE survey records spectra over hours; this package makes the
*execution* of such a campaign robust to interruption, hangs, and partial
state (the :mod:`repro.faults` package already makes it robust to bad
data):

* :mod:`~repro.runner.journal` — :class:`CampaignJournal`, the
  append-only, crash-safe (atomic tmp + ``os.replace``, fsync'd,
  checksummed) on-disk checkpoint of completed captures;
* :mod:`~repro.runner.watchdog` — :class:`CaptureWatchdog` wall-clock
  deadlines per capture attempt, and the bounded exponential
  :func:`backoff_delay`;
* :mod:`~repro.runner.durable` — :class:`DurableCampaign`, the
  checkpointing/resuming/salvaging campaign runner, and
  :func:`recover_campaign`, which rebuilds a result from a journal when
  the final archive is lost.

Entry points: ``DurableCampaign`` directly, ``run_fase(...,
checkpoint_dir=...)``, or the CLI's ``--checkpoint-dir``/``--resume``/
``--capture-timeout`` flags.
"""

from .durable import DurableCampaign, recover_campaign
from .journal import (
    CAPTURE_FIELDS,
    JOURNAL_FORMAT,
    RECORD_FORMAT,
    CampaignJournal,
    JournalRecord,
    campaign_fingerprint,
    journal_dirname,
)
from .watchdog import MAX_BACKOFF_S, CaptureWatchdog, backoff_delay

__all__ = [
    "CAPTURE_FIELDS",
    "JOURNAL_FORMAT",
    "MAX_BACKOFF_S",
    "RECORD_FORMAT",
    "CampaignJournal",
    "CaptureWatchdog",
    "DurableCampaign",
    "JournalRecord",
    "backoff_delay",
    "campaign_fingerprint",
    "journal_dirname",
    "recover_campaign",
]
