"""Serial vs process-parallel survey wall-clock, spectra included.

Runs one fixed survey plan — two machines x two activity pairs over the
paper's 0-4 MHz / 50 Hz span — twice through ``run_survey`` with
``keep_spectra=True``: once inline (``workers=1``) and once fanned
across a process pool. Every pooled shard returns its spectrum rows in
its pickled result, so the speedup is measured with the full trace
payload crossing the pool boundary. Emits a machine-readable
``BENCH_survey.json`` and asserts:

* **purity** — parallel detections and spectra are identical to serial;
* **speedup** — >= 2.0x over serial, applied only on runners with
  enough cores for the pool to matter.
"""

import json
import os
import time

import numpy as np

from repro import FaseConfig
from repro.survey import run_survey

MACHINES = ("corei7_desktop", "turionx2_laptop")
CONFIG = FaseConfig(
    span_low=0.0,
    span_high=4e6,
    fres=50.0,
    falt1=43.3e3,
    f_delta=0.5e3,
    name="survey benchmark",
)
SEED = 11


def _best_of(fn, repeats=2):
    """Best wall-clock of several runs: robust to scheduler noise."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _detections(report):
    return {
        name: {
            label: [d.frequency for d in activity.detections]
            for label, activity in fase.activities.items()
        }
        for name, fase in report.machines.items()
    }


def test_survey_process_parallel_speedup(output_dir):
    cores = os.cpu_count() or 1
    workers = min(4, cores)

    serial_s, serial = _best_of(
        lambda: run_survey(
            machines=MACHINES, config=CONFIG, seed=SEED, workers=1, keep_spectra=True
        )
    )
    parallel_s, parallel = _best_of(
        lambda: run_survey(
            machines=MACHINES, config=CONFIG, seed=SEED, workers=workers, keep_spectra=True
        )
    )

    # Purity: the pool changes wall-clock, never results. Detections AND
    # the returned spectra must match the inline run byte for byte.
    assert _detections(parallel) == _detections(serial)
    assert serial.ledger.n_failures == parallel.ledger.n_failures == 0
    assert serial.n_completed == serial.n_shards == len(MACHINES) * 2
    assert set(parallel.spectra) == set(serial.spectra)
    for shard_id, ours in serial.spectra.items():
        theirs = parallel.spectra[shard_id]
        assert ours.n_rows == theirs.n_rows
        assert np.array_equal(ours.power, theirs.power)

    speedup = serial_s / parallel_s
    record = {
        "campaign": CONFIG.describe(),
        "machines": list(MACHINES),
        "n_shards": serial.n_shards,
        "cpu_count": cores,
        "workers": workers,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": speedup,
        "detections_identical": True,
        "spectra_identical": True,
        "keep_spectra": True,
    }
    (output_dir / "BENCH_survey.json").write_text(json.dumps(record, indent=2) + "\n")

    # A 1-core container cannot show a process-pool win; the JSON is
    # still written so the number is always on record.
    if cores >= 4:
        assert speedup >= 2.0
