"""Worker-host scaling: do two hosts actually drain a backlog faster?

One hub-only service (``workers=0`` — no in-process fleet at all) runs
in the benchmark process; ``fase worker`` processes are spawned against
it exactly as an operator would. The same fixed backlog of *real*
(small-grid) shards is drained twice — once by one host, once by two —
and ``BENCH_service_hosts.json`` records both wall-clocks, the speedup,
and the invariant that matters more than speed: the journal holds
exactly one completed-progress record per shard in both runs — nothing
lost to the HTTP hop, nothing run twice.

The ≥1.5x two-host speedup floor is only *enforced* on machines with at
least four CPU cores: on a one-core CI container two real-shard hosts
time-slice each other and the measurement is noise, but the accounting
invariants (and the recorded numbers) still hold.
"""

import json
import os
import signal
import subprocess
import sys
import time

from repro import FaseConfig
from repro.journalutil import iter_journal
from repro.service import FaseService, ServiceClient

#: Small but real: 2000-bin grid with a populated low band.
CONFIG = FaseConfig(
    span_low=0.0, span_high=1e6, fres=500.0, falt1=43.3e3, f_delta=2.5e3,
    name="service hosts benchmark",
)
PAIR_NAMES = [["LDM", "LDL1"]]
SIX_BANDS = [[i * 1e6 / 6.0, (i + 1) * 1e6 / 6.0] for i in range(6)]

SPEEDUP_FLOOR = 1.5
SPEEDUP_FLOOR_MIN_CPUS = 4


def _spawn_hosts(url, n, tag):
    return [
        subprocess.Popen(
            [
                sys.executable, "-m", "repro", "worker",
                "--connect", url, "--name", f"{tag}-host-{i}",
                "--poll-interval", "0.02", "--idle-exit", "2.0", "--quiet",
            ],
            env={**os.environ, "PYTHONPATH": "src"},
        )
        for i in range(n)
    ]


def _drain_with_hosts(root, n_hosts, tag):
    """Drain one fresh backlog with ``n_hosts``; returns the accounting."""
    with FaseService(root, workers=0, reap_after_s=5.0) as service:
        host, port = service.start()
        client = ServiceClient(f"http://{host}:{port}")
        job_id = client.submit(
            "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
            config=CONFIG, bands=SIX_BANDS,
        )
        n_shards = client.job(job_id)["n_shards"]
        processes = _spawn_hosts(f"http://{host}:{port}", n_hosts, tag)
        start = time.perf_counter()
        try:
            status = client.wait(job_id, timeout_s=600.0)
            elapsed = time.perf_counter() - start
        finally:
            for process in processes:
                if process.poll() is None:
                    process.send_signal(signal.SIGTERM)
            for process in processes:
                process.wait(timeout=30.0)
        assert status["state"] == "completed"
        assert status["n_completed"] == n_shards
        workers = status["workers"]

    # Zero lost, zero duplicated: exactly one completed-progress journal
    # record per shard, straight from the store's own ledger.
    completed = {}
    for record, _ in iter_journal(root / "store.jsonl"):
        if (
            record is not None
            and record.get("kind") == "progress"
            and record.get("status") == "completed"
        ):
            completed[record["shard_id"]] = completed.get(record["shard_id"], 0) + 1
    assert len(completed) == n_shards
    assert sorted(completed.values()) == [1] * n_shards
    return {"elapsed_s": elapsed, "n_shards": n_shards, "workers": workers}


def test_two_hosts_beat_one(output_dir, tmp_path):
    one = _drain_with_hosts(tmp_path / "one", 1, "solo")
    two = _drain_with_hosts(tmp_path / "two", 2, "duo")
    assert one["n_shards"] == two["n_shards"]
    assert sum(two["workers"].values()) == two["n_shards"]

    cpus = os.cpu_count() or 1
    speedup = one["elapsed_s"] / two["elapsed_s"]
    floor_enforced = cpus >= SPEEDUP_FLOOR_MIN_CPUS
    record = {
        "n_shards": one["n_shards"],
        "one_host_elapsed_s": one["elapsed_s"],
        "two_hosts_elapsed_s": two["elapsed_s"],
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_floor_enforced": floor_enforced,
        "cpu_count": cpus,
        "one_host_workers": one["workers"],
        "two_hosts_workers": two["workers"],
        "lost_shards": 0,
        "duplicated_shards": 0,
    }
    (output_dir / "BENCH_service_hosts.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )

    if floor_enforced:
        assert speedup >= SPEEDUP_FLOOR
