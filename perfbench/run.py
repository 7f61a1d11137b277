"""The repository benchmark: one closed-loop client, one fixed op per workload.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload scan-cold --seed 0 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md``): ``scan-cold``,
``survey-fanout`` and ``service-jobs``. The run sets the workload up,
repeats its op until ``--seconds`` have passed (and at least
:data:`MIN_OPS` ops ran), checks every op's output digest against the
golden for the seed, then sets the workload up twice more in fresh
processes so ``setup_s`` is a median of three.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics. Human-readable lines come first; the last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. The exit code is non-zero, with no JSON line, when the
checkout has no ``src/repro`` or the run cannot finish.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
#: Floor on ops per run, so even a very short run yields a median and a tail.
MIN_OPS = 4
#: Setups per run: this process's own plus fresh-process probes.
SETUPS = 3
#: Hard ceiling on one run; the alarm turns a hang into a clean failure.
DEADLINE_S = 160


class DeadlineExpired(BaseException):
    """Raised by the run's alarm.

    A ``BaseException``, so the per-op ``except Exception`` that counts
    a failed op cannot swallow it: a hung op ends the whole run, which
    then tears down and exits non-zero instead of hanging on the next op.
    """


def tail(samples):
    """The highest percentile with at least 10 samples beyond it.

    Runs too short for 10 keep as many beyond as still leaves the value
    above the median sample, ``(n - 2) // 2``. Returns ``(value,
    percentile, n_beyond)``, or ``None`` below 4 samples.
    """
    n = len(samples)
    beyond = min(10, (n - 2) // 2)
    if beyond < 1:
        return None
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n, beyond


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def source_fingerprint():
    """Git sha when the checkout has ``.git``; always a digest of ``src/``."""
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            sha = ref_path.read_text().strip() if ref_path.is_file() else None
        else:
            sha = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def environment(seed):
    import numpy
    import scipy

    sha, src = source_fingerprint()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_sha": sha,
        "src_sha256": src,
    }


def golden_for(workload, seed, size):
    """The committed golden digest for this seed, or ``None``."""
    if size != "full":
        return None
    goldens = json.loads((HERE / "goldens.json").read_text())
    return goldens.get(workload, {}).get(str(seed))


def probe_setup(workload, seed):
    """Set the workload up in a fresh interpreter; its ``setup_s``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-probe"],
        stdout=subprocess.PIPE,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])["setup_s"]


def time_ops(work, seconds, trace, perturb=None):
    """Run ops until ``seconds`` pass; ``[(traced, latency_s, OpResult | None)]``."""
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < MIN_OPS:
        traced = bool(trace) and len(records) % 2 == 1
        began = time.perf_counter()
        try:
            result = work.op(traced)
        except Exception:  # a failed op is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            result = None
        latency = time.perf_counter() - began
        if result is not None and perturb is not None:
            result = perturb(result)
        records.append((traced, latency, result))
    return records, time.perf_counter() - start


@contextlib.contextmanager
def set_up(workload, seed, size):
    """Set the workload up; yields ``(work, setup_s)`` and tears it down after."""
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[workload](seed, size, workdir)
    try:
        work.setup()
        yield work, time.perf_counter() - STARTED
    finally:
        work.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no concurrent run still uses it


def median_or_zero(values):
    return statistics.median(values) if values else 0.0


def run(workload, seed, seconds, trace, size="full", perturb=None, setups=SETUPS, log=print):
    """Measure one run; returns the result object the last line prints.

    ``size`` and ``perturb`` (a function applied to each op's result
    before the digest gate) exist for the smoke test.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with set_up(workload, seed, size) as (work, setup_s):
        records, timed_s = time_ops(work, seconds, trace, perturb)
        rss_mb = peak_rss_mb()  # before the golden and probes add their own
        golden = golden_for(workload, seed, size) or work.inline_digest()
    setup_samples = [setup_s] + [probe_setup(workload, seed) for _ in range(setups - 1)]

    passed = [(traced, lat, r) for traced, lat, r in records if r and r.digest == golden]
    failed = len(records) - len(passed)
    log(f"workload {workload}: {len(records)} ops in {timed_s:.2f} s, {failed} failed")
    late = getattr(work, "late_connects", None)
    if late is not None:
        log(f"late_connects = {late} of {len(records)} ops: job already terminal when the"
            " stream connected, so the phase delay set the latency")
    log("environment " + json.dumps(environment(seed), sort_keys=True))
    log(f"fail_ratio = {failed / len(records):.4f} ratio ({failed}/{len(records)} ops)")
    log(f"setup_s samples: {', '.join(f'{s:.3f}' for s in setup_samples)}")

    # Latencies of the ops that passed the gate; when none did, of all
    # ops, so a failed run still prints every metric beside correct=false.
    plain = [lat for traced, lat, _ in passed if not traced] or [
        lat for traced, lat, _ in records if not traced
    ]
    if trace:
        metrics = trace_metrics(work, passed, plain)
        if late is not None:
            metrics["service.late_connects"] = late
        wanted = spec["per_layer"]
    else:
        metrics = {
            "op_p50_s": statistics.median(plain),
            "mbins_per_s": len(passed) * work.bins / timed_s / 1e6,
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mb": rss_mb,
        }
        found = tail(plain)
        if found is not None:
            metrics["op_tail_s"] = found[0]
            log(f"op_tail_s is p{found[1]:.1f} of n={len(plain)} ({found[2]} beyond)")
        log(f"op_p50_s is the median of n={len(plain)}")
        wanted = spec["end_to_end"]
    out = {}
    for entry in wanted:
        # A layer the workload bypasses measures zero; a missing tail stays out.
        value = metrics.get(entry["name"], 0.0 if trace else None)
        if value is None:
            continue
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
        log(f"{entry['name']} = {value:.6g} {entry['unit']}")
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": out,
    }


def trace_metrics(work, passed, plain):
    """Per-layer metrics: medians over the traced ops of each op's record."""
    traced = [(lat, r.layers) for was_traced, lat, r in passed if was_traced]
    names = sorted({name for _, layers in traced for name in layers})
    metrics = {name: median_or_zero([layers.get(name, 0.0) for _, layers in traced])
               for name in names}
    metrics.setdefault("import.repro_s", work.import_s)
    metrics["trace.remainder_s"] = median_or_zero(
        [layers["trace.op_wall_s"] * (1.0 - layers["trace.coverage"]) for _, layers in traced]
    )
    metrics["trace.overhead_s"] = median_or_zero([lat for lat, _ in traced]) - median_or_zero(
        plain
    )
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro beside perfbench/; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    def expired(signum, frame):
        raise DeadlineExpired(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, expired)
    signal.alarm(DEADLINE_S)
    try:
        if args.setup_probe:
            with set_up(args.workload, args.seed, "full") as (_, setup_s):
                pass
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (Exception, DeadlineExpired):
        traceback.print_exc(file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
