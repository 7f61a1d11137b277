"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``scan``      run FASE on a preset machine and print the report
* ``survey``    run FASE over many machines on process-parallel shards
* ``localize``  near-field-localize a carrier on a preset machine
* ``record``    run a campaign and save the raw spectra to a .npz file
* ``analyze``   detect carriers in a previously recorded campaign
* ``serve``     run the durable multi-tenant campaign service
* ``worker``    run a standalone worker host against a running service
* ``submit``    submit a campaign job to a running service
* ``jobs``      list a running service's jobs
* ``watch``     live-tail a service job's event stream
* ``cancel``    cooperatively cancel a service job

A subcommand imports its subsystem when it is dispatched: a scan runs the
numerics only, so the survey engine, the service, the durable runner,
campaign I/O and the fault injectors are imported inside the handlers
that use them. Help strings built with the parser take their
vocabularies from :mod:`repro.choices`, which imports no subsystem.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .choices import BAND_PRESETS, FAULT_CLASS_NAMES
from .core import (
    CarrierDetector,
    FaseConfig,
    MeasurementCampaign,
    group_harmonics,
    run_fase,
)
from .errors import ReproError
from .system import ALL_PRESETS
from .telemetry import JsonlSink, Telemetry, use_telemetry
from .uarch.activity import AlternationActivity
from .uarch.isa import MicroOp, activity_levels


def _add_machine_argument(parser):
    parser.add_argument(
        "--machine",
        choices=sorted(ALL_PRESETS),
        default="corei7_desktop",
        help="preset system model to scan",
    )
    parser.add_argument("--seed", type=int, default=0, help="root random seed")


def _build_machine(args):
    return ALL_PRESETS[args.machine](rng=np.random.default_rng(args.seed))


def _parse_span(args):
    return FaseConfig(
        span_low=args.span_low,
        span_high=args.span_high,
        fres=args.fres,
        falt1=args.falt1,
        f_delta=args.f_delta,
        n_workers=args.workers,
        max_capture_retries=args.max_capture_retries,
        # Per-capture journal flags exist on scan/record only.
        capture_timeout_s=getattr(args, "capture_timeout", None),
        retry_backoff_s=getattr(args, "retry_backoff", FaseConfig.retry_backoff_s),
        name="cli campaign",
    )


def _add_campaign_arguments(parser):
    parser.add_argument("--span-low", type=float, default=0.0)
    parser.add_argument("--span-high", type=float, default=4e6)
    parser.add_argument("--fres", type=float, default=50.0)
    parser.add_argument("--falt1", type=float, default=43.3e3)
    parser.add_argument("--f-delta", type=float, default=0.5e3)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="scan/record: captures (and activity pairs) run on this many "
        "threads (>1 uses per-measurement random streams); survey: shards "
        "run on this many worker processes",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="CLASSES",
        help="enable fault injection: 'all' or a comma list of "
        f"{','.join(sorted(FAULT_CLASS_NAMES))} (default severities); the run "
        "screens, retries, and excludes bad captures and reports the damage",
    )
    parser.add_argument(
        "--max-capture-retries",
        type=int,
        default=2,
        help="retry budget per capture (degraded mode and durable execution)",
    )
    parser.add_argument(
        "--telemetry-jsonl",
        default=None,
        metavar="PATH",
        help="append every telemetry record (spans, events, final metrics "
        "snapshot) to PATH as one JSON object per line",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="attribute campaign wall-clock to capture/average/score/detect "
        "stages and print the breakdown after the run",
    )


def _add_durable_arguments(parser):
    """scan/record's per-capture journal flags."""
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="durable execution: checkpoint each completed capture to a "
        "journal under DIR so a killed run can resume from the last good "
        "capture (see --resume)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="with --checkpoint-dir: continue an existing journal instead "
        "of refusing to touch it",
    )
    parser.add_argument(
        "--capture-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="durable execution: wall-clock deadline per capture attempt; "
        "a hung capture is abandoned, retried with backoff, and finally "
        "dropped (requires --checkpoint-dir)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base of the bounded exponential backoff between capture "
        "retries on the durable path (default 0.5)",
    )


def _parse_fault_plan(args):
    if args.faults is None:
        return None
    from .faults import FaultPlan

    classes = None
    if args.faults.strip().lower() not in ("all", ""):
        classes = tuple(name.strip() for name in args.faults.split(",") if name.strip())
    try:
        return FaultPlan.default(classes)
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc


def _parse_ops(text):
    try:
        x, y = text.split("/")
        return MicroOp(x.strip().upper()), MicroOp(y.strip().upper())
    except (ValueError, KeyError) as exc:
        valid = ", ".join(sorted(op.value for op in MicroOp))
        raise SystemExit(
            f"invalid activity pair {text!r}; expected X/Y with each of X, Y "
            f"one of: {valid} (e.g. LDM/LDL1)"
        ) from exc


def _build_telemetry(args):
    """A :class:`Telemetry` per the CLI flags, or ``None`` when both are off."""
    if not args.telemetry_jsonl and not args.profile:
        return None
    sinks = [JsonlSink(args.telemetry_jsonl)] if args.telemetry_jsonl else []
    return Telemetry(sinks=sinks, profile=args.profile)


def _finish_telemetry(telemetry):
    if telemetry is None:
        return
    if telemetry.profiler is not None:
        print(telemetry.profiler.to_text())
    telemetry.close()


def cmd_scan(args):
    machine = _build_machine(args)
    config = _parse_span(args)
    kwargs = {"config": config, "rng": np.random.default_rng(args.seed + 1)}
    if args.pair:
        kwargs["pairs"] = (_parse_ops(args.pair),)
    plan = _parse_fault_plan(args)
    if plan is not None:
        kwargs["fault_plan"] = plan
    if args.checkpoint_dir is not None:
        kwargs["checkpoint_dir"] = args.checkpoint_dir
        kwargs["resume"] = args.resume
    telemetry = _build_telemetry(args)
    if telemetry is not None:
        kwargs["telemetry"] = telemetry
    try:
        report = run_fase(machine, **kwargs)
    except ReproError as exc:
        if telemetry is not None:
            # The run died; still flush what the ledger saw so the JSONL
            # stream explains the failure.
            telemetry.emit_snapshot(label="metrics-at-failure")
        _finish_telemetry(telemetry)
        raise SystemExit(str(exc)) from exc
    print(report.to_text())
    _finish_telemetry(telemetry)
    return 0


def cmd_survey(args):
    from .survey import DEFAULT_PAIRS, AdaptivePlanner, parse_bands, run_survey

    machines = None
    if args.machines:
        machines = [name.strip() for name in args.machines.split(",") if name.strip()]
    fault_classes = None
    if args.faults is not None:
        fault_classes = args.faults  # run_survey validates names
    telemetry = _build_telemetry(args)
    telemetry_dir = None
    if args.telemetry_jsonl:
        # Survey-level records go to PATH; per-shard streams under PATH.d/.
        telemetry_dir = f"{args.telemetry_jsonl}.d"
    planner = None
    if not args.adaptive and (args.capture_budget is not None or args.prescan_rbw is not None):
        raise SystemExit("--capture-budget and --prescan-rbw require --adaptive")
    try:
        if args.adaptive:
            planner = AdaptivePlanner(
                capture_budget=args.capture_budget, prescan_rbw=args.prescan_rbw
            )
        config = _parse_span(args)
        pairs = (_parse_ops(args.pair),) if args.pair else DEFAULT_PAIRS
        report = run_survey(
            machines=machines,
            pairs=pairs,
            config=config,
            bands=parse_bands(args.bands),
            seed=args.seed,
            workers=args.workers,
            fault_classes=fault_classes,
            resume=args.resume,
            telemetry_dir=telemetry_dir,
            telemetry=telemetry,
            max_shard_retries=args.max_shard_retries,
            max_pool_breaks=args.max_pool_breaks,
            planner=planner,
            manifest_dir=args.manifest_dir,
            shard_timeout_s=args.shard_timeout,
        )
    except ReproError as exc:
        if telemetry is not None:
            # The survey died; still flush what the parent saw so the
            # JSONL stream explains the failure.
            telemetry.emit_snapshot(label="metrics-at-failure")
        _finish_telemetry(telemetry)
        raise SystemExit(str(exc)) from exc
    print(report.to_text())
    _finish_telemetry(telemetry)
    return 0


def cmd_localize(args):
    from .analysis.localization import localize_carrier

    machine = _build_machine(args)
    activity = AlternationActivity.constant(
        activity_levels(MicroOp.LDM if args.memory else MicroOp.LDL2),
        label="steady probe activity",
    )
    result = localize_carrier(machine, args.frequency, activity)
    print(result.describe())
    return 0


def cmd_record(args):
    from . import io as campaign_io

    machine = _build_machine(args)
    config = _parse_span(args)
    op_x, op_y = _parse_ops(args.pair)
    if args.checkpoint_dir is not None:
        from .runner import DurableCampaign

        campaign = DurableCampaign(
            machine,
            config,
            journal_dir=args.checkpoint_dir,
            rng=np.random.default_rng(args.seed + 1),
            fault_plan=_parse_fault_plan(args),
            resume=args.resume,
        )
    else:
        campaign = MeasurementCampaign(
            machine,
            config,
            rng=np.random.default_rng(args.seed + 1),
            fault_plan=_parse_fault_plan(args),
        )
    telemetry = _build_telemetry(args)
    try:
        if telemetry is not None:
            with use_telemetry(telemetry):
                result = campaign.run(op_x, op_y, label=args.pair)
            telemetry.emit_snapshot()
        else:
            result = campaign.run(op_x, op_y, label=args.pair)
    except ReproError as exc:
        if telemetry is not None:
            telemetry.emit_snapshot(label="metrics-at-failure")
        _finish_telemetry(telemetry)
        raise SystemExit(str(exc)) from exc
    saved = campaign_io.save_campaign(result, args.output, compress=not args.uncompressed)
    resumed = getattr(campaign, "resumed_indices", ())
    if resumed:
        print(f"resumed {len(resumed)} capture(s) from {args.checkpoint_dir}")
    print(f"recorded {len(result.measurements)} spectra to {saved}")
    if result.robustness is not None:
        print(result.robustness.to_text())
    _finish_telemetry(telemetry)
    return 0


def cmd_analyze(args):
    if args.manifest is not None:
        # Offline survey recovery: aggregate whatever shard outcomes the
        # manifest holds into a report, no re-runs, no .npz needed.
        from .survey import recover_survey_report

        try:
            report = recover_survey_report(args.manifest)
        except ReproError as exc:
            raise SystemExit(str(exc)) from exc
        print(report.to_text())
        return 0
    if args.input is None:
        raise SystemExit(
            "analyze needs an input .npz recording, or --manifest DIR to "
            "recover a survey report from a manifest"
        )
    from . import io as campaign_io

    try:
        result = campaign_io.load_campaign(args.input, journal=args.journal, lazy=args.lazy)
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    detections = CarrierDetector().detect(result)
    print(f"{result.machine_name} / {result.activity_label}: {len(detections)} carriers")
    if result.excluded_indices:
        print(
            f"  ({len(result.excluded_indices)} flagged capture(s) excluded "
            f"from scoring: indices {result.excluded_indices})"
        )
    for harmonic_set in group_harmonics(detections):
        print(f"  set {harmonic_set.describe()}")
        for order, detection in harmonic_set.members:
            print(f"    [{order:>2}] {detection.describe()}")
    if result.robustness is not None:
        # Present for journal recoveries (how each capture was earned:
        # retries, faults, timeouts) and for archives of degraded runs.
        print(result.robustness.to_text())
    return 0


def _parse_tenant_policy(text):
    """``NAME[:weight[:priority[:max-shards[:max-captures]]]]`` → policy."""
    from .service import TenantPolicy

    parts = text.split(":")
    try:
        return TenantPolicy(
            name=parts[0],
            weight=float(parts[1]) if len(parts) > 1 and parts[1] else 1.0,
            priority=int(parts[2]) if len(parts) > 2 and parts[2] else 0,
            max_concurrent_shards=(
                int(parts[3]) if len(parts) > 3 and parts[3] else None
            ),
            max_captures=float(parts[4]) if len(parts) > 4 and parts[4] else None,
        )
    except (ValueError, ReproError) as exc:
        raise SystemExit(
            f"invalid tenant policy {text!r} "
            "(expected NAME[:weight[:priority[:max-shards[:max-captures]]]]): "
            f"{exc}"
        ) from exc


def cmd_serve(args):
    from .service import FaseService

    tenants = [_parse_tenant_policy(text) for text in (args.tenant or [])]
    service = FaseService(
        args.root,
        tenants=tenants,
        workers=args.workers,
        shard_timeout_s=args.shard_timeout,
        reap_after_s=args.reap_after,
    )
    host, port = service.start(host=args.host, port=args.port)
    print(f"fase service on http://{host}:{port} (store: {args.root})")
    try:
        import signal
        import threading

        stop = threading.Event()
        signal.signal(signal.SIGTERM, lambda *_: stop.set())
        signal.signal(signal.SIGINT, lambda *_: stop.set())
        stop.wait()
    finally:
        service.stop()
    return 0


def cmd_worker(args):
    import signal
    import threading

    from .service.host import WorkerHost

    host = WorkerHost(
        args.connect,
        name=args.name,
        workdir=args.workdir,
        shard_timeout_s=args.shard_timeout,
        poll_interval_s=args.poll_interval,
        idle_exit_s=args.idle_exit,
        max_shards=args.max_shards,
        verbose=not args.quiet,
    )
    # Cooperative shutdown: the in-flight shard finishes and is
    # reported; an unfinished claim is simply reaped by the service.
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, lambda *_: host.stop())
        signal.signal(signal.SIGINT, lambda *_: host.stop())
    try:
        summary = host.run()
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    print(
        f"{summary['host']}: {summary['completed']} completed, "
        f"{summary['failed']} failed"
    )
    return 0


def cmd_watch(args):
    import json as _json

    from .service import ServiceClient

    client = ServiceClient(args.url)
    try:
        if args.no_follow:
            for event in client.events(args.job_id, offset=args.offset):
                print(_json.dumps(event, sort_keys=True))
            return 0
        stream = client.stream_events(args.job_id, offset=args.offset)
        while True:
            try:
                event = next(stream)
            except StopIteration as stop:
                print(f"{args.job_id}: {stop.value}")
                return 0
            print(_json.dumps(event, sort_keys=True), flush=True)
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    except KeyboardInterrupt:
        return 130


def cmd_submit(args):
    from .io import _config_to_dict
    from .service import ServiceClient
    from .survey import parse_bands

    client = ServiceClient(args.url)
    machines = None
    if args.machines:
        machines = [name.strip() for name in args.machines.split(",") if name.strip()]
    pairs = None
    if args.pair:
        op_x, op_y = _parse_ops(args.pair)
        pairs = [(op_x.value, op_y.value)]
    try:
        job_id = client.submit(
            args.tenant,
            machines=machines,
            pairs=pairs,
            config=_config_to_dict(_parse_span(args)),
            bands=parse_bands(args.bands),
            seed=args.seed,
            max_shard_retries=args.max_shard_retries,
        )
        print(job_id)
        if args.wait:
            status = client.wait(job_id, timeout_s=args.wait)
            print(f"{job_id}: {status['state']} ({status['n_completed']}/{status['n_shards']})")
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    return 0


def cmd_jobs(args):
    from .service import ServiceClient

    try:
        jobs = ServiceClient(args.url).jobs()
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    for job in jobs:
        print(
            f"{job['job_id']}  {job['tenant']:<12} {job['state']:<10} "
            f"{job['n_completed']}/{job['n_shards']} shard(s)"
        )
    if not jobs:
        print("no jobs")
    return 0


def cmd_cancel(args):
    from .service import ServiceClient

    try:
        outcome = ServiceClient(args.url).cancel(args.job_id)
    except ReproError as exc:
        raise SystemExit(str(exc)) from exc
    print(f"{outcome['job_id']}: {outcome['state']}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FASE (ISCA 2015) reproduction: find amplitude-modulated side-channel emanations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run FASE on a preset machine")
    _add_machine_argument(scan)
    _add_campaign_arguments(scan)
    _add_durable_arguments(scan)
    scan.add_argument("--pair", default=None, help="activity pair, e.g. LDM/LDL1")
    scan.set_defaults(handler=cmd_scan)

    survey = sub.add_parser(
        "survey",
        help="run FASE over many machines with process-parallel shards",
    )
    survey.add_argument("--seed", type=int, default=0, help="root random seed")
    survey.add_argument(
        "--machines",
        default=None,
        metavar="NAMES",
        help="comma list of preset machines (default: all of "
        f"{','.join(sorted(ALL_PRESETS))})",
    )
    _add_campaign_arguments(survey)
    survey.add_argument(
        "--pair",
        default=None,
        help="survey a single activity pair, e.g. LDM/LDL1 (default: the "
        "paper's LDM/LDL1 and LDL2/LDL1)",
    )
    survey.add_argument(
        "--bands",
        default="1",
        metavar="N|PRESET|RANGES",
        help="split the span into sub-bands, one shard each: a count "
        f"(e.g. 8), a preset ({', '.join(sorted(BAND_PRESETS))}), or "
        "comma-separated MHz ranges like 0-2,2-4",
    )
    survey.add_argument(
        "--adaptive",
        action="store_true",
        help="use the budgeted adaptive planner: pre-scan every shard at "
        "low resolution, spend full-resolution captures on high-promise "
        "shards first, and early-stop shards whose Eq. 1 evidence "
        "provably cannot reach the detection threshold",
    )
    survey.add_argument(
        "--capture-budget",
        type=float,
        default=None,
        metavar="N",
        help="cap full-resolution captures survey-wide: an absolute count "
        "(>= 1) or a fraction of the exhaustive total (0 < N < 1); "
        "requires --adaptive",
    )
    survey.add_argument(
        "--prescan-rbw",
        type=float,
        default=None,
        metavar="HZ",
        help="pre-scan resolution bandwidth in Hz (default: 5x the "
        "campaign RBW); requires --adaptive",
    )
    survey.add_argument(
        "--manifest-dir",
        default=None,
        metavar="DIR",
        help="durable survey orchestration: journal every shard outcome, "
        "ledger event, and planner decision to a crash-safe manifest "
        "under DIR; re-running the same plan with --resume skips "
        "completed shards and continues where the killed run stopped",
    )
    survey.add_argument(
        "--resume",
        action="store_true",
        help="with --manifest-dir: continue an existing manifest instead "
        "of refusing to touch it",
    )
    survey.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stall watchdog: a shard that neither finishes nor beats its "
        "heartbeat within SECONDS (a positive number) has its worker "
        "killed, is charged a 'shard-stalled' failure against "
        "--max-shard-retries, and retries in isolation",
    )
    survey.add_argument(
        "--max-shard-retries",
        type=int,
        default=2,
        metavar="N",
        help="requeue a failed shard (worker death included) at most N "
        "times before abandoning it into the survey ledger",
    )
    survey.add_argument(
        "--max-pool-breaks",
        type=int,
        default=3,
        metavar="N",
        help="tolerate at most N shared-pool breaks survey-wide; once "
        "spent, shards still waiting for a shared pool are abandoned "
        "(ledger kind 'pool-break-cap') instead of cycling forever",
    )
    survey.set_defaults(handler=cmd_survey)

    localize = sub.add_parser("localize", help="near-field localize a carrier")
    _add_machine_argument(localize)
    localize.add_argument("frequency", type=float, help="carrier frequency in Hz")
    localize.add_argument(
        "--memory", action="store_true", help="probe under memory (vs on-chip) activity"
    )
    localize.set_defaults(handler=cmd_localize)

    record = sub.add_parser("record", help="run a campaign and save the spectra")
    _add_machine_argument(record)
    _add_campaign_arguments(record)
    _add_durable_arguments(record)
    record.add_argument("--pair", default="LDM/LDL1")
    record.add_argument(
        "--uncompressed",
        action="store_true",
        help="store spectra uncompressed (ZIP_STORED) so a later "
        "'analyze --lazy' can memory-map traces straight from the archive",
    )
    record.add_argument("output", help="output .npz path")
    record.set_defaults(handler=cmd_record)

    analyze = sub.add_parser("analyze", help="detect carriers in a recording")
    analyze.add_argument(
        "input", nargs="?", default=None, help="input .npz path (omit with --manifest)"
    )
    analyze.add_argument(
        "--manifest",
        default=None,
        metavar="DIR",
        help="recover and print the survey report journaled in a "
        "--manifest-dir manifest (no .npz input; completed shards, "
        "ledger, and planner decisions are aggregated offline)",
    )
    analyze.add_argument(
        "--lazy",
        action="store_true",
        help="memory-map traces from the archive instead of loading them "
        "eagerly; detection then reads only what it touches (recordings "
        "made with --uncompressed mmap without any decompression)",
    )
    analyze.add_argument(
        "--journal",
        default=None,
        metavar="DIR",
        help="campaign journal directory to recover from when the archive "
        "is truncated or corrupted",
    )
    analyze.set_defaults(handler=cmd_analyze)

    serve = sub.add_parser(
        "serve", help="run the durable multi-tenant campaign service"
    )
    serve.add_argument("root", help="job-store directory (journal + per-job manifests)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8321)
    serve.add_argument(
        "--workers", type=int, default=2,
        help="worker threads draining shard claims (0 = hub-only: every "
        "shard runs on remote `worker` hosts)",
    )
    serve.add_argument(
        "--tenant",
        action="append",
        metavar="POLICY",
        help="tenant policy NAME[:weight[:priority[:max-shards[:max-captures]]]] "
        "(repeatable; unregistered tenants get the defaults)",
    )
    serve.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stall watchdog per shard (workers run shards in killable "
        "single-worker pools)",
    )
    serve.add_argument(
        "--reap-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="release claims whose worker heartbeat is older than SECONDS "
        "so surviving workers adopt them",
    )
    serve.set_defaults(handler=cmd_serve)

    worker = sub.add_parser(
        "worker", help="run a standalone worker host against a running service"
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="URL",
        help="base URL of the campaign service, e.g. http://127.0.0.1:8321",
    )
    worker.add_argument(
        "--name", default=None, help="host identity (default: host-<hostname>-<pid>)"
    )
    worker.add_argument(
        "--workdir", default=None, help="scratch dir for heartbeat files (default: temp)"
    )
    worker.add_argument(
        "--shard-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stall watchdog per shard (shards then run in killable "
        "single-worker pools)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.25, metavar="SECONDS",
        help="longest one idle claim waits (work wakes it at once) and the "
        "retry backoff after a service error",
    )
    worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this long with no claimable work (default: run forever)",
    )
    worker.add_argument(
        "--max-shards", type=int, default=None, help="exit after running N shards"
    )
    worker.add_argument(
        "--quiet", action="store_true", help="no per-shard progress lines"
    )
    worker.set_defaults(handler=cmd_worker)

    submit = sub.add_parser("submit", help="submit a campaign job to a running service")
    submit.add_argument("--url", default="http://127.0.0.1:8321", help="service base URL")
    submit.add_argument("--tenant", required=True, help="tenant to charge the job to")
    submit.add_argument(
        "--machines", default=None, metavar="NAMES", help="comma list of preset machines"
    )
    submit.add_argument("--pair", default=None, help="activity pair, e.g. LDM/LDL1")
    submit.add_argument("--bands", default=None, metavar="N|PRESET|RANGES")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--span-low", type=float, default=0.0)
    submit.add_argument("--span-high", type=float, default=4e6)
    submit.add_argument("--fres", type=float, default=50.0)
    submit.add_argument("--falt1", type=float, default=43.3e3)
    submit.add_argument("--f-delta", type=float, default=0.5e3)
    submit.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    submit.add_argument("--max-capture-retries", type=int, default=2, help=argparse.SUPPRESS)
    submit.add_argument("--max-shard-retries", type=int, default=2, metavar="N")
    submit.add_argument(
        "--wait",
        type=float,
        default=None,
        metavar="SECONDS",
        help="block until the job is terminal (at most SECONDS)",
    )
    submit.set_defaults(handler=cmd_submit)

    jobs = sub.add_parser("jobs", help="list a running service's jobs")
    jobs.add_argument("--url", default="http://127.0.0.1:8321")
    jobs.set_defaults(handler=cmd_jobs)

    watch = sub.add_parser("watch", help="live-tail a service job's event stream")
    watch.add_argument("job_id", help="job to watch, e.g. job-000001")
    watch.add_argument("--url", default="http://127.0.0.1:8321", help="service base URL")
    watch.add_argument(
        "--offset",
        type=int,
        default=0,
        metavar="BYTES",
        help="resume the stream from this byte offset (from a prior watch)",
    )
    watch.add_argument(
        "--no-follow",
        action="store_true",
        help="print the current snapshot and exit instead of tailing live",
    )
    watch.set_defaults(handler=cmd_watch)

    cancel = sub.add_parser("cancel", help="cooperatively cancel a service job")
    cancel.add_argument("--url", default="http://127.0.0.1:8321")
    cancel.add_argument("job_id")
    cancel.set_defaults(handler=cmd_cancel)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
