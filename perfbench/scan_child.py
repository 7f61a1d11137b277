"""Traced stand-in for ``python -m repro scan``, run as the scan-cold op.

Usage: ``python3 perfbench/scan_child.py TRACE_JSON scan [scan options]``

Times ``import repro`` itself, wraps the pipeline layers, then runs the
real CLI entry point, so its standard output is byte-for-byte the
report ``python -m repro scan`` prints. The layer totals and the
child's own start/end timestamps go to ``TRACE_JSON``.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(trace_path, argv):
    import_start = time.perf_counter()
    import repro.cli

    import_end = time.perf_counter()
    from tracing import Tracer, install_pipeline, layer_totals

    with install_pipeline(Tracer()) as tracer:
        code = repro.cli.main(argv)
    sys.stdout.flush()
    layers = layer_totals(tracer.spans)
    layers["import.repro"] = [import_end - import_start, 1, 0]
    record = {"started": STARTED, "ended": time.perf_counter(), "layers": layers}
    Path(trace_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
