"""Regenerate ``goldens.json``: each workload's output digest per shipped seed.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/make_goldens.py

Each golden comes from the inline route (``run_fase`` through the CLI
entry point, or ``run_survey`` at ``workers=1``) and is checked against
one op through the measured route (subprocess, process pool or service)
before it is written; a disagreement aborts without writing.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Seeds 0..SEEDS-1 ship with a committed golden.
SEEDS = 20


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    goldens = {}
    workdir = ROOT / ".perfbench_work" / "goldens"
    for name, cls in WORKLOADS.items():
        goldens[name] = {}
        for seed in range(SEEDS):
            workdir.mkdir(parents=True, exist_ok=True)
            work = cls(seed, "full", workdir)
            try:
                work.setup()
                inline = work.inline_digest()
                measured = work.op(traced=False).digest
            finally:
                work.close()
                shutil.rmtree(workdir.parent, ignore_errors=True)
            if inline != measured:
                raise SystemExit(f"{name} seed {seed}: inline {inline} != measured {measured}")
            goldens[name][str(seed)] = inline
            print(f"{name} seed {seed}: {inline}", flush=True)
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
