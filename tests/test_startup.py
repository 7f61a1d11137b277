"""Startup stays light: importing the package or running a scan loads only what a scan runs.

``scipy.signal`` alone used to be most of ``import repro``'s wall time,
paid by every ``python -m repro`` invocation and every service client,
although only the time-domain cross-check (``welch_psd``) and the FM
spectrogram confirmation use it. Those import it when called. The same
holds for the subsystems a scan never calls (the survey engine, the
service, the durable runner, campaign I/O, the fault injectors and the
standard library's process and thread pools): ``repro`` serves their
public names through a lazy ``__getattr__``, and each CLI subcommand
imports its subsystem when it is dispatched. ``numpy.ma`` (8-10 ms of
exec) is out too: ``np.median``, ``np.percentile`` and ``np.unique``
import it on first call, so detection selects its medians and window
quartiles with ``np.partition``. Each check runs in a fresh interpreter,
so modules other tests have imported cannot mask a regression.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT = (
    "import atexit, json, sys\n"
    "atexit.register(lambda: sys.stderr.write('\\nLOADED=' + json.dumps("
    "sorted(sys.modules)) + '\\n'))\n"
)

#: Subsystems a scan never calls, so neither ``import repro`` nor a scan loads them.
SCAN_FREE = (
    "repro.survey",
    "repro.service",
    "repro.runner",
    "repro.io",
    "repro.faults",
    "multiprocessing",
    "concurrent.futures",
)


def _under(loaded, packages):
    return sorted(
        name for name in loaded if any(name == p or name.startswith(p + ".") for p in packages)
    )


def _loaded_after(code):
    loaded, stdout = _modules_after(code)
    return _under(loaded, ("scipy.signal",)), stdout


def _modules_after(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, "-c", _REPORT + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    marker = [line for line in result.stderr.splitlines() if line.startswith("LOADED=")]
    assert marker, result.stderr
    return json.loads(marker[-1][len("LOADED=") :]), result.stdout


@pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.service.client"])
def test_import_does_not_load_scipy_signal(module):
    loaded, _ = _loaded_after(f"import {module}")
    assert loaded == []


def test_scan_does_not_load_scipy_signal():
    argv = ["repro", "scan", "--span-high", "2e5", "--fres", "100"]
    loaded, stdout = _loaded_after(
        f"import runpy, sys\nsys.argv = {argv!r}\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)"
    )
    assert "activity LDM/LDL1" in stdout
    assert loaded == []


def test_lazy_paths_still_load_it():
    loaded, _ = _loaded_after(
        "import numpy as np\n"
        "from repro.spectrum.welch import welch_psd\n"
        "welch_psd(np.ones(64, dtype=complex), 1e3)"
    )
    assert "scipy.signal" in loaded


def _scan_code(argv):
    return (
        f"import runpy, sys\nsys.argv = {argv!r}\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)"
    )


@pytest.mark.parametrize("module", ["repro", "repro.cli"])
def test_import_loads_no_scan_free_subsystem(module):
    loaded, _ = _modules_after(f"import {module}")
    assert _under(loaded, SCAN_FREE) == []


def test_scan_loads_no_scan_free_subsystem():
    argv = ["repro", "scan", "--span-high", "2e5", "--fres", "100"]
    loaded, stdout = _modules_after(_scan_code(argv))
    assert "activity LDM/LDL1" in stdout
    assert _under(loaded, SCAN_FREE) == []
    assert len(_under(loaded, ("repro",))) <= 55


def test_scan_does_not_load_numpy_ma():
    argv = ["repro", "scan", "--span-high", "5e5", "--fres", "100"]
    loaded, stdout = _modules_after(_scan_code(argv))
    assert "carrier at" in stdout  # detection, grouping and characterization ran
    assert _under(loaded, ("numpy.ma",)) == []


def test_lazy_names_still_resolve():
    code = (
        "import repro\n"
        "missing = [name for name in repro.__all__ if not hasattr(repro, name)]\n"
        "assert not missing, missing\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "assert set(repro.__all__) <= set(namespace)\n"
        "import repro.faults, repro.runner, repro.survey\n"
        "assert repro.run_survey is repro.survey.run_survey\n"
        "assert repro.SurveyReport is repro.survey.SurveyReport\n"
        "assert repro.DurableCampaign is repro.runner.DurableCampaign\n"
        "assert repro.FaultPlan is repro.faults.FaultPlan\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('repro.no_such_name resolved')\n"
    )
    loaded, _ = _modules_after(code)
    assert "repro.survey" in loaded


def test_survey_subcommand_still_runs():
    argv = [
        "repro", "survey", "--machines", "corei7_desktop", "--span-high", "2e5",
        "--fres", "500", "--f-delta", "2.5e3", "--pair", "LDM/LDL1", "--seed", "3",
    ]
    loaded, stdout = _modules_after(_scan_code(argv))
    assert "survey ledger: all shards completed cleanly" in stdout
    assert "repro.survey.engine" in loaded
