"""Startup stays light: importing the package or running a scan never loads scipy.signal.

``scipy.signal`` alone used to be most of ``import repro``'s wall time,
paid by every ``python -m repro`` invocation and every service client,
although only the time-domain cross-check (``welch_psd``) and the FM
spectrogram confirmation use it. Those import it when called. Each check
runs in a fresh interpreter, so modules other tests have imported cannot
mask a regression.
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
    "sorted(m for m in sys.modules if m == 'scipy.signal' "
    "or m.startswith('scipy.signal.'))) + '\\n'))\n"
)


def _loaded_after(code):
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
