"""Every ``python -m repro <cmd> --help`` page, pinned byte for byte.

Some help strings are built when the parser is: ``--faults`` lists the
fault classes and ``--bands`` the band presets. Where those names come
from may move (the CLI imports a subsystem only when a subcommand runs),
but the page a user reads must not change. The digests are SHA-256 over
stdout at ``COLUMNS=80``.

argparse's own layout changed in Python 3.13, so the pins hold on the
versions CI runs (3.11 and 3.12).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 13), reason="argparse's help layout changed in Python 3.13"
)

SRC = Path(__file__).resolve().parents[1] / "src"

HELP_DIGESTS = {
    "": "06e2bfc2690ede40930fe4ab30adcc122132d17f43f2373f6e0574b30f1031a3",
    "scan": "1bb75a8561c6a783286c0ca94613154d1b5e6ec85d22b4c5f1099ea38225451b",
    "survey": "c814efcf7de5394b394391ccfe52dc03946ae09338926e7fc9d93e4245c9d11c",
    "localize": "cb7bbc72f83f2bb9bf4f46e21803242fc00c3c5370ebc8774a2c55f7d67ee721",
    "record": "c3d77970dbb5857c0c02c82adddb24e8269af6272e0d70937ca3231f685b6b26",
    "analyze": "66a64a469ea5fcf7e892f23a028c51eee34a13d9ab44b2f053eec9763ce1ab98",
    "serve": "73d726e74f0e6fa89d0b27dfd67c8cb5ba99bd4393b6e5fb864328cafee78fb5",
    "worker": "60df26a8becbc69522d9d32f6ef2e114125faa8ec2263e20fc63da00f0fbd4b8",
    "submit": "acdcaef650dd4995f07cd91cd6f60b1f3d268adebd4d4007832161e96e3dad46",
    "jobs": "60a01e48a23e799e60102dbe58de8ae2d154afba9422fc0e9e0907f9cc74b11b",
    "watch": "e4bcd6d67bd0f67e3fc61079abcf8e38c770b7f33e42af4c2b7c933a13603712",
    "cancel": "e76a4a3d5533b2a3cbbb38962862cbe81f82516361cb723b60deb8011333a067",
}


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
def test_help_page_digest(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as stop:
        main(([command] if command else []) + ["--help"])
    assert stop.value.code == 0
    assert _sha(out.getvalue()) == HELP_DIGESTS[command]


def test_module_entry_point_prints_the_same_page():
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=str(SRC))
    result = subprocess.run(
        [sys.executable, "-m", "repro", "survey", "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert _sha(result.stdout) == HELP_DIGESTS["survey"]


def test_help_vocabularies_are_the_subsystems_own():
    from repro.choices import BAND_PRESETS, FAULT_CLASS_NAMES
    from repro.faults import FAULT_CLASSES
    from repro.survey import BAND_PRESETS as SURVEY_BAND_PRESETS

    assert tuple(FAULT_CLASSES) == FAULT_CLASS_NAMES
    assert all(cls.name == name for name, cls in FAULT_CLASSES.items())
    assert SURVEY_BAND_PRESETS is BAND_PRESETS
