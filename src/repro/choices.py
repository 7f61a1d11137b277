"""Option vocabularies the CLI lists when it builds its parser.

``repro --help`` names the fault classes and the survey's band presets,
but a scan imports neither the fault injectors nor the survey engine.
The names live here, in a module that imports no subsystem, and the
subsystems take them from here: :data:`repro.faults.FAULT_CLASSES` is
keyed in :data:`FAULT_CLASS_NAMES` order, and
:data:`repro.survey.BAND_PRESETS` is this module's dict.
"""

from __future__ import annotations

#: Fault classes in canonical injector order: drop first (a dropped
#: capture carries no other corruption), then the power-domain faults.
FAULT_CLASS_NAMES = ("drop", "interference", "clipping", "drift", "glitch")

#: Named band splits accepted by ``--bands`` and :func:`repro.survey.parse_bands`.
BAND_PRESETS = {
    "full": 1,
    "halves": 2,
    "quarters": 4,
    "eighths": 8,
    "sixteenths": 16,
}
