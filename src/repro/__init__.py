"""repro: a full reproduction of FASE (Callan, Zajić, Prvulovic, ISCA 2015).

FASE — Finding Amplitude-modulated Side-channel Emanations — automatically
finds periodic EM signals emitted by a computer whose amplitude is
modulated by specific program activity. This package implements the
methodology end to end over a first-principles emission simulator (the
physical capture chain is the one thing a pure-software reproduction must
substitute; see DESIGN.md for the substitution argument):

* :mod:`repro.signals` — pulse-train Fourier analysis, oscillator line
  shapes, AM/FM side-band synthesis, noise, time-domain waveforms;
* :mod:`repro.spectrum` — frequency grids, traces, the spectrum-analyzer
  model, Welch PSDs, peak detection;
* :mod:`repro.uarch` — the Figure 6 micro-benchmark over a cache-hierarchy
  timing model, with falt calibration;
* :mod:`repro.system` — emitters (switching regulators, memory refresh,
  spread-spectrum clocks), the metropolitan RF environment, and the four
  preset machines of the paper;
* :mod:`repro.core` — the FASE campaigns, the Eq. 1/2 heuristic, carrier
  detection, harmonic grouping, and source classification;
* :mod:`repro.analysis` — near-field localization, modulation-depth
  sweeps, rejection validation, and FM confirmation;
* :mod:`repro.telemetry` — opt-in tracing, metrics, and per-stage
  profiling for every campaign (off by default, zero overhead);
* :mod:`repro.survey` — the sharded, process-parallel multi-machine
  survey engine with worker-death recovery and cross-machine source
  comparison.

Quickstart::

    from repro import corei7_desktop, run_fase
    report = run_fase(corei7_desktop(rng=0), rng=1)
    print(report.to_text())

A scan needs only the numerics, so ``import repro`` loads only them. The
names that live in :mod:`repro.faults`, :mod:`repro.runner` and
:mod:`repro.survey` are served on first access by the module-level
:func:`__getattr__` (PEP 562); ``from repro import run_survey`` works as
it always did.
"""

import importlib

from .core import (
    FaseConfig,
    campaign_low_band,
    campaign_mid_band,
    campaign_high_band,
    MeasurementCampaign,
    HeuristicScorer,
    CarrierDetector,
    CarrierDetection,
    HarmonicSet,
    group_harmonics,
    classify_sources,
    FaseReport,
    run_fase,
    pair_label,
)
from .spectrum import FrequencyGrid, SpectrumTrace, SpectrumAnalyzer
from .telemetry import (
    Telemetry,
    NullTelemetry,
    NULL_TELEMETRY,
    current_telemetry,
    use_telemetry,
    set_telemetry,
    MetricsRegistry,
    MetricsSnapshot,
    StageProfiler,
    Recorder,
    JsonlSink,
    read_jsonl,
)
from .system import (
    SystemModel,
    corei7_desktop,
    corei3_laptop,
    turionx2_laptop,
    pentium3m_laptop,
)
from .uarch import MicroOp, AlternationMicrobenchmark, AlternationActivity

__version__ = "1.0.0"

#: Public names of the subsystems a scan never calls, by defining module.
_LAZY = {
    "FaultPlan": "repro.faults",
    "RobustnessReport": "repro.faults",
    "CampaignJournal": "repro.runner",
    "DurableCampaign": "repro.runner",
    "recover_campaign": "repro.runner",
    "SurveyLedger": "repro.survey",
    "SurveyReport": "repro.survey",
    "run_survey": "repro.survey",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "FaseConfig",
    "campaign_low_band",
    "campaign_mid_band",
    "campaign_high_band",
    "MeasurementCampaign",
    "HeuristicScorer",
    "CarrierDetector",
    "CarrierDetection",
    "HarmonicSet",
    "group_harmonics",
    "classify_sources",
    "FaseReport",
    "run_fase",
    "pair_label",
    "FaultPlan",
    "RobustnessReport",
    "CampaignJournal",
    "DurableCampaign",
    "recover_campaign",
    "SurveyLedger",
    "SurveyReport",
    "run_survey",
    "Telemetry",
    "NullTelemetry",
    "NULL_TELEMETRY",
    "current_telemetry",
    "use_telemetry",
    "set_telemetry",
    "MetricsRegistry",
    "MetricsSnapshot",
    "StageProfiler",
    "Recorder",
    "JsonlSink",
    "read_jsonl",
    "FrequencyGrid",
    "SpectrumTrace",
    "SpectrumAnalyzer",
    "SystemModel",
    "corei7_desktop",
    "corei3_laptop",
    "turionx2_laptop",
    "pentium3m_laptop",
    "MicroOp",
    "AlternationMicrobenchmark",
    "AlternationActivity",
    "__version__",
]
