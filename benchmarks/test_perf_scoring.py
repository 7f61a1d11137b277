"""Old-vs-new scoring engine on the Figure 11 campaign (perf tentpole).

Times the full scoring-and-detection hot path — ``all_scores`` over all
ten harmonics plus ``CarrierDetector.detect`` — on the paper's 0-4 MHz /
50 Hz LDM/LDL1 campaign (80,000 bins x 5 falts), once through the naive
per-trace ``np.interp`` reference path and once through the vectorized
``ShiftedPowerCache`` engine. Emits a machine-readable
``BENCH_scoring.json`` and asserts the engine is at least 3x faster while
producing ``np.allclose``-identical scores and identical detections. The
record also carries the engine's ``tracemalloc`` peak for one
``all_scores`` call, the allocation high-water mark of streamed scoring,
and ``zscore_s``: ``harmonic_zscores`` over the ten ``F_h``, whose bytes
must equal the inline ``np.median`` formula's (timed beside it as
``zscore_np_median_s``; no speed floor).
"""

import json
import time
import tracemalloc

import numpy as np

from repro.core import CarrierDetector, HeuristicScorer


def _best_of(fn, repeats=3):
    """Best wall-clock of several runs: robust to scheduler noise."""
    best = float("inf")
    value = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _np_median_zscore(score):
    """The robust z-score as written before the single-selection median."""
    log_score = np.log10(score)
    median = float(np.median(log_score))
    mad = float(np.median(np.abs(log_score - median)))
    sigma = 1.4826 * mad
    if sigma <= 0:
        sigma = float(np.std(log_score)) or 1.0
    return (log_score - median) / sigma


def test_scoring_engine_speedup(i7_ldm_result, output_dir):
    result = i7_ldm_result
    reference_scorer = HeuristicScorer(vectorized=False)
    fast_scorer = HeuristicScorer()

    reference_scores_s, reference_scores = _best_of(
        lambda: reference_scorer.all_scores(result)
    )
    fast_scores_s, fast_scores = _best_of(lambda: fast_scorer.all_scores(result))

    assert set(reference_scores) == set(fast_scores)
    for harmonic in reference_scores:
        np.testing.assert_allclose(
            fast_scores[harmonic], reference_scores[harmonic], rtol=1e-9
        )

    reference_detect_s, reference_detections = _best_of(
        lambda: CarrierDetector(scorer=reference_scorer).detect(result)
    )
    fast_detect_s, fast_detections = _best_of(lambda: CarrierDetector().detect(result))

    assert [d.frequency for d in reference_detections] == [
        d.frequency for d in fast_detections
    ]
    assert len(fast_detections) >= 10

    zscore_s, zscores = _best_of(
        lambda: fast_scorer.harmonic_zscores(result, scores=fast_scores)
    )
    zscore_np_median_s, reference_zscores = _best_of(
        lambda: {h: _np_median_zscore(score) for h, score in fast_scores.items()}
    )
    assert set(zscores) == set(reference_zscores)
    for harmonic, z in zscores.items():
        assert z.tobytes() == reference_zscores[harmonic].tobytes()

    tracemalloc.start()
    try:
        fast_scorer.all_scores(result)
        _, fast_scores_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    reference_total = reference_scores_s + reference_detect_s
    fast_total = fast_scores_s + fast_detect_s
    speedup = reference_total / fast_total

    record = {
        "campaign": result.config.describe(),
        "n_bins": result.grid.n_bins,
        "n_traces": len(result.measurements),
        "n_harmonics": len(result.config.harmonics),
        "reference": {
            "all_scores_s": reference_scores_s,
            "detect_s": reference_detect_s,
            "total_s": reference_total,
        },
        "vectorized": {
            "all_scores_s": fast_scores_s,
            "all_scores_peak_mb": fast_scores_peak / 1e6,
            "detect_s": fast_detect_s,
            "total_s": fast_total,
        },
        "speedup": speedup,
        "zscore_s": zscore_s,
        "zscore_np_median_s": zscore_np_median_s,
        "zscores_identical": True,
        "scores_allclose": True,
        "detections_identical": True,
    }
    (output_dir / "BENCH_scoring.json").write_text(json.dumps(record, indent=2) + "\n")

    assert speedup >= 3.0, f"vectorized engine only {speedup:.2f}x faster"
