"""Eq. 1/2 scores and detections on the Fig. 11 campaign, pinned byte for byte.

The campaign is the i7 desktop (built from ``default_rng(0)``) on the
paper's Fig. 10/11 grid, 0-4 MHz at 50 Hz with five falts, measured with
``default_rng(1)`` under both default op pairs. For each pair the
digests are SHA-256 over the float64 bytes of every harmonic's score
``F_h``, the combined z-score and the combined log10 evidence; each
detection's ``(frequency, combined_score, harmonic_scores)`` is pinned
through the SHA-256 of its JSON text (``json`` writes floats with
``repr``, which round-trips exactly). Two extra entries pin the log-space
accumulation path (``clip_subscore=1e60``, so ``N * log10(clip) >= 250``)
and one leave-one-out view (``scores_excluding(result, 2)``).

The Fig. 11/13 source groups of the same i7 campaign are pinned too: the
harmonic sets :func:`group_harmonics` forms from each pair's detections,
and the sources :func:`classify_sources` fuses from both pairs. Each is
the SHA-256 of its JSON text, carrying every fundamental, order and
member frequency, and each source's fingerprint, mechanism and
modulating labels.

The Fig. 17 campaign is pinned the same way: the Turion X2 laptop (built
from ``default_rng(2)``) over the paper's "turion window", 0-1.2 MHz at
50 Hz, measured with ``default_rng(3)`` under LDM/LDL1.

A scoring or detection optimisation that reorders one float operation
changes a digest here; "allclose" is not the contract.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core.campaign import MeasurementCampaign
from repro.core.classify import classify_sources
from repro.core.config import FaseConfig, campaign_low_band
from repro.core.detect import CarrierDetector
from repro.core.harmonics import group_harmonics
from repro.core.heuristic import HeuristicScorer
from repro.survey import DEFAULT_PAIRS
from repro.system import corei7_desktop, turionx2_laptop
from repro.uarch import MicroOp

PAIRS = {f"{op_x.name}/{op_y.name}": (op_x, op_y) for op_x, op_y in DEFAULT_PAIRS}

DIGESTS = {
    "LDM/LDL1": {
        "F+1": "80e869c4a683671850ac5015868ff59ddc60c61cd14657bc7fa26ed154e7b676",
        "F-1": "c3b5c4b5fe2808432f226186c912b17cee885eead82f84344ca064e9b961edd8",
        "F+2": "5b2d07c791ee52e09ec8b57b07df220ab30c8a7928a032b53656508fa4f2dc21",
        "F-2": "10e18073b11d56e42051b5b90eea95b05caf257d2bb9c9f34ff31f99d345e909",
        "F+3": "808ed4a859ffe9a4314163facc52c88eb0c930b2e9cb47ad2255ace25f1308f2",
        "F-3": "1cc22d1848375fa5ed86e1f863ec1d4edfc7f44f0ea6d0e582954c9986f1d6ef",
        "F+4": "1574e8acd497104de6e5cbe77916306679f3edfa93d1386d878b9275a7c0c76a",
        "F-4": "241063a3f7bff8e22b9ff72ac5c35183e9149bfbbea33c9b1acaa1d42f37d13b",
        "F+5": "222aeb01f58e9f86ef14b6fdc4bfd127bf773690e3ec3d3f357a96f75f212c63",
        "F-5": "34e00a595f05c9f6a45cd87f231e1414ac3762a28950c5e9d8c19ac8d68c10d8",
        "combined_z": "adcf5de862d48b2078af55d941c1539856f19955ef2b41a846cf9174fc33dfed",
        "evidence": "51bd187c369ee522ef0929edf9585037bf668943d8880ba965d02fd0cdc4ab74",
        "detections": "de68a44eca54610eb9f24cde1c3492ed545f18c6361b6713c050681b107d2fea",
    },
    "LDL2/LDL1": {
        "F+1": "78d5f92d09ccd21fc7f04a9af50ff72ee0570da5191a86994f6754f70388c242",
        "F-1": "6b5b05a150da5e53198a59bf4d40758aed01b4b6a9ac2ad2311d9549ae524f80",
        "F+2": "fb9edec0635eb64caa2ba331debc8c8b4eb63b7dffb3fc984d177e0979bff332",
        "F-2": "063dda339a0e08cf570d3e8c5989a7e40994ce7a61e1eae3b4adcaf4bc2ec98a",
        "F+3": "9f0861aefe245ae031b63ea82200747550399b2f4994a106a30a62400c01970f",
        "F-3": "f64bb9c22ae643a705f1ba49a4a1e775f2be33227d20b1c626c06cf611993e8e",
        "F+4": "d76c065836b16cbff7cd3ee10c4bf13bf2eb7d216b951e2a3793e4bead5a1ada",
        "F-4": "d8014773df41897af48f1e1db87b2f5a2d02122ece39b03e66646ee3ebfc4da8",
        "F+5": "eadcd1a11d0d5942dfd320741ae07c90efe7e9a4d2622fdad4c1cd59576508dd",
        "F-5": "0822bf5b96cab83ec5cffa2b72fcebec58fd62552f3afddeb25157c2b3ba0570",
        "combined_z": "2d6c156bce33e712b641eb6a2f1a130d742d14184e2b674fa02b6a1148eab49a",
        "evidence": "64af894e5dd9ccd5a13739e1c1a8a40a7149c7fb48cdd8b2226ad29f16128e32",
        "detections": "6521915cdf6089308464cccb7a18ec775f84370ed4c73d53846787452501db73",
    },
    "LDM/LDL1 log-path": {
        "F+1": "e016712770181d6334a919bab143aaf8907df11a3d680ccedd1c17092dd2fec9",
        "F-1": "52f77c43add02691ada913cc202683411112f68ac6e9a167032a64c6ebdb4476",
        "F+2": "2a31bd03a31aa8b74d819a7d496ff60c116a031697b031c134590080044c2745",
        "F-2": "b4c89ec246e407eea403d136280c63b177665cf0cb79ebc5c70bcad38558ca35",
        "F+3": "c383eff6a8baf87c28f6db544aee20347e635f6e8c2df8edaf59d8e590be1495",
        "F-3": "98112276753ed151682bcbdbb87969844c4ccaf844f86c77007a3fb82383c40e",
        "F+4": "023a027134d8019d69f6a4e65a079aaa73ce058a02eae313143944dfc972b44d",
        "F-4": "31305db953e64250ed0e9cebc223299dbe3f797968743da386e10f49765336eb",
        "F+5": "6e8c31e2b09c6318e7d08c4c9144c9b207912641d9cf0bfab2453356659f2bed",
        "F-5": "eace5303f134fa856e39f7d24951e52bf277729edb14f793d18c87f6ca3088f1",
        "combined_z": "bd4f48aa382318566dd7d8ee72593e011f23cf3a2a56c218aa57df3fce622558",
        "evidence": "af6ab8c49503587efae4c655cc1b6714ca2154ee2fdcf6a93281bb2d6d5d81ed",
        "detections": "ee555a5a2ed07ba7013c4195703a847b6e14b6b418bcdfb69cde85ba260d0019",
    },
    "LDM/LDL1 excluding 2": {
        "F+1": "de80a508601ad1f6131737547c16fbe3563acfe9e79c014bdd626eafe52d520a",
        "F-1": "a9284aaf5b63ad9fff183db58a127d6f1f171ce93d3261c32874993f39e6383f",
        "F+2": "0d62d75e3044790a40f13e11d077edd6a0ba0c54adc3bb1cecb726a521709292",
        "F-2": "0c439c5def4625a291c90fe04113dc11707d4bf016383861cefb01527b236fb7",
        "F+3": "cb20a0d6220e0f9180e64c569a3f9053e4c6c06a7189755eae224cee39d560a3",
        "F-3": "dfb9eb2bed5e8fa118bd897e7c48b6883f1cf1d7234f63d0e71a0853d20ce388",
        "F+4": "e62189b0b9df6d607bdda83da7b67bf7aadb3f02e952ee7238975fb6f8432c62",
        "F-4": "06c87ed74d72292852cdf5b2725959dd3b4bb48ec3a48443fdd855331e4ef263",
        "F+5": "a6fed08be99fc43d24bfa4f7a16290548053095018565421d3da6220a56892f2",
        "F-5": "037f1eaa3ab9e813c26a419e9e841b5dee8eb11cf7a53781349aa5b885bda06f",
    },
}

SOURCE_DIGESTS = {
    "LDM/LDL1": "b6e81255da9d62a0f799df7f035311416b82b0274fa3d37359121ba260e7439e",
    "LDL2/LDL1": "6af95f9558133286053722fd530b05594ca1f1d78042ac9dc6e9dc619dc87297",
    "sources": "23e6c6ec070259595808f4610fabff8683b96c3d35719a3c76cd250f5b9693e6",
}

TURION_DIGESTS = {
    "F+1": "1f29dabba612da4f2d98313fed3a996cfb4e128382c7bd95a1665667ba94821c",
    "F-1": "3c389d79bafa4e74cb27d98f47a1dc81f156243e8cbfdf430725299e5400e332",
    "F+2": "72965017deeda1888dbb78a437a182e56700f275b559906870aec2c81532f0ba",
    "F-2": "70507eeb7b698fc4c6dc07a3da21604903d59441dafb17874c134087c001d198",
    "F+3": "54514838df8e14cce44ad8b29f9faacefb3848252a49fc8e0d38d883cb76b3a8",
    "F-3": "fcfbd500877408080b095b2f006fe775d4d3f220e70b3beed5bbe3703065e4ca",
    "F+4": "3348507a28af5ad1bc71ae62459281ff702378c7732f612c794bec35955924f7",
    "F-4": "118dd0df77afd93e09378dc0152d0ae88207ab933a9f0cb26479b3d61b3cdb17",
    "F+5": "040c05b2c0b4e16e48f07e2a2e5d12b269ea3e501054cf089b5ef49c3ba27bd8",
    "F-5": "5eb0a8e6924d04db70496823ca3cfa0b7f36161f13cf8686ce384b35594106f8",
    "combined_z": "0149c94b53c7c89e73fa3d9bb50086a8b2e73b7c7de12c2bdcd45e7b59ed700e",
    "evidence": "1b80e1add8306f98d21c03b1ef56602c49de5421b6f3fb21a2fbd32352ff4613",
    "detections": "27b757971f062a8244f3fa20e81276802acb95255515923ef750a686f55f256e",
}


def _digest(array):
    assert array.dtype == np.float64
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _detections_digest(detections):
    rows = [
        [d.frequency, d.combined_score, sorted(d.harmonic_scores.items())]
        for d in detections
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


@pytest.fixture(scope="module")
def campaigns():
    machine = corei7_desktop(rng=np.random.default_rng(0))
    config = campaign_low_band()
    return {
        label: MeasurementCampaign(machine, config, rng=np.random.default_rng(1)).run(
            op_x, op_y, label=label
        )
        for label, (op_x, op_y) in PAIRS.items()
    }


def _score_digests(scorer, result):
    scores = scorer.all_scores(result)
    digests = {f"F{h:+d}": _digest(score) for h, score in scores.items()}
    digests["combined_z"] = _digest(scorer.combined_zscore(result, scores=scores))
    digests["evidence"] = _digest(scorer.combined_score(result, scores=scores))
    detections = CarrierDetector(scorer=scorer).detect(result)
    digests["detections"] = _detections_digest(detections)
    return digests


def score_digests(campaigns):
    """Every pinned digest, keyed as in :data:`DIGESTS`."""
    digests = {
        label: _score_digests(HeuristicScorer(), result) for label, result in campaigns.items()
    }
    ldm = campaigns["LDM/LDL1"]
    digests["LDM/LDL1 log-path"] = _score_digests(HeuristicScorer(clip_subscore=1e60), ldm)
    digests["LDM/LDL1 excluding 2"] = {
        f"F{h:+d}": _digest(score)
        for h, score in HeuristicScorer().scores_excluding(ldm, 2).items()
    }
    return digests


def test_score_and_detection_digests(campaigns):
    assert score_digests(campaigns) == DIGESTS


def _json_digest(rows):
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _set_rows(harmonic_set):
    return [
        harmonic_set.fundamental,
        [[order, member.frequency] for order, member in harmonic_set.members],
    ]


def source_digests(campaigns):
    """Harmonic sets per pair and the fused sources, keyed as in :data:`SOURCE_DIGESTS`."""
    sets = {
        label: group_harmonics(CarrierDetector().detect(result))
        for label, result in campaigns.items()
    }
    digests = {
        label: _json_digest([_set_rows(s) for s in pair_sets]) for label, pair_sets in sets.items()
    }
    digests["sources"] = _json_digest(
        [
            [
                _set_rows(source.harmonic_set),
                source.fingerprint,
                source.mechanism,
                list(source.modulating_labels),
            ]
            for source in classify_sources(sets)
        ]
    )
    return digests


def test_fig11_fig13_source_group_digests(campaigns):
    assert source_digests(campaigns) == SOURCE_DIGESTS


def test_fig17_turion_window_digests():
    machine = turionx2_laptop(rng=np.random.default_rng(2))
    config = FaseConfig(span_low=0.0, span_high=1.2e6, fres=50.0, name="turion window")
    result = MeasurementCampaign(machine, config, rng=np.random.default_rng(3)).run(
        MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1"
    )
    assert _score_digests(HeuristicScorer(), result) == TURION_DIGESTS
