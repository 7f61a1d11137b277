"""Every preset's rendered mean spectrum, pinned byte for byte.

``MachineScene.mean_bin_power`` is what the analyzer samples around, so
every detection downstream rests on its exact bytes. The digests below
are SHA-256 over the float64 array for each preset machine (built from
``default_rng(0)``) on the Fig. 10 campaign grid (0-4 MHz at 50 Hz),
under both default op pairs at the first and last falt of the default
five. One extra entry swaps the i7's refresh engine for the randomized
refresh mitigation, whose pedestal is rendered by its own override. A
render optimisation that reorders a single float add, or a
cache that serves the wrong grid, changes a digest here.

Each scene is asked twice, so the second call exercises the scene's
per-grid cache, and the scenes of one machine share its environment, so
every scene after the first exercises the environment's cache too.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import FaseConfig
from repro.mitigation import RandomizedRefreshEmitter, replace_emitter
from repro.spectrum.grid import FrequencyGrid
from repro.survey import DEFAULT_PAIRS
from repro.system import ALL_PRESETS, build_environment
from repro.uarch.microbench import AlternationMicrobenchmark

GRID = FrequencyGrid(0.0, 4e6, 50.0)
_FALTS = FaseConfig().falts()
FALTS = (_FALTS[0], _FALTS[-1])

DIGESTS = {
    "corei3_laptop": {
        "LDM/LDL1@43300": "d77d52a459575f1294f2ef160276170ec568ecac697d1087539b9ea1ffc27c0d",
        "LDM/LDL1@45300": "65e9af084ce4983c20ee7468e262fb2507549671b5b81d8b23d23912d2590326",
        "LDL2/LDL1@43300": "4a36b348b48182fe40363b3c6ab93cc386c3e82124fd958f7d3fa8980cf25875",
        "LDL2/LDL1@45300": "70067d3fae356d96acfbe7544ed3f96b47c0a2e91976577ef30e7c191f4e29d4",
    },
    "corei7_desktop": {
        "LDM/LDL1@43300": "ec36143771b104007ae4a0754c59c37b5aa08d1b8a31b6285eb63d58e82f0abb",
        "LDM/LDL1@45300": "a572513dbb420ddef17fda94958db6a07400c00e71fc897e963011013a0a24ce",
        "LDL2/LDL1@43300": "16cfc2a45b3a39ad55464e6951260b77bf4c9f11f6ac5e0fbeceaab4ae22987a",
        "LDL2/LDL1@45300": "e0e045a55fe4a4f1da398f8f13ae2ba385e08a596f6a27294775fe7d8b11e92d",
    },
    "corei7_desktop+randomized_refresh": {
        "LDM/LDL1@43300": "5d357221ea214cb22dc564865a5c0c918d944a5e86afb4a6fff920630e2bbe5d",
        "LDM/LDL1@45300": "d84b5c41c10f0bc7e05c6ee4f5b0acf29ee4acdf9b41baa3a22cb0344d9757ad",
        "LDL2/LDL1@43300": "b3e331015c932b7c50356c5ec1289c291929fa6d3b37d92fa225a696b67f844c",
        "LDL2/LDL1@45300": "6413ac610b1e61ad3fac395023f583dab9a572c45d3f62d7a72a7f98dc29546d",
    },
    "pentium3m_laptop": {
        "LDM/LDL1@43300": "a328888fafc167cc8d4c352739d15a693d710dff941a7e09979965de7327c513",
        "LDM/LDL1@45300": "4feffc169d680a36b83320170c03c4e0f4de0d42d540190a950e7f3ce07e379e",
        "LDL2/LDL1@43300": "cf42ef91dc3dffa83b924a4e307533b45c42825a3e32cc972547456bbe017039",
        "LDL2/LDL1@45300": "d72e2d7a5ad58eb694d40331763589655e4495425a4cfd360ac716b01cab3ec4",
    },
    "turionx2_laptop": {
        "LDM/LDL1@43300": "2549b0d9ad93b80db1dbe35bbc7c55141ea0b7aaaea24db2bfe1e30c71de3640",
        "LDM/LDL1@45300": "61a86870e29c4e0c8129f84db190a73c79f1585d774099f87ad353a2db32070b",
        "LDL2/LDL1@43300": "b26ce852f9684054bbac8f557ec51d3b9702b5441bb232b33f542129c0296f1d",
        "LDL2/LDL1@45300": "a33baf98d4e5d943903a40187ed06a84ed6f184c70578cb01f114f4ecc88ba06",
    },
}


def _digest(power):
    assert power.dtype == np.float64 and power.shape == (GRID.n_bins,)
    return hashlib.sha256(np.ascontiguousarray(power).tobytes()).hexdigest()


def _randomized_refresh_i7(rng):
    machine = ALL_PRESETS["corei7_desktop"](rng=rng)
    refresh = RandomizedRefreshEmitter(
        "memory refresh",
        fundamental_dbm=-118.0,
        coherence_loss=2.0,
        n_ranks=4,
        rank_imbalance=0.15,
        randomization=0.5,
        position=(22.0, 8.0),
    )
    return replace_emitter(machine, "memory refresh", refresh)


MACHINES = dict(ALL_PRESETS, **{"corei7_desktop+randomized_refresh": _randomized_refresh_i7})


def _render_machine(name):
    machine = MACHINES[name](rng=np.random.default_rng(0))
    digests = {}
    for op_x, op_y in DEFAULT_PAIRS:
        for falt in FALTS:
            bench = AlternationMicrobenchmark.calibrated(op_x, op_y, falt)
            scene = machine.scene(bench.activity(label=f"{op_x.name}/{op_y.name}"))
            first = scene.mean_bin_power(GRID)
            first_digest = _digest(first)
            again = scene.mean_bin_power(GRID)
            assert _digest(again) == first_digest
            digests[f"{op_x.name}/{op_y.name}@{falt:.0f}"] = first_digest
    return digests


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_render_digests(name):
    assert _render_machine(name) == DIGESTS[name]


# Environment renders on their own, on the grids a survey shard, the Turion
# window, an odd resolution and campaign 2 ask for. Most of each grid lies
# outside an AM station's window, so a render that touches only each
# source's bins must still give these bytes. Three presets draw the same
# environment from ``default_rng(0)``; an environment built from another
# seed rides along. ``sources@...`` hashes every source's own
# ``mean_power`` in order.
ENV_GRIDS = {
    "0-1MHz@50": FrequencyGrid(0.0, 1e6, 50.0),
    "1-2MHz@50": FrequencyGrid(1e6, 2e6, 50.0),
    "2-3MHz@50": FrequencyGrid(2e6, 3e6, 50.0),
    "3-4MHz@50": FrequencyGrid(3e6, 4e6, 50.0),
    "0-1.2MHz@50": FrequencyGrid(0.0, 1.2e6, 50.0),
    "0.5-0.9MHz@37": FrequencyGrid(0.5e6, 0.9e6, 37.0),
    "0-120MHz@500": FrequencyGrid(0.0, 120e6, 500.0),
}
SOURCES_GRID = FrequencyGrid(0.0, 1.2e6, 50.0)

ENV_DIGESTS = {
    "corei3_laptop": {
        "0-1MHz@50": "b1cceeeb1a13b163bff6047dbac944bb2f9a1f3b022a696e82fe750217a2c27e",
        "1-2MHz@50": "e9fb9e7fe991aba9e014d0588c36ca528b96ee48f805682c25ae51b56e892e14",
        "2-3MHz@50": "aef4a2c94f829325c85824f2b351a676acfd10bacbc48e898d554d2cc6abb989",
        "3-4MHz@50": "9dcbd5c9b582149846b2fd89b7f4067d931d6de68568229f2a6a271d15820e1b",
        "0-1.2MHz@50": "9d00cfc840fe6c41433a2bcf1e1ce45c3e29b60282e5f8c0bba9b702c6584f69",
        "0.5-0.9MHz@37": "4f340f646ab6e07708a3e971450b3e713f442408860bc76388d43805c991f95e",
        "0-120MHz@500": "bd458e4a6794054fbc4aadfb4c17a100be1852103e10ab1be315ab8167d98a59",
        "sources@0-1.2MHz@50": "b8f6a5ff30cc1a0661779ffc2abb20463afcc02005e36de8ca983e78a8c8f25d",
    },
    "corei7_desktop": {
        "0-1MHz@50": "b1cceeeb1a13b163bff6047dbac944bb2f9a1f3b022a696e82fe750217a2c27e",
        "1-2MHz@50": "e9fb9e7fe991aba9e014d0588c36ca528b96ee48f805682c25ae51b56e892e14",
        "2-3MHz@50": "aef4a2c94f829325c85824f2b351a676acfd10bacbc48e898d554d2cc6abb989",
        "3-4MHz@50": "9dcbd5c9b582149846b2fd89b7f4067d931d6de68568229f2a6a271d15820e1b",
        "0-1.2MHz@50": "9d00cfc840fe6c41433a2bcf1e1ce45c3e29b60282e5f8c0bba9b702c6584f69",
        "0.5-0.9MHz@37": "4f340f646ab6e07708a3e971450b3e713f442408860bc76388d43805c991f95e",
        "0-120MHz@500": "bd458e4a6794054fbc4aadfb4c17a100be1852103e10ab1be315ab8167d98a59",
        "sources@0-1.2MHz@50": "b8f6a5ff30cc1a0661779ffc2abb20463afcc02005e36de8ca983e78a8c8f25d",
    },
    "pentium3m_laptop": {
        "0-1MHz@50": "b1cceeeb1a13b163bff6047dbac944bb2f9a1f3b022a696e82fe750217a2c27e",
        "1-2MHz@50": "e9fb9e7fe991aba9e014d0588c36ca528b96ee48f805682c25ae51b56e892e14",
        "2-3MHz@50": "aef4a2c94f829325c85824f2b351a676acfd10bacbc48e898d554d2cc6abb989",
        "3-4MHz@50": "9dcbd5c9b582149846b2fd89b7f4067d931d6de68568229f2a6a271d15820e1b",
        "0-1.2MHz@50": "9d00cfc840fe6c41433a2bcf1e1ce45c3e29b60282e5f8c0bba9b702c6584f69",
        "0.5-0.9MHz@37": "4f340f646ab6e07708a3e971450b3e713f442408860bc76388d43805c991f95e",
        "0-120MHz@500": "bd458e4a6794054fbc4aadfb4c17a100be1852103e10ab1be315ab8167d98a59",
        "sources@0-1.2MHz@50": "b8f6a5ff30cc1a0661779ffc2abb20463afcc02005e36de8ca983e78a8c8f25d",
    },
    "turionx2_laptop": {
        "0-1MHz@50": "2a3c42dc80ebb0138cead575580550ec4deb9ee595b3cb67c471ec4df12c03d9",
        "1-2MHz@50": "edad9da230c5cb6f3786f43bc47265d552caa13abf359961879b479bbf0faf2b",
        "2-3MHz@50": "665ec5d76cd1bd37a0996db00afc27419f6fbaa15db686a83561d3bf5fe391e9",
        "3-4MHz@50": "3de5622e57a5f8b4d7e7a23666f0df9c26edbe1601c3bcdaa326a6eb49b57368",
        "0-1.2MHz@50": "198ffdc86d516a3249dda2776f0b94aa782927eab22b73b08094d4f95c50ab54",
        "0.5-0.9MHz@37": "e4948b7143da5f2e3678b0b4dd8d99dd9c9179eb8580758ccd7593450ae2439b",
        "0-120MHz@500": "36eb027cd373434e53054a19dfd9f20b2624f81831d7e04a0d6ef038e37c7799",
        "sources@0-1.2MHz@50": "aa8260291936b591a703a5b7390110fb3efc74914dbf7b6affd9c8e052aba0fa",
    },
    "metropolitan(4 MHz, default_rng(7))": {
        "0-1MHz@50": "541b34d560a649aff97360147f438dd1f3e3df68006cae60fc45d36a6504f51b",
        "1-2MHz@50": "133227304daccb2368faa663bb91251d6462de9308b4cd3d3b57a861431df732",
        "2-3MHz@50": "646dc70bad1f3c8ca2dee84b84466615f0e2e82f2329fb33d94e247184147b79",
        "3-4MHz@50": "0039b2b98bb3df11f4ee071dee15f003dcbdc6bec839c57c93d3386b9117272f",
        "0-1.2MHz@50": "9735db3ddfccfd8deb28b516ec1e3f28dc859bd82b05ec1352a762822b755037",
        "0.5-0.9MHz@37": "e6bc621cfa46fef9152af71240d397f3da92946aa04c220ec4d922582664fb8c",
        "0-120MHz@500": "12a1f9ac967191b81f45c980051b157120ecbeabba6c9e56e80ac73cce761e02",
        "sources@0-1.2MHz@50": "b7a6a1815b2e49bfd0b3a4e124e1af21fb88fa167edc721905b49f3794e446b2",
    },
}

ENVIRONMENTS = {
    **{name: (lambda preset=preset: preset(rng=np.random.default_rng(0)).environment)
       for name, preset in ALL_PRESETS.items()},
    "metropolitan(4 MHz, default_rng(7))": lambda: build_environment(
        4e6, rng=np.random.default_rng(7)
    ),
}


def _sha(power):
    return hashlib.sha256(np.ascontiguousarray(power).tobytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_environment_digests(name):
    environment = ENVIRONMENTS[name]()
    digests = {key: _sha(environment.mean_power(grid)) for key, grid in ENV_GRIDS.items()}
    sources = hashlib.sha256()
    for source in environment.sources:
        sources.update(np.ascontiguousarray(source.mean_power(SOURCES_GRID)).tobytes())
    digests["sources@0-1.2MHz@50"] = sources.hexdigest()
    assert digests == ENV_DIGESTS[name]
