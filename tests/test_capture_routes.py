"""One fault-injected campaign through every capture route, pinned byte for byte.

On the per-index random streams every capture is a pure function of
(seed, index, attempt), so the fault-screened route (serial and on a
thread pool), the journaled durable route (fresh, and killed mid-run then
resumed) and a fault-injected survey must keep producing the same bytes
however the capture loop behind them is organised. The digests below are
SHA-256 over the ``save_campaign`` archive bytes (and over the survey
report JSON), for the ``record --span-high 1e6 --fres 100 --faults all``
campaign of ``corei7_desktop``.

The fault-screened and durable archives differ in two documented ways
only: the durable ledger lists events grouped per capture index (its
journal's order) and words an exhausted capture as "failed" rather than
"dropped". Everything else agrees: traces, flags, retries, dropped and
excluded captures, and the events as a multiset.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from collections import Counter
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro import DurableCampaign, FaseConfig, MeasurementCampaign, MicroOp
from repro.faults import FaultPlan
from repro.io import save_campaign
from repro.survey import run_survey
from repro.system import ALL_PRESETS

pytestmark = pytest.mark.robustness

#: Found by searching seeds: here captures 2 and 4, re-captured in the
#: same screening round, both exhaust their budget by drops, and 4 (fewer
#: attempts left) runs out first. The fault-screened route records
#: exclusions in rounds of attempts, so 4 before 2; the durable route,
#: which retries each capture to exhaustion before the next, records
#: them in index order.
HAZARD_SEED = 1731
SEEDS = (0, 1, 2, 3, 4, 5)
ALL_SEEDS = SEEDS + (HAZARD_SEED,)
#: Scene builds before the simulated kill of the resumed durable route.
#: At seed 1 this lands between two screening retries; resume replays the
#: journaled attempts, so the resumed archive still equals the
#: uninterrupted durable run's.
KILL_AFTER = 6

ROUTES = ("degraded-1", "degraded-3", "durable", "durable-resumed")

DIGESTS = {
    0: {
        "degraded-1": "9a7f827fe9ab7819780a0b4ac5e9e46d72fd5809d8603bad83d4a7d36bc3413e",
        "degraded-3": "875e472f8ea1207294753a5083845bd8b48eb86fe4a91b11e132efc027a08fe0",
        "durable": "4f9202bc9e20fe01b49499375534c545462727dc4081e8a98376290a1d8d8d27",
        "durable-resumed": "4f9202bc9e20fe01b49499375534c545462727dc4081e8a98376290a1d8d8d27",
        "survey": "aa82275c991f17862090e3030c45595f0ac278cf429372515a41977c7534bc9a",
    },
    1: {
        "degraded-1": "8e4cc520d6333c04b1f64b8f52de76e8acf83936aeaac682d47b0a6df0d6335b",
        "degraded-3": "f33734ff21488ae9aa530c25a7435b0bb3ee4bb97ad244a06e8530a2bed70209",
        "durable": "8821b86cf854e9f4254d2a0a2e2a991e93f793e3017185a980704779fcc6ec6e",
        "durable-resumed": "8821b86cf854e9f4254d2a0a2e2a991e93f793e3017185a980704779fcc6ec6e",
        "survey": "19ecf76bacdfb52ec9d35af66ae3dc861ad612d9cba0a5479024ed4525ef1cd1",
    },
    2: {
        "degraded-1": "ed00d0e61b86537fccb53087b387260e3f9f7e98530a0ac2de49d694155bbfd4",
        "degraded-3": "513c243220b1556e007f91e999bf55534f2579ef374a3b50657a3257d0be2bbc",
        "durable": "ec49e6c26e888f88bd1f6fd0b0dbe99e408387996ab533065a234a117dd9332b",
        "durable-resumed": "ec49e6c26e888f88bd1f6fd0b0dbe99e408387996ab533065a234a117dd9332b",
        "survey": "343a7536ed05bfc95189e4ec33834e76db45eb4c8d8fe6f1ade9fc97fe7f3be1",
    },
    3: {
        "degraded-1": "769f7255d248e80a35d399962ba9832adbc076f805af78f1dd81fbe82e3ee55a",
        "degraded-3": "13e1d62a76124743ac29028bec928d9068e1f8d44e032e0e347834735f1f0723",
        "durable": "e1dc1c2c8497fdd87777468952fd04daae28e071b88ac5b31b13a510dba403d8",
        "durable-resumed": "e1dc1c2c8497fdd87777468952fd04daae28e071b88ac5b31b13a510dba403d8",
        "survey": "99e9f8c8e120c9209b439d321ed9cd8b4d296657207dbb60fe91e9eb4b1dcb95",
    },
    4: {
        "degraded-1": "5b7c72de5d178636e122b2beb0aa7eefc64167faaa19051783638b487367fbe1",
        "degraded-3": "455079bcf32f9a864e53e28cb54bf503cd1136e82b3979b6fe89e23f297316b8",
        "durable": "a1807155a45bc16dba3570b3492e93a37febbeb2f600ed899d7b54e92fa2511c",
        "durable-resumed": "a1807155a45bc16dba3570b3492e93a37febbeb2f600ed899d7b54e92fa2511c",
        "survey": "c66e2de3922c5475351865e9e7c5c9d4214772ddffa7b243591895208bc45c62",
    },
    5: {
        "degraded-1": "f9d3cea8702cc52fd4c92d7364a209acb85b83bfa4794a5f4771a489fb3b1eb1",
        "degraded-3": "c1422194d894170c99f81aa9ca5ebfce2d21dcbb554badc97786eed3b6ad06e0",
        "durable": "17ec494b14b1541b8e75667a77b33774c5fb2170bb4066d3f435a8a55f1d739a",
        "durable-resumed": "17ec494b14b1541b8e75667a77b33774c5fb2170bb4066d3f435a8a55f1d739a",
        "survey": "e1404a39ad6770151792a533ef4d863efe4a41965fc7fdf73eced1568ac0a953",
    },
    1731: {
        "degraded-1": "1deb239c7bb7aee2e6479f853c36b843c1c776d9a1598e29c97e70876bf82a52",
        "degraded-3": "e375ff06c72588bdc11d4c67794518946bce52371b634b01fb70b04e7a69a7a9",
        "durable": "200facc87412a6a5b92a6a47311bbb321d1ef4ba5b4d19efb2550c7a06f5ac17",
        "durable-resumed": "200facc87412a6a5b92a6a47311bbb321d1ef4ba5b4d19efb2550c7a06f5ac17",
        "survey": "bec38644836379122737762f7a99eb969ead0401fc0cf42ba14aaa2de31388bf",
    },
}


class KillAfter:
    """Raise KeyboardInterrupt on the (n+1)-th scene build: a mid-run kill."""

    def __init__(self, machine, n):
        self._machine = machine
        self._n = n
        self.count = 0

    @property
    def name(self):
        return self._machine.name

    def scene(self, activity):
        if self.count >= self._n:
            raise KeyboardInterrupt("simulated kill")
        self.count += 1
        return self._machine.scene(activity)


def machine(seed):
    """The preset exactly as ``python -m repro record --seed SEED`` builds it."""
    return ALL_PRESETS["corei7_desktop"](rng=np.random.default_rng(seed))


def config(n_workers=1):
    return FaseConfig(
        span_low=0.0, span_high=1e6, fres=100.0, n_workers=n_workers, name="capture routes"
    )


def campaign(seed, n_workers=1, journal_dir=None, machine_=None):
    kwargs = dict(rng=np.random.default_rng(seed + 1), fault_plan=FaultPlan.default())
    machine_ = machine_ or machine(seed)
    if journal_dir is None:
        return MeasurementCampaign(machine_, config(n_workers), **kwargs)
    return DurableCampaign(
        machine_, config(n_workers), journal_dir=journal_dir, sleep=lambda _: None, **kwargs
    )


def record(campaign_):
    return campaign_.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")


@lru_cache(maxsize=None)
def route(seed, name):
    """``(result, archive sha256)`` of one route at one seed."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if name.startswith("degraded-"):
            result = record(campaign(seed, n_workers=int(name.split("-")[1])))
        elif name == "durable":
            result = record(campaign(seed, journal_dir=tmp / "journal"))
        else:
            with pytest.raises(KeyboardInterrupt):
                record(
                    campaign(
                        seed,
                        journal_dir=tmp / "journal",
                        machine_=KillAfter(machine(seed), KILL_AFTER),
                    )
                )
            resumed = campaign(seed, journal_dir=tmp / "journal")
            result = record(resumed)
            assert resumed.resumed_indices
        archive = save_campaign(result, tmp / "archive.npz")
        return result, hashlib.sha256(archive.read_bytes()).hexdigest()


def survey_digest(seed):
    """SHA-256 of the survey report JSON, minus its wall-clock telemetry."""
    report = run_survey(
        machines=["corei7_desktop"], config=config(), seed=seed, fault_classes="all"
    ).to_dict()
    report.pop("telemetry", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()



@pytest.mark.parametrize("name", ROUTES)
@pytest.mark.parametrize("seed", ALL_SEEDS)
def test_archive_bytes_are_pinned(seed, name):
    assert route(seed, name)[1] == DIGESTS[seed][name]


@pytest.mark.parametrize("seed", ALL_SEEDS)
def test_survey_report_is_pinned(seed):
    assert survey_digest(seed) == DIGESTS[seed]["survey"]


@pytest.mark.parametrize("seed", ALL_SEEDS)
def test_durable_and_degraded_routes_agree(seed):
    degraded, _ = route(seed, "degraded-1")
    durable, _ = route(seed, "durable")
    assert degraded.falts == durable.falts
    for ours, theirs in zip(degraded.measurements, durable.measurements):
        np.testing.assert_array_equal(ours.trace.power_mw, theirs.trace.power_mw)
        assert ours.flagged == theirs.flagged
    ours, theirs = degraded.robustness, durable.robustness
    assert ours.retries == theirs.retries
    assert ours.dropped == theirs.dropped
    assert sorted(ours.excluded) == sorted(theirs.excluded)
    assert Counter(ours.events) == Counter(theirs.events)
    # The durable ledger groups events per index; within an index both
    # routes list them in attempt order.
    assert theirs.events == sorted(ours.events, key=lambda event: event.index)
    for index, reasons in ours.excluded.items():
        assert theirs.excluded[index] == tuple(
            reason.replace("dropped on all", "failed on all") for reason in reasons
        )


def test_exhaustion_order_differs_between_the_routes_at_the_hazard_seed():
    degraded, _ = route(HAZARD_SEED, "degraded-1")
    durable, _ = route(HAZARD_SEED, "durable")
    assert list(degraded.robustness.excluded) == [1, 4, 2]
    assert list(durable.robustness.excluded) == [1, 2, 4]
