"""Service tier, HTTP edition: the end-to-end JSON API contract.

The headline test is the ISSUE's CI scenario verbatim — serve, submit
jobs for two tenants, cancel one, fetch results — against the *real*
(small) pipeline, asserting the report fetched over HTTP is identical
to running the same plan through ``run_survey`` directly: the service
is a scheduler around the survey engine, never a different computation.
Cancellation runs against a slow stub fleet so the cancel request
deterministically lands mid-campaign. Error-path tests pin the status
codes the client maps back to :class:`ServiceError`.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro import FaseConfig, MicroOp, run_survey
from repro.errors import ServiceError
from repro.service import FaseService, ServiceClient, TenantPolicy, config_from_request
from repro.survey.chaos import stub_result

pytestmark = pytest.mark.service

#: Small but real: 2000-bin grid with a populated low band.
SMALL = FaseConfig(
    span_low=0.0, span_high=1e6, fres=500.0, falt1=43.3e3, f_delta=2.5e3,
    name="service api test",
)
ONE_PAIR = ((MicroOp.LDM, MicroOp.LDL1),)
PAIR_NAMES = [["LDM", "LDL1"]]


def _slow_stub_shard(spec):
    """Module-level (picklable) stub that holds the fleet busy a while."""
    time.sleep(0.3)
    return stub_result(spec)


class TestServiceEndToEnd:
    def test_two_tenants_submit_wait_fetch_results(self, tmp_path):
        tenants = (TenantPolicy("alice", weight=2.0), TenantPolicy("bob"))
        with FaseService(tmp_path / "svc", tenants=tenants, workers=2) as service:
            host, port = service.start()
            client = ServiceClient(f"http://{host}:{port}")
            alice_job = client.submit(
                "alice", machines=["corei7_desktop"], pairs=PAIR_NAMES,
                config=SMALL, seed=3,
            )
            bob_job = client.submit(
                "bob", machines=["turionx2_laptop"], pairs=PAIR_NAMES,
                config=SMALL, seed=3,
            )
            assert client.wait(alice_job, timeout_s=120.0)["state"] == "completed"
            assert client.wait(bob_job, timeout_s=120.0)["state"] == "completed"

            report = client.result(alice_job)
            golden = run_survey(
                machines=("corei7_desktop",), pairs=ONE_PAIR, config=SMALL, seed=3
            )
            # Identical to the standalone survey: same detections,
            # sources, ledger. Merged telemetry is excluded — its timing
            # histograms are wall-clock, not results.
            fetched, expected = report.to_dict(), golden.to_dict()
            fetched.pop("telemetry"), expected.pop("telemetry")
            assert fetched == expected
            assert any(
                activity.detections
                for fase in report.machines.values()
                for activity in fase.activities.values()
            )

            bob_report = client.result(bob_job)
            assert sorted(bob_report.machines) == ["AMD Turion X2 laptop"]

            # /jobs lists both; /tenants shows the fairness accounting.
            assert {entry["job_id"] for entry in client.jobs()} == {alice_job, bob_job}
            usage = client.tenant("alice")
            assert usage["weight"] == 2.0
            assert usage["charged_shards"] == 1
            assert usage["jobs"] == [alice_job]

            # The event stream narrates the lifecycle in order.
            names = [event["name"] for event in client.events(alice_job)]
            assert names[0] == "job-submitted"
            assert names[-1] == "job-completed"
            assert "shard-claimed" in names and "shard-finished" in names

    def test_cancel_lands_mid_campaign(self, tmp_path):
        with FaseService(
            tmp_path / "svc", workers=1, shard_fn=_slow_stub_shard
        ) as service:
            host, port = service.start()
            client = ServiceClient(f"http://{host}:{port}")
            doomed = client.submit(
                "alice", machines=["corei7_desktop", "turionx2_laptop"],
                pairs=PAIR_NAMES, config=SMALL,
                bands=[[0.0, 3e5], [3e5, 6e5], [6e5, 9e5]],
            )
            kept = client.submit(
                "bob", machines=["corei7_desktop"], pairs=PAIR_NAMES, config=SMALL
            )
            assert client.cancel(doomed)["state"] in ("cancelling", "cancelled")
            status = client.wait(doomed, timeout_s=30.0)
            assert status["state"] == "cancelled"
            assert status["n_completed"] < status["n_shards"]
            assert client.wait(kept, timeout_s=30.0)["state"] == "completed"
            # A cancelled job still serves its partial report, with the
            # cancellations ledgered.
            report = client.result(doomed)
            assert report.n_completed == status["n_completed"]
            assert report.ledger.cancelled
            assert "job-cancel-requested" in [e["name"] for e in client.events(doomed)]


class TestServiceErrors:
    @pytest.fixture()
    def service(self, tmp_path):
        with FaseService(tmp_path / "svc", workers=1, shard_fn=stub_result) as svc:
            svc.start()
            yield svc

    def _client(self, service):
        host, port = service.address
        return ServiceClient(f"http://{host}:{port}")

    def test_unknown_job_is_404(self, service):
        client = self._client(service)
        with pytest.raises(ServiceError, match="404"):
            client.job("job-999999")
        with pytest.raises(ServiceError, match="404"):
            client.cancel("job-999999")

    def test_unknown_path_is_404(self, service):
        client = self._client(service)
        with pytest.raises(ServiceError, match="404"):
            client._json("GET", "/nonsense")

    def test_unknown_config_field_is_400(self, service):
        client = self._client(service)
        with pytest.raises(ServiceError, match="unknown config field"):
            client.submit("alice", machines=["corei7_desktop"],
                          config={"span_hgih": 1e6})

    def test_unknown_machine_is_400(self, service):
        client = self._client(service)
        with pytest.raises(ServiceError, match="400"):
            client.submit("alice", machines=["pdp11"])

    def test_repeated_band_is_400(self, service):
        client = self._client(service)
        with pytest.raises(ServiceError, match="400.*repeats shard"):
            client.submit("alice", machines=["corei7_desktop"], bands=[[0, 5e5], [0, 5e5]])

    def test_invalid_json_body_is_400(self, service):
        host, port = service.address
        request = urllib.request.Request(
            f"http://{host}:{port}/jobs", data=b"not json", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_malformed_scalar_fields_are_400(self, service):
        """A JSON body with the wrong scalar shapes ("seed": "abc", a
        non-list "pairs") must answer a 400 JSON error, not drop the
        connection with a server-side traceback."""
        host, port = service.address
        for body in (
            {"tenant": "alice", "machines": ["corei7_desktop"], "seed": "abc"},
            {"tenant": "alice", "machines": ["corei7_desktop"], "pairs": 7},
            {"tenant": "alice", "machines": ["corei7_desktop"],
             "max_shard_retries": "lots"},
        ):
            request = urllib.request.Request(
                f"http://{host}:{port}/jobs", data=json.dumps(body).encode("utf-8"),
                method="POST", headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=10.0)
            assert excinfo.value.code == 400
            assert "error" in json.loads(excinfo.value.read())

    def test_non_object_body_is_400(self, service):
        host, port = service.address
        request = urllib.request.Request(
            f"http://{host}:{port}/jobs", data=b"[1, 2]", method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        assert excinfo.value.code == 400

    def test_address_requires_serving(self, tmp_path):
        service = FaseService(tmp_path / "cold")
        with pytest.raises(ServiceError, match="not serving"):
            service.address


class TestConfigFromRequest:
    def test_none_passes_through(self):
        assert config_from_request(None) is None

    def test_partial_fields_fill_defaults(self):
        config = config_from_request({"span_high": 2e6})
        assert config.span_high == 2e6

    def test_harmonics_become_tuple(self):
        config = config_from_request({"harmonics": [1, 2, 3]})
        assert config.harmonics == (1, 2, 3)

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown config field"):
            config_from_request({"frse": 500.0})
