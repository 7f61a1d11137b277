"""Campaign persistence round-trips and the command-line interface."""

import numpy as np
import pytest

from repro import FaseConfig, MeasurementCampaign, MicroOp
from repro.cli import main
from repro.core import CarrierDetector
from repro.errors import CampaignArchiveError, CampaignError
from repro.io import load_campaign, save_campaign
from repro.system import build_environment, corei7_desktop


@pytest.fixture(scope="module")
def small_result():
    machine = corei7_desktop(
        environment=build_environment(1e6, kind="quiet"), rng=np.random.default_rng(0)
    )
    config = FaseConfig(span_low=0.0, span_high=1e6, fres=100.0, name="io test")
    campaign = MeasurementCampaign(machine, config, rng=np.random.default_rng(1))
    return campaign.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")


class TestCampaignIO:
    def test_roundtrip_traces(self, small_result, tmp_path):
        path = tmp_path / "campaign.npz"
        save_campaign(small_result, path)
        loaded = load_campaign(path)
        assert loaded.machine_name == small_result.machine_name
        assert loaded.activity_label == "LDM/LDL1"
        assert loaded.falts == small_result.falts
        for original, restored in zip(small_result.measurements, loaded.measurements):
            np.testing.assert_array_equal(original.trace.power_mw, restored.trace.power_mw)
            assert restored.activity.falt == original.activity.falt
            assert restored.activity.levels_x == original.activity.levels_x

    def test_roundtrip_config(self, small_result, tmp_path):
        path = tmp_path / "campaign.npz"
        save_campaign(small_result, path)
        loaded = load_campaign(path)
        assert loaded.config == small_result.config

    def test_detection_identical_after_reload(self, small_result, tmp_path):
        path = tmp_path / "campaign.npz"
        save_campaign(small_result, path)
        loaded = load_campaign(path)
        before = [d.frequency for d in CarrierDetector().detect(small_result)]
        after = [d.frequency for d in CarrierDetector().detect(loaded)]
        assert before == after

    def test_loaded_grid_identical_to_config_grid(self, small_result, tmp_path):
        """Regression: grid params used to be rebuilt from JSON floats
        independently of the config, so the reloaded grid could fail
        ``==`` against ``config.grid()`` and miss grid-keyed caches."""
        path = tmp_path / "campaign.npz"
        save_campaign(small_result, path)
        loaded = load_campaign(path)
        assert loaded.grid == loaded.config.grid()

    def _rewrite_grid_metadata(self, path, out, **overrides):
        import json

        with np.load(path, allow_pickle=False) as archive:
            metadata = json.loads(str(archive["metadata"]))
            arrays = {key: archive[key] for key in archive.files if key != "metadata"}
        metadata["grid"].update(overrides)
        np.savez_compressed(out, metadata=json.dumps(metadata), **arrays)

    def test_float_drifted_grid_repaired_to_config(self, small_result, tmp_path):
        """Sub-bin float drift in the stored grid is repaired on load."""
        path = tmp_path / "campaign.npz"
        save_campaign(small_result, path)
        drifted = tmp_path / "drifted.npz"
        grid = small_result.grid
        self._rewrite_grid_metadata(path, drifted, start=grid.start + 1e-7)
        loaded = load_campaign(drifted)
        assert loaded.grid == loaded.config.grid()
        before = [d.frequency for d in CarrierDetector().detect(small_result)]
        after = [d.frequency for d in CarrierDetector().detect(loaded)]
        assert before == after

    def test_materially_different_grid_rejected(self, small_result, tmp_path):
        path = tmp_path / "campaign.npz"
        save_campaign(small_result, path)
        broken = tmp_path / "broken.npz"
        self._rewrite_grid_metadata(path, broken, resolution=small_result.grid.resolution * 2)
        with pytest.raises(CampaignError):
            load_campaign(broken)

    def test_bad_archive_rejected(self, tmp_path):
        path = tmp_path / "not_a_campaign.npz"
        np.savez(path, data=np.arange(4))
        with pytest.raises(CampaignError):
            load_campaign(path)

    def test_empty_result_rejected(self, small_result, tmp_path):
        from repro.core.campaign import CampaignResult

        empty = CampaignResult(config=small_result.config, machine_name="x", activity_label="y")
        with pytest.raises(CampaignError):
            save_campaign(empty, tmp_path / "empty.npz")


class TestSavePath:
    def test_missing_suffix_appended_and_returned(self, small_result, tmp_path):
        """Regression: save_campaign used to echo the caller's path verbatim
        while numpy appended ``.npz`` on disk, so the returned path did not
        exist."""
        returned = save_campaign(small_result, tmp_path / "campaign")
        assert returned == tmp_path / "campaign.npz"
        assert returned.exists()
        assert not (tmp_path / "campaign").exists()
        load_campaign(returned)

    def test_explicit_suffix_unchanged(self, small_result, tmp_path):
        returned = save_campaign(small_result, tmp_path / "named.npz")
        assert returned == tmp_path / "named.npz"
        assert returned.exists()

    def test_identical_campaigns_save_identical_bytes(self, small_result, tmp_path):
        first = save_campaign(small_result, tmp_path / "a.npz")
        second = save_campaign(small_result, tmp_path / "b.npz")
        assert first.read_bytes() == second.read_bytes()

    def test_no_tmp_file_left_behind(self, small_result, tmp_path):
        save_campaign(small_result, tmp_path / "clean.npz")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["clean.npz"]


class TestArchiveDamage:
    def _drop_member(self, path, out, member):
        import json

        with np.load(path, allow_pickle=False) as archive:
            metadata = json.loads(str(archive["metadata"]))
            arrays = {
                key: archive[key]
                for key in archive.files
                if key not in ("metadata", member)
            }
        np.savez_compressed(out, metadata=json.dumps(metadata), **arrays)

    def test_missing_trace_member_names_path_and_index(self, small_result, tmp_path):
        """Regression: a missing ``trace_{i}`` member used to surface as a
        raw ``KeyError`` from numpy's archive object."""
        path = save_campaign(small_result, tmp_path / "full.npz")
        damaged = tmp_path / "damaged.npz"
        self._drop_member(path, damaged, "trace_2")
        with pytest.raises(CampaignArchiveError) as info:
            load_campaign(damaged)
        message = str(info.value)
        assert "trace_2" in message
        assert str(damaged) in message

    def test_truncated_archive_detected(self, small_result, tmp_path):
        path = save_campaign(small_result, tmp_path / "whole.npz")
        path.write_bytes(path.read_bytes()[:1000])
        with pytest.raises(CampaignArchiveError):
            load_campaign(path)

    def test_archive_error_is_a_campaign_error(self):
        assert issubclass(CampaignArchiveError, CampaignError)

    def test_truncated_archive_recovered_from_journal(self, small_result, tmp_path):
        from repro import DurableCampaign

        machine = corei7_desktop(
            environment=build_environment(1e6, kind="quiet"), rng=np.random.default_rng(0)
        )
        campaign = DurableCampaign(
            machine, small_result.config, journal_dir=tmp_path / "journal",
            rng=np.random.default_rng(1),
        )
        result = campaign.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")
        path = save_campaign(result, tmp_path / "archived.npz")
        path.write_bytes(path.read_bytes()[:1000])
        recovered = load_campaign(path, journal=tmp_path / "journal")
        assert tuple(recovered.falts) == tuple(result.falts)
        for ours, theirs in zip(recovered.measurements, result.measurements):
            np.testing.assert_array_equal(ours.trace.power_mw, theirs.trace.power_mw)

    def test_journal_does_not_mask_an_intact_archive(self, small_result, tmp_path):
        path = save_campaign(small_result, tmp_path / "good.npz")
        loaded = load_campaign(path, journal=tmp_path / "nonexistent-journal")
        assert tuple(loaded.falts) == tuple(small_result.falts)

    def _rewrite_metadata(self, path, out, edit):
        import json

        with np.load(path, allow_pickle=False) as archive:
            metadata = json.loads(str(archive["metadata"]))
            arrays = {key: archive[key] for key in archive.files if key != "metadata"}
        edit(metadata)
        np.savez_compressed(out, metadata=json.dumps(metadata), **arrays)

    def test_torn_per_capture_lists_name_path_and_counts(self, small_result, tmp_path):
        """Regression: a ``flagged`` list shorter than ``falts`` used to
        surface as a raw ``IndexError`` from the flag lookup mid-load."""
        path = save_campaign(small_result, tmp_path / "full.npz")
        torn = tmp_path / "torn.npz"
        n = len(small_result.falts)

        def tear(metadata):
            metadata["flagged"] = metadata["flagged"][:2]
            metadata["quality_reasons"] = metadata["quality_reasons"][:3]

        self._rewrite_metadata(path, torn, tear)
        with pytest.raises(CampaignArchiveError) as info:
            load_campaign(torn)
        message = str(info.value)
        assert str(torn) in message
        assert f"falts={n}" in message
        assert "flagged=2" in message
        assert "quality_reasons=3" in message


class TestDegradedRoundTrip:
    def _degraded(self, synthetic_campaign):
        import dataclasses

        from repro.faults.screening import CaptureQuality

        result = synthetic_campaign(carrier=500e3, flagged=(1, 3))
        for index in (1, 3):
            result.measurements[index] = dataclasses.replace(
                result.measurements[index],
                quality=CaptureQuality(
                    ok=False, reasons=(f"synthetic damage on capture {index}",)
                ),
            )
        return result

    def test_flags_and_reasons_survive_reload(self, synthetic_campaign, tmp_path):
        result = self._degraded(synthetic_campaign)
        loaded = load_campaign(save_campaign(result, tmp_path / "degraded.npz"))
        assert loaded.excluded_indices == [1, 3]
        for index in (1, 3):
            assert loaded.measurements[index].flagged
            assert loaded.measurements[index].quality.reasons == (
                f"synthetic damage on capture {index}",
            )
        assert not loaded.measurements[0].flagged
        assert loaded.measurements[0].quality is None

    def test_robustness_ledger_survives_reload(self, synthetic_campaign, tmp_path):
        """Regression: ``save_campaign`` silently dropped
        ``result.robustness``, so archiving a degraded run lost the fault
        ledger — fault events, retry counts, exclusions, and the
        naive-vs-degraded detection delta."""
        from repro.faults.injectors import FaultEvent
        from repro.faults.robustness import DetectionDelta, RobustnessReport

        result = self._degraded(synthetic_campaign)
        result.robustness = RobustnessReport(
            plan_description="all fault classes, synthetic ledger",
            events=[
                FaultEvent(fault="dropout", index=1, attempt=0, detail="trace zeroed"),
                FaultEvent(fault="timeout", index=3, attempt=1, detail="capture hung"),
            ],
            retries={3: 2},
            excluded={1: ("synthetic damage on capture 1",)},
            dropped=(4,),
            detection_delta=DetectionDelta(
                n_naive=3, n_degraded=2, gained=(), lost=(123000.0,)
            ),
        )
        loaded = load_campaign(save_campaign(result, tmp_path / "ledgered.npz"))
        ledger = loaded.robustness
        assert ledger is not None
        assert ledger.plan_description == "all fault classes, synthetic ledger"
        assert ledger.events == result.robustness.events
        assert ledger.retries == {3: 2}  # int keys, not JSON strings
        assert ledger.excluded == {1: ("synthetic damage on capture 1",)}
        assert ledger.dropped == (4,)
        assert ledger.detection_delta == result.robustness.detection_delta
        assert ledger.to_text() == result.robustness.to_text()

    def test_clean_archive_has_no_ledger(self, synthetic_campaign, tmp_path):
        result = synthetic_campaign(carrier=500e3)
        loaded = load_campaign(save_campaign(result, tmp_path / "clean.npz"))
        assert loaded.robustness is None

    def test_scoring_view_equivalent_after_reload(self, synthetic_campaign, tmp_path):
        result = self._degraded(synthetic_campaign)
        loaded = load_campaign(save_campaign(result, tmp_path / "degraded.npz"))
        before, after = result.scoring_view(), loaded.scoring_view()
        assert tuple(before.falts) == tuple(after.falts)
        for ours, theirs in zip(before.measurements, after.measurements):
            np.testing.assert_array_equal(ours.trace.power_mw, theirs.trace.power_mw)
        assert [d.frequency for d in CarrierDetector().detect(result)] == [
            d.frequency for d in CarrierDetector().detect(loaded)
        ]


class TestCli:
    def test_scan_prints_report(self, capsys):
        code = main(
            [
                "scan", "--machine", "corei7_desktop", "--seed", "0",
                "--span-high", "1e6", "--fres", "100", "--pair", "LDM/LDL1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FASE report for Intel Core i7 desktop" in out
        assert "LDM/LDL1" in out

    def test_localize(self, capsys):
        code = main(["localize", "--machine", "corei7_desktop", "--memory", "315e3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "DRAM DIMM regulator" in out

    def test_record_then_analyze(self, tmp_path, capsys):
        path = tmp_path / "rec.npz"
        code = main(
            [
                "record", "--machine", "corei7_desktop", "--span-high", "1e6",
                "--fres", "100", "--pair", "LDM/LDL1", str(path),
            ]
        )
        assert code == 0
        assert path.exists()
        code = main(["analyze", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "carriers" in out
        assert "315" in out

    def test_invalid_pair_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--pair", "FOO/BAR"])
        message = str(excinfo.value)
        assert "invalid activity pair" in message
        assert "'FOO/BAR'" in message

    def test_invalid_pair_unknown_op_names_valid_ops(self):
        # Regression: an unknown op token must exit with a clean message
        # that lists the valid micro-ops, not a traceback.
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--pair", "LDM/BOGUS"])
        message = str(excinfo.value)
        assert "invalid activity pair" in message
        assert "'LDM/BOGUS'" in message
        for op in ("LDM", "LDL1", "LDL2", "STM"):
            assert op in message

    def test_invalid_pair_rejected_on_record(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["record", "--pair", "LDM/BOGUS", str(tmp_path / "out.npz")])
        assert "invalid activity pair" in str(excinfo.value)

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestCliDurable:
    def _record(self, tmp_path, *extra):
        return main(
            [
                "record", "--machine", "corei7_desktop", "--span-high", "1e6",
                "--fres", "100", "--pair", "LDM/LDL1",
                "--checkpoint-dir", str(tmp_path / "journal"),
                *extra,
                str(tmp_path / "rec.npz"),
            ]
        )

    def test_record_checkpoints_then_resumes(self, tmp_path, capsys):
        assert self._record(tmp_path) == 0
        assert (tmp_path / "journal" / "HEADER.json").is_file()
        first = (tmp_path / "rec.npz").read_bytes()
        capsys.readouterr()
        assert self._record(tmp_path, "--resume") == 0
        out = capsys.readouterr().out
        assert "resumed 5 capture(s)" in out
        assert (tmp_path / "rec.npz").read_bytes() == first

    def test_record_refuses_stale_journal_without_resume(self, tmp_path, capsys):
        assert self._record(tmp_path) == 0
        with pytest.raises(SystemExit, match="--resume"):
            self._record(tmp_path)

    def test_analyze_recovers_from_journal(self, tmp_path, capsys):
        assert self._record(tmp_path) == 0
        archive = tmp_path / "rec.npz"
        archive.write_bytes(archive.read_bytes()[:1000])
        with pytest.raises(SystemExit):
            main(["analyze", str(archive)])
        capsys.readouterr()
        code = main(["analyze", str(archive), "--journal", str(tmp_path / "journal")])
        out = capsys.readouterr().out
        assert code == 0
        assert "carriers" in out

    def test_scan_accepts_checkpoint_dir(self, tmp_path, capsys):
        code = main(
            [
                "scan", "--machine", "corei7_desktop", "--span-high", "1e6",
                "--fres", "100", "--pair", "LDM/LDL1",
                "--checkpoint-dir", str(tmp_path / "ckpt"),
                "--capture-timeout", "30", "--retry-backoff", "0.01",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FASE report" in out
        assert (tmp_path / "ckpt" / "LDM-LDL1" / "HEADER.json").is_file()

    def test_survey_rejects_checkpoint_dir(self, tmp_path, capsys):
        """Surveys resume through ``--manifest-dir`` only; the per-capture
        journal flags belong to ``scan`` and ``record``."""
        with pytest.raises(SystemExit) as excinfo:
            main(["survey", "--checkpoint-dir", str(tmp_path / "ckpt")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --checkpoint-dir" in capsys.readouterr().err
        assert not (tmp_path / "ckpt").exists()


class TestFormatMarkerDamage:
    """Regression: a mangled format marker used to raise plain
    ``CampaignError`` instead of ``CampaignArchiveError``, so
    ``load_campaign``'s journal-recovery fallback never engaged on that
    damage class and a repairable archive died with a version-skew
    message."""

    def _mangle_marker(self, path, out):
        import json

        with np.load(path, allow_pickle=False) as archive:
            metadata = json.loads(str(archive["metadata"]))
            arrays = {key: archive[key] for key in archive.files if key != "metadata"}
        metadata["format"] = "fase-campaign-v\x00garbled"
        np.savez_compressed(out, metadata=json.dumps(metadata), **arrays)

    def test_marker_mismatch_is_archive_damage(self, small_result, tmp_path):
        path = save_campaign(small_result, tmp_path / "good.npz")
        damaged = tmp_path / "damaged.npz"
        self._mangle_marker(path, damaged)
        with pytest.raises(CampaignArchiveError) as info:
            load_campaign(damaged)
        message = str(info.value)
        assert "format marker" in message
        assert "garbled" in message

    def test_marker_mismatch_engages_journal_recovery(self, small_result, tmp_path):
        from repro import DurableCampaign

        machine = corei7_desktop(
            environment=build_environment(1e6, kind="quiet"), rng=np.random.default_rng(0)
        )
        campaign = DurableCampaign(
            machine, small_result.config, journal_dir=tmp_path / "journal",
            rng=np.random.default_rng(1),
        )
        result = campaign.run(MicroOp.LDM, MicroOp.LDL1, label="LDM/LDL1")
        path = save_campaign(result, tmp_path / "archived.npz")
        damaged = tmp_path / "damaged.npz"
        self._mangle_marker(path, damaged)
        recovered = load_campaign(damaged, journal=tmp_path / "journal")
        assert tuple(recovered.falts) == tuple(result.falts)
        for ours, theirs in zip(recovered.measurements, result.measurements):
            np.testing.assert_array_equal(ours.trace.power_mw, theirs.trace.power_mw)


class TestFailedWriteCleanup:
    """Regression: when the serializer raised mid-write, ``save_campaign``
    left its ``*.npz.tmp`` sibling on disk; enough failed saves to the
    same directory accumulated stale temporaries forever."""

    def test_failed_write_leaves_no_tmp(self, small_result, tmp_path, monkeypatch):
        import repro.io as campaign_io

        def explode(handle, arrays, compress=True):
            handle.write(b"partial bytes")
            raise OSError("synthetic mid-write failure")

        monkeypatch.setattr(campaign_io, "_write_npz_deterministic", explode)
        with pytest.raises(OSError, match="synthetic mid-write"):
            save_campaign(small_result, tmp_path / "doomed.npz")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_preserves_previous_archive(
        self, small_result, tmp_path, monkeypatch
    ):
        import repro.io as campaign_io

        path = save_campaign(small_result, tmp_path / "keep.npz")
        before = path.read_bytes()

        def explode(handle, arrays, compress=True):
            raise OSError("synthetic mid-write failure")

        monkeypatch.setattr(campaign_io, "_write_npz_deterministic", explode)
        with pytest.raises(OSError, match="synthetic mid-write"):
            save_campaign(small_result, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.npz"]
        assert path.read_bytes() == before


class TestLazyCli:
    def test_record_uncompressed_then_analyze_lazy(self, tmp_path, capsys):
        out = tmp_path / "campaign.npz"
        code = main(
            [
                "record", "--span-high", "1e5", "--fres", "500", "--f-delta", "2.5e3",
                "--uncompressed", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        capsys.readouterr()
        code = main(["analyze", "--lazy", str(out)])
        text = capsys.readouterr().out
        assert code == 0
        assert "carriers" in text

    def test_uncompressed_recording_is_mmapable(self, tmp_path, capsys):
        from repro.io import mmap_npz_member

        out = tmp_path / "campaign.npz"
        main(
            [
                "record", "--span-high", "1e5", "--fres", "500", "--f-delta", "2.5e3",
                "--uncompressed", str(out),
            ]
        )
        capsys.readouterr()
        assert mmap_npz_member(out, "trace_0") is not None

    def test_lazy_analysis_matches_eager(self, small_result, tmp_path):
        path = save_campaign(small_result, tmp_path / "c.npz", compress=False)
        eager = CarrierDetector().detect(load_campaign(path))
        lazy = CarrierDetector().detect(load_campaign(path, lazy=True))
        assert eager == lazy
