"""Tests for the CLI and the analysis helpers."""

import pytest

from repro import analysis
from repro.cli import main
from repro.system.metrics import LatencyRecorder, LatencySample


@pytest.fixture
def recorder():
    recorder = LatencyRecorder()
    for i, latency in enumerate((0.045, 0.055, 0.065, 0.150)):
        recorder.samples.append(
            LatencySample(submit_time=float(i), latency=latency,
                          client_id=f"c{i % 2}", client_seq=i + 1)
        )
    return recorder


class TestAnalysis:
    def test_latency_csv(self, recorder):
        csv = analysis.latency_csv(recorder)
        lines = csv.strip().split("\n")
        assert lines[0] == "submit_time_s,latency_ms,client_id,client_seq"
        assert len(lines) == 5
        assert "45.000" in lines[1]

    def test_phase_report(self, recorder):
        report = analysis.phase_report(
            recorder, [("early", 0.0, 2.0), ("late", 2.0, 4.0), ("empty", 10.0, 20.0)]
        )
        assert "early" in report and "late" in report
        assert report.count("\n") == 3

    def test_histogram_shape(self, recorder):
        histogram = analysis.latency_histogram(recorder, bucket_ms=50.0)
        assert "#" in histogram
        lines = histogram.split("\n")
        assert len(lines) == 4  # 0-50, 50-100, 100-150, 150-200

    def test_histogram_empty(self):
        assert analysis.latency_histogram(LatencyRecorder()) == "(no samples)"

    def test_exposure_report_clean_and_dirty(self):
        from repro.core.confidentiality import Auditor

        auditor = Auditor()
        auditor.observe("cc-a-r0", "client-data")
        clean = analysis.exposure_report(auditor, ["dc-1-r0"])
        assert "CLEAN" in clean
        auditor.observe("dc-1-r0", "client-data")
        dirty = analysis.exposure_report(auditor, ["dc-1-r0"])
        assert "VIOLATION" in dirty

    def test_traffic_summary(self, conf_run):
        summary = analysis.traffic_summary(conf_run.network)
        assert summary.messages_sent > 0
        assert 0.9 < summary.delivery_rate <= 1.0

    def test_trace_category_counts(self, conf_run):
        counts = analysis.trace_category_counts(conf_run.tracer)
        assert counts.get("prime.executed", 0) > 0
        assert counts.get("intro.injected", 0) > 0


class TestCli:
    def test_table1_command(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "4+4+3+3 (14)" in out
        assert "3+3+3+3 (12)" in out

    def test_run_command_report(self, capsys):
        code = main(
            ["run", "--mode", "confidential", "--f", "1", "--clients", "2",
             "--duration", "6", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4+4+3+3 (14)" in out
        assert "CLEAN" in out
        assert "avg=" in out

    def test_run_command_csv(self, capsys):
        code = main(
            ["run", "--mode", "spire", "--clients", "2", "--duration", "6",
             "--seed", "3", "--csv"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("submit_time_s,")
        assert len(out.strip().split("\n")) > 5

    def test_run_with_attack(self, capsys):
        code = main(
            ["run", "--clients", "2", "--duration", "15", "--seed", "4",
             "--attack", "data-center"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "outstanding updates: 0" in out

    def test_compare_command(self, capsys):
        code = main(["compare", "--duration", "8", "--seed", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "confidentiality overhead" in out
        assert "spire: exposed data-center hosts: ['dc-1-r0'" in out
        assert "confidential: exposed data-center hosts: none" in out

    def test_faultlab_live_rejects_shards(self, capsys, tmp_path):
        code = main(["faultlab", "--substrate", "live", "--shards", "2",
                     "--seed", "1", "--out", str(tmp_path)])
        assert code != 0
        assert "--shards > 1 needs --substrate sim" in capsys.readouterr().out

    def test_bad_arguments_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--mode", "nonsense"])
        with pytest.raises(SystemExit):
            main([])
