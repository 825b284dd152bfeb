"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        from repro.core.config import RevokerKind

        args = build_parser().parse_args(["run", "gobmk.13x13"])
        assert args.workload == "gobmk.13x13"
        # Strategy arguments are converted at parse time (so bad names
        # route through parser.error with usage text).
        assert args.revoker is RevokerKind.RELOADED
        assert args.scale == 256

    def test_unknown_strategy_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "gobmk.13x13", "wat"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "xalancbmk.ref" in out
        assert "reloaded" in out
        assert "pgbench" in out

    def test_list_json_round_trips(self, capsys):
        import json

        assert main(["list", "--json"]) == 0
        catalog = json.loads(capsys.readouterr().out)
        assert "pgbench" in catalog["workloads"]
        assert "gobmk.13x13" in catalog["workloads"]
        assert "spec" in catalog["workload_kinds"]
        by_name = {s["name"]: s["provides_safety"] for s in catalog["strategies"]}
        assert by_name["reloaded"] is True
        assert by_name["none"] is False

    def test_run_small(self, capsys):
        assert main(["run", "gobmk.13x13", "reloaded", "--scale", "1024"]) == 0
        out = capsys.readouterr().out
        assert "gobmk.13x13/reloaded" in out

    def test_run_unknown_workload(self, capsys):
        assert main(["run", "doom", "reloaded"]) == 2
        assert "error" in capsys.readouterr().err

    def test_attack_reports_safe(self, capsys):
        assert main(["attack", "--rounds", "6"]) == 0
        out = capsys.readouterr().out
        assert "VULNERABLE" in out  # baseline and paint+sync
        assert "safe" in out

    def test_pgbench_percentiles(self, capsys):
        assert main(["pgbench", "--transactions", "40"]) == 0
        out = capsys.readouterr().out
        assert "p99 ms" in out

    def test_trace_workflow(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        assert main(["trace", "synth", path, "--objects", "30", "--churn", "100"]) == 0
        assert main(["trace", "stats", path]) == 0
        assert "well-formed" in capsys.readouterr().out
        assert main(["trace", "replay", path, "reloaded"]) == 0
        out = capsys.readouterr().out
        assert "replayed" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "gobmk.13x13", "--scale", "2048"]) == 0
        out = capsys.readouterr().out
        assert "cherivoke" in out and "max pause" in out


class TestVerifyPaper:
    def test_verify_paper_passes(self, capsys):
        assert main(["verify-paper", "--scale", "1024"]) == 0
        out = capsys.readouterr().out
        assert "paper claims verified" in out
        assert "OFF" not in out


class TestArgparseErrorRouting:
    def test_unknown_strategy_exits_with_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "gobmk.13x13", "wat"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "choose from" in err

    def test_trace_replay_strategy_routed_too(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "replay", "whatever.jsonl", "wat"])
        assert exc.value.code == 2
        assert "choose from" in capsys.readouterr().err

    def test_unknown_workload_message_names_catalog(self, capsys):
        assert main(["run", "doom"]) == 2
        assert "repro list" in capsys.readouterr().err

    def test_unknown_spec_input_lists_inputs(self, capsys):
        assert main(["run", "gobmk.99x99"]) == 2
        err = capsys.readouterr().err
        assert "13x13" in err and "trevord" in err


class TestCampaignCommand:
    def _write_spec(self, tmp_path, **overrides):
        import json

        data = {
            "name": "cli-smoke",
            "workloads": [
                {"kind": "spec",
                 "params": {"benchmark": "hmmer", "input": "retro", "scale": 2048}},
            ],
            "revokers": ["none", "reloaded"],
        }
        data.update(overrides)
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_dry_run_lists_matrix(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, seeds=[1, 2])
        assert main(["campaign", path, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "4 jobs" in out
        assert "hmmer" in out

    def test_campaign_runs_and_caches(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        cache_dir = str(tmp_path / "cache")
        assert main(["campaign", path, "--cache-dir", cache_dir, "--quiet"]) == 0
        first = capsys.readouterr().out
        assert "cache-hits=0 fresh=2" in first
        assert main(["campaign", path, "--cache-dir", cache_dir, "--quiet"]) == 0
        second = capsys.readouterr().out
        assert "cache-hits=2 fresh=0" in second

    def test_no_cache_flag(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, revokers=["none"])
        assert main(["campaign", path, "--no-cache", "--quiet"]) == 0
        assert "cache-hits=0 fresh=1" in capsys.readouterr().out

    def test_missing_spec_file_is_an_error(self, tmp_path, capsys):
        assert main(["campaign", str(tmp_path / "nope.json")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["campaign", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_matrix_is_an_error(self, tmp_path, capsys):
        path = self._write_spec(tmp_path, revokers=["warp-drive"])
        assert main(["campaign", path]) == 2
        assert "error" in capsys.readouterr().err


class TestServeBenchShim:
    """``serve bench`` forwards to the load generator before the main
    parser runs, without a warning."""

    @pytest.fixture()
    def bench_spy(self, monkeypatch):
        import repro.serve.bench as bench

        calls = []
        monkeypatch.setattr(bench, "main", lambda argv: calls.append(argv) or 0)
        return calls

    def test_serve_bench_forwards_silently(self, bench_spy, recwarn, capsys):
        assert main(["serve", "bench", "--requests", "3"]) == 0
        assert bench_spy == [["--requests", "3"]]
        assert not [w for w in recwarn if issubclass(w.category, DeprecationWarning)]
        assert "deprecated" not in capsys.readouterr().err

    def test_leading_options_reach_the_load_generator(self, bench_spy):
        # bpo-17050: REMAINDER cannot capture a leading --option; the
        # pre-dispatch must.
        assert main(["serve", "bench", "--autostart", "--requests", "1"]) == 0
        assert bench_spy[-1] == ["--autostart", "--requests", "1"]
