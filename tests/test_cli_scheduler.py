"""Tests for the scheduler/caching flags on the CLI commands."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_scheduler_flags_present(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--virus", "1", "--processes", "4", "--no-cache",
             "--cache-dir", "/tmp/x"]
        )
        assert args.processes == 4
        assert args.no_cache is True
        assert args.cache_dir == "/tmp/x"

    def test_figure_accepts_multiple_ids(self):
        parser = build_parser()
        args = parser.parse_args(["figure", "fig1", "fig2", "--no-cache"])
        assert args.experiment_ids == ["fig1", "fig2"]

    def test_sweep_has_flags(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "scan_delay", "--processes", "2"])
        assert args.processes == 2
        assert args.no_cache is False


class TestRunCommand:
    BASE = [
        "run", "--virus", "3", "--population", "120", "--duration", "4",
        "--replications", "2", "--no-chart",
    ]

    def test_no_cache_runs_serially(self, capsys):
        assert main(self.BASE + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "scheduler: 2 jobs: 2 simulated, 0 from cache" in out

    def test_second_invocation_hits_cache(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(self.BASE + ["--cache-dir", cache_dir]) == 0
        first = capsys.readouterr().out
        assert "2 simulated, 0 from cache" in first
        assert main(self.BASE + ["--cache-dir", cache_dir]) == 0
        second = capsys.readouterr().out
        assert "0 simulated, 2 from cache" in second
        # Identical results either way: the summary lines match exactly.
        pick = lambda text: [
            line for line in text.splitlines()
            if line.startswith(("final infected", "penetration"))
        ]
        assert pick(first) == pick(second)

    def test_parallel_matches_serial_output(self, tmp_path, capsys):
        assert main(self.BASE + ["--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(self.BASE + ["--no-cache", "--processes", "2"]) == 0
        parallel = capsys.readouterr().out
        pick = lambda text: [
            line for line in text.splitlines()
            if line.startswith(("final infected", "penetration"))
        ]
        assert pick(serial) == pick(parallel)

    def test_cache_dir_created(self, tmp_path):
        cache_dir = tmp_path / "cache"
        assert main(self.BASE + ["--cache-dir", str(cache_dir)]) == 0
        assert cache_dir.exists()
        assert list(cache_dir.glob("*/*.json"))


class TestMetricsFlag:
    BASE = [
        "run", "--virus", "3", "--population", "120", "--duration", "4",
        "--replications", "2", "--no-chart", "--no-cache",
    ]

    def test_metrics_flag_parses(self):
        parser = build_parser()
        args = parser.parse_args(self.BASE + ["--metrics", "out.jsonl"])
        assert args.metrics == "out.jsonl"
        assert build_parser().parse_args(self.BASE).metrics is None

    def test_run_writes_schema_valid_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests, validate_manifest

        path = tmp_path / "run.jsonl"
        assert main(self.BASE + ["--metrics", str(path)]) == 0
        assert "run manifest appended" in capsys.readouterr().out
        (record,) = read_manifests(path)
        assert validate_manifest(record) == []
        assert record["kind"] == "run"
        assert record["label"].startswith("run:")
        assert record["events_executed"] > 0
        assert record["events_per_second"] > 0
        assert record["workers"]

    def test_repeat_runs_append(self, tmp_path):
        from repro.obs.manifest import read_manifests

        path = tmp_path / "run.jsonl"
        assert main(self.BASE + ["--metrics", str(path)]) == 0
        assert main(self.BASE + ["--metrics", str(path)]) == 0
        assert len(read_manifests(path)) == 2


class TestProfileCommand:
    BASE = [
        "profile", "--virus", "3", "--population", "150",
        "--max-events", "2000", "--seed", "1",
    ]

    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.virus == 1
        assert args.metrics is None

    def test_profile_prints_breakdown(self, capsys):
        assert main(self.BASE) == 0
        out = capsys.readouterr().out
        assert "profile: virus3-baseline" in out
        assert "event label" in out
        assert "send" in out

    def test_profile_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests, validate_manifest

        path = tmp_path / "profile.jsonl"
        assert main(self.BASE + ["--metrics", str(path)]) == 0
        (record,) = read_manifests(path)
        assert validate_manifest(record) == []
        assert record["kind"] == "profile"
        assert record["extra"]["hotspots"]


class TestProfileXLCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.engine == "core"
        assert args.preset == "xl-10k"

    def test_xl_profile_prints_phase_breakdown(self, capsys):
        assert main(
            ["profile", "--engine", "xl", "--preset", "paper",
             "--duration", "48", "--seed", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "xl engine, preset paper" in out
        assert "round phase" in out

    def test_xl_profile_manifest(self, tmp_path, capsys):
        from repro.obs.manifest import read_manifests, validate_manifest

        path = tmp_path / "profile.jsonl"
        assert main(
            ["profile", "--engine", "xl", "--preset", "paper",
             "--duration", "48", "--metrics", str(path)]
        ) == 0
        (record,) = read_manifests(path)
        assert validate_manifest(record) == []
        assert record["extra"]["engine"] == "xl"
        assert record["extra"]["phases"]


class TestAutoDegradeFlag:
    def test_flag_parses(self):
        args = build_parser().parse_args(
            ["figure", "3", "--no-auto-degrade"]
        )
        assert args.no_auto_degrade is True
        assert build_parser().parse_args(["figure", "3"]).no_auto_degrade is False


class TestArgumentErrors:
    """Bad counts and names are usage errors (exit 2), never tracebacks."""

    @staticmethod
    def assert_usage_error(entry, argv, capsys, message):
        with pytest.raises(SystemExit) as excinfo:
            entry(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ")
        assert message in err

    @pytest.mark.parametrize("count", ["0", "-2", "two"])
    def test_run_rejects_non_positive_processes(self, count, capsys):
        self.assert_usage_error(
            main, ["run", "--virus", "3", "--processes", count], capsys,
            "argument --processes",
        )

    def test_figure_rejects_zero_processes(self, capsys):
        self.assert_usage_error(
            main, ["figure", "fig2", "--processes", "0"], capsys,
            "must be a positive integer, got 0",
        )

    def test_serve_rejects_zero_shards(self, tmp_path, capsys):
        self.assert_usage_error(
            main, ["serve", "--spool", str(tmp_path), "--shards", "0"], capsys,
            "argument --shards",
        )

    @pytest.mark.parametrize("command", ["record", "check"])
    def test_validation_rejects_zero_processes(self, command, tmp_path, capsys):
        from repro.validation.cli import main as validation_main

        self.assert_usage_error(
            validation_main,
            [command, "--dir", str(tmp_path), "--processes", "0"],
            capsys, "argument --processes",
        )

    def test_benchmarks_run_rejects_unknown_workload(self, capsys):
        from repro.benchmarks.harness import main as bench_main

        self.assert_usage_error(
            bench_main, ["run", "--workloads", "nope"], capsys,
            "argument --workloads: invalid choice: 'nope'",
        )

    def test_benchmarks_run_rejects_negative_processes(self, capsys):
        from repro.benchmarks.harness import main as bench_main

        self.assert_usage_error(
            bench_main, ["run", "--processes", "-2"], capsys,
            "must be a positive integer, got -2",
        )

    def test_faults_rejects_zero_processes(self, capsys):
        from repro.faults.__main__ import main as faults_main

        self.assert_usage_error(
            faults_main, ["--processes", "0"], capsys, "argument --processes"
        )

    def test_service_rejects_zero_shards(self, tmp_path, capsys):
        from repro.service.__main__ import main as service_main

        self.assert_usage_error(
            service_main, ["--spool", str(tmp_path), "--shards", "0"], capsys,
            "argument --shards",
        )
