"""Tests for the command-line interface."""

from __future__ import annotations

import csv
import re

import pytest

from repro.cli import build_parser, main
from repro.dataset.examples import hospital_microdata
from repro.engine.sources import CsvSource
from repro.experiments.harness import format_records, run_suite


@pytest.fixture
def hospital_csv(tmp_path):
    path = tmp_path / "hospital.csv"
    hospital_microdata().to_csv(str(path))
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_anonymize_arguments(self):
        arguments = build_parser().parse_args(
            [
                "anonymize",
                "--input", "in.csv",
                "--qi", "Age,Gender",
                "--sa", "Disease",
                "--l", "2",
                "--output", "out.csv",
            ]
        )
        assert arguments.command == "anonymize"
        assert arguments.algorithm == "TP+"
        assert arguments.l == 2

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "figure99"])


class TestCommands:
    def test_anonymize_writes_csv(self, hospital_csv, tmp_path, capsys):
        output = str(tmp_path / "published.csv")
        code = main(
            [
                "anonymize",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--algorithm", "TP",
                "--output", output,
            ]
        )
        assert code == 0
        with open(output, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10
        stars = sum(1 for row in rows for value in row.values() if value == "*")
        assert stars == 8
        captured = capsys.readouterr()
        assert "published table written" in captured.out

    def test_evaluate_prints_metrics(self, hospital_csv, capsys):
        code = main(
            [
                "evaluate",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--algorithms", "TP,Hilbert",
                "--kl",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "TP" in output and "Hilbert" in output
        assert "stars" in output

    def test_evaluate_prints_the_harness_records(self, hospital_csv, capsys):
        """``evaluate`` runs the harness suite: the same request afterwards
        renders the identical table, timings aside (neither run is cached)."""
        code = main(
            [
                "evaluate",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--algorithms", "TP, Mondrian",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        table = CsvSource(hospital_csv, ("Age", "Gender", "Education"), "Disease").load()
        records = run_suite([(hospital_csv, table)], 2, ["TP", "Mondrian"])
        seconds = re.compile(r"\d+\.\d{3}")  # the only decimals: no --kl column
        assert seconds.sub("-", output) == seconds.sub("-", format_records(records) + "\n")

    def test_experiment_phase3(self, capsys):
        code = main(["experiment", "phase3", "--scale", "smoke"])
        assert code == 0
        assert "phase 3" in capsys.readouterr().out

    def test_experiment_figure2_smoke(self, capsys):
        code = main(["experiment", "figure2", "--dataset", "SAL", "--scale", "smoke"])
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 2" in output
        assert "TP+" in output

    def test_experiment_csv_export(self, tmp_path, capsys):
        path = str(tmp_path / "fig3.csv")
        code = main(
            ["experiment", "figure3", "--dataset", "OCC", "--scale", "smoke", "--csv", path]
        )
        assert code == 0
        with open(path) as handle:
            header = handle.readline().strip().split(",")
        assert header[0] == "d"
        assert "TP+" in header
        assert "series written" in capsys.readouterr().out


class TestListCommands:
    def test_algorithms_lists_registry_entries(self, capsys):
        from repro.engine import algorithm_registry

        assert main(["algorithms"]) == 0
        output = capsys.readouterr().out
        for name in algorithm_registry.names():
            assert name in output
        assert "approximation" in output
        assert "sharding" in output

    def test_metrics_lists_registry_entries(self, capsys):
        from repro.engine import metric_registry

        assert main(["metrics"]) == 0
        output = capsys.readouterr().out
        for name in metric_registry.names():
            assert name in output
        assert "description" in output

    def test_anonymize_choices_track_registry(self):
        from repro.engine import algorithm_registry

        parser = build_parser()
        action = next(
            action
            for action in parser._subparsers._group_actions[0].choices["anonymize"]._actions
            if action.dest == "algorithm"
        )
        assert tuple(action.choices) == tuple(sorted(algorithm_registry.names()))

    def test_experiment_choices_track_figures(self):
        from repro.experiments import figures

        parser = build_parser()
        action = next(
            action
            for action in parser._subparsers._group_actions[0].choices["experiment"]._actions
            if action.dest == "name"
        )
        assert tuple(action.choices) == tuple(sorted(figures.FIGURES) + ["phase3"])


class TestShardedAnonymize:
    def test_sharded_round_trip_through_csv_adapter(self, tmp_path, capsys):
        from repro.dataset.synthetic import CensusConfig, make_sal
        from repro.privacy import checks
        from repro.dataset.table import Table

        table = make_sal(1200, seed=7, config=CensusConfig.scaled(0.25)).project(
            ("Age", "Gender", "Race")
        )
        source_path = str(tmp_path / "census.csv")
        table.to_csv(source_path)
        output_path = str(tmp_path / "published.csv")
        code = main(
            [
                "anonymize",
                "--input", source_path,
                "--qi", "Age,Gender,Race",
                "--sa", "Income",
                "--l", "3",
                "--algorithm", "TP",
                "--shards", "3",
                "--output", output_path,
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "sharded over" in captured
        assert "published table written" in captured
        with open(output_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(table)
        # Non-starred cells must round-trip through the published CSV.
        published_sa = [row["Income"] for row in rows]
        assert published_sa == [str(record["Income"]) for record in table.decoded_records()]


class TestOutputSink:
    def test_anonymize_without_output_prints_only(self, hospital_csv, capsys):
        code = main(
            [
                "anonymize",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--algorithm", "TP",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "stars" in captured
        assert "published table written" not in captured

    def test_output_round_trips_through_csv_sink(self, hospital_csv, tmp_path, capsys):
        output = str(tmp_path / "published.csv")
        code = main(
            [
                "anonymize",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--algorithm", "TP",
                "--output", output,
            ]
        )
        assert code == 0
        with open(output, newline="") as handle:
            rows = list(csv.DictReader(handle))
        # The sink's export must match the in-memory published table, cell
        # for cell, including the star rendering.
        from repro.engine import Engine, ResultCache, RunPlan, CsvSource

        report = Engine(cache=ResultCache()).run(
            RunPlan(
                source=CsvSource(hospital_csv, ("Age", "Gender", "Education"), "Disease"),
                algorithm="TP",
                l=2,
            )
        )
        expected = report.generalized.decoded_records()
        assert len(rows) == len(expected)
        for row, record in zip(rows, expected):
            for name, value in record.items():
                rendered = (
                    "{" + "|".join(str(item) for item in value) + "}"
                    if isinstance(value, tuple)
                    else str(value)
                )
                assert row[name] == rendered


class TestRunStoreReuse:
    def test_fresh_invocation_is_served_from_the_store(self, hospital_csv, tmp_path, capsys):
        workspace = str(tmp_path / "workspace")
        arguments = [
            "anonymize",
            "--input", hospital_csv,
            "--qi", "Age,Gender,Education",
            "--sa", "Disease",
            "--l", "2",
            "--algorithm", "TP",
            "--workspace", workspace,
        ]
        assert main(arguments) == 0
        first = capsys.readouterr().out
        assert "persistent run store" not in first
        # Each main() builds a fresh Engine and ResultCache; only the run
        # store under the workspace persists — exactly the fresh-process case.
        assert main(arguments) == 0
        second = capsys.readouterr().out
        assert "persistent run store" in second

    def test_no_store_disables_reuse(self, hospital_csv, tmp_path, capsys):
        arguments = [
            "anonymize",
            "--input", hospital_csv,
            "--qi", "Age,Gender,Education",
            "--sa", "Disease",
            "--l", "2",
            "--no-store",
        ]
        assert main(arguments) == 0
        capsys.readouterr()
        assert main(arguments) == 0
        assert "persistent run store" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("extra", "runs", "footer"),
        [
            ((), 1, "computed (result stored for future runs)"),
            ((), 2, "served from the persistent run store"),
            (("--no-store",), 2, "computed (not stored: --no-store)"),
        ],
        ids=["stored-miss", "store-hit", "no-store"],
    )
    def test_footer_says_where_the_result_came_from(
        self, hospital_csv, tmp_path, capsys, extra, runs, footer
    ):
        arguments = [
            "anonymize",
            "--input", hospital_csv,
            "--qi", "Age,Gender,Education",
            "--sa", "Disease",
            "--l", "2",
            "--workspace", str(tmp_path / "workspace"),
            *extra,
        ]
        for _ in range(runs):
            assert main(arguments) == 0
            output = capsys.readouterr().out
        assert footer in output.splitlines()


class TestPlanCommand:
    def test_plan_explains_the_decision(self, hospital_csv, capsys):
        code = main(
            [
                "plan",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "workload: n=10 d=3 l=2" in output
        assert "chosen: shards=1 workers=1" in output
        assert "candidates" in output


class TestJobsCommands:
    def _submit(self, hospital_csv, workspace, extra=()):
        return main(
            [
                "jobs", "submit",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--algorithm", "TP",
                "--workspace", workspace,
                *extra,
            ]
        )

    def test_submit_list_show_round_trip(self, hospital_csv, tmp_path, capsys):
        workspace = str(tmp_path / "workspace")
        assert self._submit(hospital_csv, workspace) == 0
        assert "job job-0001: done" in capsys.readouterr().out

        assert main(["jobs", "list", "--workspace", workspace]) == 0
        listing = capsys.readouterr().out
        assert "job-0001" in listing and "done" in listing

        assert main(["jobs", "show", "job-0001", "--workspace", workspace]) == 0
        shown = capsys.readouterr().out
        assert "status: done" in shown
        assert "algorithm: TP" in shown

    def test_second_submission_reports_store_hit(self, hospital_csv, tmp_path, capsys):
        workspace = str(tmp_path / "workspace")
        assert self._submit(hospital_csv, workspace) == 0
        capsys.readouterr()
        assert self._submit(hospital_csv, workspace) == 0
        assert "persistent run store" in capsys.readouterr().out

    def test_no_store_submission_neither_reads_nor_creates_the_store(
        self, hospital_csv, tmp_path, capsys
    ):
        workspace = tmp_path / "workspace"
        for _ in range(2):
            assert self._submit(hospital_csv, str(workspace), ["--no-store"]) == 0
            assert "computed (not stored: --no-store)" in capsys.readouterr().out
        assert not (workspace / "runs").exists()

    def test_show_unknown_job_fails(self, tmp_path, capsys):
        workspace = str(tmp_path / "workspace")
        assert main(["jobs", "show", "job-0042", "--workspace", workspace]) == 1

    def test_empty_list(self, tmp_path, capsys):
        assert main(["jobs", "list", "--workspace", str(tmp_path / "ws")]) == 0
        assert "no jobs recorded" in capsys.readouterr().out


class TestStreamingAnonymize:
    def test_stream_round_trip(self, tmp_path, capsys):
        from repro.dataset.synthetic import CensusConfig, make_sal
        from repro.service import verify_csv_l_diverse

        table = make_sal(1200, seed=7, config=CensusConfig.scaled(0.25)).project(
            ("Age", "Gender", "Race")
        )
        source_path = str(tmp_path / "census.csv")
        table.to_csv(source_path)
        output_path = str(tmp_path / "published.csv")
        code = main(
            [
                "anonymize",
                "--input", source_path,
                "--qi", "Age,Gender,Race",
                "--sa", "Income",
                "--l", "3",
                "--algorithm", "TP",
                "--shards", "3",
                "--chunk-rows", "300",
                "--stream",
                "--output", output_path,
            ]
        )
        assert code == 0
        assert "streamed 1200 rows" in capsys.readouterr().out
        with open(output_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(table)
        assert verify_csv_l_diverse(output_path, ("Age", "Gender", "Race"), "Income", 3)

    def test_stream_requires_output(self, hospital_csv, capsys):
        code = main(
            [
                "anonymize",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--stream",
            ]
        )
        assert code == 2

    def test_chunk_rows_requires_stream(self, hospital_csv, tmp_path, capsys):
        code = main(
            [
                "anonymize",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--chunk-rows", "3",
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert code == 2
        assert "--chunk-rows applies only with --stream" in capsys.readouterr().err


class TestMmap:
    @pytest.fixture
    def zip_csv(self, tmp_path):
        path = tmp_path / "people.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["Age", "Zip", "Disease"])
            for row in range(24):
                writer.writerow([20 + 10 * (row % 2), f"z{row % 4}", f"d{row % 3}"])
        return str(path)

    def anonymize(self, input_path, qi, sa, output):
        return main([
            "anonymize", "--input", input_path, "--qi", qi, "--sa", sa, "--l", "2",
            "--mmap", "--no-store", "--output", output,
        ])

    def test_a_cached_store_over_other_columns_is_reconverted(self, zip_csv, tmp_path, capsys):
        first, second = str(tmp_path / "first.csv"), str(tmp_path / "second.csv")
        assert self.anonymize(zip_csv, "Age,Zip", "Disease", first) == 0
        assert self.anonymize(zip_csv, "Age", "Zip", second) == 0
        assert capsys.readouterr().err.count("column store written") == 2
        with open(second, newline="") as handle:
            assert next(csv.reader(handle)) == ["Age", "Zip"]
        assert main(["verify", "--input", second, "--qi", "Age", "--sa", "Zip", "--l", "2"]) == 0
        # The same columns again reuse the store as it is.
        assert self.anonymize(zip_csv, "Age", "Zip", second) == 0
        assert "column store written" not in capsys.readouterr().err

    def test_a_store_input_over_other_columns_is_an_error(self, zip_csv, tmp_path, capsys):
        output = str(tmp_path / "out.csv")
        assert self.anonymize(zip_csv, "Age,Zip", "Disease", output) == 0
        capsys.readouterr()
        assert self.anonymize(zip_csv + ".colstore", "Age", "Zip", output) == 2
        error = capsys.readouterr().err
        assert "--qi Age,Zip --sa Disease" in error and "--qi Age --sa Zip" in error


class TestVersion:
    def test_version_flag_prints_the_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"ldiversity {__version__}"

    def test_version_is_single_sourced_with_setup_py(self):
        from pathlib import Path

        from repro import __version__

        setup_text = Path(__file__).resolve().parents[1].joinpath("setup.py").read_text()
        assert "_version.py" in setup_text  # setup.py reads the same file
        assert f'__version__ = "{__version__}"' in Path(__file__).resolve().parents[
            1
        ].joinpath("src", "repro", "_version.py").read_text()


class TestVerify:
    def test_verify_accepts_an_l_diverse_file(self, hospital_csv, tmp_path, capsys):
        output = str(tmp_path / "published.csv")
        main(
            [
                "anonymize",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--algorithm", "TP",
                "--output", output,
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "verify",
                "--input", output,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
            ]
        )
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_rejects_raw_microdata(self, hospital_csv, capsys):
        # the raw hospital table is not 4-diverse as published
        code = main(
            [
                "verify",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "4",
            ]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().err


class TestJobsCancel:
    def test_cancel_requires_a_cancellable_job(self, hospital_csv, tmp_path, capsys):
        workspace = str(tmp_path / "workspace")
        assert main(
            [
                "jobs", "submit",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--l", "2",
                "--workspace", workspace,
            ]
        ) == 0
        capsys.readouterr()
        # the synchronous submit already finished: done jobs cannot be cancelled
        assert main(["jobs", "cancel", "job-0001", "--workspace", workspace]) == 1
        assert "done" in capsys.readouterr().err

    def test_cancel_a_stuck_job(self, tmp_path, capsys):
        """A queued/running record (e.g. from a crashed server) can be cancelled."""
        from repro.service import JobLedger, Workspace

        workspace = str(tmp_path / "workspace")
        ledger = JobLedger(Workspace(workspace).jobs_path)
        record = ledger.create(label="stuck", algorithm="TP", l=2)
        ledger.transition(record.id, "running")
        assert main(["jobs", "cancel", record.id, "--workspace", workspace]) == 0
        assert "cancelled" in capsys.readouterr().out
        assert ledger.get(record.id).status == "cancelled"

    def test_cancel_unknown_job_fails(self, tmp_path, capsys):
        code = main(["jobs", "cancel", "job-0042", "--workspace", str(tmp_path / "ws")])
        assert code == 1


class TestPrivacyFlags:
    def _anonymize(self, hospital_csv, tmp_path, *extra):
        output = str(tmp_path / "published.csv")
        code = main(
            [
                "anonymize",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--output", output,
                *extra,
            ]
        )
        return code, output

    def test_entropy_anonymize_and_verify(self, hospital_csv, tmp_path, capsys):
        code, output = self._anonymize(
            hospital_csv, tmp_path, "--privacy", "entropy-l", "--l", "2"
        )
        assert code == 0
        assert "entropy-l(l=2.0)" in capsys.readouterr().out
        from repro.service import verify_csv_satisfies

        assert verify_csv_satisfies(
            output, ("Age", "Gender", "Education"), "Disease",
            {"kind": "entropy-l", "l": 2.0},
        )
        assert main(
            [
                "verify",
                "--input", output,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--privacy", "entropy-l",
                "--l", "2",
            ]
        ) == 0
        assert "entropy-l" in capsys.readouterr().out

    def test_recursive_cl_flags(self, hospital_csv, tmp_path, capsys):
        code, _output = self._anonymize(
            hospital_csv, tmp_path,
            "--privacy", "recursive-cl", "--c", "2", "--l", "2",
        )
        assert code == 0
        assert "recursive-cl(c=2.0,l=2)" in capsys.readouterr().out

    def test_missing_parameter_is_a_usage_error(self, hospital_csv, tmp_path, capsys):
        code, _output = self._anonymize(
            hospital_csv, tmp_path, "--privacy", "recursive-cl", "--l", "2"
        )
        assert code == 2
        assert "--c" in capsys.readouterr().err

    def test_inapplicable_parameter_is_a_usage_error(self, hospital_csv, tmp_path, capsys):
        code, _output = self._anonymize(
            hospital_csv, tmp_path, "--privacy", "frequency-l", "--l", "2", "--k", "3"
        )
        assert code == 2
        assert "--k" in capsys.readouterr().err

    def test_fractional_l_rejected_for_frequency(self, hospital_csv, tmp_path, capsys):
        code, _output = self._anonymize(hospital_csv, tmp_path, "--l", "2.5")
        assert code == 2
        assert "integer" in capsys.readouterr().err

    def test_verify_t_closeness(self, hospital_csv, tmp_path, capsys):
        code, output = self._anonymize(hospital_csv, tmp_path, "--l", "2")
        assert code == 0
        capsys.readouterr()
        assert main(
            [
                "verify",
                "--input", output,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--privacy", "t-closeness",
                "--t", "1.0",
            ]
        ) == 0
        assert "t-closeness(t=1.0)" in capsys.readouterr().out

    def test_jobs_submit_records_the_spec(self, hospital_csv, tmp_path, capsys):
        workspace = str(tmp_path / "ws")
        code = main(
            [
                "jobs", "submit",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--privacy", "k-anonymity", "--k", "2",
                "--workspace", workspace,
            ]
        )
        assert code == 0
        capsys.readouterr()
        from repro.service import JobService, Workspace

        records = JobService(Workspace(workspace)).list()
        assert records[-1].privacy == {"kind": "k-anonymity", "k": 2}

    def test_privacy_listing_command(self, capsys):
        assert main(["privacy"]) == 0
        output = capsys.readouterr().out
        for name in ("frequency-l", "entropy-l", "recursive-cl",
                     "alpha-k", "k-anonymity", "t-closeness"):
            assert name in output
        assert "verify only" in output

    def test_plan_accepts_a_spec(self, hospital_csv, capsys):
        assert main(
            [
                "plan",
                "--input", hospital_csv,
                "--qi", "Age,Gender,Education",
                "--sa", "Disease",
                "--privacy", "alpha-k", "--alpha", "0.5", "--k", "2",
            ]
        ) == 0
        assert "alpha-k(alpha=0.5,k=2)" in capsys.readouterr().out
