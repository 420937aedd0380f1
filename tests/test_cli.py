"""Tests for the command-line interface."""

from __future__ import annotations

import argparse
import difflib
import json
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

PARSER_FIXTURE = Path(__file__).with_name("cli_parser.json")


def parser_shape(parser: argparse.ArgumentParser) -> dict:
    """Every subparser dest and every leaf's non-help actions, help text left out.

    Regenerate the fixture (only for a deliberate flag change) with
    ``PYTHONPATH=src python tests/test_cli.py --write``.
    """
    shape: dict = {"subparsers": {}, "leaves": {}}

    def walk(sub: argparse.ArgumentParser, path: tuple) -> None:
        actions = []
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            if isinstance(action, argparse._SubParsersAction):
                shape["subparsers"][" ".join(path) or "msropm"] = {
                    "dest": action.dest,
                    "required": action.required,
                }
                for name, child in action.choices.items():
                    walk(child, path + (name,))
                continue
            actions.append(
                {
                    "option_strings": list(action.option_strings),
                    "dest": action.dest,
                    "default": repr(action.default),
                    "type": getattr(action.type, "__name__", None),
                    "choices": None if action.choices is None else list(action.choices),
                    "action": type(action).__name__,
                    "nargs": action.nargs,
                    "required": action.required,
                    "metavar": action.metavar,
                }
            )
        if not sub._subparsers:
            shape["leaves"][" ".join(path)] = actions

    walk(parser, ())
    return shape


def render_shape(shape: dict) -> str:
    """The shape as JSON with one line per subparser and per flag, for readable diffs."""
    def block(items, indent):
        return ",\n".join(f"{indent}{item}" for item in items)

    subparsers = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in shape["subparsers"].items()]
    leaves = [
        f"{json.dumps(path)}: [\n{block(map(json.dumps, actions), '   ')}\n  ]"
        if actions
        else f"{json.dumps(path)}: []"
        for path, actions in shape["leaves"].items()
    ]
    return (
        f'{{\n "subparsers": {{\n{block(subparsers, "  ")}\n }},\n'
        f' "leaves": {{\n{block(leaves, "  ")}\n }}\n}}\n'
    )


class TestParser:
    def test_parser_matches_fixture(self):
        # Any flag added, dropped, renamed or re-defaulted shows as a diff.
        expected = PARSER_FIXTURE.read_text()
        actual = render_shape(parser_shape(build_parser()))
        diff = "".join(
            difflib.unified_diff(
                expected.splitlines(keepends=True),
                actual.splitlines(keepends=True),
                "cli_parser.json",
                "build_parser()",
            )
        )
        assert not diff, diff

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.rows == 7
        assert args.iterations == 10
        assert args.colors == 4

    def test_table_scale_option(self):
        args = build_parser().parse_args(["table1", "--scale", "0.25"])
        assert args.scale == 0.25

    def test_fig3_options(self):
        args = build_parser().parse_args(["fig3", "--rows", "5", "--seed", "3"])
        assert args.rows == 5 and args.seed == 3

    @pytest.mark.parametrize(
        "command",
        [["solve"], ["table1"], ["table2"], ["fig5"], ["suite"], ["scenarios"],
         ["campaign", "run", "suite"], ["client", "submit"]],
    )
    def test_no_subcommand_accepts_engine(self, command):
        # Every solve runs one batched path per precision tier, so --precision
        # is the only execution flag.
        assert build_parser().parse_args(command).precision == "exact"
        with pytest.raises(SystemExit):
            build_parser().parse_args(command + ["--engine", "batched"])


class TestMain:
    def test_solve_command_output(self, capsys):
        exit_code = main(["solve", "--rows", "4", "--iterations", "2", "--seed", "1"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "MSROPM on 16-node King's graph" in captured
        assert "best accuracy" in captured

    def test_fig3_command_output(self, capsys):
        exit_code = main(["fig3", "--rows", "3", "--seed", "2"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 3" in captured

    def test_table1_command_scaled(self, capsys):
        exit_code = main(["table1", "--scale", "0.08", "--iterations", "2", "--seed", "3"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 1" in captured
        assert "4^49" in captured

    def test_fig5_command_scaled(self, capsys):
        exit_code = main(["fig5", "--scale", "0.08", "--iterations", "2", "--seed", "4"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Figure 5(a)" in captured

    def test_table2_command_scaled(self, capsys):
        exit_code = main(["table2", "--scale", "0.05"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 2: comparison with prior work" in captured
        assert "ROIM [8]" in captured

    def test_equivalence_command(self, capsys):
        exit_code = main(["equivalence", "--family", "er", "--iterations", "4"])
        captured = capsys.readouterr().out
        assert exit_code in (0, 1)
        assert "Exact vs throughput tier: statistical equivalence" in captured
        assert "\ner " in captured

    def test_serve_refuses_no_cache(self, capsys):
        assert main(["serve", "--no-cache"]) == 2
        assert "drop --no-cache" in capsys.readouterr().err


class TestCampaignCommands:
    def test_status_and_resume_of_a_killed_run(self, capsys, monkeypatch, tmp_path):
        import os

        from repro.campaigns import KILL_AFTER_ENV

        def simulated_exit(code):
            raise SystemExit(code)

        # The kill hook ends the process with os._exit; raise SystemExit instead
        # so the run dies at the same point but the test process survives.
        monkeypatch.setattr(os, "_exit", simulated_exit)
        monkeypatch.setenv(KILL_AFTER_ENV, "table1")
        cache = str(tmp_path / "cache")
        with pytest.raises(SystemExit) as killed:
            main(["campaign", "run", "suite", "--scale", "0.05", "--iterations", "2",
                  "--run-id", "killed", "--cache-dir", cache])
        assert killed.value.code == 86
        monkeypatch.delenv(KILL_AFTER_ENV)
        capsys.readouterr()

        assert main(["campaign", "status", "killed", "--cache-dir", cache]) == 0
        status = capsys.readouterr().out
        assert "Campaign 'suite' run killed" in status
        assert "not_started" in status
        assert "finished: no" in status

        assert main(["campaign", "resume", "killed", "--cache-dir", cache]) == 0
        resumed = capsys.readouterr().out
        assert "stage table1: already passed" in resumed
        assert "campaign killed: 4/4 stage(s) passed" in resumed


class TestErrorExits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--workers", "0"],
            ["solve", "--colors", "3"],
            ["table1", "--scale", "2"],
            ["solve", "--executor", "spool"],
            ["campaign", "status", "nope"],
            ["campaign", "report", "nope"],
            ["campaign", "resume", "nope"],
            ["campaign", "watch", "nope", "--once"],
            ["cache", "export", "x.tgz", "--run-id", "nope"],
        ],
        ids=" ".join,
    )
    def test_user_input_error_is_one_stderr_line(self, argv, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("msropm: error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    def test_error_exit_of_the_console_command(self, tmp_path):
        import os
        import subprocess

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "campaign", "status", "no-such-run",
             "--cache-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, check=False,
        )
        assert completed.returncode == 1
        assert completed.stderr.startswith("msropm: error: unknown campaign run")
        assert "Traceback" not in completed.stderr

    def test_reader_closing_stdout_early_is_a_normal_end(self):
        import os
        import subprocess

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "workloads", "list"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        # Closed before the command writes anything, so every write hits EPIPE.
        process.stdout.close()
        stderr = process.stderr.read().decode()
        process.stderr.close()
        assert process.wait() == 0
        assert stderr == ""


class TestRuntimeFlags:
    def test_runtime_flags_parse_on_all_solve_commands(self):
        for command in ("solve", "table1", "table2", "fig5", "suite"):
            args = build_parser().parse_args(
                [command, "--workers", "4", "--no-cache", "--replica-chunk", "8"]
            )
            assert args.workers == 4
            assert args.no_cache is True
            assert args.replica_chunk == 8

    def test_cache_dir_flag(self):
        args = build_parser().parse_args(["suite", "--cache-dir", "/tmp/somewhere"])
        assert args.cache_dir == "/tmp/somewhere"
        assert args.workers == 1

    def test_solve_graph_flag_runs_dimacs_workload(self, capsys, tmp_path):
        from repro.graphs import kings_graph, write_dimacs

        path = tmp_path / "board.col"
        write_dimacs(kings_graph(4, 4), path)
        exit_code = main(
            ["solve", "--graph", str(path), "--iterations", "2", "--seed", "3", "--no-cache"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "MSROPM on board" in captured
        assert "16 nodes" in captured

    def test_solve_workers_matches_serial_output(self, capsys, tmp_path):
        """--workers 4 must print byte-identical results to --workers 1."""
        base = ["solve", "--rows", "4", "--iterations", "4", "--seed", "5", "--no-cache"]
        main(base + ["--workers", "1"])
        serial_out = capsys.readouterr().out
        main(base + ["--workers", "4", "--replica-chunk", "1"])
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_solve_cache_round_trip(self, capsys, tmp_path):
        base = [
            "solve", "--rows", "4", "--iterations", "2", "--seed", "6",
            "--cache-dir", str(tmp_path),
        ]
        main(base)
        cold_out = capsys.readouterr().out
        main(base)
        warm_out = capsys.readouterr().out
        assert "served from cache" in warm_out
        assert cold_out in warm_out.replace("(result served from cache: 1 hit(s))\n", "")

    def test_suite_command_scaled(self, capsys, tmp_path):
        exit_code = main(
            [
                "suite", "--scale", "0.05", "--iterations", "2", "--seed", "7",
                "--cache-dir", str(tmp_path),
            ]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Table 1" in captured
        assert "Figure 5(a)" in captured
        assert "suite finished" in captured


class TestWorkloadsCommands:
    def test_workloads_list(self, capsys):
        exit_code = main(["workloads", "list"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Workload zoo" in captured
        for family in ("kings", "er", "regular", "planar", "dimacs", "maxcut"):
            assert family in captured

    def test_workloads_show_requires_family(self):
        with pytest.raises(SystemExit):
            main(["workloads", "show"])

    def test_workloads_show_expands_instances(self, capsys):
        exit_code = main(["workloads", "show", "--family", "dimacs"])
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "myciel3" in captured and "myciel4" in captured
        assert "not 4-colorable" in captured  # myciel4's known chromatic number is 5

    def test_scenarios_smoke_on_dimacs(self, capsys):
        exit_code = main(
            ["scenarios", "--family", "dimacs", "--iterations", "2", "--seed", "3",
             "--baselines", "sa", "--no-cache"]
        )
        captured = capsys.readouterr().out
        assert exit_code == 0
        assert "Scenario matrix" in captured
        assert "Per-family MSROPM accuracy" in captured
        assert "3 instance(s)" in captured

    def test_scenarios_workers_match_serial_output(self, capsys):
        """Acceptance: scenarios --workers 2 prints byte-identical results."""
        base = ["scenarios", "--family", "er,dimacs", "--iterations", "2", "--seed", "5",
                "--baselines", "sa", "--no-cache"]
        main(base + ["--workers", "1"])
        serial_out = capsys.readouterr().out
        main(base + ["--workers", "2"])
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out

    def test_scenarios_warm_cache_rerun(self, capsys, tmp_path):
        base = ["scenarios", "--family", "dimacs", "--iterations", "2", "--seed", "6",
                "--baselines", "", "--cache-dir", str(tmp_path)]
        main(base)
        cold_out = capsys.readouterr().out
        main(base)
        warm_out = capsys.readouterr().out
        assert "3 job(s) solved, 0 cache hit(s)" in cold_out
        assert "0 job(s) solved, 3 cache hit(s)" in warm_out
        assert cold_out.split("scenarios:")[0] == warm_out.split("scenarios:")[0]


class TestRunnerLifecycle:
    """No ProcessPoolExecutor outlives a CLI command (the warm-pool leak audit).

    Every runner-holding command wraps the runner in a context manager, so the
    pool's worker processes are joined before ``main`` returns — on clean
    exits and on mid-command errors alike.
    """

    def test_no_worker_processes_outlive_solve(self, capsys):
        import multiprocessing

        exit_code = main(
            ["solve", "--rows", "3", "--iterations", "2", "--seed", "1",
             "--workers", "2", "--no-cache"]
        )
        capsys.readouterr()
        assert exit_code == 0
        assert multiprocessing.active_children() == []

    def test_no_worker_processes_outlive_error_exit(self, capsys, monkeypatch):
        import multiprocessing

        from repro.runtime.runner import ExperimentRunner

        # Fail *inside* the command's `with runner` block, after the pool has
        # warmed up: the context manager must still join the workers.
        def boom(self):
            raise RuntimeError("simulated failure after solve")

        monkeypatch.setattr(ExperimentRunner, "stats", boom)
        with pytest.raises(RuntimeError, match="simulated failure"):
            main(
                ["solve", "--rows", "3", "--iterations", "2", "--seed", "1",
                 "--workers", "2", "--no-cache"]
            )
        capsys.readouterr()
        assert multiprocessing.active_children() == []


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    PARSER_FIXTURE.write_text(render_shape(parser_shape(build_parser())))
