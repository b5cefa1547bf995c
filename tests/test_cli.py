"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import api
from repro.cli import build_parser, main
from repro.core.models import MulticastModel
from repro.workloads import generate_trace, load_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0
    return captured.out


class TestCommands:
    def test_table1(self, capsys):
        out = run_cli(capsys, "table1", "--n-ports", "4", "--k", "2")
        assert "Table 1" in out and "MAW" in out

    def test_table2(self, capsys):
        out = run_cli(capsys, "table2", "--n-ports", "64", "--k", "2")
        assert "MSW/MS" in out

    def test_table2_maw_dominant(self, capsys):
        out = run_cli(
            capsys,
            "table2",
            "--n-ports",
            "64",
            "--k",
            "2",
            "--construction",
            "maw-dominant",
        )
        assert "MAW-dominant" in out

    def test_bounds(self, capsys):
        out = run_cli(capsys, "bounds", "--n", "4", "--r", "4", "--k", "2")
        assert "minimal m" in out

    def test_crossover(self, capsys):
        out = run_cli(capsys, "crossover", "--k", "2")
        assert "multistage beats crossbar" in out

    def test_capacity(self, capsys):
        out = run_cli(capsys, "capacity", "--n-ports", "4", "--k-max", "3")
        assert "log10" in out

    def test_blocking(self, capsys):
        out = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1", "--m-max", "4"
        )
        assert "P(block)" in out

    def test_fig10(self, capsys):
        out = run_cli(capsys, "fig10")
        assert "BLOCKED" in out and "routed" in out

    def test_blocking_cache_footer(self, capsys, tmp_path):
        out = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--cache", "--cache-dir", str(tmp_path),
        )
        assert "cache: 0 hits" in out and "6 stored" in out
        out = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--cache", "--cache-dir", str(tmp_path),
        )
        assert "cache: 6 hits" in out

    BLOCKING = ("blocking", "--n", "2", "--r", "2", "--k", "1", "--m-max", "4")

    def test_blocking_kernel_flag_same_numbers(self, capsys):
        default = run_cli(capsys, *self.BLOCKING)
        for kernel in ("bitmask", "batched"):
            out = run_cli(capsys, *self.BLOCKING, "--kernel", kernel)
            assert out == default

    def test_blocking_batched_cache_footer(self, capsys, tmp_path):
        """Batched cells land in the cache with per-cell granularity."""
        args = (
            "blocking", "--n", "2", "--r", "2", "--k", "1", "--m-max", "2",
            "--kernel", "batched", "--cache", "--cache-dir", str(tmp_path),
        )
        out = run_cli(capsys, *args)
        assert "cache: 0 hits" in out and "6 stored" in out
        out = run_cli(capsys, *args)
        assert "cache: 6 hits" in out

    def test_adversarial_footer_reports_the_traffic_plan(self, capsys):
        argv = ["blocking", "--n", "3", "--r", "3", "--k", "1",
                "--m-max", "2", "--jobs", "2"]
        adversarial = run_cli(capsys, *argv, "--adversarial")
        plain = run_cli(capsys, *argv)
        assert "served from cache" not in adversarial
        assert adversarial.splitlines()[-1] == plain.splitlines()[-1]
        assert plain.splitlines()[-1].startswith("executor: ")

    @pytest.mark.parametrize("command", ["blocking", "sweep"])
    def test_debug_checks_flag_checks_without_changing_output(
        self, capsys, monkeypatch, command
    ):
        from repro.multistage.network import ThreeStageNetwork

        argv = [command, "--n", "2", "--r", "2", "--k", "1", "--m-max", "3"]
        if command == "sweep":
            argv += ["--steps", "60", "--max-rounds", "2"]
        plain = run_cli(capsys, *argv)
        calls = []
        check = ThreeStageNetwork.check_invariants

        def counting(net):
            calls.append(1)
            return check(net)

        monkeypatch.setattr(ThreeStageNetwork, "check_invariants", counting)
        checked = run_cli(capsys, *argv, "--debug-checks")
        assert calls
        assert checked == plain

    def test_blocking_prints_confidence_interval(self, capsys):
        out = run_cli(capsys, *self.BLOCKING)
        assert "CI95" in out and "+/-" in out

    SWEEP = (
        "sweep", "--n", "2", "--r", "2", "--k", "1", "--m-max", "3",
        "--steps", "150", "--ci-halfwidth", "0.05",
    )

    def test_sweep_reports_ci_rounds_and_convergence(self, capsys):
        out = run_cli(capsys, *self.SWEEP)
        assert "Adaptive blocking sweep" in out
        assert "CI95" in out and "rounds" in out and "converged" in out
        assert "events:" in out

    def test_sweep_kernel_flag_same_numbers(self, capsys):
        default = run_cli(capsys, *self.SWEEP)
        for kernel in ("bitmask", "batched"):
            assert run_cli(capsys, *self.SWEEP, "--kernel", kernel) == default

    def test_sweep_resume_is_bit_identical(self, capsys, tmp_path):
        cold = run_cli(capsys, *self.SWEEP)
        args = (*self.SWEEP, "--resume", "--cache-dir", str(tmp_path))
        first = run_cli(capsys, *args)
        warm = run_cli(capsys, *args)
        table = lambda out: out.split("events:")[0]  # noqa: E731
        assert table(first) == table(cold)
        assert table(warm) == table(cold)
        assert "0 stored" in warm  # everything replayed from the cache

    def test_sweep_unconverged_cells_warn(self, capsys):
        out = run_cli(
            capsys, "sweep", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "1", "--steps", "100", "--ci-halfwidth", "0.0001",
            "--max-rounds", "2",
        )
        assert "NO" in out and "warning:" in out


class TestTraceCommand:
    def _records(self, out):
        import json

        return [json.loads(line) for line in out.strip().splitlines()]

    def test_trace_fig10_emits_schema_valid_jsonl(self, capsys):
        from repro.obs.trace import validate_record

        records = self._records(run_cli(capsys, "trace", "fig10"))
        for record in records:
            validate_record(record)
        summary = records[-1]
        assert summary["event"] == "summary"
        assert sum(summary["causes"].values()) == summary["blocked"] == 1
        kinds = [r["cause"]["kind"] for r in records if r["event"] == "block"]
        assert kinds == ["full_middles"]

    def test_trace_blocking_sums_to_numerator(self, capsys):
        from repro.obs.trace import validate_record

        records = self._records(run_cli(
            capsys, "trace", "blocking", "--n", "2", "--r", "2", "--m", "2",
            "--k", "1", "--steps", "150", "--seeds", "0,1",
        ))
        for record in records:
            validate_record(record)
        summary = records[-1]
        blocks = [r for r in records if r["event"] == "block"]
        assert summary["blocked"] == len(blocks) > 0
        assert sum(summary["causes"].values()) == summary["blocked"]
        # The trace numerator is the estimate's numerator.
        from repro import api

        estimate = api.blocking(
            2, 2, 2, 1, x=1, traffic=api.UniformConfig(steps=150, seeds=(0, 1)))
        assert summary["blocked"] == estimate.blocked
        assert summary["attempts"] == estimate.attempts

    def test_trace_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        out = run_cli(capsys, "trace", "fig10", "--trace-out", str(path))
        assert "trace written to" in out
        assert len(path.read_text().splitlines()) >= 2

    def test_design(self, capsys):
        out = run_cli(capsys, "design", "--n-ports", "64", "--k", "2")
        assert "crosspoints" in out and "recursive" in out.lower()

    def test_design_with_model(self, capsys):
        out = run_cli(
            capsys, "design", "--n-ports", "64", "--k", "2", "--model", "maw"
        )
        assert "MAW" in out

    def test_kernels_matrix(self, capsys):
        out = run_cli(capsys, "kernels")
        for kernel in ("bitmask", "batched"):
            assert kernel in out
        assert "reference" not in out
        # The kernel is a per-run argument: there is no process-wide
        # kernel to report, and no state backend to pick.
        assert "active routing kernel" not in out
        assert "backend" not in out
        assert "--kernel NAME" in out


class TestParser:
    def test_unknown_model_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["design", "--model", "bogus"])

    def test_unknown_kernel_rejected_listing_valid_ones(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["blocking", "--kernel", "bogus"])
        message = capsys.readouterr().err
        assert "unknown kernel 'bogus'" in message
        assert "choose from batched, bitmask" in message
        # The frozenset search is a test-only oracle, not a kernel.
        with pytest.raises(SystemExit):
            parser.parse_args(["blocking", "--kernel", "reference"])
        message = capsys.readouterr().err
        assert "unknown kernel 'reference'; choose from batched, bitmask" in message

    @pytest.mark.parametrize("command", ["blocking", "sweep"])
    def test_backend_flag_is_refused(self, capsys, command):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([command, "--backend", "python"])
        message = capsys.readouterr().err
        assert "unrecognized arguments: --backend python" in message

    def test_batch_flag_is_refused(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["blocking", "--kernel", "batched", "--batch", "2"]
            )
        message = capsys.readouterr().err
        assert "unrecognized arguments: --batch 2" in message

    @pytest.mark.parametrize("command", ["blocking", "sweep"])
    @pytest.mark.parametrize("refused", [
        ["--fabric", "crossbar"],
        ["--fabric", "crossbar", "--kernel", "batched"],
        ["--kernel", "batched"],
    ])
    def test_debug_checks_off_the_clos_path_is_a_one_line_error(
        self, command, refused
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--n", "2", "--r", "2", "--k", "2",
                  "--m-max", "2", "--debug-checks", *refused])
        message = str(excinfo.value)
        assert message.startswith("wdm-repro: error: debug_checks")
        assert "bitmask kernel on the clos fabric" in message
        assert "\n" not in message

    def test_unknown_construction_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["table2", "--construction", "bogus"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestNewCommands:
    def test_gap(self, capsys):
        out = run_cli(capsys, "gap")
        assert "BLOCKED" in out and "corrected" in out

    def test_exact(self, capsys):
        out = run_cli(capsys, "exact", "--n", "2", "--r", "2", "--k", "1")
        assert "exact strict-sense threshold: m = 3" in out

    def test_exact_rearrangeable(self, capsys):
        out = run_cli(
            capsys, "exact", "--n", "2", "--r", "2", "--k", "1", "--rearrangeable"
        )
        assert "rearrangeable threshold" in out

    def test_load(self, capsys):
        out = run_cli(
            capsys, "load", "--n", "2", "--r", "2", "--m", "2", "--k", "1",
            "--loads", "0.01,4", "--steps", "200", "--model", "msw",
        )
        lines = out.splitlines()
        header = lines[2].split()
        assert header == [
            "offered", "(Erl)", "attempts", "blocked", "P(block)", "CI95"
        ]
        rows = [line.split() for line in lines[4:]]
        assert [row[0] for row in rows] == ["0.01", "4"]
        for load, row in zip((0.01, 4.0), rows):
            estimate = api.blocking(
                2, 2, 2, 1, model=MulticastModel.MSW, x=1,
                traffic=api.PoissonErlangConfig(
                    offered_erlangs=load, steps=200
                ),
            )
            assert row[1:] == [
                str(estimate.attempts),
                str(estimate.blocked),
                f"{estimate.probability:.4f}",
                f"+/-{estimate.half_width():.4f}",
            ]
        assert rows[-1][2] != "0"  # the table shows real blocking

    def test_report_fast(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        out = run_cli(
            capsys, "report", "--fast", "--n-ports", "64", "--k", "2",
            "--output", str(target),
        )
        assert "report written" in out
        assert "# WDM multicast reproduction report" in target.read_text()


class TestWorkloadCommands:
    def test_workloads_matrix(self, capsys):
        out = run_cli(capsys, "workloads")
        assert "Registered traffic workloads" in out
        for name in ("uniform", "hotspot", "heavytail_fanout",
                     "poisson_erlang", "trace"):
            assert name in out
        assert "zipf_s=1.2" in out
        assert "no (fixed recording)" in out

    def test_blocking_with_workload_flag(self, capsys):
        base = run_cli(capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
                       "--m-max", "2")
        skewed = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--workload", "hotspot",
            "--workload-param", "zipf_s=2.0",
        )
        assert "uniform traffic" in base
        assert "hotspot traffic" in skewed
        assert base != skewed

    def test_sweep_with_workload_flag(self, capsys):
        out = run_cli(
            capsys, "sweep", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--steps", "150", "--ci-halfwidth", "0.05",
            "--max-rounds", "3", "--workload", "heavytail_fanout",
        )
        assert "heavytail_fanout traffic" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--m-max", "2", "--steps", "0", "--ci-halfwidth", "0.05"],
            ["blocking", "--m-max", "2", "--workload-param", "steps=0"],
            ["trace", "blocking", "--steps", "0"],
        ],
        ids=["sweep", "blocking", "trace"],
    )
    def test_zero_steps_rejected_in_one_line(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--n", "2", "--r", "2", "--k", "1"])
        message = str(excinfo.value)
        assert message.startswith("wdm-repro: error: steps must be >= 1")

    @pytest.mark.parametrize(
        "seeds, expected",
        [
            (",", "--seeds takes comma-separated integers, got ','"),
            ("0,x", "--seeds takes comma-separated integers, got '0,x'"),
            ("1,1", "seeds repeats 1; list each value once"),
        ],
        ids=["empty", "non-integer", "repeated"],
    )
    def test_trace_seeds_rejected_in_one_line(self, seeds, expected):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "blocking", "--seeds", seeds])
        assert str(excinfo.value) == f"wdm-repro: error: {expected}"

    @pytest.mark.parametrize("command", ["blocking", "sweep"])
    @pytest.mark.parametrize("m_max", ["0", "-3"])
    def test_m_max_below_one_rejected_at_parse_time(
        self, capsys, command, m_max
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", m_max])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --m-max: must be >= 1, got {m_max}" in captured.err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["blocking"], "--n", "0"),
            (["blocking"], "--r", "0"),
            (["blocking"], "--k", "0"),
            (["sweep"], "--n", "0"),
            (["sweep"], "--r", "-1"),
            (["sweep"], "--k", "0"),
            (["trace", "blocking"], "--n", "0"),
            (["trace", "blocking"], "--r", "0"),
            (["trace", "blocking"], "--m", "0"),
            (["trace", "blocking"], "--k", "0"),
            (["exact"], "--n", "0"),
            (["exact"], "--r", "0"),
            (["exact"], "--k", "0"),
            (["table1"], "--k", "0"),
            (["table2"], "--n-ports", "0"),
            (["bounds"], "--n", "0"),
            (["crossover"], "--k", "0"),
            (["capacity"], "--k-max", "0"),
            (["load"], "--n", "0"),
            (["load"], "--steps", "0"),
            (["report"], "--n-ports", "0"),
            (["gap"], "--n", "0"),
            (["trace-gen"], "--n", "0"),
            (["trace-gen"], "--steps", "0"),
            (["trace-gen"], "--max-fanout", "0"),
            (["design"], "--n-ports", "0"),
        ],
        ids=lambda value: "-".join(value) if isinstance(value, list) else None,
    )
    def test_size_below_one_rejected_at_parse_time(
        self, capsys, command, flag, value
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, flag, value])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line]
        # table2, report and design design a three-stage network: N >= 2.
        minimum = 2 if flag == "--n-ports" else 1
        assert errors == [
            f"wdm-repro {command[0]}: error: argument {flag}: must be >= "
            f"{minimum}, got {value}"
        ]

    @pytest.mark.parametrize("command", ["table2", "design", "report"])
    def test_one_port_network_rejected_at_parse_time(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--n-ports", "1"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert errors == [
            f"wdm-repro {command}: error: argument --n-ports: must be >= 2, "
            "got 1"
        ]

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_exact_budget_below_one_rejected_at_parse_time(
        self, capsys, budget
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(["exact", "--budget", budget])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert errors == [
            f"wdm-repro exact: error: argument --budget: must be >= 1, "
            f"got {budget}"
        ]

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--model", "MSW"],
             "the gap only exists for the MSDW and MAW models; pass "
             "--model MSDW or --model MAW"),
            (["--k", "1"],
             "the demonstration needs --k >= 2 and --r > --n, got --k 1, "
             "--n 2, --r 3"),
            (["--n", "3", "--r", "3"],
             "the demonstration needs --k >= 2 and --r > --n, got --k 2, "
             "--n 3, --r 3"),
        ],
        ids=["model-msw", "k-1", "r-not-above-n"],
    )
    def test_gap_refuses_sizes_it_cannot_use(self, flags, expected):
        with pytest.raises(SystemExit) as excinfo:
            main(["gap", *flags])
        assert str(excinfo.value) == f"wdm-repro: error: {expected}"

    @pytest.mark.parametrize(
        "command, contents, expected",
        [
            ("blocking", None, "No such file or directory"),
            ("blocking", '{"kind": "setup", "id": 0}\n',
             "t.jsonl:1: malformed setup record"),
            ("blocking", "", "t.jsonl: the trace has no events"),
            ("sweep", None, "No such file or directory"),
        ],
        ids=["blocking-missing", "blocking-malformed", "blocking-empty",
             "sweep-missing"],
    )
    def test_unusable_trace_rejected_in_one_line(
        self, tmp_path, command, contents, expected
    ):
        target = tmp_path / "t.jsonl"
        if contents is not None:
            target.write_text(contents)
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--workload", "trace",
                  "--workload-param", f"path={target}"])
        message = str(excinfo.value)
        assert message.startswith("wdm-repro: error:")
        assert "\n" not in message
        assert expected in message
        assert str(target) in message

    @pytest.mark.parametrize("kernel", ["bitmask", "batched"])
    @pytest.mark.parametrize(
        "recorded, flags, expected",
        [
            ((2, 2, 20), ["--workload-param", "steps=500"],
             "has 20 events, but 500 were requested"),
            ((3, 3, 40), [], "outside the fabric (N=4, k=1)"),
        ],
        ids=["too-few-events", "recorded-on-a-larger-fabric"],
    )
    def test_trace_that_does_not_fit_rejected_in_one_line(
        self, tmp_path, kernel, recorded, flags, expected
    ):
        n, r, steps = recorded
        target = tmp_path / "t.jsonl"
        generate_trace(
            api.make_workload("uniform", steps=steps), str(target),
            MulticastModel.MSW, n * r, 1, seed=0,
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["blocking", "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--kernel", kernel, "--workload", "trace",
                  "--workload-param", f"path={target}", *flags])
        message = str(excinfo.value)
        assert message.startswith(f"wdm-repro: error: trace {target} ")
        assert "\n" not in message
        assert expected in message

    @pytest.mark.parametrize(
        "recorded, flags, expected",
        [
            ((2, 2, 1, 20), ["--n", "2", "--r", "2", "--steps", "500"],
             "has 20 events, but 500 were requested"),
            ((3, 3, 3, 40), ["--n", "2", "--r", "2", "--k", "1",
                             "--steps", "40"],
             "outside the fabric (N=4, k=1)"),
        ],
        ids=["too-few-events", "recorded-on-a-larger-fabric"],
    )
    def test_trace_gen_source_that_does_not_fit_rejected_in_one_line(
        self, tmp_path, recorded, flags, expected
    ):
        """``trace-gen --workload trace`` walks its source at its own
        ``--steps`` and ``--max-fanout`` and writes no output file."""
        n, r, k, steps = recorded
        source = tmp_path / "source.jsonl"
        out = tmp_path / "out.jsonl"
        generate_trace(
            api.make_workload("uniform", steps=steps), str(source),
            MulticastModel.MSW, n * r, k, seed=0,
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["trace-gen", "--out", str(out), "--workload", "trace",
                  "--workload-param", f"path={source}", *flags])
        message = str(excinfo.value)
        assert message.startswith(f"wdm-repro: error: trace {source} ")
        assert "\n" not in message
        assert expected in message
        assert not out.exists()

    def test_trace_gen_flags_set_the_recorded_config(self, tmp_path):
        out = tmp_path / "t.jsonl"
        main(["trace-gen", "--out", str(out), "--n", "3", "--r", "3",
              "--k", "1", "--steps", "30", "--max-fanout", "1",
              "--workload", "hotspot"])
        events = load_trace(str(out))
        assert len(events) == 30
        assert all(
            len(event.connection.destinations) == 1 for event in events
        )

    @pytest.mark.parametrize(
        "argv, key, flag, value",
        [
            (["trace-gen", "--out", "OUT", "--steps", "30"],
             "steps", "--steps", "5"),
            (["trace-gen", "--out", "OUT"],
             "max_fanout", "--max-fanout", "1"),
            (["sweep", "--m-max", "2"], "steps", "--steps", "5"),
        ],
        ids=["trace-gen-steps", "trace-gen-max-fanout", "sweep-steps"],
    )
    def test_workload_param_shadowing_a_flag_rejected_in_one_line(
        self, tmp_path, argv, key, flag, value
    ):
        out = tmp_path / "t.jsonl"
        argv = [str(out) if arg == "OUT" else arg for arg in argv]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--workload", "hotspot",
                  "--workload-param", f"{key}={value}"])
        assert str(excinfo.value) == (
            f"wdm-repro: error: {key} is set by {flag}; drop "
            f"--workload-param {key}={value}"
        )
        assert not out.exists()

    def test_trace_gen_unwritable_out_rejected_in_one_line(self, tmp_path):
        out = tmp_path / "missing" / "t.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main(["trace-gen", "--out", str(out), "--steps", "20"])
        message = str(excinfo.value)
        assert message == (
            f"wdm-repro: error: cannot write {out}: No such file or directory"
        )
        assert not out.parent.exists()

    def test_trace_gen_rerecords_a_trace_onto_its_own_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        generate_trace(
            api.make_workload("hotspot", steps=60), str(path),
            MulticastModel.MSW, 9, 2, seed=4,
        )
        recorded = load_trace(str(path))
        main(["trace-gen", "--out", str(path), "--n", "3", "--r", "3",
              "--k", "2", "--steps", "60", "--workload", "trace",
              "--workload-param", f"path={path}"])
        assert load_trace(str(path)) == recorded

    @pytest.mark.parametrize(
        "argv, legal",
        [
            (["blocking", "--n", "3", "--r", "3", "--x", "5"], "[1, 2]"),
            (["sweep", "--n", "3", "--r", "3", "--x", "0"], "[1, 2]"),
            (["trace", "blocking", "--n", "3", "--r", "3", "--x", "5"],
             "[1, 2]"),
            (["exact", "--n", "3", "--r", "3", "--x", "5"], "[1, 2]"),
            (["load", "--n", "3", "--r", "3", "--x", "5"], "[1, 2]"),
        ],
        ids=["blocking", "sweep", "trace", "exact", "load"],
    )
    def test_illegal_x_rejected_in_one_line(self, argv, legal):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert str(excinfo.value) == (
            f"wdm-repro: error: --x {argv[-1]} is outside the legal range "
            f"{legal} for n=3, r=3"
        )

    @pytest.mark.parametrize(
        "loads, expected",
        [
            ("0", "each load must be a finite number > 0, got '0'"),
            ("1,-2", "each load must be a finite number > 0, got '-2'"),
            ("nan", "each load must be a finite number > 0, got 'nan'"),
            ("1,abc", "loads are comma-separated numbers, got 'abc'"),
        ],
        ids=["zero", "negative", "nan", "not-a-number"],
    )
    def test_bad_loads_rejected_at_parse_time(self, capsys, loads, expected):
        with pytest.raises(SystemExit) as excinfo:
            main(["load", "--loads", loads])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if "error" in line]
        assert errors == [f"wdm-repro load: error: argument --loads: {expected}"]

    @pytest.mark.parametrize(
        "flags, expected",
        [
            (["--ci-halfwidth", "0"], "half_width must be > 0, got 0.0"),
            (["--ci-halfwidth", "nan"], "half_width must be > 0, got nan"),
            (["--ci-level", "1.5"], "level must be in (0, 1), got 1.5"),
            (["--min-rounds", "0"], "min_rounds must be >= 1, got 0"),
            (["--min-rounds", "3", "--max-rounds", "2"],
             "max_rounds (2) must be >= min_rounds (3)"),
        ],
        ids=["ci-halfwidth", "ci-halfwidth-nan", "ci-level", "min-rounds",
             "max-rounds"],
    )
    def test_bad_precision_target_rejected_in_one_line(self, flags, expected):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", *flags])
        assert str(excinfo.value) == f"wdm-repro: error: {expected}"

    def test_trace_gen_round_trips_through_blocking(self, capsys, tmp_path):
        target = tmp_path / "burst.jsonl"
        out = run_cli(
            capsys, "trace-gen", "--out", str(target), "--workload",
            "hotspot", "--workload-param", "zipf_s=1.5",
            "--n", "2", "--r", "2", "--k", "1", "--steps", "200",
        )
        assert "trace written" in out and target.exists()
        replay = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "1",
            "--m-max", "2", "--workload", "trace",
            "--workload-param", f"path={target}",
        )
        assert "trace traffic" in replay

    def test_unknown_workload_rejected_listing_models(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["blocking", "--workload", "bogus"])
        message = capsys.readouterr().err
        assert "unknown workload 'bogus'" in message
        for name in ("uniform", "hotspot", "heavytail_fanout",
                     "poisson_erlang", "trace"):
            assert name in message

    def test_unknown_workload_param_rejected_listing_fields(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["blocking", "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--workload", "hotspot",
                  "--workload-param", "gamma=3"])
        assert "no parameter 'gamma'" in str(excinfo.value)
        assert "zipf_s" in str(excinfo.value)

    def test_malformed_workload_param_rejected(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["blocking", "--workload-param", "zipf_s"])
        assert "key=value" in capsys.readouterr().err

    def test_adaptive_sweep_over_trace_rejected_cleanly(self, tmp_path):
        target = tmp_path / "fixed.jsonl"
        generate_trace(
            api.make_workload("uniform", steps=40), str(target),
            MulticastModel.MSW, 4, 1, seed=0,
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--ci-halfwidth", "0.05",
                  "--workload", "trace",
                  "--workload-param", f"path={target}"])
        message = str(excinfo.value)
        assert message.startswith("wdm-repro: error:")
        assert "40 events" in message

    def test_adversarial_sweep_rejected_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(
            api, "sweep",
            lambda *a, **k: pytest.fail("a cell ran before the refusal"),
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--workload-param", "adversarial=true"])
        message = str(excinfo.value)
        assert message.startswith(
            "wdm-repro: error: workload 'uniform' has no parameter "
            "'adversarial'"
        )
        assert "\n" not in message

    @pytest.mark.parametrize("command, param", [
        ("blocking", "adversarial=true"),
        ("blocking", "adversary_seeds=3"),
        ("sweep", "adversary_seeds=3"),
    ])
    def test_adversary_is_no_workload_parameter(
        self, monkeypatch, command, param
    ):
        """The adversary is a search, not traffic: no workload takes
        its settings, on either command, for any traffic model."""
        monkeypatch.setattr(
            api, "sweep",
            lambda *a, **k: pytest.fail("a cell ran before the refusal"),
        )
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--workload", "hotspot",
                  "--workload-param", param])
        message = str(excinfo.value)
        key = param.split("=")[0]
        assert message.startswith(
            f"wdm-repro: error: workload 'hotspot' has no parameter '{key}'"
        )
        assert "\n" not in message


class TestFabricCommands:
    def test_fabrics_matrix_lists_registry(self, capsys):
        out = run_cli(capsys, "fabrics")
        assert "Fabric models" in out
        rows = [
            line.split()[0] for line in out.splitlines()
            if line.split()[:1] in (["clos"], ["crossbar"])
        ]
        assert rows == ["clos", "crossbar"]
        assert "constructions" not in out
        assert "n/a (no replay)" in out
        assert "--fabric NAME" in out

    def test_blocking_crossbar_blocks_nothing(self, capsys):
        out = run_cli(
            capsys, "blocking", "--n", "2", "--r", "2", "--k", "2",
            "--m-max", "3", "--fabric", "crossbar",
        )
        assert "crossbar fabric" in out
        for line in out.splitlines():
            cells = line.split()
            if cells and cells[0] in {"1", "2", "3"}:
                assert cells[2] == "0"

    def test_sweep_accepts_fabric(self, capsys):
        out = run_cli(
            capsys, "sweep", "--n", "2", "--r", "2", "--k", "2",
            "--m-max", "2", "--steps", "150", "--max-rounds", "2",
            "--fabric", "crossbar",
        )
        assert "crossbar fabric" in out

    def test_unknown_fabric_rejected_listing_registry(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["blocking", "--fabric", "bogus"])
        message = capsys.readouterr().err
        assert "unknown fabric 'bogus'; choose from: clos, crossbar\n" in message

    def test_deleted_awg_clos_fabric_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["blocking", "--n", "2", "--r", "2", "--k", "2",
                  "--m-max", "2", "--fabric", "awg_clos"])
        assert excinfo.value.code == 2
        message = capsys.readouterr().err
        assert message.startswith("usage: wdm-repro blocking")
        assert message.endswith(
            "error: argument --fabric: unknown fabric 'awg_clos'; "
            "choose from: clos, crossbar\n"
        )

    @staticmethod
    def adversarial_refusal(monkeypatch, *flags):
        """The one error line of ``blocking --adversarial`` with ``flags``."""
        monkeypatch.setattr(
            api, "sweep",
            lambda *a, **k: pytest.fail("a cell ran before the refusal"),
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["blocking", "--n", "2", "--r", "2", "--k", "1",
                  "--m-max", "2", "--adversarial", *flags])
        message = str(excinfo.value)
        assert message.startswith("wdm-repro: error: adversarial probing")
        assert "\n" not in message
        return message

    def test_adversarial_non_clos_rejected(self, monkeypatch):
        message = self.adversarial_refusal(
            monkeypatch, "--fabric", "crossbar"
        )
        assert "for the Clos fabric only" in message
        assert message.endswith("got fabric 'crossbar'")

    ADVERSARIAL = ("blocking", "--n", "3", "--r", "3", "--k", "1",
                   "--m-max", "4", "--workload-param", "steps=60",
                   "--workload-param", "seeds=0")

    @staticmethod
    def rows(out):
        """The table's ``m`` rows, split into cells."""
        return [
            line.split(maxsplit=5) for line in out.splitlines()
            if line[:1].isdigit()
        ]

    def test_adversarial_witness_column_leaves_the_estimates(self, capsys):
        """``--adversarial`` adds a witness column and changes no count:
        random traffic blocks nothing at m = 3 or 4, the adversary finds
        a blocking state at m = 3 and none in its 20 restarts at m = 4."""
        plain = run_cli(capsys, *self.ADVERSARIAL)
        adversarial = run_cli(capsys, *self.ADVERSARIAL, "--adversarial")
        rows = self.rows(adversarial)
        assert [row[:5] for row in rows] == self.rows(plain)
        assert [row[5] for row in rows] == [
            "traffic", "traffic", "adversary", "none in 20",
        ]
        assert rows[2][:3] == ["3", "30", "0"]
        footer = adversarial.splitlines()[-1]
        assert footer.startswith("witness: 'none in 20' is no proof")
        assert footer.endswith(
            "wdm-repro exact --n 3 --r 3 --k 1 --x 1 --model MSW "
            "--construction MSW-dominant"
        )

    def test_adversarial_runs_beside_any_workload(self, capsys):
        """A witness does not depend on the traffic, so skewed traffic
        gets the same search and keeps its own estimates."""
        argv = [*self.ADVERSARIAL, "--workload", "hotspot"]
        plain = run_cli(capsys, *argv)
        adversarial = run_cli(capsys, *argv, "--adversarial")
        assert "hotspot traffic" in adversarial
        assert [row[:5] for row in self.rows(adversarial)] == self.rows(plain)
