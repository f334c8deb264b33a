import math
import os
import subprocess
import sys

import numpy as np
import pytest

import pearsonlab as pl
from pearsonlab.cli import HEADERS, SCHEMA_LINE, canonical_potential, main


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == SCHEMA_LINE
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


class TestClockCommand:
    def test_free_clock_rows(self, tmp_path):
        out = tmp_path / "clock.csv"
        code = main([
            "clock", "--out", str(out), "--l-grid", "100",
            "--xi-star", "1.0", "--depth", "2",
        ])
        assert code == 0
        header, rows = read_csv(str(out))
        assert header == HEADERS["clock"]
        assert len(rows) == 4  # depth 2: spacings for n = -2..1
        for row in rows:
            j = 32 + int(row[2])
            expected = (2 * j + 1) * math.pi / 200.0
            assert float(row[4]) == pytest.approx(expected, rel=1e-9)
            assert row[6] == "ok"

    def test_unconverged_polish_gives_error_row(self, tmp_path, monkeypatch):
        from pearsonlab import spectrum

        monkeypatch.setattr(spectrum, "ROOT_REL_TOL", 0.0)
        out = tmp_path / "clock.csv"
        cfg = tmp_path / "c.cfg"
        cfg.write_text("amplitude_values = 0.5\ncenter_values = 10\n")
        code = main(["clock", "--config", str(cfg), "--out", str(out), "--l-grid", "50",
                     "--depth", "1"])
        assert code == 1
        _, rows = read_csv(str(out))
        assert len(rows) == 1
        assert rows[0][6].startswith("error: eigenvalue polish did not converge")

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "kind = clock\n"
            "l_grid = 50\n"
            "xi_star = 1.0\n"
            "depth = 1\n"
            f"out = {tmp_path / 'a.csv'}\n"
        )
        # flag overrides the config depth
        code = main(["clock", "--config", str(cfg), "--depth", "2",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 0
        _, rows = read_csv(str(tmp_path / "b.csv"))
        assert len(rows) == 4
        assert not (tmp_path / "a.csv").exists()


class TestVerifyCommand:
    def test_one_bump_probe_row(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main([
            "verify", "--probe", "one_bump", "--probe-lambda", "1e-3",
            "--probe-xi", "1.0", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(str(out))
        assert header == HEADERS["verify"]
        assert len(rows) == 1
        assert rows[0][0] == "one_bump_linearity"
        assert rows[0][4] == "pass"

    def test_probe_suite_runs_in_parallel_and_merges(self, tmp_path):
        cfg = tmp_path / "pot.cfg"
        cfg.write_text(
            "amplitude_rule = list\namplitude_values = 0.5, 0.01\n"
            "center_rule = list\ncenter_values = 10, 100\n"
        )
        out = tmp_path / "suite.csv"
        code = main([
            "verify", "--config", str(cfg), "--probe", "suite",
            "--probe-lambda", "1e-3", "--probe-ell", "1",
            "--workers", "2", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(str(out))
        ids = [r[0] for r in rows]
        assert ids == [
            "one_bump_linearity", "transfer_bound", "kappa_schedule",
            "truncation_step",
        ]


class TestConfigRejection:
    def test_empty_xi_grid_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("xi_grid =\n")
        out = tmp_path / "x.csv"
        code = main(["kernel", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_unknown_key_rejected_with_location(self, tmp_path, capsys):
        # potential is a field of the config but not a key
        for key, value in (("wobble", "3"), ("potential", "x")):
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"kind = clock\n{key} = {value}\n")
            code = main(["clock", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
            assert code == 2
            err = capsys.readouterr().err
            assert f"unknown config key '{key}'" in err

    def test_malformed_line_reports_line_number(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("kind = clock\nthis is not a pair\n")
        code = main(["clock", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_bad_potential_list_entry_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("amplitude_values = 1, x\ncenter_values = 10, 100\n")
        code = main(["clock", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "key 'amplitude_values'" in capsys.readouterr().err

    def test_bad_grid_entry_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("l_grid = 100, x\n")
        code = main(["clock", "--config", str(cfg), "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "key 'l_grid'" in capsys.readouterr().err

    def test_three_endpoint_interval_rejected(self, tmp_path, capsys):
        code = main(["dos", "--interval", "1,2,3", "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: interval must be two endpoints 0 < lo < hi < inf (got 1.0 to 2.0 to 3.0)\n")

    def test_reversed_hatn_window_rejected(self, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main(["hatn", "--window", "2,1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: interval must be two endpoints 0 < lo <= hi < inf (got 2.0 to 1.0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind, flag", [("dos", "--interval"), ("hatn", "--window")])
    @pytest.mark.parametrize("ends", ["0.5,inf", "nan,2", "1,nan"])
    def test_non_finite_interval_rejected(self, kind, flag, ends, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main([kind, flag, ends, "--out", str(out)])
        assert code == 2
        order = "<=" if kind == "hatn" else "<"
        got = {"0.5,inf": "0.5 to inf", "nan,2": "nan to 2.0", "1,nan": "1.0 to nan"}[ends]
        assert capsys.readouterr().err == (
            f"config error: interval must be two endpoints 0 < lo {order} hi < inf (got {got})\n")
        assert not out.exists()

    @pytest.mark.parametrize("ell", ["-5", "-1"])
    def test_negative_probe_ell_rejected(self, ell, tmp_path, capsys):
        cfg = tmp_path / "two.cfg"
        cfg.write_text("amplitude_values = 0.5, 0.25\ncenter_values = 10, 100\n")
        out = tmp_path / "v.csv"
        code = main(["verify", "--config", str(cfg), "--probe", "truncation_step",
                     "--probe-ell", ell, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: probe_ell must be an integer of at least 0 (got {ell})\n")
        assert not out.exists()

    @pytest.mark.parametrize("probe", ["kappa_schedule", "transfer_bound", "suite"])
    @pytest.mark.parametrize("m", ["0", "-1"])
    def test_probe_m_below_one_rejected(self, probe, m, tmp_path, capsys):
        out = tmp_path / "v.csv"
        code = main(["verify", "--probe", probe, "--probe-m", m, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: probe_m must be an integer of at least 1 (got {m})\n")
        assert not out.exists()

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_probe_count_below_one_rejected(self, count, tmp_path, capsys):
        # used to run and fail with the row "need at least one schedule entry"
        out = tmp_path / "v.csv"
        code = main(["verify", "--probe", "kappa_schedule", "--probe-count", count,
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: probe_count must be an integer of at least 1 (got {count})\n")
        assert not out.exists()

    def test_negative_hatn_ell_rejected(self, tmp_path, capsys):
        # the error row would name the truncation range, whose comma no CSV field may hold
        out = tmp_path / "h.csv"
        code = main(["hatn", "--ell", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: ell must be an integer of at least 0 (got -1)\n")
        assert not out.exists()

    @pytest.mark.parametrize("bound", ["inf", "nan", "-1"])
    def test_bad_ab_bound_rejected(self, bound, tmp_path, capsys):
        out = tmp_path / "h.csv"
        code = main(["hatn", f"--ab-bound={bound}", "--out", str(out)])
        assert code == 2
        got = {"inf": "inf", "nan": "nan", "-1": "-1.0"}[bound]
        assert capsys.readouterr().err == (
            f"config error: ab_bound must be zero or positive and finite (got {got})\n")
        assert not out.exists()

    @pytest.mark.parametrize("keys, message", [
        ("center_gamma = inf\ncount = 3", "gamma must be finite and exceed 1 (got inf)"),
        ("center_gamma = nan\ncount = 3", "gamma must be finite and exceed 1 (got nan)"),
        ("count = 400", "center 309 of the schedule is not finite"),
        ("count = -2", "count must be an integer of at least 0 (got -2)"),
    ])
    def test_bad_geometric_schedule_rejected(self, keys, message, tmp_path, capsys):
        cfg = tmp_path / "geo.cfg"
        cfg.write_text(f"amplitude_rule = power\ncenter_rule = geometric\n{keys}\n")
        out = tmp_path / "c.csv"
        code = main(["clock", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_list_count_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "list.cfg"
        cfg.write_text("amplitude_values = 0.5, 0.25\ncenter_values = 10, 100\ncount = 5\n")
        out = tmp_path / "k.csv"
        code = main(["kernel", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: count 5 differs from the 2 amplitude_values\n")
        assert not out.exists()

    def test_decreasing_l_grid_rejected(self, tmp_path):
        code = main([
            "clock", "--l-grid", "100,50", "--out", str(tmp_path / "x.csv"),
        ])
        assert code == 2

    @pytest.mark.parametrize("argv, key, got", [
        (["kernel", "--xi-grid", "nan"], "xi_grid", "nan"),
        (["kernel", "--l-grid", "inf"], "l_grid", "inf"),
        (["clock", "--l-grid", "nan"], "l_grid", "nan"),
        (["dos", "--l-grid", "100,nan"], "l_grid", "nan"),
    ], ids=["kernel-xi-nan", "kernel-l-inf", "clock-l-nan", "dos-l-nan"])
    def test_non_finite_grid_entry_rejected(self, argv, key, got, tmp_path, capsys):
        # these used to run and fail every row (exit 1); a NaN never reaches the order check
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {key} must be positive and finite (got {got})\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, call", [
        (["clock", "--depth", "0"], lambda V: pl.clock_statistics(V, 100.0, 1.0, 0)),
        (["dos", "--bins", "0"], lambda V: pl.density_of_states(V, 100.0, (1.0, 4.0), 0)),
    ], ids=["clock-depth", "dos-bins"])
    def test_key_rejected_in_the_library_words(self, argv, call, tmp_path, capsys):
        with pytest.raises(ValueError) as info:
            call(pl.zero_potential())
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {info.value}\n"
        assert not out.exists()


class TestRunFromPython:
    def test_bad_spec_rejected_in_its_own_words(self, tmp_path):
        from pearsonlab.cli import ConfigError, ExperimentConfig, run

        spec = pl.PotentialSpec(amplitude_rule="power", center_rule="geometric", count=-2)
        out = tmp_path / "c.csv"
        with pytest.raises(ConfigError) as info:
            run(ExperimentConfig("clock", spec, out=str(out)))
        assert str(info.value) == "count must be an integer of at least 0 (got -2)"
        assert not out.exists()

    def test_run_builds_the_potential_once(self, tmp_path, monkeypatch):
        from pearsonlab.cli import ExperimentConfig, run

        calls = []
        build = pl.PotentialSpec.build
        monkeypatch.setattr(pl.PotentialSpec, "build", lambda spec: calls.append(1) or build(spec))
        cfg = ExperimentConfig("clock", l_grid=(50.0,), depth=1, out=str(tmp_path / "c.csv"))
        assert run(cfg) == 0
        assert len(calls) == 1


class TestSchema:
    # the flags of the parser before it was built from the config fields:
    # every flag is a public contract
    FLAGS = {
        "kernel": [("--xi-grid", "xi_grid"), ("--l-grid", "l_grid"), ("--a-grid", "a_grid"),
                   ("--b-grid", "b_grid")],
        "clock": [("--l-grid", "l_grid"), ("--xi-star", "xi_star"), ("--depth", "depth")],
        "dos": [("--l-grid", "l_grid"), ("--interval", "interval"), ("--bins", "bins")],
        "verify": [("--probe", "probe"), ("--probe-lambda", "probe_lambda"),
                   ("--probe-xi", "probe_xi"), ("--probe-m", "probe_m"),
                   ("--probe-ell", "probe_ell"), ("--probe-count", "probe_count")],
        "hatn": [("--ell", "ell"), ("--tolerance", "tolerance"), ("--window", "interval"),
                 ("--ab-bound", "ab_bound")],
    }
    COMMON = [("--config", "config"), ("--out", "out"), ("--workers", "workers"),
              ("--steps-per-bump", "steps_per_bump"), ("--seedless", "seedless")]
    REPRODUCE = [("--outdir", "outdir"), ("--workers", "workers"), ("--l-grid", "l_grid"),
                 ("--steps-per-bump", "steps_per_bump"), ("--seedless", "seedless")]

    # one value per config key, as text and as read
    KEYS = {
        "xi_grid": ("0.5, 2", (0.5, 2.0)),
        "l_grid": ("50, 100", (50.0, 100.0)),
        "a_grid": ("-1, 1", (-1.0, 1.0)),
        "b_grid": ("0.25", (0.25,)),
        "xi_star": ("1.5", 1.5),
        "depth": ("4", 4),
        "interval": ("0.5, 3", (0.5, 3.0)),
        "bins": ("7", 7),
        "ell": ("1", 1),
        "tolerance": ("0.125", 0.125),
        "ab_bound": ("1", 1.0),
        "probe": ("suite", "suite"),
        "probe_lambda": ("1e-4", 1e-4),
        "probe_xi": ("2", 2.0),
        "probe_m": ("3", 3),
        "probe_ell": ("1", 1),
        "probe_count": ("8", 8),
        "out": ("o.csv", "o.csv"),
        "workers": ("2", 2),
        "steps_per_bump": ("64", 64),
    }

    def test_flags_of_every_subcommand(self):
        import argparse

        from pearsonlab.cli import build_parser

        sub = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        want = {kind: self.COMMON + flags for kind, flags in self.FLAGS.items()}
        want["reproduce"] = self.REPRODUCE
        got = {
            kind: [(a.option_strings[0], a.dest) for a in p._actions if a.dest != "help"]
            for kind, p in sub.choices.items()
        }
        assert got == want

    # one command line per subcommand, every flag given
    ARGV = {
        "kernel": ["kernel", "--xi-grid", "1,2", "--l-grid", "50", "--a-grid=-1,1",
                   "--b-grid", "0", "--out", "k.csv", "--workers", "2", "--seedless"],
        "clock": ["clock", "--config", "c.cfg", "--l-grid", "50", "--xi-star", "1.5",
                  "--depth", "2", "--steps-per-bump", "64"],
        "dos": ["dos", "--l-grid", "50,100", "--interval", "1,4", "--bins", "3"],
        "verify": ["verify", "--probe", "suite", "--probe-lambda", "1e-4", "--probe-xi", "2",
                   "--probe-m", "3", "--probe-ell", "1", "--probe-count", "8"],
        "hatn": ["hatn", "--ell", "1", "--tolerance", "0.5", "--window", "0.5,2",
                 "--ab-bound", "1"],
        "reproduce": ["reproduce", "--outdir", "o", "--workers", "2", "--l-grid", "100",
                      "--steps-per-bump", "64", "--seedless"],
    }

    @pytest.mark.parametrize("kind", sorted(ARGV))
    def test_parser_of_one_command_reads_as_the_full_parser(self, kind):
        from pearsonlab.cli import build_parser

        argv = self.ARGV[kind]
        assert build_parser(kind).parse_args(argv) == build_parser().parse_args(argv)
        assert build_parser(kind).parse_args([kind]) == build_parser().parse_args([kind])

    def test_run_builds_flags_of_its_command_only(self, tmp_path, monkeypatch):
        import argparse

        from pearsonlab import cli

        flags = {}
        add = argparse.ArgumentParser.add_argument

        def counted(parser, *args, **kwargs):
            if args[:1] != ("-h",):
                flags[parser.prog] = flags.get(parser.prog, 0) + 1
            return add(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        out = tmp_path / "k.csv"
        assert cli.main(["kernel", "--l-grid", "50", "--out", str(out)]) == 0
        assert flags == {"pearsonlab kernel": len(self.COMMON) + len(self.FLAGS["kernel"])}

    def test_help_lists_every_subcommand(self, capsys):
        from pearsonlab import cli

        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        assert "{kernel,clock,dos,verify,hatn,reproduce}" in text
        for kind, (help_text, _) in cli.FLAGS.items():
            assert kind in text and help_text in text

    def test_every_config_field_is_a_key_of_its_type(self, tmp_path, monkeypatch):
        from dataclasses import fields

        from pearsonlab import cli

        names = {f.name for f in fields(cli.ExperimentConfig)} - {"kind", "potential"}
        assert names == set(self.KEYS)
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {text}\n" for key, (text, _) in self.KEYS.items()))
        seen = []
        monkeypatch.setattr(cli, "run", lambda c: seen.append(c) or 0)
        assert main(["verify", "--config", str(cfg)]) == 0
        for key, (_, want) in self.KEYS.items():
            value = getattr(seen[0], key)
            assert value == want and type(value) is type(want), key


class TestFieldFormat:
    @pytest.mark.parametrize("value, text", [
        (0.1, "0.10000000000000001"),
        (2.0, "2"),
        (-1e-300, "-1e-300"),
        (float("nan"), "nan"),
        (np.float64(0.1), "0.10000000000000001"),
        (7, "7"),
        (np.int64(-3), "-3"),
        (True, "1"),
        (False, "0"),
        ("error: bad xi", "error: bad xi"),
    ])
    def test_field_text(self, value, text, tmp_path):
        from pearsonlab.cli import write_csv

        out = tmp_path / "field.csv"
        write_csv(str(out), ["h"], [[value]])
        assert out.read_bytes() == f"{SCHEMA_LINE}\nh\n{text}\n".encode()

    @pytest.mark.parametrize("text", ["a,b", "a\nb"])
    def test_separators_rejected(self, text, tmp_path):
        from pearsonlab.cli import write_csv

        out = tmp_path / "field.csv"
        with pytest.raises(ValueError, match="must not contain commas or newlines"):
            write_csv(str(out), ["h"], [[text]])
        assert not out.exists()

    # every field type a task row can hold, and some that it cannot
    ROWS = [
        [0.1, np.float64(-1e-300), np.float32(0.1), -0.0, math.nan, math.inf, -math.inf],
        [1e-300, 7, np.int64(-3), True, False, np.bool_(True), "", "error: bad xi"],
        [0.1, np.float64(-1e-300), np.float32(0.1), -0.0, math.nan, math.inf, -math.inf],
        [np.float64(2.0), 2.0, 2, np.int32(2), np.uint64(2**64 - 1), "ok"],
        ["kernel_ratio", 0.5, -2, "", "", "error: shifted arguments must stay in the right"],
        [],
        [3.5],
        (None, 1 + 2j, "50%", "%s %d"),
    ]

    # each row's line, field by field: floats as %.17g, integers and bools as
    # %d, everything else as str
    LINES = [
        "0.10000000000000001,-1e-300,0.10000000149011612,-0,nan,inf,-inf",
        "1e-300,7,-3,1,0,True,,error: bad xi",
        "0.10000000000000001,-1e-300,0.10000000149011612,-0,nan,inf,-inf",
        "2,2,2,2,18446744073709551615,ok",
        "kernel_ratio,0.5,-2,,,error: shifted arguments must stay in the right",
        "",
        "3.5",
        "None,(1+2j),50%,%s %d",
    ]

    def test_rows_equal_field_by_field_text(self, tmp_path):
        from pearsonlab.cli import write_csv

        out = tmp_path / "rows.csv"
        write_csv(str(out), ["h1", "h2"], self.ROWS)
        lines = [SCHEMA_LINE, "h1,h2"] + self.LINES
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("text", ["a,b", "a\nb", "a\n"])
    def test_row_with_a_separator_rejected(self, text, tmp_path):
        from pearsonlab.cli import write_csv

        out = tmp_path / "bad.csv"
        rows = [[1.0, "ok"], [2.0, text], [3.0, "ok"]]
        with pytest.raises(ValueError, match="must not contain commas or newlines"):
            write_csv(str(out), ["x", "status"], rows)
        assert list(tmp_path.iterdir()) == []


class TestErrorRows:
    # a failing task's row keeps its key columns and pads the rest, as the
    # per-kind handlers wrote it before one handler served every task
    STEPS = "error: bump integration requires at least 16 steps"
    CASES = {
        "kernel": (["--xi-grid", "1", "--l-grid", "50"],
                   ["kernel_ratio", "1", "0", "0", "50", "", "", "", "", STEPS]),
        "clock": (["--l-grid", "50", "--depth", "1"], ["50", "1", "", "", "", "", STEPS]),
        "dos": (["--l-grid", "50"], ["50", "", "", "", "", "", "", STEPS]),
        "verify": (["--probe", "truncation_step", "--probe-ell", "5"],
                   ["truncation_step", "", "", "", "",
                    "error: the truncation probe needs bump ell + 1 to exist"]),
        "hatn": (["--ell", "1"], ["1", "0.050000000000000003", "1", "4", "2", "", STEPS]),
    }

    @pytest.mark.parametrize("kind", sorted(CASES))
    def test_failing_task_row(self, kind, tmp_path):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("amplitude_values = 0.5\ncenter_values = 10\n")
        args, want = self.CASES[kind]
        out = tmp_path / "e.csv"
        code = main([kind, "--config", str(cfg), "--steps-per-bump", "0", *args,
                     "--out", str(out)])
        assert code == 1
        assert read_csv(str(out))[1] == [want]


class TestKernelGridErrors:
    def test_left_half_plane_pairs_get_error_rows(self, tmp_path):
        # xi + a/L = 0.5 - 30/50 < 0: only the a = -30 pairs fail, with the
        # per-pair message; the other rows are those of a grid without it
        cfg = tmp_path / "one.cfg"
        cfg.write_text("amplitude_values = 0.5\ncenter_values = 10\n")
        base = ["kernel", "--config", str(cfg), "--xi-grid", "0.5", "--l-grid", "50",
                "--b-grid=-1,0"]
        mixed, clean = tmp_path / "mixed.csv", tmp_path / "clean.csv"
        assert main(base + ["--a-grid=-30,0,1", "--out", str(mixed)]) == 1
        assert main(base + ["--a-grid=0,1", "--out", str(clean)]) == 0
        message = "error: shifted arguments must stay in the right half-plane"
        rows = read_csv(str(mixed))[1]
        assert rows[:2] == [
            ["kernel_ratio", "0.5", "-30", "-1", "50", "", "", "", "", message],
            ["kernel_ratio", "0.5", "-30", "0", "50", "", "", "", "", message],
        ]
        assert rows[2:] == read_csv(str(clean))[1]


class TestDeterminism:
    def test_identical_configs_byte_identical(self, tmp_path):
        args = ["kernel", "--xi-grid", "1.0", "--l-grid", "50",
                "--a-grid=-1,0,1", "--b-grid=-1,0,1"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg_lines = (
            "amplitude_rule = list\namplitude_values = 0.5, 0.25\n"
            "center_rule = list\ncenter_values = 10, 100\n"
        )
        cfg = tmp_path / "pot.cfg"
        cfg.write_text(cfg_lines)
        args = ["kernel", "--config", str(cfg), "--xi-grid", "0.5,1.0",
                "--l-grid", "50,100", "--a-grid", "0,1", "--b-grid", "0,1"]
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(args + ["--workers", "1", "--out", str(a)]) == 0
        assert main(args + ["--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestDosCommand:
    def test_free_dos_rows(self, tmp_path):
        out = tmp_path / "dos.csv"
        code = main([
            "dos", "--l-grid", "500", "--interval", "1,4", "--bins", "6",
            "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(str(out))
        assert header == HEADERS["dos"]
        assert len(rows) == 6
        total = sum(int(r[3]) for r in rows)
        assert total == pytest.approx(500 * (2 - 1) / math.pi, abs=2)


class TestHatnCommand:
    def test_free_search(self, tmp_path):
        out = tmp_path / "hatn.csv"
        code = main([
            "hatn", "--ell", "0", "--tolerance", "0.5", "--window", "0.5,2",
            "--ab-bound", "2", "--out", str(out),
        ])
        assert code == 0
        header, rows = read_csv(str(out))
        assert header == HEADERS["hatn"]
        assert rows[0][6] == "ok"
        assert float(rows[0][5]) == 8.0

    def test_one_point_window(self, tmp_path):
        # a window of one xi is a valid search, as empirical_hat_N takes lo == hi:
        # 8 on the canonical potential at ell = 1
        out = tmp_path / "hatn.csv"
        cfg = tmp_path / "canonical.cfg"
        cfg.write_text(pl.format_potential_config(canonical_potential()))
        code = main([
            "hatn", "--config", str(cfg), "--ell", "1", "--tolerance", "0.5",
            "--window", "1,1", "--ab-bound", "1", "--out", str(out),
        ])
        assert code == 0
        _, rows = read_csv(str(out))
        assert rows == [["1", "0.5", "1", "1", "1", "8", "ok"]]

    def test_one_point_dos_interval_rejected(self, tmp_path, capsys):
        code = main(["dos", "--interval", "2,2", "--out", str(tmp_path / "d.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: interval must be two endpoints 0 < lo < hi < inf (got 2.0 to 2.0)\n")

    def test_unreachable_tolerance_fails_with_row(self, tmp_path):
        out = tmp_path / "hatn.csv"
        cfg = tmp_path / "h.cfg"
        cfg.write_text("amplitude_rule = list\namplitude_values = 0.5\n"
                       "center_rule = list\ncenter_values = 10\n")
        code = main([
            "hatn", "--config", str(cfg), "--ell", "1", "--tolerance", "1e-9",
            "--window", "0.5,2", "--ab-bound", "1", "--out", str(out),
        ])
        assert code == 1
        _, rows = read_csv(str(out))
        assert rows[0][6].startswith("error")


class TestImport:
    @staticmethod
    def loaded(code):
        """Standard output of code run in a fresh interpreter on this package."""
        import pearsonlab

        src = os.path.dirname(os.path.dirname(pearsonlab.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        return done.stdout.strip()

    def test_package_import_loads_no_scipy(self):
        code = (
            "import sys, pearsonlab, pearsonlab.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert self.loaded(code) == "[]"

    def test_cli_import_loads_no_process_pool(self):
        code = (
            "import sys, pearsonlab.cli\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith(('concurrent.futures', 'multiprocessing'))))"
        )
        assert self.loaded(code) == "[]"

    def test_cli_import_loads_no_numpy_fft(self):
        # the bump jets take their Taylor coefficients from a fixed DFT
        # matrix; numpy.fft would add to start-up time and memory
        code = (
            "import sys, pearsonlab.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy.fft')))"
        )
        assert self.loaded(code) == "[]"


class TestSeedlessFlag:
    def test_flag_accepted_and_ignored(self, tmp_path):
        out = tmp_path / "c.csv"
        code = main(["clock", "--seedless", "--l-grid", "50", "--depth", "1",
                     "--out", str(out)])
        assert code == 0


class TestWorkerEnvVar:
    def test_env_var_sets_default_workers(self, tmp_path, monkeypatch):
        from pearsonlab import cli

        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        seen = {}
        real = cli._execute

        def spy(tasks, workers):
            seen["workers"] = workers
            return real(tasks, 1)

        monkeypatch.setattr(cli, "_execute", spy)
        out = tmp_path / "c.csv"
        assert main(["clock", "--l-grid", "50", "--depth", "1", "--out", str(out)]) == 0
        assert seen["workers"] == 2

    @pytest.mark.parametrize("command", [["clock", "--l-grid", "50", "--depth", "1"],
                                         ["reproduce", "--l-grid", "50"]],
                             ids=["clock", "reproduce"])
    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
    def test_bad_env_var_rejected(self, command, raw, tmp_path, monkeypatch, capsys):
        # these used to be read as one worker without a word
        from pearsonlab import cli

        monkeypatch.setenv(cli.WORKERS_ENV, raw)
        out = tmp_path / "out"
        flag = "--outdir" if command[0] == "reproduce" else "--out"
        assert main([*command, flag, str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: PEARSONLAB_WORKERS must be an integer of at least 1 (got {raw!r})\n")
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["", None])
    def test_unset_or_empty_env_var_means_one_worker(self, raw, tmp_path, monkeypatch):
        from pearsonlab import cli

        if raw is None:
            monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
        else:
            monkeypatch.setenv(cli.WORKERS_ENV, raw)
        seen = {}
        real = cli._execute

        def spy(tasks, workers):
            seen["workers"] = workers
            return real(tasks, 1)

        monkeypatch.setattr(cli, "_execute", spy)
        out = tmp_path / "c.csv"
        assert main(["clock", "--l-grid", "50", "--depth", "1", "--out", str(out)]) == 0
        assert seen["workers"] == 1

    def test_flag_overrides_bad_env_var(self, tmp_path, monkeypatch):
        from pearsonlab import cli

        monkeypatch.setenv(cli.WORKERS_ENV, "abc")
        out = tmp_path / "c.csv"
        assert main(["clock", "--l-grid", "50", "--depth", "1", "--workers", "1",
                     "--out", str(out)]) == 0


class TestReproduce:
    def test_worker_count_does_not_change_bytes(self, tmp_path):
        outs = {}
        for workers in ("1", "2"):
            outdir = tmp_path / f"w{workers}"
            assert main(["reproduce", "--outdir", str(outdir), "--l-grid", "50,100",
                         "--workers", workers]) == 0
            outs[workers] = {name: (outdir / name).read_bytes() for name in os.listdir(outdir)}
        assert len(outs["1"]) == 3 and outs["1"] == outs["2"]

    def test_emits_three_csv_files(self, tmp_path):
        outdir = tmp_path / "repro"
        code = main(["reproduce", "--outdir", str(outdir), "--l-grid", "50,100"])
        assert code == 0
        names = sorted(os.listdir(outdir))
        assert names == [
            "clock_convergence.csv", "dos_comparison.csv", "kernel_convergence.csv",
        ]
        header, rows = read_csv(str(outdir / "kernel_convergence.csv"))
        assert header == ["L", "xi", "sup_abs_error", "status"]
        assert len(rows) == 6  # two lengths, three energies
        header, rows = read_csv(str(outdir / "clock_convergence.csv"))
        assert header == ["L", "xi_star", "depth", "max_deviation", "status"]
        assert len(rows) == 2
        header, rows = read_csv(str(outdir / "dos_comparison.csv"))
        assert header == HEADERS["dos"]

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "workers must be an integer of at least 1 (got 0)"),
        (["--workers", "-2"], "workers must be an integer of at least 1 (got -2)"),
        (["--l-grid="], "l_grid must not be empty"),
        (["--l-grid", "100,50"], "l_grid must be strictly increasing"),
        (["--l-grid", "-5"], "l_grid must be positive and finite (got -5.0)"),
    ], ids=["workers-0", "workers-neg", "l-grid-empty", "l-grid-decreasing", "l-grid-neg"])
    def test_bad_input_rejected_as_by_clock(self, flags, message, tmp_path, monkeypatch,
                                            capsys):
        # reproduce used to run these: the first three on its own defaults
        from pearsonlab import cli

        monkeypatch.delenv(cli.WORKERS_ENV, raising=False)
        for command, flag in (("clock", "--out"), ("reproduce", "--outdir")):
            out = tmp_path / command
            assert main([command, *flags, flag, str(out)]) == 2
            assert capsys.readouterr().err == f"config error: {message}\n"
            assert not out.exists()

    def test_failed_rows_named_on_stderr(self, tmp_path, capsys):
        outdir = tmp_path / "repro"
        code = main(["reproduce", "--outdir", str(outdir), "--l-grid", "50",
                     "--steps-per-bump", "8"])
        assert code == 1
        # each summary row carries its task's first error verbatim
        assert capsys.readouterr().err == (
            "row failed: error: bump integration requires at least 16 steps\n" * 5
            + "5 of 5 rows failed\n")

    def test_failed_pairs_named_on_stderr(self, tmp_path, capsys):
        # at L = 0.4 some shifted pairs leave the right half-plane (a = -2 at
        # every xi); the rest, the clock window and the histogram succeed
        outdir = tmp_path / "repro"
        code = main(["reproduce", "--outdir", str(outdir), "--l-grid", "0.4"])
        assert code == 1
        assert capsys.readouterr().err == (
            "row failed: error: shifted arguments must stay in the right half-plane\n" * 3
            + "3 of 16 rows failed\n")
        _, rows = read_csv(str(outdir / "kernel_convergence.csv"))
        assert all(row[2] != "" for row in rows)
