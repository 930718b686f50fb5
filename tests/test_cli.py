"""Command-line behavior: outputs, determinism, exit codes."""

import csv
import dataclasses
import gc
import io
import json
import os
import shlex
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest

import goldens
from oracles import butterfly_failure_law
from rlncfail import bounds, cli, flowpaths, netmodel
from rlncfail.cli import SWEEP_COLUMNS, build_parser, main, parse_gen_spec
from rlncfail.netmodel import butterfly, network_from_text, plait


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_plait_counts(self, capsys):
        code, out, err = run_cli(capsys, "gen", "plait", "--w", "2", "--r", "3")
        assert code == 0
        net = network_from_text(out)
        assert len(net.nodes) == 5 and len(net.channels) == 8
        assert "nodes=5 channels=8" in err
        assert "min_cut[t]=2" in err

    def test_butterfly_counts(self, capsys):
        code, out, err = run_cli(capsys, "gen", "butterfly")
        assert code == 0
        net = network_from_text(out)
        assert len(net.nodes) == 7 and len(net.channels) == 9
        assert net == butterfly()

    def test_random_reproducible(self, capsys):
        args = ("gen", "random", "--internal", "5", "--w", "2", "--density", "0.4", "--seed", "7")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert network_from_text(out1).rate_hint == 2

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "bf.net"
        code, out, err = run_cli(capsys, "gen", "butterfly", "--out", str(dest))
        assert code == 0 and out == ""
        assert network_from_text(dest.read_text()) == butterfly()

    def test_matches_inline_spec(self, capsys):
        for argv, spec in (
            (("plait", "--w", "2", "--r", "3"), "plait:w=2,r=3"),
            (("butterfly",), "butterfly"),
            (("random", "--internal", "6", "--w", "2", "--density", "0.5", "--seed", "3"),
             "random:internal=6,w=2,density=0.5,seed=3"),
        ):
            code, out, _ = run_cli(capsys, "gen", *argv)
            assert code == 0
            assert network_from_text(out) == parse_gen_spec(spec), spec

    def test_bad_params_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "plait", "--w", "2")
        assert code == 2
        code, _, err = run_cli(capsys, "gen", "random", "--internal", "2", "--w", "1",
                               "--density", "1.5", "--seed", "0")
        assert code == 2

    def test_size_caps_exit_2(self, capsys):
        for argv in (
            ("gen", "plait", "--w", "1048577", "--r", "0"),
            ("gen", "random", "--internal", "1447", "--w", "1", "--density", "0.5", "--seed", "0"),
            ("bounds", "--gen", "plait:w=1024,r=1024", "--field", "2"),
            ("bounds", "--gen", "random:internal=100000,w=1,density=0.5,seed=0", "--field", "2"),
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error: ") and "1048576" in err, argv


class TestGenSpec:
    def test_parse(self):
        assert parse_gen_spec("butterfly") == butterfly()
        assert parse_gen_spec("plait:w=2,r=3") == plait(2, 3)

    def test_bad_specs(self, capsys):
        for spec in (
            "plait:w=2", "unknown", "plait:w=two,r=1", "butterfly:x=1",
            "plait:w=2,r=3,typo=9", "random:internal=5,w=2,density=0.4,seed=7,extra=1",
            "plait:w=2,w=1,r=1",
        ):
            code, out, err = run_cli(capsys, "bounds", "--gen", spec, "--field", "2")
            assert code == 2, spec
            assert out == "" and err.startswith("error: "), spec


GOLDEN = goldens.ROOT / "tests" / "golden"
DAG25 = "random:internal=25,w=6,density=0.3,seed=2"
RANDOM5 = "random:internal=5,w=2,density=0.5,seed=3"


@pytest.mark.parametrize("argv,golden", goldens.RUNS, ids=[f"{g}-w{argv[-1]}" for argv, g in goldens.RUNS])
def test_golden_stdout(capsys, monkeypatch, argv, golden):
    monkeypatch.chdir(goldens.ROOT)  # the table's paths are from the repo root
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (goldens.ROOT / golden).read_text(encoding="utf-8")


def test_every_golden_file_has_a_row():
    files = {p.relative_to(goldens.ROOT).as_posix()
             for d in ("tests/golden", "perfbench/expected") for p in (goldens.ROOT / d).iterdir()}
    assert files == {golden for _, golden, _ in goldens.ROWS}


def test_goldens_script_prints_one_shell_line_per_run():
    # CI splits each line on blanks and passes the argv unquoted to the shell
    lines = subprocess.run([sys.executable, "tests/goldens.py"], cwd=goldens.ROOT, capture_output=True,
                           text=True, check=True, timeout=60).stdout.splitlines()
    assert [line.split() for line in lines] == [[golden, *argv] for argv, golden in goldens.RUNS]
    assert all(shlex.quote(word) == word for line in lines for word in line.split())


class TestSizeChecks:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        for argv in (
            ("simulate", "--gen", "plait:w=1,r=0", "--field", "2", "--trials", "10", "--seed", "1"),
            ("bounds", "--gen", "butterfly", "--sink", "t1", "--field", "2"),
        ):
            code, out, err = run_cli(capsys, *argv, "--workers", workers)
            assert code == 2 and out == "", argv
            assert err == f"error: workers must be >= 1, got {workers}\n", argv

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_budget_below_one_exit_2_before_loading(self, capsys, monkeypatch, budget):
        import rlncfail.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the network was loaded before --budget was checked")

        monkeypatch.setattr(cli, "parse_gen_spec", never)
        for cmd in (("exact", "--field", "4"), ("sweep", "--fields", "4")):
            code, out, err = run_cli(capsys, *cmd, "--gen", "butterfly", "--sink", "t1",
                                     "--budget", budget)
            assert code == 2 and out == "", cmd
            assert err == f"error: budget must be >= 1, got {budget}\n", cmd

    def test_budget_above_cap_exit_2_before_loading(self, capsys, monkeypatch):
        import rlncfail.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("the network was loaded before --budget was checked")

        monkeypatch.setattr(cli, "parse_gen_spec", never)
        for cmd in (("exact", "--field", "4"), ("sweep", "--fields", "4")):
            code, out, err = run_cli(capsys, *cmd, "--gen", "butterfly", "--sink", "t1",
                                     "--budget", "4194305")
            assert code == 2 and out == "", cmd
            assert err == "error: --budget must be at most 4194304, got 4194305\n", cmd

    def test_budget_at_cap_accepted(self, capsys):
        for cmd in (("exact", "--field", "2"), ("sweep", "--fields", "2")):
            code, out, err = run_cli(capsys, *cmd, "--gen", "butterfly", "--sink", "t1",
                                     "--budget", "4194304")
            assert code == 0 and err == "" and "125/128" in out, cmd

    def test_trials_checked_before_loading(self, capsys, monkeypatch):
        import rlncfail.bounds as bounds
        import rlncfail.cli as cli

        def never(*args, **kwargs):
            raise AssertionError("work started before --trials was checked")

        monkeypatch.setattr(bounds, "full_report", never)
        monkeypatch.setattr(cli, "parse_gen_spec", never)
        for trials in ("0", "4294967297"):
            for cmd in (("simulate", "--field", "2"), ("sweep", "--fields", "4")):
                code, out, err = run_cli(capsys, *cmd, "--gen", "plait:w=3,r=2",
                                         "--trials", trials, "--seed", "1")
                assert code == 2 and out == "", (cmd, trials)
                assert err == f"error: trials must be in 1..4294967296, got {trials}\n"


class TestBounds:
    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_rt_mode_in_text_json_and_csv(self, capsys, monkeypatch, mode):
        # every report prints the flag of BoundReport.rt_mode
        if mode == "heuristic":
            full_report = bounds.full_report
            monkeypatch.setattr(bounds, "full_report", lambda *args: dataclasses.replace(
                full_report(*args), r_min_exact=False))
        butterfly_t1 = ("--gen", "butterfly", "--sink", "t1")
        _, out, _ = run_cli(capsys, "bounds", *butterfly_t1, "--field", "2")
        assert out.splitlines()[3] == f"r: 4  R_t: 4 ({mode})  J: 4"
        _, out, _ = run_cli(capsys, "bounds", *butterfly_t1, "--field", "2", "--format", "json")
        assert json.loads(out)["R_t"]["mode"] == mode
        _, out, _ = run_cli(capsys, "sweep", *butterfly_t1, "--fields", "2")
        assert [row["rt_mode"] for row in csv.DictReader(io.StringIO(out))] == [mode]

    def test_order_option_removed(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--gen", "butterfly", "--sink", "t1",
                               "--field", "2", "--order", "minimize")
        assert code == 2 and out == ""

    def test_rate_zero_file_rejected_with_line(self, capsys, tmp_path):
        path = tmp_path / "n.net"
        path.write_text("node s source\nnode t sink\nchannel e1 s t\nrate 0\n")
        code, _, err = run_cli(capsys, "bounds", "--network", str(path), "--field", "2")
        assert code == 2
        assert "line 4" in err and "rate hint" not in err

    def test_oversized_file_exit_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(netmodel, "MAX_GENERATED", 10)
        path = tmp_path / "n.net"
        path.write_text("node s source\nnode t sink\n" + "".join(f"channel e{k} s t\n" for k in range(11)))
        code, out, err = run_cli(capsys, "bounds", "--network", str(path), "--field", "2")
        assert (code, out) == (2, "")
        assert "line 13: more than 10 channels" in err

    def test_butterfly_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--gen", "butterfly", "--sink", "t1", "--rate", "2", "--field", "2"
        )
        assert code == 0
        assert "thm1   125/128          0.9765625" in out
        assert "lower  1/2              0.5" in out

    def test_butterfly_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--gen", "butterfly", "--sink", "t1", "--rate", "2",
            "--field", "2", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"network", "sink", "q", "w", "C_t", "r", "R_t", "J", "bounds"}
        b = doc["bounds"]
        assert Fraction(int(b["thm1"]["num"]), int(b["thm1"]["den"])) == Fraction(125, 128)
        assert doc["R_t"] == {"value": 4, "mode": "exact"}

    def test_plait_equal_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--gen", "plait:w=2,r=1", "--field", "2")
        assert code == 0
        assert out.count("55/64") == 4  # thm1, thm2, cor1, thm3

    def test_default_sink_and_rate_from_hint(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--gen", "plait:w=2,r=1", "--field", "2")
        assert code == 0
        assert "sink: t" in out and "w: 2" in out

    def test_non_prime_power_rejected(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--gen", "butterfly", "--sink", "t1",
                               "--field", "6")
        assert code == 2
        assert "prime power" in err

    def test_infeasible_rate_exit_3(self, capsys):
        # every subcommand checks the rate against the sink's min-cut before
        # any work sized by w
        for argv in (
            ("bounds", "--field", "2"),
            ("simulate", "--field", "2", "--trials", "200", "--seed", "1"),
            ("exact", "--field", "2"),
            ("sweep", "--fields", "2"),
        ):
            code, out, err = run_cli(capsys, argv[0], "--gen", "butterfly", "--sink", "t1",
                                     "--rate", "3", *argv[1:])
            assert code == 3, argv
            assert out == "" and "max-flow is 2" in err, argv

    def test_network_file(self, capsys, tmp_path):
        path = tmp_path / "n.net"
        run_cli(capsys, "gen", "plait", "--w", "1", "--r", "1", "--out", str(path))
        code, out, _ = run_cli(capsys, "bounds", "--network", str(path), "--field", "2")
        assert code == 0 and "3/4" in out

    def test_network_xor_gen(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "bounds", "--field", "2")
        assert code == 2
        path = tmp_path / "n.net"
        run_cli(capsys, "gen", "butterfly", "--out", str(path))
        code, _, _ = run_cli(capsys, "bounds", "--network", str(path), "--gen", "butterfly",
                             "--field", "2")
        assert code == 2

    def test_csv_format_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--gen", "butterfly", "--sink", "t1",
                             "--field", "2", "--format", "csv")
        assert code == 2


class TestSimulate:
    def test_requires_seed_and_trials(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--gen", "plait:w=1,r=0", "--field", "2",
                               "--trials", "10")
        assert code == 2 and "--seed" in err
        code, _, err = run_cli(capsys, "simulate", "--gen", "plait:w=1,r=0", "--field", "2",
                               "--seed", "1")
        assert code == 2 and "--trials" in err

    def test_trials_above_max_exit_2(self, capsys):
        for cmd in (("simulate", "--field", "2"), ("sweep", "--fields", "2,3")):
            code, out, err = run_cli(capsys, *cmd, "--gen", "plait:w=1,r=0",
                                     "--trials", "4294967297", "--seed", "1")
            assert code == 2 and out == "", cmd
            assert err == "error: trials must be in 1..4294967296, got 4294967297\n", cmd

    def test_byte_identical_runs(self, capsys):
        args = ("simulate", "--gen", "plait:w=1,r=0", "--field", "2",
                "--trials", "20000", "--seed", "1")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_ci_contains_half(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--gen", "plait:w=1,r=0", "--field", "2",
                               "--trials", "20000", "--seed", "1", "--format", "json")
        assert code == 0
        est = json.loads(out)["estimate"]
        assert est["ci_low"] <= 0.5 <= est["ci_high"]

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--gen", "butterfly", "--sink", "t1",
                               "--field", "2", "--trials", "1000", "--seed", "3",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"network", "sink", "q", "w", "estimate"}
        assert set(doc["estimate"]) == {"trials", "failures", "p_hat", "ci_low", "ci_high", "seed"}


class TestExact:
    def test_plait_1_1(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--gen", "plait:w=1,r=1", "--field", "2")
        assert code == 0
        assert "exact: 3/4 = 0.75" in out
        assert "failing: 3" in out

    def test_butterfly_json(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--gen", "butterfly", "--sink", "t1",
                               "--field", "2", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] == {
            "num": "125", "den": "128", "failures": "4000",
            "assignments": "4096", "slots": 12,
        }

    def test_budget_exceeded_exit_4(self, capsys):
        # plait(4, 1)'s source alone branches 16^16 ways, above the default 2^20
        code, out, err = run_cli(capsys, "exact", "--gen", "plait:w=4,r=1", "--field", "16")
        assert code == 4 and out == ""
        assert err == (
            f"error: exact evaluation needs {16**16} branches up to node s, "
            f"above the budget {1 << 20}\n"
        )
        code, _, err = run_cli(capsys, "exact", "--gen", "butterfly", "--sink", "t1",
                               "--field", "2", "--budget", "37")
        assert code == 4
        assert "needs 38 branches up to node b2, above the budget 37" in err

    def test_q65536_exits_4_before_expanding(self, capsys, monkeypatch):
        import rlncfail.rlncsim as rlncsim

        def no_expansion(*args):
            raise AssertionError("a node was expanded before the budget check")

        monkeypatch.setattr(rlncsim, "_eliminate", no_expansion)
        start = time.monotonic()
        code, _, err = run_cli(capsys, "exact", "--gen", "butterfly", "--sink", "t1",
                               "--field", "65536")
        elapsed = time.monotonic() - start
        assert code == 4
        assert f"needs {65536**4} branches up to node s" in err
        assert elapsed < 1.0, f"took {elapsed:.2f}s"

    def test_workers_accepted_and_ignored(self, capsys):
        base = ("exact", "--gen", "butterfly", "--sink", "t1", "--field", "4")
        _, out1, _ = run_cli(capsys, *base)
        code, out2, _ = run_cli(capsys, *base, "--workers", "2")
        assert code == 0 and out1 == out2
        assert "exact: 12739/16384" in out1 and "failing: 13044736" in out1


class TestSweep:
    @pytest.mark.parametrize("q", ["3", "4"])
    def test_dag12_estimates_are_simulates(self, q):
        # the sweep golden's Monte Carlo columns are the simulate goldens' numbers
        rows = csv.DictReader(io.StringIO((GOLDEN / "sweep-dag12-q34.csv").read_text(encoding="utf-8")))
        row = next(r for r in rows if r["q"] == q)
        report = (GOLDEN / f"simulate-dag12-q{q}.txt").read_text(encoding="utf-8")
        assert f"p_hat: {row['estimate']}\n" in report
        assert f"wilson99: [{row['ci_low']}, {row['ci_high']}]\n" in report
        assert (row["trials"], row["seed"]) == ("40000", "1")

    def run_sweep(self, capsys, *extra):
        code, out, err = run_cli(
            capsys, "sweep", "--gen", "plait:w=2,r=1", "--fields", "2,3,4,5", *extra
        )
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        return rows

    def test_columns_fixed(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--gen", "plait:w=2,r=1", "--fields", "2,3")
        header = out.splitlines()[0].split(",")
        assert header == SWEEP_COLUMNS

    def test_thm2_strictly_decreasing(self, capsys):
        rows = self.run_sweep(capsys)
        vals = [float(r["thm2"]) for r in rows]
        assert vals == sorted(vals, reverse=True)
        assert len(vals) == 4

    def test_butterfly_exact_equals_thm1(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--gen", "butterfly", "--sink", "t1",
                               "--fields", "2,3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        for row in rows:
            assert row["exact_frac"] == row["thm1_frac"] != ""
            q = int(row["q"])
            expect = butterfly_failure_law(q)
            assert row["exact_frac"] == f"{expect.numerator}/{expect.denominator}"

    def test_exact_blank_only_over_budget(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--gen", "butterfly", "--sink", "t1",
                               "--fields", "2,16,65536")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["exact_frac"] == r["thm1_frac"] for r in rows] == [True, True, False]
        assert rows[2]["exact_frac"] == rows[2]["exact"] == ""
        _, out, _ = run_cli(capsys, "sweep", "--gen", "butterfly", "--sink", "t1",
                            "--fields", "2", "--budget", "37")
        assert next(csv.DictReader(io.StringIO(out)))["exact"] == ""

    def test_exact_against_thm1_on_paper_networks(self, capsys):
        """Theorem 1 is tight on the butterfly and on plaits; on a random DAG
        the exact value fits the budget at q = 2 and not at q = 3."""
        for spec, sink, tight in (
            ("butterfly", "t1", True),
            ("plait:w=2,r=1", "t", True),
            ("plait:w=3,r=2", "t", True),
            (RANDOM5, "t", False),
        ):
            code, out, err = run_cli(capsys, "sweep", "--gen", spec, "--sink", sink,
                                     "--fields", "2,3", "--budget", "524288")
            assert code == 0, err
            rows = list(csv.DictReader(io.StringIO(out)))
            assert [r["q"] for r in rows] == ["2", "3"], spec
            if tight:
                assert all(r["exact_frac"] == r["thm1_frac"] != "" for r in rows), spec
            else:
                assert [r["exact_frac"] for r in rows] == ["71837/131072", ""]
                assert rows[1]["exact"] == ""

    def test_estimate_included_when_requested(self, capsys):
        rows = self.run_sweep(capsys, "--trials", "2000", "--seed", "9")
        for row in rows:
            assert row["estimate"] != ""
            assert float(row["ci_low"]) <= float(row["estimate"]) <= float(row["ci_high"])

    def test_trials_without_seed_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--gen", "plait:w=2,r=1",
                               "--fields", "2,3", "--trials", "100")
        assert code == 2 and "--seed" in err

    def test_empty_fields_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "sweep", "--gen", "plait:w=2,r=1", "--fields", "")
        assert code == 2

    def test_repeated_order_rejected_before_any_work(self, capsys, monkeypatch):
        import rlncfail.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("a field was built")

        monkeypatch.setattr(cli, "make_field_of_order", no_work)
        for fields in ("2,3,2", "4,04"):
            code, out, err = run_cli(capsys, "sweep", "--gen", "plait:w=2,r=1", "--fields", fields)
            assert code == 2 and out == ""
            assert err == f"error: sweep requires --fields orders, none repeated, got {fields!r}\n"

    def test_non_prime_power_in_list_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--gen", "plait:w=2,r=1", "--fields", "2,6")
        assert code == 2
        assert "prime power" in err

    def test_byte_identical(self, capsys):
        args = ("sweep", "--gen", "plait:w=2,r=1", "--fields", "2,3",
                "--trials", "1000", "--seed", "4")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


def max_flow_limits(monkeypatch) -> list:
    """The `limit` of every max-flow run from now on."""
    limits = []
    max_flow = flowpaths._max_flow

    def counted(*args, **kwargs):
        limits.append(kwargs.get("limit"))
        return max_flow(*args, **kwargs)

    monkeypatch.setattr(flowpaths, "_max_flow", counted)
    return limits


class TestMaxFlowCount:
    def test_bounds_dag30(self, capsys, monkeypatch):
        # random_dag's min-cut serves _setup and full_report too; then the
        # disjoint paths' flow up to w, and the R_t search needs none
        limits = max_flow_limits(monkeypatch)
        code, _, _ = run_cli(capsys, "bounds", "--gen", "random:internal=30,w=6,density=0.3,seed=2",
                             "--field", "2")
        assert code == 0
        assert limits == [None, 6]

    def test_sweep_one_min_cut_for_all_fields(self, capsys, monkeypatch):
        limits = max_flow_limits(monkeypatch)
        code, _, _ = run_cli(capsys, "sweep", "--gen", "butterfly", "--sink", "t1", "--rate", "2",
                             "--fields", "2,3,4")
        assert code == 0
        assert limits.count(None) == 1

    def test_bounds_dag25_topped_up_min_cut_kept(self, capsys, monkeypatch):
        # random_dag adds s->t channels here, and its rebuilt network keeps
        # the min-cut w, so only the generator's first max-flow is unlimited
        limits = max_flow_limits(monkeypatch)
        code, _, _ = run_cli(capsys, "bounds", "--gen", DAG25, "--field", "2")
        assert code == 0
        assert len(limits) == 59 and limits[:2] == [None, 6]

    def test_sweep_one_path_analysis_for_all_fields(self, capsys, monkeypatch):
        from rlncfail import bounds

        limits = max_flow_limits(monkeypatch)
        run_cli(capsys, "bounds", "--gen", DAG25, "--field", "2")
        one_bounds, searches = list(limits), []
        limits.clear()
        search = bounds.min_internal_paths
        monkeypatch.setattr(bounds, "min_internal_paths",
                            lambda *a, **k: searches.append(a) or search(*a, **k))
        code, _, _ = run_cli(capsys, "sweep", "--gen", DAG25, "--fields", "2,3,4,5",
                             "--budget", "1")
        assert code == 0
        assert len(searches) == 1
        assert limits == one_bounds


def parse_outcome(capsys, parser, argv):
    """(exit code, stdout, stderr, parsed values) of one parse."""
    try:
        values, code = vars(parser.parse_args(argv)), None
    except SystemExit as exc:
        values, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, values


def parse_cases(command, valid, field_option, bad_type):
    """A valid call, its help, an unrecognized option, the valid call
    without its field option's value, and one with a value of a bad type."""
    cut = valid.index(field_option)
    return [
        (command, *valid),
        (command, "--help"),
        (command, *valid, "--bogus"),
        (command, *valid[:cut + 1]),
        (command, *valid[:cut], *bad_type),
    ]


PARSE_CASES = list(dict.fromkeys([  # in order, each case once
    *parse_cases("bounds", ("--gen", "butterfly", "--sink", "t1", "--field", "2"), "--field",
                 ("--field", "two")),
    *parse_cases("simulate", ("--gen", "butterfly", "--trials", "5", "--field", "2"), "--field",
                 ("--trials", "many")),
    *parse_cases("exact", ("--gen", "butterfly", "--rate", "2", "--field", "2"), "--field",
                 ("--rate", "2.5")),
    *parse_cases("sweep", ("--network", "n.txt", "--seed", "1", "--fields", "2,3"), "--fields",
                 ("--seed", "x")),
    ("bounds", "--gen", "butterfly"),  # no --field at all
    ("bounds", "--gen", "butterfly", "--field", "2", "--rt", "fast"),
    ("exact", "extra", "--field", "2"),
    *parse_cases("gen", ("plait", "--w", "2", "--r", "3"), "--r", ("--r", "x")),
    *parse_cases("gen", ("random", "--internal", "5", "--w", "2", "--density", "0.4",
                         "--seed", "7"), "--seed", ("--density", "dense")),
    *parse_cases("gen", ("butterfly", "--out", "n.txt"), "--out", ("--out",)),
    ("gen",), ("gen", "frob"), ("gen", "plait", "--help"), ("gen", "butterfly", "--help"),
    ("gen", "random", "--help"), ("gen", "plait", "--w", "2"),
]))


class TestParser:
    @pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
    def test_subcommand_parser_reads_like_the_full_one(self, capsys, argv):
        # help, usage errors (the top-level usage line too), exit codes and values
        full = parse_outcome(capsys, build_parser(), argv)
        alone = parse_outcome(capsys, build_parser(argv[0]), argv)
        assert alone == full
        assert full[1] or full[2] or full[3]  # the case printed or parsed something

    def test_subcommand_parser_builds_no_other(self, capsys):
        parser = build_parser("bounds")
        with pytest.raises(SystemExit):
            parser.parse_args(["exact", "--gen", "butterfly", "--field", "2"])
        assert "invalid choice: 'exact' (choose from 'bounds')" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,command,code", [
        ((), None, 2),
        (("--help",), None, 0),
        (("-h",), None, 0),
        (("frobnicate",), None, 2),
        (("--", "bounds"), None, 2),
        (("bounds", "--help"), "bounds", 0),
        (("sweep", "--fields", "x"), "sweep", 2),
        (("gen", "plait", "--w", "1", "--r", "1"), "gen", 0),
    ])
    def test_main_builds_the_named_subcommand_alone(self, capsys, monkeypatch, argv, command, code):
        built = []
        full = cli.build_parser

        def recorded(command=None):
            built.append(command)
            return full(command)

        monkeypatch.setattr(cli, "build_parser", recorded)
        assert main(list(argv)) == code
        monkeypatch.setattr("sys.argv", ["rlncfail", *argv])
        assert main() == code
        assert built == [command, command]


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_missing_field(self, capsys):
        assert main(["bounds", "--gen", "butterfly"]) == 2

    def test_options_a_subcommand_does_not_read_rejected(self, capsys):
        base = ("--gen", "butterfly", "--sink", "t1", "--field", "2")
        for command, extra in (
            ("bounds", ("--trials", "5")),
            ("bounds", ("--seed", "1")),
            ("bounds", ("--budget", "10")),
            ("simulate", ("--trials", "10", "--seed", "1", "--budget", "10")),
            ("simulate", ("--trials", "10", "--seed", "1", "--rt", "exact")),
            ("exact", ("--trials", "5")),
            ("exact", ("--seed", "1")),
            ("exact", ("--rt", "exact")),
            ("bounds", ("--rt", "exact")),
        ):
            code, out, _ = run_cli(capsys, command, *base, *extra)
            assert code == 2 and out == "", (command, extra)
        sweep = ("sweep", "--gen", "butterfly", "--sink", "t1", "--fields", "2")
        assert run_cli(capsys, *sweep)[0] == 0
        code, out, _ = run_cli(capsys, *sweep, "--rt", "heuristic")
        assert code == 2 and out == ""

    def test_bad_network_file(self, capsys, tmp_path):
        path = tmp_path / "bad.net"
        path.write_text("node s source\nnode t sink\nchannel e1 s ghost\n")
        code, _, err = run_cli(capsys, "bounds", "--network", str(path), "--field", "2")
        assert code == 2
        assert "unknown node" in err

    def test_missing_network_file(self, capsys):
        code, _, _ = run_cli(capsys, "bounds", "--network", "/nonexistent", "--field", "2")
        assert code == 2

    def test_cyclic_network_file(self, capsys, tmp_path):
        path = tmp_path / "cyclic.net"
        path.write_text(
            "node s source\nnode t sink\nnode u internal\nnode v internal\n"
            "channel e1 s t\nchannel e2 v u\nchannel e3 u v\n"
        )
        code, out, err = run_cli(capsys, "bounds", "--network", str(path), "--field", "2")
        assert (code, out) == (2, "")
        assert err == "error: invalid network: channel graph has a cycle: u -> v -> u\n"


class TestLongChain:
    def test_chain_of_1500_internal_nodes(self, capsys, tmp_path):
        # far longer than the interpreter's recursion limit; the search
        # keeps its own stack, so R_t stays exact
        path = tmp_path / "chain.net"
        code, _, err = run_cli(capsys, "gen", "plait", "--w", "1", "--r", "1500", "--out", str(path))
        assert code == 0
        assert "nodes=1502 channels=1501" in err
        assert network_from_text(path.read_text()) == plait(1, 1500)
        code, out, _ = run_cli(capsys, "bounds", "--gen", "plait:w=1,r=1500", "--field", "2")
        assert code == 0
        assert "R_t: 1500 (exact)" in out
        code, out, _ = run_cli(capsys, "bounds", "--network", str(path), "--field", "2")
        assert code == 0
        assert "R_t: 1500 (exact)" in out


# one call per command, from the golden table; simulate forks one worker, sweep one per field
IMPORT_FREE_CALLS = [(argv, golden) for argv, golden in goldens.RUNS if (golden, argv[-1]) in {
    ("tests/golden/bounds-butterfly-t1-q4.txt", "1"), ("tests/golden/exact-butterfly-t1-q9.txt", "1"),
    ("tests/golden/simulate-dag12-q3.txt", "2"), ("tests/golden/sweep-dag12-q34.csv", "2"),
}]


class TestProcess:
    def test_a_call_imports_nothing(self):
        # a fresh interpreter with stdout a pipe, so block-buffered when the
        # workers fork: each report must come out once, and no call may import
        script = textwrap.dedent("""
            import json, os, sys
            sys.path.insert(0, sys.argv[1])
            import rlncfail.cli as cli
            pool = sorted({"concurrent.futures", "multiprocessing"} & set(sys.modules))
            os.sched_getaffinity = lambda pid: {0, 1}  # two workers on any host
            fork, forks = os.fork, []
            os.fork = lambda: forks.append(1) or fork()
            imported = []
            for argv in json.loads(sys.argv[2]):
                before = set(sys.modules)
                code = cli.main(argv)
                imported.append([argv[0], code, sorted(set(sys.modules) - before)])
            print(json.dumps([pool, imported, len(forks)]), file=sys.stderr)
        """)
        src = str(Path(cli.__file__).resolve().parents[1])
        calls = json.dumps([list(argv) for argv, _ in IMPORT_FREE_CALLS])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.run([sys.executable, "-c", script, src, calls],
                              capture_output=True, text=True, timeout=300, env=env)
        pool, imported, forks = json.loads(proc.stderr.splitlines()[-1])
        assert pool == []
        assert imported == [[argv[0], 0, []] for argv, _ in IMPORT_FREE_CALLS]
        assert forks == 3
        assert proc.stdout == "".join((goldens.ROOT / g).read_text(encoding="utf-8") for _, g in IMPORT_FREE_CALLS)

    @pytest.mark.parametrize("argv,code,parsed", [
        (("bounds", "--gen", "butterfly", "--sink", "t1", "--field", "4"), 0, True),
        (("bounds", "--gen", "butterfly", "--sink", "t1", "--field", "4", "--workers", "0"), 2, True),
        (("bounds", "--gen", "butterfly", "--sink", "t1", "--rate", "3", "--field", "4"), 3, True),
        (("exact", "--gen", "butterfly", "--sink", "t1", "--rate", "2", "--field", "4",
          "--budget", "1"), 4, True),
        (("bounds", "--bogus"), 2, False),  # fails in the parser, before the size checks
    ])
    def test_gc_frozen_inside_a_call_only(self, capsys, monkeypatch, argv, code, parsed):
        frozen, check = [], cli._check_sizes

        def recording(args):
            frozen.append(gc.get_freeze_count())
            check(args)

        monkeypatch.setattr(cli, "_check_sizes", recording)
        assert gc.get_freeze_count() == 0
        assert run_cli(capsys, *argv)[0] == code
        assert gc.get_freeze_count() == 0
        assert len(frozen) == parsed and all(n > 0 for n in frozen)
