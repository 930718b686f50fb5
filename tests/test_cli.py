"""Command-line behavior: outputs, determinism, exit codes."""

import csv
import io
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from oracles import butterfly_failure_law
from rlncfail.cli import SWEEP_COLUMNS, main, parse_gen_spec
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


GOLDEN = Path(__file__).resolve().parent / "golden"
DAG20 = "random:internal=20,w=5,density=0.4,seed=2"
DAG6_W10 = "random:internal=6,w=10,density=0.6,seed=1"
SIM_DAG6_W10 = ("simulate", "--gen", DAG6_W10, "--field", "2", "--trials", "20000", "--seed", "3")


# w = 10 puts the source's imaginary inputs d1..d10 where their string and
# natural orders differ; simulate must not depend on the worker count
@pytest.mark.parametrize("argv,golden", [
    (("exact", "--gen", "plait:w=3,r=2", "--field", "3"), "exact-plait-w3-r2-q3.txt"),
    (("exact", "--gen", "plait:w=3,r=2", "--field", "3", "--format", "json"),
     "exact-plait-w3-r2-q3.json"),
    (SIM_DAG6_W10, "simulate-dag6-w10-q2.txt"),
    (SIM_DAG6_W10 + ("--workers", "2"), "simulate-dag6-w10-q2.txt"),
])
def test_golden_stdout(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text(encoding="utf-8")


class TestSizeChecks:
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, workers):
        for argv in (
            ("simulate", "--gen", "plait:w=1,r=0", "--field", "2", "--trials", "10", "--seed", "1"),
            ("bounds", "--gen", "butterfly", "--sink", "t1", "--field", "2"),
        ):
            code, out, err = run_cli(capsys, *argv, "--workers", workers)
            assert code == 2 and out == "", argv
            assert err == f"error: --workers must be >= 1, got {workers}\n", argv

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
    @pytest.mark.parametrize("argv,golden", [
        (("--gen", "butterfly", "--sink", "t1", "--field", "4"), "bounds-butterfly-t1-q4.txt"),
        (("--gen", "butterfly", "--sink", "t1", "--field", "4", "--format", "json"),
         "bounds-butterfly-t1-q4.json"),
        (("--gen", DAG20, "--field", "2"), "bounds-dag20-q2.txt"),
        (("--gen", DAG20, "--field", "2", "--format", "json"), "bounds-dag20-q2.json"),
    ])
    def test_golden_stdout(self, capsys, argv, golden):
        code, out, _ = run_cli(capsys, "bounds", *argv)
        assert code == 0
        assert out == (GOLDEN / golden).read_text(encoding="utf-8")

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

        monkeypatch.setattr(rlncsim, "_branches", no_expansion)
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
        ):
            code, out, _ = run_cli(capsys, command, *base, *extra)
            assert code == 2 and out == "", (command, extra)

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
        # far longer than the interpreter's recursion limit
        path = tmp_path / "chain.net"
        code, _, err = run_cli(capsys, "gen", "plait", "--w", "1", "--r", "1500", "--out", str(path))
        assert code == 0
        assert "nodes=1502 channels=1501" in err
        assert network_from_text(path.read_text()) == plait(1, 1500)
        code, out, _ = run_cli(capsys, "bounds", "--gen", "plait:w=1,r=1500", "--field", "2")
        assert code == 0
        assert "R_t: 1500 (heuristic)" in out
        code, out, _ = run_cli(capsys, "bounds", "--network", str(path), "--field", "2")
        assert code == 0
        assert "R_t: 1500 (heuristic)" in out
