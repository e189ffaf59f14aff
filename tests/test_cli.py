"""Command-line interface tests.

Each command runs through main() with capsys, asserting on the JSON payload
and the exit code; a table of commands pins each payload, ``millis`` aside,
by its sha256.  Graph resolution shorthands and the failure paths (bad
input 1, timeout 2, sweep counterexample 1, sweep error 3) are covered too,
and the bad-flag exits of ``scripts/conjecture_sweep.py`` and
``scripts/bounds_table.py``.
"""

import concurrent.futures
import hashlib
import importlib.util
import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from boxchrom import cli
from boxchrom.cli import CliInputError, SweepInvariantError, main, resolve_named
from boxchrom.colouring import Colouring, check_improper, lift_colouring
from boxchrom.graphs import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    emit_graph6,
    empty_graph,
    strong_product,
)
from boxchrom.solvers import chromatic_improper
from oracles import sweep_instance

K3 = emit_graph6(complete_graph(3))


def _without_millis(payload):
    return {**payload, "records": [{k: v for k, v in r.items() if k != "millis"}
                                   for r in payload["records"]]}


def _fail_on_k3(monkeypatch):
    """Make the sweep's clique solve raise on K3, and only there."""
    real = cli.clique_number

    def failing(g, *args, **kwargs):
        if emit_graph6(g) == K3:
            raise RuntimeError("injected failure")
        return real(g, *args, **kwargs)
    monkeypatch.setattr(cli, "clique_number", failing)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestResolveNamed:
    def test_shorthands(self):
        assert resolve_named("c5").n == 5
        assert resolve_named("k6").edge_count == 15
        assert resolve_named("p4").edge_count == 3
        assert resolve_named("k3,3").edge_count == 9
        assert resolve_named("petersen").n == 10

    def test_family_with_params(self):
        assert resolve_named("complete,6").edge_count == 15
        assert resolve_named("cycle,7").n == 7

    def test_unknown_rejected(self):
        with pytest.raises(CliInputError):
            resolve_named("dodecahedron")

    @pytest.mark.parametrize("token", ["c2", "p0", "cycle,2"])
    def test_a_shorthand_the_builder_refuses_is_an_input_error(self, token):
        with pytest.raises(CliInputError):
            resolve_named(token)


class TestSpectrum:
    def test_adjacency_groups(self, capsys):
        code, payload = run_cli(capsys, "spectrum", "--named", "petersen")
        assert code == 0
        assert payload["schema"] == 2 and payload["command"] == "spectrum"
        groups = {round(v): m for v, m in payload["groups"]}
        assert groups == {3: 1, 1: 5, -2: 4}

    def test_laplacian(self, capsys):
        code, payload = run_cli(capsys, "spectrum", "--named", "k3", "--kind", "laplacian")
        assert code == 0
        assert [round(v, 6) for v in payload["values"]] == [3.0, 3.0, 0.0]

    def test_graph6_input(self, capsys):
        g6 = emit_graph6(cycle_graph(5))
        code, payload = run_cli(capsys, "spectrum", "--graph6", g6)
        assert code == 0 and payload["n"] == 5

    def test_requires_exactly_one_source(self, capsys):
        code = main(["spectrum", "--named", "c5", "--graph6", "D?{"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_empty_graph_is_an_input_error(self, capsys):
        code = main(["spectrum", "--graph6", "?"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "empty graph" in err


class TestBounds:
    def test_petersen_hoffman(self, capsys):
        code, payload = run_cli(capsys, "bounds", "--named", "petersen", "-d", "0", "-m", "3")
        assert code == 0
        by_name = {e["name"]: e for e in payload["entries"] if e["params"].get("m", 1) == 1}
        assert abs(by_name["hoffman_bilu"]["value"] - 2.5) < 1e-9
        assert payload["best_lower"] == 3

    def test_weights_file(self, capsys, tmp_path):
        # identity-weight file equals the adjacency bound
        path = tmp_path / "w.txt"
        path.write_text("3\n0 1 0\n1 0 1\n0 1 0\n")
        code, payload = run_cli(
            capsys, "bounds", "--named", "p3", "-d", "0", "--weights", str(path)
        )
        assert code == 0
        assert any(e["name"] == "inertia_supplied" for e in payload["entries"])

    @pytest.mark.parametrize("rows", ["0 nan\nnan 0", "nan 1\n1 0"],
                             ids=["off_diagonal", "diagonal"])
    def test_nan_weight_is_an_input_error(self, capsys, tmp_path, rows):
        # a NaN weight once gave exit 0 and an inertia bound from a NaN spectrum
        path = tmp_path / "w.txt"
        path.write_text(f"2\n{rows}\n")
        code = main(["bounds", "--named", "k2", "--weights", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error:") and "finite" in captured.err


class TestExact:
    def test_bowtie_improper(self, capsys):
        code, payload = run_cli(
            capsys, "exact", "--named", "bowtie", "--mode", "improper", "-d", "1"
        )
        assert code == 0
        assert payload["value"] == 2
        wit = Colouring.from_list(payload["witness"])
        from boxchrom.graphs import bowtie_graph

        assert check_improper(bowtie_graph(), wit, 1) is None

    def test_clustered(self, capsys):
        code, payload = run_cli(
            capsys, "exact", "--named", "petersen", "--mode", "clustered", "-t", "3"
        )
        assert code == 0 and payload["value"] == 2

    def test_fractional(self, capsys):
        code, payload = run_cli(capsys, "exact", "--named", "c5", "--mode", "fractional")
        assert code == 0
        assert abs(payload["value"] - 2.5) < 1e-9
        assert payload["value_exact"] == "5/2"

    def test_bfold(self, capsys):
        code, payload = run_cli(
            capsys, "exact", "--named", "c4", "--mode", "improper", "-d", "1", "-b", "2"
        )
        assert code == 0 and payload["value"] == 4

    @pytest.mark.parametrize("b", ["0", "-2"])
    def test_rejects_fold_size_below_one(self, capsys, b):
        code = main(["exact", "--named", "petersen", "--mode", "proper", "-b", b])
        assert code == 1
        assert "-b" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["fractional", "alpha", "clique"])
    def test_rejects_fold_size_for_modes_without_folds(self, capsys, mode):
        code = main(["exact", "--named", "c5", "--mode", mode, "-b", "3"])
        assert code == 1
        assert "-b" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, flags, named", [
        ("proper", ["-d", "2"], "-d"),
        ("proper", ["-t", "2"], "-t"),
        ("clique", ["-d", "1"], "-d"),
        ("clique", ["-d", "1", "-t", "2"], "-d"),
        ("improper", ["-d", "1", "-t", "2"], "-t"),
        ("alpha", ["-d", "1", "-t", "2"], "-t"),
        ("clustered", ["-d", "1", "-t", "2"], "-d"),
        ("fractional", ["-d", "1", "-t", "2"], "-d or -t"),
        ("fractional", ["--timeout", "1e-9"], "--timeout"),
    ])
    def test_rejects_flags_the_mode_ignores(self, capsys, mode, flags, named):
        code = main(["exact", "--named", "petersen", "--mode", mode, *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and named in captured.err

    def test_alpha_and_clique(self, capsys):
        code, payload = run_cli(
            capsys, "exact", "--named", "bowtie", "--mode", "alpha", "-d", "1"
        )
        assert code == 0 and payload["value"] == 4
        code, payload = run_cli(capsys, "exact", "--named", "bowtie", "--mode", "clique")
        assert code == 0 and payload["value"] == 3

    def test_missing_parameter(self, capsys):
        code = main(["exact", "--named", "c5", "--mode", "improper"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_timeout_exit_code(self, capsys):
        from boxchrom.smallgraphs import random_connected_graph

        g6 = emit_graph6(random_connected_graph(20, 0.6, 11))
        code, payload = run_cli(
            capsys, "exact", "--graph6", g6, "--mode", "improper", "-d", "2",
            "--timeout", "1e-4",
        )
        assert code == 2
        assert payload["status"] == "timeout" and payload["value"] is None


@pytest.mark.parametrize("argv", [
    ["spectrum", "--named", "c2"], ["spectrum", "--named", "p0"],
    ["conjecture", "--named", "c2"], ["conjecture", "--named", "p0"],
])
def test_a_refused_shorthand_is_an_input_error(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["bounds", "diagnose"])
def test_negative_d_is_an_input_error(capsys, command):
    code = main([command, "--named", "c5", "-d", "-1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


SOLVING_COMMANDS = {
    "exact": ["exact", "--named", "c5", "--mode", "proper"],
    "diagnose": ["diagnose", "--named", "c5"],
    "transfer": ["transfer", "--named", "c5", "-t", "2"],
}


@pytest.mark.parametrize("command", sorted(SOLVING_COMMANDS))
@pytest.mark.parametrize("timeout", ["nan", "inf", "0", "-1"])
def test_timeout_must_be_finite_and_positive(capsys, command, timeout):
    # a NaN deadline never fires, so it would mean no limit; conjecture's rule holds everywhere
    assert main([*SOLVING_COMMANDS[command], "--timeout", timeout]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --timeout") and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(SOLVING_COMMANDS))
def test_a_valid_timeout_still_solves(capsys, command):
    code, timed = run_cli(capsys, *SOLVING_COMMANDS[command], "--timeout", "30")
    untimed = run_cli(capsys, *SOLVING_COMMANDS[command])[1]
    assert code == 0
    assert {**timed, "millis": None} == {**untimed, "millis": None}
    assert 3 in (timed.get("value"), timed.get("exact_value"), timed.get("product_value"))


class TestDiagnose:
    def test_solves_when_colours_omitted(self, capsys):
        code, payload = run_cli(capsys, "diagnose", "--named", "k4", "-d", "0")
        assert code == 0
        assert payload["is_tight"] is True
        assert payload["num_classes"] == 4

    def test_explicit_colours(self, capsys):
        code, payload = run_cli(
            capsys, "diagnose", "--named", "c5", "-d", "0",
            "--colours", "1,2,1,2,3",
        )
        assert code == 0
        assert payload["is_tight"] is False

    def test_uniqueness_flag(self, capsys):
        code, payload = run_cli(
            capsys, "diagnose", "--named", "k4", "-d", "0", "--uniqueness"
        )
        assert code == 0
        assert payload["unique_colouring"] is True


class TestTransfer:
    def test_five_cycle_descent(self, capsys):
        code, payload = run_cli(capsys, "transfer", "--named", "c5", "-t", "2", "-l", "1")
        assert code == 0
        assert payload["product_value"] == 3
        assert payload["num_colours"] <= 3
        base = Colouring.from_list(payload["base_colouring"])
        assert check_improper(cycle_graph(5), base, 0) is None

    def test_explicit_product_colouring(self, capsys):
        code, payload = run_cli(
            capsys, "transfer", "--named", "c4", "-t", "2", "-l", "1",
            "--colours", "1,2,1,2,3,3,4,4",
        )
        assert code == 0
        assert payload["product_value"] is None
        assert len(payload["trace"]["rounds"]) >= 1

    @pytest.mark.parametrize("flags, named", [
        (["-t", "0"], "-t"), (["-t", "-1"], "-t"), (["-t", "2", "-l", "0"], "-l"),
    ])
    def test_rejects_non_positive_parameters(self, capsys, flags, named):
        code = main(["transfer", "--named", "c5", *flags])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err and "Traceback" not in err

    def test_over_cap_product_is_an_input_error(self, capsys):
        # petersen * K5 has 50 vertices
        assert main(["transfer", "--named", "petersen", "-t", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cap" in err and "Traceback" not in err

    def test_invalid_colouring_rejected(self, capsys):
        code = main([
            "transfer", "--named", "c4", "-t", "2", "-l", "1",
            "--colours", ",".join(["1"] * 8),
        ])
        assert code == 1


class TestConjecture:
    def test_named_single_instance(self, capsys):
        code, payload = run_cli(
            capsys, "conjecture", "--named", "c5", "-d", "2"
        )
        assert code == 0
        assert payload["counterexamples"] == 0 and payload["instances"] == 1
        rec = payload["records"][0]
        assert rec["chi"] == 3 and rec["chi_improper_product"] == 3
        assert rec["chi_clustered_product"] == 3
        assert rec["status"] == "verified"
        assert rec["annotations"]
        assert list(rec) == ["graph6", "n", "d", "chi", "chi_improper_product",
                             "chi_clustered_product", "best_lower", "best_lower_name", "status",
                             "annotations", "witness", "millis", "error"]

    def test_exhaustive_with_jobs(self, capsys):
        code, payload = run_cli(
            capsys, "conjecture", "--all-connected", "4", "-d", "1,2", "--jobs", "2"
        )
        assert code == 0
        assert payload["instances"] == 20  # 10 connected graphs, two d values
        assert payload["counterexamples"] == 0 and payload["timeouts"] == 0

    def test_graph6_file_ingestion(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text(
            emit_graph6(cycle_graph(4)) + "\n" + emit_graph6(complete_graph(3)) + "\n"
        )
        code, payload = run_cli(
            capsys, "conjecture", "--graph6-file", str(path), "-d", "1"
        )
        assert code == 0 and payload["instances"] == 2

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(["conjecture", "--named", "k3", "-d", "1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["command"] == "conjecture" and payload["schema"] == 2

    @pytest.mark.parametrize("command", [["spectrum", "--named", "c5"],
                                         ["conjecture", "--named", "k3", "-d", "1"]])
    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path, command):
        # a missing directory is refused before the work; a directory target fails on write
        for target in (tmp_path / "missing" / "x.json", tmp_path):
            assert main([*command, "--out", str(target)]) == 1
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ")

    def test_requires_a_corpus(self, capsys):
        assert main(["conjecture", "-d", "1"]) == 1

    def test_bad_named_graph(self, capsys):
        assert main(["conjecture", "--named", "nonsense", "-d", "1"]) == 1

    @pytest.mark.parametrize("flags", [
        ["conjecture", "--named", "c5", "--timeout", "0"],
        ["conjecture", "--named", "c5", "--timeout", "nan"],
        ["conjecture", "--named", "c5", "--timeout", "inf"],
        ["conjecture", "--named", "k5,5", "-d", "4"],  # k5,5 * K5 has 50 vertices
        # argparse's own errors, for any subcommand: exit 2 would read as a timeout
        ["conjecture", "--jobs", "x"], ["conjecture", "--bogus"],
        ["exact", "--named", "c5", "-d", "x"], ["transfer", "--named", "c5"],
        ["nosuchcommand"], [],
    ])
    def test_bad_flag_is_an_input_error(self, capsys, flags):
        assert main(flags) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["--help"], ["exact", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0 and "usage:" in capsys.readouterr().out

    def test_exit_code_on_timeout(self, capsys, monkeypatch):
        real = cli.chromatic_clustered

        def timed_out(*args, **kwargs):
            res = real(*args, **kwargs)
            res.value, res.witness, res.status = None, None, "timeout"
            return res
        monkeypatch.setattr(cli, "chromatic_clustered", timed_out)
        # d = 2: at d = 1 the clustered value is read off the improper solve
        code, payload = run_cli(capsys, "conjecture", "--named", "c5", "-d", "2")
        assert code == 2
        assert payload["timeouts"] == 1 and payload["counterexamples"] == 0

    def test_exit_code_on_counterexample(self, capsys, monkeypatch):
        def refuted(g, graph6, d, *_):
            return cli.ConjectureRecord(
                graph6, g.n, d, 3, 2, 3, None, None, "counterexample", (), None, 0.0)
        monkeypatch.setattr(cli, "_sweep_record", refuted)
        code, payload = run_cli(capsys, "conjecture", "--named", "c5", "--named", "k3", "-d", "1")
        assert code == 1
        assert payload["counterexamples"] == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_raising_instance_is_an_error_record(self, capsys, monkeypatch, jobs):
        flags = ["conjecture", "--all-connected", "4", "-d", "1,2", "--jobs", jobs]
        _, clean = run_cli(capsys, *flags)
        _fail_on_k3(monkeypatch)
        code, payload = run_cli(capsys, *flags)
        assert code == 3
        assert payload["errors"] == 2 and clean["errors"] == 0  # K3 at d = 1 and d = 2
        assert payload["instances"] == clean["instances"] == 20
        for rec, ref in zip(_without_millis(payload)["records"], _without_millis(clean)["records"]):
            if rec["graph6"] != K3:
                assert rec == ref
                continue
            assert rec["status"] == "error" and (rec["n"], rec["d"]) == (ref["n"], ref["d"])
            assert (rec["error"]["type"], rec["error"]["message"]) == ("RuntimeError",
                                                                     "injected failure")
            assert "in failing" in rec["error"]["traceback"]
            assert rec["chi"] is None and rec["witness"] is None and ref["error"] is None

    def test_pooled_records_equal_the_serial_ones(self, capsys, monkeypatch):
        chunks = []

        class Recording(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, chunksize=1, **kwargs):
                chunks.append(chunksize)
                return super().map(fn, *iterables, chunksize=chunksize, **kwargs)
        # run_sweep imports the pool class when it needs one, from its module
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        flags = ["conjecture", "--all-connected", "5", "-d", "1,2"]
        _, serial = run_cli(capsys, *flags, "--jobs", "1")
        _, pooled = run_cli(capsys, *flags, "--jobs", "2")
        assert chunks == [3]  # one task per graph: 31 // (4 chunks * 2 workers)
        assert _without_millis(pooled) == _without_millis(serial)

    def test_error_exit_sits_between_counterexample_and_timeout(self):
        assert cli.sweep_exit({"counterexamples": 1, "errors": 1, "timeouts": 1}) == 1
        assert cli.sweep_exit({"counterexamples": 0, "errors": 1, "timeouts": 1}) == 3
        assert cli.sweep_exit({"counterexamples": 0, "errors": 0, "timeouts": 1}) == 2

    def test_counterexample_outranks_timeout(self):
        assert cli.sweep_exit({"counterexamples": 1, "timeouts": 3}) == 1
        assert cli.sweep_exit({"counterexamples": 0, "timeouts": 3}) == 2
        assert cli.sweep_exit({"counterexamples": 0, "timeouts": 0}) == 0

    def test_wrong_clustered_value_raises(self, monkeypatch):
        # the clustered equality is a theorem; the check must survive python -O
        real = cli.chromatic_clustered

        def off_by_one(*args, **kwargs):
            res = real(*args, **kwargs)
            res.value += 1
            return res
        monkeypatch.setattr(cli, "chromatic_clustered", off_by_one)
        g = cycle_graph(5)  # d = 2: no clustered solve runs at d = 1
        with pytest.raises(SweepInvariantError, match="clustered"):
            cli._sweep_record(g, emit_graph6(g), 2, chromatic_improper(g, 0), [],
                              time.monotonic() + 60.0)

    def test_product_solves_start_from_the_lifted_base_colouring(self, monkeypatch):
        # an optimal colouring of G copied onto each fibre bounds both product solves
        given = []
        real_improper, real_clustered = cli.chromatic_improper, cli.chromatic_clustered

        def recording(real):
            def solve(*args, upper_witness=None, **kwargs):
                res = real(*args, upper_witness=upper_witness, **kwargs)
                given.append((upper_witness, res))
                return res
            return solve
        monkeypatch.setattr(cli, "chromatic_improper", recording(real_improper))
        monkeypatch.setattr(cli, "chromatic_clustered", recording(real_clustered))
        [record] = cli._sweep_graph(cycle_graph(5), (2,), 60.0)
        assert record.status == "verified"
        (none, base), (improper, _), (clustered, _) = given
        assert none is None
        assert improper == clustered == lift_colouring(base.witness, 3)

    def test_timeout_is_per_instance(self, monkeypatch):
        # the slow base solve is charged to every d, the slow d = 1 solve to d = 1 only
        budgets = []
        real_improper, real_clustered = cli.chromatic_improper, cli.chromatic_clustered

        def slowed(real):
            def solve(*args, timeout, **kwargs):
                budgets.append(timeout)
                time.sleep({1: 0.05, 2: 0.1}.get(len(budgets), 0.0))
                return real(*args, timeout=timeout, **kwargs)
            return solve
        monkeypatch.setattr(cli, "chromatic_improper", slowed(real_improper))
        monkeypatch.setattr(cli, "chromatic_clustered", slowed(real_clustered))
        records = cli._sweep_graph(cycle_graph(5), (1, 2), 60.0)
        assert [r.status for r in records] == ["verified", "verified"]
        # base, improper at d = 1, improper and clustered at d = 2
        assert budgets[0] == 60.0 and len(budgets) == 4
        assert all(b <= 60.0 - 0.05 for b in budgets[1:])
        assert budgets[2] > 60.0 - 0.05 - 0.1
        assert budgets[3] <= budgets[2]

    def test_base_solve_and_annotations_run_once_per_graph(self, capsys, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(cli, name)

            def call(*args, **kwargs):
                calls.append((name, args[-1] if len(args) > 1 else None))  # d, t or none
                return real(*args, **kwargs)
            monkeypatch.setattr(cli, name, call)
        for name in ("chromatic_improper", "chromatic_clustered", "check_clustered",
                     "clique_number", "hoffman_bilu"):
            counting(name)
        code, payload = run_cli(capsys, "conjecture", "--all-connected", "5", "-d", "1,2")
        assert code == 0 and payload["instances"] == 62
        count = Counter(calls)
        assert count[("chromatic_improper", 0)] == 31  # 31 connected graphs on <= 5 vertices
        assert count[("chromatic_improper", 1)] == count[("chromatic_improper", 2)] == 31
        assert count[("chromatic_clustered", 3)] == 31 and count[("chromatic_clustered", 2)] == 0
        # every d = 1 clustered witness is the improper one, re-checked
        assert count[("check_clustered", 2)] == 31
        assert count[("clique_number", None)] == 31
        assert count[("hoffman_bilu", 0)] == 30  # K1 has no edges

    def test_a_d1_witness_that_is_not_2_clustered_raises(self, monkeypatch):
        real = cli.chromatic_improper

        def one_class(g, d, **kwargs):
            res = real(g, d, **kwargs)
            if d == 1:
                res.witness = Colouring.from_list([1] * g.n)
            return res
        monkeypatch.setattr(cli, "chromatic_improper", one_class)
        g = cycle_graph(5)
        with pytest.raises(SweepInvariantError, match="not 2-clustered"):
            cli._sweep_record(g, emit_graph6(g), 1, real(g, 0), [], time.monotonic() + 60.0)
        [record] = cli._sweep_graph(g, (1,), 60.0)
        assert record.status == "error" and record.error["type"] == "SweepInvariantError"

    def test_a_failure_at_one_d_errors_that_d_only(self, capsys, monkeypatch):
        flags = ["conjecture", "--all-connected", "4", "-d", "1,2,3"]
        _, clean = run_cli(capsys, *flags)
        real_report, real_improper = cli.bound_report, cli.chromatic_improper
        base_solves = []

        def failing(product, d, *args, **kwargs):
            if d == 2:
                raise RuntimeError("injected failure")
            return real_report(product, d, *args, **kwargs)

        def counting(g, d, **kwargs):
            if d == 0:
                base_solves.append(g)
            return real_improper(g, d, **kwargs)
        monkeypatch.setattr(cli, "bound_report", failing)
        monkeypatch.setattr(cli, "chromatic_improper", counting)
        code, payload = run_cli(capsys, *flags)
        assert code == 3 and payload["errors"] == 10 and clean["errors"] == 0
        assert len(base_solves) == 10  # the failure at d = 2 leaves G's one base solve
        for rec, ref in zip(_without_millis(payload)["records"], _without_millis(clean)["records"]):
            if rec["d"] != 2:
                assert rec == ref
                continue
            assert rec["status"] == "error" and rec["graph6"] == ref["graph6"]
            assert rec["error"]["message"] == "injected failure"


def _drop_millis(value):
    """The JSON value with every "millis" key removed, at any depth."""
    if isinstance(value, dict):
        return {k: _drop_millis(v) for k, v in value.items() if k != "millis"}
    if isinstance(value, list):
        return [_drop_millis(v) for v in value]
    return value


# argv and the sha256 of its payload, re-dumped with indent 2 and "millis" dropped
GOLDEN = {
    "bounds-petersen-d0": (["bounds", "--named", "petersen", "-d", "0"],
                           "265e074c7fc750a6b04a883ce5e992fb76b1281ce6dcf27504a3de6da0ea810e"),
    "bounds-petersen-d1": (["bounds", "--named", "petersen", "-d", "1"],
                           "c693e1fb1b12a51f1129ec8dc5b92cf9a8ab123ae8ba13d10f5d75e7decc6771"),
    "bounds-petersen-d2": (["bounds", "--named", "petersen", "-d", "2"],
                           "c5067b282a1ff744ccd74e4d3d8b1d2b9771dd2c5eda02fe492f574ff371b3db"),
    "bounds-paley9-d0": (["bounds", "--named", "paley9", "-d", "0"],
                         "b25682e4acab0a99dffd47fb075913e74a1653f6b1df9aa0c78414789d70ad4d"),
    "bounds-paley9-d1": (["bounds", "--named", "paley9", "-d", "1"],
                         "32aea2ee3820c2651559900a03c0f6e178d42839a706e9d24606a483fd173bec"),
    "bounds-paley9-d2": (["bounds", "--named", "paley9", "-d", "2"],
                         "7c911fd005a3b3d393447c799889ebb9824d10dd5aae61d52bbed464e4311cce"),
    "bounds-bowtie-d0": (["bounds", "--named", "bowtie", "-d", "0"],
                         "265e1e1b8ae2bf245a60bec461a08c7c6908f87493e9a1ce9ba811757a06a275"),
    "bounds-bowtie-d1": (["bounds", "--named", "bowtie", "-d", "1"],
                         "eaf2207db9398f6eecadad4a269e3987f43dd0c1fb2479d9d7c0589c266b54bf"),
    "bounds-bowtie-d2": (["bounds", "--named", "bowtie", "-d", "2"],
                         "75a2ea0071fcca3a9cc8cf7ca6cafec8d970d86299bba9fb7b4562ad056658aa"),
    "exact-improper": (["exact", "--named", "petersen", "--mode", "improper", "-d", "1"],
                       "8b7877faf25ef01ddb5f2a62a5901e0c580d31216ae4d3a43fb940001c0ef6d9"),
    "exact-fractional": (["exact", "--named", "c5", "--mode", "fractional"],
                         "4a382aafa495d0a0ceca71c8d770b13ca2febf4849d7aeace7c7d837a280b3c6"),
    "exact-fractional-t2": (["exact", "--named", "c5", "--mode", "fractional", "-t", "2"],
                            "165d49dda4a8f82f7960a503db5304c2ab828c7eba14299d099e17aaa2b407c1"),
    "exact-alpha": (["exact", "--named", "petersen", "--mode", "alpha", "-d", "1"],
                    "4d5d32476d3c5ced5a669c33e429ee1d6ebffabb755f40c804649456d73993e7"),
    "exact-clique": (["exact", "--named", "paley9", "--mode", "clique"],
                     "cf339150d2134f2472df18883c2b2d2cf19c7b88858b53936560eb4849f4d06b"),
    "exact-bfold": (["exact", "--named", "c5", "--mode", "proper", "-b", "2"],
                    "ac3273fd58648ff6d70e3dad43e11e4e4c3ebe8820719cac6fb487beaee0ba15"),
    "exact-clustered": (["exact", "--named", "petersen", "--mode", "clustered", "-t", "2"],
                        "7fbbaffcccdd42af982944546a499902c1005a36c4cb3d314695ebcd8b9596f4"),
    "diagnose": (["diagnose", "--named", "paley9"],
                 "01c5852eca1a3afc140f907e72450e9eb0f6e5d7cbb54df6329fe6a9cbdd2d4b"),
    "diagnose-uniqueness": (["diagnose", "--named", "paley9", "--uniqueness"],
                            "ecb4e472b2644e96aff403e0d82608778552efb551177c9f9a659b55caaca688"),
    "transfer-c5": (["transfer", "--named", "c5", "-t", "2"],
                    "eb30c2aa9debf0e7b3e5fe1bb0fa947c5a1ebd854b963cc5008b97ecab3bc62a"),
    "transfer-petersen": (["transfer", "--named", "petersen", "-t", "3"],
                          "fdbe0091936eacb89575b2e342c1945bf152178159b1f594eea69c79e48c756d"),
    "transfer-bowtie": (["transfer", "--named", "bowtie", "-t", "2", "-l", "2"],
                        "00b820824421833c54813e180546091eb48b1320faa3d34af23c437258217736"),
    # the solved transfers eliminate no cycle; this colouring of C4 x K2 has one
    "transfer-c4-colours": (["transfer", "--named", "c4", "-t", "2", "--colours", "1,2,1,2,3,3,4,4"],
                            "c1aab46c8289f0c5bd8d29fff411428d0a3b96db12bc82772ed2250c300beee8"),
    "conjecture": (["conjecture", "--all-connected", "5", "-d", "1,2"],
                   "8578be0bdab5fac7c7412893226738ffe25d98999470c9df639d26e5b8a3c770"),
    "spectrum": (["spectrum", "--named", "petersen", "--kind", "laplacian"],
                 "cd31d7a9ffa4dc7d40dd60d43e826271ab2dd5b166ea89308be36b6a2c38b8e8"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_payload_is_pinned(capsys, name):
    """Every command's JSON, ``millis`` aside, is the one these digests were taken from."""
    argv, digest = GOLDEN[name]
    code, payload = run_cli(capsys, *argv)
    assert code == 0
    text = json.dumps(_drop_millis(payload), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSweepReference:
    """``run_sweep`` gives the records of the per-(graph, d) reference, ``millis`` aside."""

    def test_every_connected_graph_up_to_6(self, connected_catalogue):
        graphs = tuple(g for n in sorted(connected_catalogue) for g in connected_catalogue[n])
        ds = (1, 2, 3)
        payload = cli.run_sweep(cli.SweepSpec("reference", graphs, ds, 60.0, 1))
        reference = [sweep_instance(g, d).to_json() for g in graphs for d in ds]
        assert payload["instances"] == len(reference) == 143 * 3
        assert _without_millis(payload) == _without_millis({**payload, "records": reference})

    def test_disconnected_and_edgeless_graphs(self, capsys, tmp_path):
        graphs = [disjoint_union(cycle_graph(5), complete_graph(3)), empty_graph(4),
                  empty_graph(1), empty_graph(0), disjoint_union(complete_graph(2), empty_graph(2))]
        path = tmp_path / "corpus.g6"
        path.write_text("".join(emit_graph6(g) + "\n" for g in graphs))
        code, payload = run_cli(capsys, "conjecture", "--graph6-file", str(path), "-d", "1,2")
        assert code == 0 and payload["instances"] == 10
        reference = [sweep_instance(g, d).to_json() for g in graphs for d in (1, 2)]
        assert _without_millis(payload) == _without_millis({**payload, "records": reference})



def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSweepScript:
    script = _load_script("conjecture_sweep")

    @pytest.mark.parametrize("flags", [
        ["--max-n", "9"], ["--max-n", "0"], ["-d", "0"], ["-d", "x"],
        ["--jobs", "0"], ["--timeout", "0"], ["--timeout", "nan"], ["--timeout", "inf"],
        ["--max-n", "3", "-d", "13"], ["--max-n", "x"], ["--bogus"], ["--jobs"],
    ])
    def test_bad_flag_is_an_input_error(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(sys, "argv", ["conjecture_sweep.py", *flags])
        assert self.script.main() == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_missing_out_directory_is_refused_before_the_sweep(self, capsys, monkeypatch,
                                                               tmp_path):
        target = tmp_path / "missing" / "sweep.json"
        monkeypatch.setattr(sys, "argv", ["conjecture_sweep.py", "--max-n", "3", "-d", "1",
                                          "--out", str(target)])
        assert self.script.main() == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_errors_are_counted(self, capsys, monkeypatch):
        _fail_on_k3(monkeypatch)
        monkeypatch.setattr(sys, "argv", ["conjecture_sweep.py", "--max-n", "3", "-d", "1"])
        assert self.script.main() == 3
        out = capsys.readouterr().out
        assert "errors: 1" in out and f"{K3}  d=1  RuntimeError: injected failure" in out

    def test_small_sweep_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["conjecture_sweep.py", "--max-n", "3", "-d", "1"])
        assert self.script.main() == 0
        assert "instances: 4" in capsys.readouterr().out  # 1 + 1 + 2 connected graphs

    def test_reports_generation_per_n(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "sweep.json"
        monkeypatch.setattr(sys, "argv", ["conjecture_sweep.py", "--max-n", "4", "-d", "1",
                                          "--out", str(target)])
        assert self.script.main() == 0
        out = capsys.readouterr().out
        generation = json.loads(target.read_text())["generation"]
        assert [(row["n"], row["graphs"]) for row in generation] == [(1, 1), (2, 1), (3, 2), (4, 6)]
        assert all(row["seconds"] >= 0 for row in generation)
        for row in generation:
            assert f"n={row['n']}  {row['graphs']:7d} connected graphs  {row['seconds']:.3f} s" in out


class TestBoundsTableScript:
    script = _load_script("bounds_table")

    @pytest.mark.parametrize("flags", [
        ["-d", "x"], ["-d", "-1"], ["-d", "0,,1"], ["--named", "nonsense"], ["--named", "c2"],
        ["--named", "k41"], ["--named", "c5", "--named", "nonsense"], ["--bogus"], ["-d"],
    ])
    def test_bad_flag_is_an_input_error(self, capsys, monkeypatch, flags):
        monkeypatch.setattr(sys, "argv", ["bounds_table.py", *flags])
        assert self.script.main() == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_table_rows(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["bounds_table.py", "--named", "c5", "-d", "0,1"])
        assert self.script.main() == 0
        rows = capsys.readouterr().out.splitlines()[2:]
        assert [row.split()[:2] + row.split()[-3:] for row in rows] == [
            ["c5", "0", "3", "3", "tight"], ["c5", "1", "2", "2", "tight"]]
