"""End-to-end CLI pipeline: file interchange, exit codes, reproducibility."""

import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import latticefold
from latticefold.cli import main
from latticefold.core import PolynomialObjective, load_problem
from latticefold.reduction import QuadratizationResult, VerificationReport, quadratize
from latticefold.solvers import color_graph


def run(argv):
    return main([str(a) for a in argv])


def usage_error(argv, capsys):
    """Run argv, expect argparse's exit 2 with a usage message and no
    traceback, and return the error line."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err, err
    return err.splitlines()[-1]


def input_error(argv, capsys):
    """Run argv, expect exit 2 with a single `error:` line and no traceback,
    and return the message."""
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err, err
    return err[len("error: "):-1]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestEncode:
    def test_coord_tet_n11(self, workdir, capsys):
        assert run(["encode", "coord-tet", "--seq", "HPPPPHPPPPH", "--L", "3",
                    "--out", "p.json"]) == 0
        out = capsys.readouterr().out
        assert "qubits=297" in out
        doc = json.loads((workdir / "p.json").read_text())
        assert doc["num_vars"] == 297
        assert doc["layout"]["type"] == "coordinate"
        assert (workdir / "p.json.manifest.json").exists()

    def test_turn_tet_short_sequence_no_gates(self, workdir):
        assert run(["encode", "turn-tet", "--seq", "HPH", "--out", "t.json"]) == 0
        doc = json.loads((workdir / "t.json").read_text())
        assert doc["layout"]["interaction_qubits"] == {}

    def test_tiny_grid_is_input_error(self, workdir):
        assert run(["encode", "coord-cart", "--seq", "HHHH", "--L", "1",
                    "--out", "x.json"]) == 2

    def test_unknown_residue_is_input_error(self, workdir):
        assert run(["encode", "coord-cart", "--seq", "HZH", "--out", "x.json"]) == 2

    def test_fasta_input(self, workdir):
        (workdir / "seq.fa").write_text(">rec\nHPPH\n")
        assert run(["encode", "turn-cart", "--fasta", "seq.fa", "--out", "f.json"]) == 0
        doc = json.loads((workdir / "f.json").read_text())
        assert doc["sequence"] == "HPPH"


class TestReduce:
    def test_degree2_pass_through_terms(self, workdir):
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2",
                    "--out", "p.json"]) == 0
        assert run(["reduce", "p.json", "--out", "q.json"]) == 0
        a = json.loads((workdir / "p.json").read_text())
        b = json.loads((workdir / "q.json").read_text())
        assert a["terms"] == b["terms"]
        assert b["aux_map"] == []

    def test_turn_tet_n6_reduces_and_verifies(self, workdir):
        assert run(["encode", "turn-tet", "--seq", "HHHHHH", "--out", "h.json"]) == 0
        assert run(["reduce", "h.json", "--verify-budget", "14", "--out", "hq.json"]) == 0
        doc = json.loads((workdir / "hq.json").read_text())
        assert doc["verification"]["gap_source"] == "certificate"
        assert doc["verification"]["lift_residual"] <= 1e-9

    def test_weak_alpha_fails_verification(self, workdir):
        (workdir / "h.json").write_text(json.dumps({
            "num_vars": 3, "offset": 0.0, "space": "boolean",
            "terms": [{"vars": [0, 1, 2], "coeff": -8.0}],
        }))
        assert run(["reduce", "h.json", "--alpha", "fixed:0.001", "--out", "bad.json"]) == 3


    def test_worst_case_alpha_passes_with_rounding(self, workdir, capsys):
        """alpha = 4.78e7: the certificate proves the gap with no scan, and the
        lift residual is float64 rounding at most, within the derived
        tolerance, so the reduction verifies."""
        assert run(["encode", "turn-tet", "--seq", "LKKKKLKKKKL", "--interaction", "mj",
                    "--out", "tt.json"]) == 0
        assert run(["reduce", "tt.json", "--alpha", "worst_case", "--out", "ttq.json"]) == 0
        assert "verification FAILED" not in capsys.readouterr().err
        verification = json.loads((workdir / "ttq.json").read_text())["verification"]
        assert verification["gap_source"] == "certificate" and verification["checked"] == 0
        assert verification["gap_bound"] > 1e7 and 0.0 <= verification["lift_residual"] < 1e-5

    def test_exhaustive_check_writes_the_whole_report(self, workdir):
        # alpha 10,000 is below the largest per-auxiliary mass, so the certificate
        # is not positive and the exhaustive scan decides
        assert run(["encode", "turn-tet", "--seq", "LKKLKK", "--interaction", "mj", "--out", "tt.json"]) == 0
        assert run(["reduce", "tt.json", "--alpha", "fixed:10000", "--out", "ttq.json"]) == 0
        verification = json.loads((workdir / "ttq.json").read_text())["verification"]
        assert list(verification) == [f.name for f in dataclasses.fields(VerificationReport)]
        assert verification["gap_source"] == "exhaustive" and verification["checked"] == 1 << 19
        assert 0.0 <= verification["lift_residual"] <= verification["tolerance"]
        assert verification["gap_bound"] == 948.0

    def test_weak_alpha_below_the_whole_mass_certifies(self, workdir, capsys):
        # alpha 40,000 is below M = 90,460 but above every per-auxiliary mass
        assert run(["encode", "turn-tet", "--seq", "LKKLKK", "--interaction", "mj", "--out", "tt.json"]) == 0
        assert run(["reduce", "tt.json", "--alpha", "fixed:40000", "--out", "ttq.json"]) == 0
        assert capsys.readouterr().out.endswith(" gap=21916\n")
        verification = json.loads((workdir / "ttq.json").read_text())["verification"]
        assert verification["gap_source"] == "certificate" and verification["checked"] == 0
        assert verification["gap_bound"] == pytest.approx(21916.0, abs=1e-6)

    def test_dropped_qubo_term_still_fails(self, workdir, monkeypatch, capsys):
        import latticefold.cli as cli

        def drop_smallest(problem, policy):
            result = quadratize(problem, policy)
            terms = dict(result.qubo.terms)
            del terms[min(terms, key=lambda k: abs(terms[k]))]
            qubo = PolynomialObjective(result.qubo.num_vars, terms, result.qubo.offset)
            return QuadratizationResult(qubo, result.aux_map, result.alpha)

        monkeypatch.setattr(cli, "quadratize", drop_smallest)
        assert run(["encode", "turn-tet", "--seq", "LKKKKLKKKKL", "--interaction", "mj",
                    "--out", "tt.json"]) == 0
        assert run(["reduce", "tt.json", "--alpha", "worst_case", "--out", "ttq.json"]) == 3
        assert capsys.readouterr().err.startswith("verification FAILED: the lift residual ")

    def test_non_positive_gap_still_fails(self, workdir, capsys):
        assert run(["encode", "turn-tet", "--seq", "LKKKKLKKKKL", "--interaction", "mj",
                    "--out", "tt.json"]) == 0
        capsys.readouterr()
        assert run(["reduce", "tt.json", "--alpha", "fixed:1", "--out", "ttq.json"]) == 3
        verification = json.loads((workdir / "ttq.json").read_text())["verification"]
        assert verification["gap_source"] == "certificate" and verification["checked"] == 0
        assert verification["gap_bound"] <= 0.0
        out, err = capsys.readouterr()
        assert out.startswith("aux=102 alpha=1.0 discrepancy=") and f"gap={verification['gap_bound']:.6g}\n" in out
        assert err == (f"verification FAILED: the certificate {verification['gap_bound']:.6g} is not positive "
                       "and n = 43 > --verify-budget 20\n")

    def test_failure_names_its_reason(self, workdir, capsys):
        (workdir / "h.json").write_text(json.dumps({
            "num_vars": 3, "offset": 0.0, "space": "boolean",
            "terms": [{"vars": [0, 1, 2], "coeff": -8.0}],
        }))
        assert run(["reduce", "h.json", "--alpha", "fixed:0.5", "--out", "q.json"]) == 3
        assert capsys.readouterr().err == ("verification FAILED: the exhaustive scan found an "
                                           "inconsistent setting at gap -7.5\n")


class TestSolve:
    def _encode_small(self, workdir):
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2",
                    "--out", "p.json"]) == 0

    def test_brute_refusal_exit_code(self, workdir):
        self._encode_small(workdir)
        assert run(["solve", "p.json", "--solver", "brute", "--brute-limit", "10",
                    "--out", "b.csv"]) == 4

    def test_seed_required_for_sa(self, workdir):
        self._encode_small(workdir)
        assert run(["solve", "p.json", "--solver", "sa", "--out", "s.csv"]) == 2

    def test_sa_deterministic_across_reruns_and_jobs(self, workdir):
        self._encode_small(workdir)
        base = ["solve", "p.json", "--solver", "sa", "--seed", "5",
                "--restarts", "16", "--sweeps", "60", "--cooling-rate", "0.998",
                "--out", "s.csv"]
        assert run(base) == 0
        first = (workdir / "s.csv").read_bytes()
        assert run(base + ["--jobs", "4"]) == 0
        assert (workdir / "s.csv").read_bytes() == first
        assert run(base + ["--jobs", "8"]) == 0
        assert (workdir / "s.csv").read_bytes() == first

    def test_pt_writes_trajectory_and_summary(self, workdir):
        self._encode_small(workdir)
        assert run(["solve", "p.json", "--solver", "pt", "--seed", "3",
                    "--num-temps", "8", "--t-min", "0.5", "--t-max", "10",
                    "--sweeps", "50", "--measure-sweeps", "10", "--out", "pt.csv"]) == 0
        lines = (workdir / "pt.csv").read_text().splitlines()
        assert lines[0].startswith("# manifest=")
        assert lines[1] == "assignment,energy,replica,sweep"
        assert len(lines) == 2 + 10 + 1  # window rows + best row
        summary = json.loads((workdir / "pt.summary.json").read_text())
        assert summary["solver"] == "pt"
        assert "problem_fingerprint" in summary
        problem, _ = load_problem(workdir / "p.json")
        assert summary["colour_classes"] == len(color_graph(problem).classes) > 1

    @pytest.mark.parametrize("solver, options, rows", [
        ("sa", ["--seed", "3", "--restarts", "4", "--sweeps", "10"],
         [",0.0,0,0", ",0.0,1,0", ",0.0,2,0", ",0.0,3,0"]),
        ("brute", [], [",0.0,0,0"]),
        ("pt", ["--seed", "3", "--num-temps", "4", "--sweeps", "10", "--measure-sweeps", "3"],
         [",0.0,0,7", ",0.0,0,8", ",0.0,0,9", ",0.0,-1,10"]),
    ])
    def test_zero_variable_problem(self, workdir, solver, options, rows):
        # turn-cart HH fixes its only turn, so the problem has no variables
        assert run(["encode", "turn-cart", "--seq", "HH", "--out", "hh.json"]) == 0
        assert json.loads((workdir / "hh.json").read_text())["num_vars"] == 0
        assert run(["solve", "hh.json", "--solver", solver, *options, "--out", "s.csv"]) == 0
        lines = (workdir / "s.csv").read_text().splitlines()
        assert lines[1:] == ["assignment,energy,replica,sweep", *rows]
        summary = json.loads((workdir / "s.summary.json").read_text())
        assert summary["num_vars"] == 0 and summary["records"] == len(rows)
        if solver == "pt":
            assert summary["num_temps"] == 4 and summary["measure_sweeps"] == 3
        if solver != "brute":
            assert summary["colour_classes"] == 0

    def test_zero_variable_offset_is_every_energy(self, workdir):
        (workdir / "c.json").write_text('{"num_vars": 0, "offset": -2.5, "terms": []}')
        for solver in ("sa", "pt", "brute"):
            assert run(["solve", "c.json", "--solver", solver, "--seed", "1", "--restarts", "2",
                        "--num-temps", "2", "--sweeps", "4", "--measure-sweeps", "2",
                        "--out", "s.csv"]) == 0
            rows = (workdir / "s.csv").read_text().splitlines()[2:]
            assert rows and all(row.split(",")[:2] == ["", "-2.5"] for row in rows)


class TestMalformedInput:
    @pytest.mark.parametrize("space", ["boolean", "ising"])
    @pytest.mark.parametrize("term, message", [
        ({"vars": [0, 5], "coeff": 1.0}, "out of range"),
        ({"vars": [0, -1], "coeff": 1.0}, "out of range"),
        ({"vars": [0, 1], "coeff": float("nan")}, "not finite"),
        ({"vars": [0, 1]}, "no 'coeff' key"),
        ({"coeff": 1.0}, "no 'vars' key"),
        ({"vars": [0.9, 1.7], "coeff": -1.0}, "variables [0.9, 1.7] are not a list of integers"),
        ({"vars": ["1"], "coeff": 1.0}, "variables ['1'] are not a list of integers"),
        ({"vars": [True], "coeff": 1.0}, "variables [True] are not a list of integers"),
        ({"vars": "", "coeff": 1.0}, "variables '' are not a list of integers"),
    ])
    def test_bad_problem_term_exits_2(self, workdir, capsys, space, term, message):
        (workdir / "bad.json").write_text(json.dumps({
            "num_vars": 3, "offset": 0.0, "space": space, "terms": [term],
        }))
        assert message in input_error(["solve", "bad.json", "--solver", "sa", "--seed", "1",
                                       "--out", "s.csv"], capsys)

    def test_constant_terms_that_overflow_exit_2(self, workdir, capsys):
        (workdir / "big.json").write_text(json.dumps({"num_vars": 1, "offset": 1e308, "terms": [
            {"vars": [], "coeff": 1e308}, {"vars": [0], "coeff": 1.0}]}))
        assert input_error(["solve", "big.json", "--solver", "brute", "--out", "b.csv"], capsys) == (
            "malformed problem document: offset inf is not finite")
        assert not (workdir / "b.csv").exists()

    def test_non_json_problem_exits_2(self, workdir, capsys):
        (workdir / "bad.json").write_text('{"num_vars": 3, "terms": [')
        message = input_error(["solve", "bad.json", "--solver", "brute", "--out", "b.csv"], capsys)
        assert message.startswith("bad.json is not a JSON document")

    @pytest.mark.parametrize("text, message", [
        ("{bad", "sum.json is not a JSON document"),
        ("[1, 2]", "sum.json is not a JSON object"),
        ('{"tau_seconds": "abc"}', "sum.json: tau_seconds 'abc' is not a number"),
        ('{"tau_seconds": NaN}', "tau nan is not finite"),
        ('{"tau_seconds": Infinity}', "tau inf is not finite"),
        ('{"tau_seconds": 0.5, "seed": "1,2\\nx"}', "sum.json: seed '1,2\\nx' is not an integer"),
        ('{"tau_seconds": 0.5, "seed": 1.5}', "sum.json: seed 1.5 is not an integer"),
        ('{"tau_seconds": 0.5, "seed": true}', "sum.json: seed True is not an integer"),
    ])
    def test_malformed_tts_summary_exits_2(self, workdir, capsys, text, message):
        (workdir / "s.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n"
                                       "01,1.0,0,3\n")
        (workdir / "sum.json").write_text(text)
        assert input_error(["analyze", "tts", "--samples", "s.csv", "--summary", "sum.json",
                            "--reference-energy", "1.0", "--out", "t.csv"], capsys).startswith(message)

    @pytest.mark.parametrize("label", ["a,b", "a\nb", "a\rb"])
    def test_tts_model_with_a_separator_exits_2(self, workdir, capsys, label):
        (workdir / "s.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n"
                                       "01,1.0,0,3\n")
        assert input_error(["analyze", "tts", "--samples", "s.csv", "--tau", "0.5", "--reference-energy",
                            "1.0", "--model", label, "--out", "t.csv"], capsys) == (
            f"--model {label!r} holds a comma or a line break")
        assert not (workdir / "t.csv").exists()

    def test_tts_without_reference_energy_exits_2(self, workdir, capsys):
        (workdir / "s.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n"
                                       "01,1.0,0,3\n")
        assert usage_error(["analyze", "tts", "--samples", "s.csv", "--tau", "0.5", "--out", "t.csv"],
                           capsys).endswith("the following arguments are required: --reference-energy")

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "sod", "--out", "s.csv"], "the following arguments are required: run1, run2"),
        (["analyze", "tts", "--reference-energy", "1", "--tau", "1", "--out", "t.csv"],
         "the following arguments are required: --samples"),
    ], ids=["sod-no-runs", "tts-no-samples"])
    def test_missing_analysis_input_exits_2(self, workdir, capsys, argv, message):
        assert usage_error(argv, capsys).endswith(message)

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "sod", "a.csv", "b.csv", "--tau", "3", "--out", "s.csv"], "--tau 3"),
        (["analyze", "sod", "a.csv", "b.csv", "--models", "zzz", "--out", "s.csv"], "--models zzz"),
        (["analyze", "scaling", "--samples", "x.csv", "--out", "s.csv"], "--samples x.csv"),
        (["analyze", "tts", "--samples", "x.csv", "--reference-energy", "1", "--bins", "7", "--out", "t.csv"],
         "--bins 7"),
    ], ids=["sod-tau", "sod-models", "scaling-samples", "tts-bins"])
    def test_option_of_another_analysis_exits_2(self, workdir, capsys, argv, message):
        assert usage_error(argv, capsys).endswith(f"unrecognized arguments: {message}")
        assert not (workdir / argv[-1]).exists()

    @pytest.mark.parametrize("model, edit, message", [
        ("coord-tet", lambda doc: doc.pop("sequence"), "no model sequence"),
        ("coord-tet", lambda doc: doc.update(interaction="bogus"), "interaction must be an object"),
        ("coord-tet", lambda doc: doc.update(model="turn-hex"), "unknown model 'turn-hex'"),
        ("turn-tet", lambda doc: doc["layout"].pop("turns"), "turn layout needs a turns list"),
        ("turn-tet", lambda doc: doc["layout"]["turns"][2].__setitem__(0, "v99"), "layout turns[2]"),
        ("turn-cart", lambda doc: doc["layout"]["turns"][1].__setitem__(0, "x"), "layout turns[1]"),
        ("turn-cart", lambda doc: doc["layout"]["turns"][0].append(0), "is not 3 bits"),
        ("coord-tet", lambda doc: doc["layout"].pop("bead_blocks"), "bead_blocks list"),
        ("coord-tet", lambda doc: doc["layout"].update(L="2"), "integer L >= 2"),
        ("coord-tet", lambda doc: doc["layout"]["bead_blocks"][1].pop("start"),
         "layout bead_blocks[1] is not a block of integer bead, class, start and count"),
        ("coord-tet", lambda doc: doc["layout"]["bead_blocks"][3].update(start=10**6),
         "layout bead_blocks[3] is not a block"),
        ("coord-tet", lambda doc: doc["layout"]["bead_blocks"][0].update({"class": 2}),
         "layout bead_blocks[0] is not a block"),
        ("coord-tet", lambda doc: doc["layout"]["bead_blocks"][0].update({"class": True}),
         "layout bead_blocks[0] is not a block"),
        ("coord-tet", lambda doc: doc["layout"]["bead_blocks"][0].update(start=False),
         "layout bead_blocks[0] is not a block"),
        ("turn-tet", lambda doc: doc["layout"]["turns"][2].__setitem__(0, 1.0), "layout turns[2]"),
        ("turn-tet", lambda doc: doc["layout"]["turns"][2].__setitem__(0, 0.0), "layout turns[2]"),
        ("turn-cart", lambda doc: doc["layout"]["turns"][1].__setitem__(0, True), "layout turns[1]"),
        ("turn-cart", lambda doc: doc["layout"]["turns"][1].__setitem__(0, False), "layout turns[1]"),
        ("coord-tet", lambda doc: doc["interaction"].update(pair_energies=[]),
         "interaction pair_energies [] must be an object"),
        ("turn-tet", lambda doc: doc["interaction"]["pair_energies"].update(HH="x"),
         "interaction pair_energies HH 'x' is not a number"),
        ("turn-tet", lambda doc: doc["interaction"]["pair_energies"].update(HH=float("nan")),
         "interaction pair_energies HH nan is not finite"),
        ("coord-tet", lambda doc: doc["interaction"].update(alphabet=5), "interaction alphabet 5 must be a string"),
    ], ids=["no-sequence", "bogus-interaction", "unknown-model", "no-turns", "turn-var-out-of-range",
            "turn-bit-not-a-variable", "turn-block-width", "no-bead-blocks", "grid-side-not-int",
            "bead-block-no-start", "bead-block-out-of-range", "bead-block-bad-class",
            "bead-block-class-true", "bead-block-start-false", "turn-bit-float-one", "turn-bit-float-zero",
            "turn-bit-true", "turn-bit-false",
            "pair-energies-not-an-object", "pair-energy-not-a-number", "pair-energy-nan",
            "alphabet-not-a-string"])
    def test_malformed_model_document_decode_exits_2(self, workdir, capsys, model, edit, message):
        assert run(["encode", model, "--seq", "HHHH", "--L", "2", "--out", "p.json"]) == 0
        doc = json.loads((workdir / "p.json").read_text())
        edit(doc)
        (workdir / "p.json").write_text(json.dumps(doc))
        (workdir / "s.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n"
                                       + "0" * doc["num_vars"] + ",1.0,0,3\n")
        assert message in input_error(["decode", "p.json", "s.csv", "--out", "folds.json"], capsys)

    @pytest.mark.parametrize("argv, message", [
        (["reduce", "h.json", "--alpha", "fixed:abc", "--out", "q.json"],
         "penalty strength 'abc' is not a number"),
        (["reduce", "h.json", "--alpha", "fixed:nan", "--out", "q.json"],
         "penalty strength 'nan' is not finite"),
        (["reduce", "h.json", "--alpha", "fixed:inf", "--out", "q.json"],
         "penalty strength 'inf' is not finite"),
        (["encode", "turn-tet", "--seq", "HHHHHH", "--penalty", "lambda_1=abc", "--out", "t.json"],
         "penalty lambda_1 'abc' is not a number"),
        (["encode", "turn-tet", "--seq", "HHHHHH", "--penalty", "lambda_1=nan", "--out", "t.json"],
         "penalty lambda_1 'nan' is not finite"),
        (["--config", "conf.txt", "solve", "h.json", "--solver", "sa", "--seed", "1", "--out", "s.csv"],
         "config key restart names no option of any subcommand"),
        (["reduce", "scaled.json", "--alpha", "scaled", "--out", "q.json"],
         "penalty lambda_global 'abc' is not a number"),
        (["reduce", "listed.json", "--alpha", "scaled", "--out", "q.json"],
         "--alpha scaled needs a problem with a lambda_global penalty"),
        (["analyze", "sod", "a.csv", "a.csv", "--bins", "0", "--out", "sod.csv"],
         "histogram bins must be at least 1, got 0"),
        (["analyze", "tts", "--samples", "a.csv", "--reference-energy", "-1", "--tau", "nan",
          "--out", "t.csv"], "tau nan is not finite"),
        (["analyze", "tts", "--samples", "a.csv", "--reference-energy", "-1", "--tau", "inf",
          "--out", "t.csv"], "tau inf is not finite"),
        (["encode", "turn-cart", "--seq", "HPPHHP", "--penalty", "lambda_bak=5", "--out", "t.json"],
         "penalty 'lambda_bak' is not one of this model's multipliers: lambda_back, lambda_olap, lambda_turn"),
        (["encode", "turn-tet", "--seq", "HPPHHP", "--penalty", "variant=1", "--out", "t.json"],
         "penalty 'variant' is not one of this model's multipliers: "
         "lambda_1, lambda_2, lambda_gc, lambda_global, lambda_turn"),
        (["solve", "q.json", "--solver", "sa", "--seed", "1", "--t0", "nan", "--out", "s.csv"],
         "t0 nan is not finite"),
        (["solve", "q.json", "--solver", "sa", "--seed", "1", "--t0", "inf", "--out", "s.csv"],
         "t0 inf is not finite"),
        (["analyze", "tts", "--samples", "a.csv", "--reference-energy", "nan", "--tau", "1",
          "--out", "t.csv"], "reference energy nan is not finite"),
        (["analyze", "tts", "--samples", "a.csv", "--reference-energy", "-1", "--tol", "nan", "--tau", "1",
          "--out", "t.csv"], "tol nan is not finite"),
        (["embed", "q.json", "--embedding", "twice.json", "--hardware", "hw.txt", "--out", "e.json"],
         "twice.json: chain '0' names a node twice"),
        (["solve", "repeated.json", "--solver", "brute", "--out", "b.csv"],
         "problem term 0: an ising term names one or two distinct spins, got [1, 1]"),
        (["solve", "three.json", "--solver", "brute", "--out", "b.csv"],
         "problem term 0: an ising term names one or two distinct spins, got [0, 1, 2]"),
        (["reduce", "spins.json", "--out", "r.json"], "quadratize expects a Boolean-space problem"),
        (["analyze", "sod", "a.csv", "a.csv", "--threshold", "nan", "--out", "sod.csv"],
         "threshold nan is not finite"),
        (["solve", "q.json", "--solver", "sa", "--seed", "1", "--jobs", "0", "--out", "s.csv"],
         "--jobs must be at least 1, got 0"),
        (["solve", "q.json", "--solver", "sa", "--seed", "1", "--jobs", "-3", "--out", "s.csv"],
         "--jobs must be at least 1, got -3"),
        (["gen-dataset", "--len", "0", "--seed", "1", "--out", "d.json"],
         "--len must be at least 2, the shortest chain a model encodes, got 0"),
        (["gen-dataset", "--len", "1", "--seed", "1", "--out", "d.json"],
         "--len must be at least 2, the shortest chain a model encodes, got 1"),
        (["solve", "fractional.json", "--solver", "brute", "--out", "b.csv"],
         "malformed problem document: num_vars=2.9, offset=0.0, space='boolean'"),
        (["solve", "true.json", "--solver", "brute", "--out", "b.csv"],
         "malformed problem document: num_vars=True, offset=0.0, space='boolean'"),
        (["encode", "coord-tet", "--L", "2", "--out", "p.json"], "provide exactly one of --seq or --fasta"),
        (["encode", "coord-tet", "--seq", "HHHH", "--fasta", "none.fa", "--L", "2", "--out", "p.json"],
         "provide exactly one of --seq or --fasta"),
        (["solve", "q.json", "--solver", "sa", "--out", "s.csv"], "--seed is mandatory for sa and pt"),
        (["solve", "q.json", "--solver", "pt", "--out", "s.csv"], "--seed is mandatory for sa and pt"),
    ], ids=["alpha-not-a-number", "alpha-nan", "alpha-inf",
            "penalty-not-a-number", "penalty-nan", "config-unknown-key", "lambda-global-not-a-number",
            "penalties-not-an-object", "sod-zero-bins", "tau-nan", "tau-inf", "penalty-unknown-name",
            "penalty-not-a-multiplier", "t0-nan", "t0-inf", "reference-energy-nan", "tol-nan",
            "chain-node-twice", "ising-repeated-spin", "ising-three-spins", "reduce-ising",
            "sod-threshold-nan", "jobs-zero", "jobs-negative", "dataset-len-0", "dataset-len-1",
            "num-vars-fractional", "num-vars-boolean", "encode-no-sequence", "encode-seq-and-fasta",
            "sa-no-seed", "pt-no-seed"])
    def test_bad_argument_exits_2(self, workdir, capsys, argv, message):
        problem = {
            "num_vars": 3, "offset": 0.0, "space": "boolean",
            "terms": [{"vars": [0, 1, 2], "coeff": -8.0}],
        }
        (workdir / "h.json").write_text(json.dumps(problem))
        (workdir / "q.json").write_text(json.dumps({**problem, "terms": [{"vars": [0, 1], "coeff": -1.0}]}))
        (workdir / "hw.txt").write_text("0 1\n1 2\n2 3\n")
        (workdir / "twice.json").write_text('{"0": [0, 0, 1], "1": [2], "2": [3]}')
        for name, vars_ in (("repeated", [1, 1]), ("three", [0, 1, 2]), ("spins", [0, 1])):
            doc = {**problem, "space": "ising", "terms": [{"vars": vars_, "coeff": 1.0}]}
            (workdir / f"{name}.json").write_text(json.dumps(doc))
        (workdir / "scaled.json").write_text(json.dumps({**problem, "penalties": {"lambda_global": "abc"}}))
        (workdir / "listed.json").write_text(json.dumps({**problem, "penalties": [20.0]}))
        (workdir / "fractional.json").write_text(json.dumps({**problem, "num_vars": 2.9}))
        (workdir / "true.json").write_text(json.dumps({**problem, "num_vars": True}))
        (workdir / "a.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n"
                                       "011,-1.0,0,3\n110,-2.0,0,4\n")
        (workdir / "conf.txt").write_text("restart = 6\n")
        assert input_error(argv, capsys) == message

    @pytest.mark.parametrize("options, message", [
        (["--num-temps", "1", "--t-min", "0"], "t_min must be positive"),
        (["--num-temps", "1", "--t-min", "-5"], "t_min must be positive"),
        (["--num-temps", "1", "--t-min", "nan"], "t_min nan is not finite"),
        (["--num-temps", "4", "--t-max", "inf"], "t_max inf is not finite"),
    ], ids=["one-temp-zero", "one-temp-negative", "one-temp-nan", "t-max-inf"])
    def test_bad_pt_temperature_exits_2(self, workdir, capsys, options, message):
        (workdir / "q.json").write_text(json.dumps({
            "num_vars": 2, "offset": 0.0, "space": "boolean", "terms": [{"vars": [0, 1], "coeff": -1.0}],
        }))
        assert input_error(["solve", "q.json", "--solver", "pt", "--seed", "1", "--sweeps", "4",
                            "--measure-sweeps", "2", *options, "--out", "s.csv"], capsys) == message
        assert not (workdir / "s.csv").exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", ".", "--solver", "brute", "--out", "o.csv"], "[Errno 21] Is a directory: '.'"),
        (["decode", "p.json", "bin.csv", "--out", "f.json"], "bin.csv is not a text file: "),
        (["--config", "bin.csv", "gen-dataset", "--seed", "1", "--out", "d.json"], "bin.csv is not a text file: "),
        (["encode", "turn-tet", "--fasta", "bin.csv", "--out", "t.json"], "bin.csv is not a text file: "),
        (["embed", "p.json", "--embedding", "emb.json", "--hardware", "bin.csv", "--out", "e.json"],
         "bin.csv is not a text file: "),
        (["decode", "p.json", "nan.csv", "--out", "f.json"], "nan.csv line 3: energy 'nan' is not finite"),
        (["analyze", "tts", "--samples", "inf.csv", "--reference-energy", "1", "--tau", "1", "--out", "t.csv"],
         "inf.csv line 3: energy 'inf' is not finite"),
    ], ids=["problem-directory", "samples-not-utf8", "config-not-utf8", "fasta-not-utf8", "hardware-not-utf8",
            "samples-energy-nan", "samples-energy-inf"])
    def test_unreadable_input_exits_2(self, workdir, capsys, argv, message):
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2", "--out", "p.json"]) == 0
        (workdir / "bin.csv").write_bytes(b"# manifest=-\nassignment,energy,replica,sweep\n\xff\xfe01,1.0,0,3\n")
        for energy in ("nan", "inf"):
            (workdir / f"{energy}.csv").write_text(f"# manifest=-\nassignment,energy,replica,sweep\n01,{energy},0,3\n")
        (workdir / "emb.json").write_text('{"0": [0]}')  # embed reads it before the hardware file
        assert input_error(argv, capsys).startswith(message)
        assert not (workdir / argv[-1]).exists()

    def test_ragged_samples_csv_exits_2(self, workdir, capsys):
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2",
                    "--out", "p.json"]) == 0
        (workdir / "s.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n"
                                       "010,1.0,0,3\n01,2.0,1,4\n")
        assert "line 4" in input_error(["decode", "p.json", "s.csv", "--out", "folds.json"], capsys)


class TestDecodePipeline:
    def test_folds_carry_flags_and_geometry(self, workdir):
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2",
                    "--out", "p.json"]) == 0
        assert run(["solve", "p.json", "--solver", "sa", "--seed", "11",
                    "--restarts", "24", "--sweeps", "80", "--cooling-rate", "0.997",
                    "--out", "s.csv"]) == 0
        assert run(["decode", "p.json", "s.csv", "--out", "folds.json"]) == 0
        doc = json.loads((workdir / "folds.json").read_text())
        assert doc["count"] == 24
        for rec in doc["folds"]:
            if rec["physical"]:
                assert rec["geometric_energy"] == pytest.approx(
                    rec["sample_energy"], abs=1e-6
                )

    def test_reduced_problem_decodes_via_projection(self, workdir):
        assert run(["encode", "turn-tet", "--seq", "HHHHHH", "--out", "h.json"]) == 0
        assert run(["reduce", "h.json", "--out", "hq.json"]) == 0
        assert run(["solve", "hq.json", "--solver", "brute", "--out", "b.csv"]) == 0
        assert run(["decode", "hq.json", "b.csv", "--out", "f.json"]) == 0
        doc = json.loads((workdir / "f.json").read_text())
        assert doc["count"] >= 1
        assert all(rec["decode_feasible"] for rec in doc["folds"])
        assert run(["decode", "h.json", "b.csv", "--out", "g.json"]) == 0
        assert json.loads((workdir / "g.json").read_text())["folds"] == doc["folds"]


class TestAnalyze:
    def test_sod_pipeline(self, workdir, capsys):
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2",
                    "--out", "p.json"]) == 0
        for seed, name in ((1, "a.csv"), (2, "b.csv")):
            assert run(["solve", "p.json", "--solver", "pt", "--seed", seed,
                        "--num-temps", "16", "--t-min", "1", "--t-max", "100",
                        "--sweeps", "120", "--measure-sweeps", "40",
                        "--out", name]) == 0
        assert run(["analyze", "sod", "a.csv", "b.csv", "--out", "sod.csv"]) == 0
        out = capsys.readouterr().out
        assert "classification=" in out
        rows = [ln for ln in (workdir / "sod.csv").read_text().splitlines()
                if ln and not ln.startswith(("#", "q_bin_center"))]
        assert len(rows) == 101
        counts = sum(int(r.split(",")[1]) for r in rows)
        assert counts == 40

    def test_sod_window_mismatch(self, workdir):
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2",
                    "--out", "p.json"]) == 0
        assert run(["solve", "p.json", "--solver", "pt", "--seed", "1",
                    "--num-temps", "8", "--sweeps", "50", "--t-max", "100",
                    "--measure-sweeps", "10", "--out", "a.csv"]) == 0
        assert run(["solve", "p.json", "--solver", "pt", "--seed", "2",
                    "--num-temps", "8", "--sweeps", "50", "--t-max", "100",
                    "--measure-sweeps", "20", "--out", "b.csv"]) == 0
        assert run(["analyze", "sod", "a.csv", "b.csv", "--out", "s.csv"]) == 2

    def test_tts_all_hits_gives_tau(self, workdir):
        (workdir / "s.csv").write_text(
            "# manifest=-\nassignment,energy,replica,sweep\n"
            "01,-1.0,0,0\n10,-1.0,1,0\n"
        )
        assert run(["analyze", "tts", "--samples", "s.csv", "--tau", "2.5",
                    "--reference-energy", "-1.0", "--out", "t.csv"]) == 0
        row = (workdir / "t.csv").read_text().splitlines()[-1]
        assert row.endswith(",1.0,2.5")  # p_ground=1 -> tts = tau

    def test_tts_labels_come_from_options_only(self, workdir):
        (workdir / "s.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n01,-1.0,0,0\n")
        (workdir / "sum.json").write_text('{"tau_seconds": 2.5, "seed": 7, "model": "a,b", "N": 9}')
        argv = ["analyze", "tts", "--samples", "s.csv", "--summary", "sum.json", "--reference-energy", "-1.0"]
        assert run([*argv, "--out", "t.csv"]) == 0
        assert run([*argv, "--model", "coord-tet", "--n", "4", "--out", "u.csv"]) == 0
        assert (workdir / "t.csv").read_text().splitlines()[-1] == "-,-1,7,2.5,1.0,2.5"
        assert (workdir / "u.csv").read_text().splitlines()[-1] == "coord-tet,4,7,2.5,1.0,2.5"

    @pytest.mark.parametrize("tau, energies, row", [
        ("2", "-1.0", "-,-1,7,2,1.0,2"),
        ("0.1", "-1.0,0.0", f"-,-1,7,0.1,0.5,{0.1 * math.log(1.0 - 0.99) / math.log(1.0 - 0.5)!r}"),
        ("2.5", "0.0", "-,-1,7,2.5,0.0,inf"),
    ], ids=["integer-tau", "float-tau", "never-succeeds"])
    def test_tts_writes_tau_and_tts_as_read(self, workdir, tau, energies, row):
        (workdir / "s.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n"
                                       + "".join(f"01,{e},0,0\n" for e in energies.split(",")))
        (workdir / "sum.json").write_text(f'{{"tau_seconds": {tau}, "seed": 7}}')
        assert run(["analyze", "tts", "--samples", "s.csv", "--summary", "sum.json",
                    "--reference-energy", "-1.0", "--out", "t.csv"]) == 0
        assert (workdir / "t.csv").read_text().splitlines()[1:] == ["model,N,seed,tau_s,p_ground,tts_s", row]

    def test_scaling_csv_schema(self, workdir):
        assert run(["analyze", "scaling", "--models", "coord-tet",
                    "--n-min", "8", "--n-max", "10", "--out", "sc.csv"]) == 0
        lines = (workdir / "sc.csv").read_text().splitlines()
        assert lines[1] == "model,N,L,qubits,density,couplers_per_qubit,resolution"
        assert len(lines) == 2 + 3


# the fixture's hardware graph as JSON, with one more edge in place of %s
HW_JSON = '{"edges": [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], %s]}'


class TestEmbedCli:
    def _fixture(self, workdir):
        (workdir / "hw.txt").write_text("0 1\n1 2\n0 2\n2 3\n3 4\n")
        (workdir / "emb.json").write_text('{"0": [0, 1], "1": [2], "2": [3]}')
        (workdir / "p.json").write_text(json.dumps({
            "num_vars": 3, "offset": 0.0, "space": "boolean",
            "terms": [{"vars": [0], "coeff": 1.0}, {"vars": [1], "coeff": -2.0},
                      {"vars": [0, 1], "coeff": 3.0}, {"vars": [1, 2], "coeff": -1.0}],
        }))

    def test_embed_unembed_roundtrip(self, workdir, capsys):
        self._fixture(workdir)
        assert run(["embed", "p.json", "--embedding", "emb.json",
                    "--hardware", "hw.txt", "--out", "e.json"]) == 0
        out = capsys.readouterr().out
        assert "chain_strength=1.5" in out  # max|Q|/2
        assert run(["solve", "e.json", "--solver", "brute", "--out", "phys.csv"]) == 0
        assert run(["unembed", "phys.csv", "--embedded", "e.json",
                    "--problem", "p.json", "--seed", "1", "--out", "log.csv"]) == 0
        lines = (workdir / "log.csv").read_text().splitlines()
        assert lines[1] == "assignment,energy,replica,sweep,chain_break_fraction"
        assert run(["solve", "p.json", "--solver", "brute", "--out", "ref.csv"]) == 0
        ref = (workdir / "ref.csv").read_text().splitlines()[2]
        got = lines[2]
        assert got.split(",")[0] == ref.split(",")[0]
        assert float(got.split(",")[1]) == float(ref.split(",")[1])
        assert got.split(",")[4] == "0.0"

    def test_unembed_output_feeds_decode_and_tts(self, workdir):
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2", "--out", "p.json"]) == 0
        doc = json.loads((workdir / "p.json").read_text())
        # logical i on nodes 2i and 2i + 1, and one edge per coupling
        edges = [(2 * i, 2 * i + 1) for i in range(doc["num_vars"])]
        edges += [(2 * t["vars"][0], 2 * t["vars"][1]) for t in doc["terms"] if len(t["vars"]) == 2]
        (workdir / "hw.txt").write_text("".join(f"{u} {v}\n" for u, v in edges))
        (workdir / "emb.json").write_text(json.dumps({i: [2 * i, 2 * i + 1] for i in range(doc["num_vars"])}))
        assert run(["embed", "p.json", "--embedding", "emb.json", "--hardware", "hw.txt",
                    "--out", "e.json"]) == 0
        assert run(["solve", "e.json", "--solver", "sa", "--seed", "5", "--restarts", "6",
                    "--sweeps", "20", "--out", "phys.csv"]) == 0
        assert run(["unembed", "phys.csv", "--embedded", "e.json", "--problem", "p.json",
                    "--out", "five.csv"]) == 0
        lines = (workdir / "five.csv").read_text().splitlines()
        assert lines[1].endswith(",chain_break_fraction")
        (workdir / "four.csv").write_text("".join(",".join(ln.split(",")[:4]) + "\n" for ln in lines))
        outputs = {}
        for name in ("five", "four"):
            assert run(["decode", "p.json", f"{name}.csv", "--out", f"{name}.folds.json"]) == 0
            assert run(["analyze", "tts", "--samples", f"{name}.csv", "--reference-energy", "0",
                        "--tau", "1", "--out", f"{name}.tts.csv"]) == 0
            folds = json.loads((workdir / f"{name}.folds.json").read_text())
            folds.pop("manifest")
            outputs[name] = folds, (workdir / f"{name}.tts.csv").read_text().splitlines()[1:]
        assert outputs["five"] == outputs["four"]
        assert outputs["five"][0]["count"] == 6

    @pytest.mark.parametrize("value", ["1.5", "-0.1", "nan", "abc"])
    def test_bad_chain_break_fraction_exits_2(self, workdir, capsys, value):
        (workdir / "s.csv").write_text("# manifest=-\nassignment,energy,replica,sweep,chain_break_fraction\n"
                                       f"01,1.0,0,3,0.5\n10,2.0,1,3,{value}\n")
        assert input_error(["analyze", "tts", "--samples", "s.csv", "--reference-energy", "1",
                            "--tau", "1", "--out", "t.csv"], capsys) == (
            "s.csv line 4: expected 4 fields assignment,energy,replica,sweep, "
            f"or 5 with a chain_break_fraction in [0, 1], got '10,2.0,1,3,{value}'")

    def test_invalid_embedding_rejected(self, workdir):
        self._fixture(workdir)
        (workdir / "emb.json").write_text('{"0": [0, 3], "1": [2], "2": [4]}')
        assert run(["embed", "p.json", "--embedding", "emb.json",
                    "--hardware", "hw.txt", "--out", "e.json"]) == 2

    def test_phantom_chain_rejected(self, workdir, capsys):
        # a chain for a logical index the problem lacks would couple its nodes
        # to a real chain's (here node 1, logical 1's qubit, to nodes 2 and 3)
        (workdir / "hw.txt").write_text("0 1\n1 2\n2 3\n")
        (workdir / "emb.json").write_text('{"0": [0], "1": [1], "7": [1, 2, 3]}')
        (workdir / "p.json").write_text(json.dumps({
            "num_vars": 2, "offset": 0.0, "space": "boolean",
            "terms": [{"vars": [0], "coeff": 1.0}, {"vars": [0, 1], "coeff": -2.0}],
        }))
        assert input_error(["embed", "p.json", "--embedding", "emb.json", "--hardware", "hw.txt",
                            "--out", "e.json"], capsys) == (
            "invalid embedding: chain of 7 names no variable of the problem (0..1)")
        assert not (workdir / "e.json").exists()

    @pytest.mark.parametrize("text, message", [
        ('{"0": "x", "1": [2], "2": [3]}', "emb.json: chain '0' is 'x', not a list of nodes"),
        ('{"0": [0, "a"], "1": [2], "2": [3]}', "emb.json: malformed chain '0'"),
        ('{"0": [0, 1], "one": [2], "2": [3]}', "emb.json: malformed chain 'one'"),
        ('{"0": [0, 1], ', "emb.json is not a JSON document"),
        ('{"0": [0, Infinity], "1": [2], "2": [3]}', "emb.json: malformed chain '0'"),
        ('{"0": [], "1": [2], "2": [3]}', "emb.json: chain '0' is empty"),
        ('{"0": [0.9, 1.2], "1": [2], "2": [3]}', "emb.json: malformed chain '0'"),
        ('{"0": [0, true], "1": [2], "2": [3]}', "emb.json: malformed chain '0'"),
        ('{"0": [0, "1"], "1": [2], "2": [3]}', "emb.json: malformed chain '0'"),
    ], ids=["chain-x", "node-not-int", "logical-not-int", "not-json", "node-infinite", "empty-chain",
            "node-fraction", "node-bool", "node-numeral-string"])
    def test_malformed_embedding_exits_2(self, workdir, capsys, text, message):
        self._fixture(workdir)
        (workdir / "emb.json").write_text(text)
        assert input_error(["embed", "p.json", "--embedding", "emb.json", "--hardware", "hw.txt",
                            "--out", "e.json"], capsys).startswith(message)

    @pytest.mark.parametrize("name, text, message", [
        ("hw.txt", "0 1\n1 2 # ok\n0 x\n", "hardware edge ['0', 'x'] is not two integers"),
        ("hw.txt", "0 1\n1 2 3\n", "hardware edge ['1', '2', '3'] is not two integers"),
        ("hw.json", '{"edges": 5}', "hw.json: edges and nodes must be lists"),
        ("hw.json", '{"edges": [[0, 1], [2]]}', "hardware edge [2] is not two integers"),
        ("hw.json", '{"edges": [[0, 1]', "hw.json is not a JSON document"),
        ("hw.json", '{"edges": [[Infinity, 1]]}', "hardware edge [inf, 1] is not two integers"),
        ("hw.json", '{"edges": [[0, 1]], "nodes": [[0]]}', "hardware nodes must be integers"),
        ("hw.json", '{"edges": [[0, 1]], "nodes": ["a"]}', "hardware nodes must be integers"),
        ("hw.json", HW_JSON % '"34"', "hardware edge '34' is not two integers"),
        ("hw.json", HW_JSON % "[3, 4.5]", "hardware edge [3, 4.5] is not two integers"),
        ("hw.json", HW_JSON % '["3", "4"]', "hardware edge ['3', '4'] is not two integers"),
        ("hw.json", HW_JSON % "[3, true]", "hardware edge [3, True] is not two integers"),
        ("hw.json", HW_JSON % "34", "hardware edge 34 is not two integers"),
        ("hw.json", '{"edges": [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4]], "nodes": [true]}',
         "hardware nodes must be integers"),
    ], ids=["edge-not-int", "edge-three-nodes", "edges-not-list", "edge-one-node", "not-json",
            "edge-infinite", "node-list", "node-not-int", "edge-string", "edge-fraction",
            "edge-numeral-strings", "edge-bool", "edge-number", "node-bool"])
    def test_malformed_hardware_exits_2(self, workdir, capsys, name, text, message):
        self._fixture(workdir)
        (workdir / name).write_text(text)
        assert input_error(["embed", "p.json", "--embedding", "emb.json", "--hardware", name,
                            "--out", "e.json"], capsys).startswith(message)

    def test_chain_strength_not_a_number_exits_2(self, workdir, capsys):
        self._fixture(workdir)
        argv = ["embed", "p.json", "--embedding", "emb.json", "--hardware", "hw.txt", "--out", "e.json"]
        assert usage_error(argv + ["--chain-strength", "abc"], capsys).endswith(
            "argument --chain-strength: 'abc' is neither auto nor a number")
        (workdir / "conf.txt").write_text("chain-strength = abc\n")
        assert usage_error(["--config", "conf.txt", *argv], capsys).endswith(
            "argument --chain-strength: 'abc' is neither auto nor a number")
        (workdir / "conf.txt").write_text("chain-strength = 2.5\n")
        assert run(["--config", "conf.txt", *argv]) == 0
        assert json.loads((workdir / "e.json").read_text())["embedding"]["chain_strength"] == 2.5

    def test_chain_strength_that_overflows_the_offset_exits_2(self, workdir, capsys):
        self._fixture(workdir)
        (workdir / "emb.json").write_text('{"0": [0, 1, 2], "1": [3], "2": [4]}')
        assert input_error(["embed", "p.json", "--embedding", "emb.json", "--hardware", "hw.txt",
                            "--chain-strength", "1e308", "--out", "e.json"], capsys) == (
            "chain strength 1e+308 makes the embedded offset inf")
        assert not (workdir / "e.json").exists()

    @pytest.mark.parametrize("space, coeff, argv, message", [
        ("boolean", 1.5e308, ["embed", "p.json", "--embedding", "emb.json", "--hardware", "hw.txt",
                              "--out", "e.json"], "cannot convert to Ising form: offset inf is not finite"),
        ("ising", 8e307, ["embed", "p.json", "--embedding", "emb.json", "--hardware", "hw.txt",
                          "--out", "e.json"], "cannot convert to Boolean form: offset -inf is not finite"),
        ("ising", 8e307, ["solve", "p.json", "--solver", "brute", "--out", "e.json"],
         "cannot convert to Boolean form: offset -inf is not finite"),
    ], ids=["embed-boolean", "embed-ising-auto-strength", "solve-ising"])
    def test_conversion_that_overflows_the_offset_exits_2(self, workdir, capsys, space, coeff, argv,
                                                          message):
        # the document's offset is 0.0; the three fields, moved into the other space's
        # offset, sum beyond the largest float
        self._fixture(workdir)
        (workdir / "p.json").write_text(json.dumps({"num_vars": 3, "offset": 0.0, "space": space,
                                                    "terms": [{"vars": [i], "coeff": coeff} for i in range(3)]}))
        assert input_error(argv, capsys) == message
        assert not (workdir / "e.json").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_chain_strength_not_finite_exits_2(self, workdir, capsys, value):
        self._fixture(workdir)
        assert usage_error(["embed", "p.json", "--embedding", "emb.json", "--hardware", "hw.txt",
                            f"--chain-strength={value}", "--out", "e.json"], capsys).endswith(
            f"argument --chain-strength: '{value}' is not finite")
        assert not (workdir / "e.json").exists()

    @pytest.mark.parametrize("edit, samples, message", [
        (lambda chains: chains.update({"7": [1]}), None,
         "e.json: chains must be keyed by the variables 0..2 of p.json; extra or missing: [7]"),
        (lambda chains: chains.pop("2"), None,
         "e.json: chains must be keyed by the variables 0..2 of p.json; extra or missing: [2]"),
        (None, "010,1.0,0,0\n", "sample covers (3,) nodes, embedding uses 4"),
    ], ids=["stray-chain", "missing-chain", "short-sample"])
    def test_unembed_error_leaves_no_output(self, workdir, capsys, edit, samples, message):
        self._fixture(workdir)
        assert run(["embed", "p.json", "--embedding", "emb.json",
                    "--hardware", "hw.txt", "--out", "e.json"]) == 0
        assert run(["solve", "e.json", "--solver", "brute", "--out", "phys.csv"]) == 0
        if edit is not None:
            doc = json.loads((workdir / "e.json").read_text())
            edit(doc["embedding"]["chains"])
            (workdir / "e.json").write_text(json.dumps(doc))
        if samples is not None:
            (workdir / "phys.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n" + samples)
        assert input_error(["unembed", "phys.csv", "--embedded", "e.json", "--problem", "p.json",
                            "--out", "log.csv"], capsys) == message
        assert not (workdir / "log.csv").exists()

    def test_hardware_file_is_closed(self, workdir):
        self._fixture(workdir)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["embed", "p.json", "--embedding", "emb.json",
                        "--hardware", "hw.txt", "--out", "e.json"]) == 0
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("edit, message", [
        (lambda emb: emb.pop("node_order"), "e.json: embedding node_order must be a list of node ids"),
        (lambda emb: emb.update(node_order=[0, "a", 2, 3]), "e.json: embedding node_order must be"),
        (lambda emb: emb.pop("chains"), "e.json embedding: chains must be a non-empty object"),
        (lambda emb: emb["chains"].update({"1": "x"}), "e.json embedding: chain '1' is 'x'"),
        (lambda emb: emb["chains"].update({"1": [9]}), "e.json: chain nodes [9] are missing from node_order"),
        (lambda emb: emb.update(chains={}), "e.json embedding: chains must be a non-empty object"),
        (lambda emb: emb["chains"].update({"1": []}), "e.json embedding: chain '1' is empty"),
        (lambda emb: emb["chains"].update({"1": [float("inf")]}), "e.json embedding: malformed chain '1'"),
        (lambda emb: emb["chains"].update({"1": [2.0]}), "e.json embedding: malformed chain '1'"),
        (lambda emb: emb["node_order"].__setitem__(0, True), "e.json: embedding node_order must be"),
    ], ids=["no-node-order", "node-not-int", "no-chains", "chain-x", "unplaced-node", "empty-chains",
            "empty-chain", "node-infinite", "node-fraction", "node-order-bool"])
    def test_malformed_embedded_document_unembed_exits_2(self, workdir, capsys, edit, message):
        self._fixture(workdir)
        assert run(["embed", "p.json", "--embedding", "emb.json",
                    "--hardware", "hw.txt", "--out", "e.json"]) == 0
        assert run(["solve", "e.json", "--solver", "brute", "--out", "phys.csv"]) == 0
        doc = json.loads((workdir / "e.json").read_text())
        edit(doc["embedding"])
        (workdir / "e.json").write_text(json.dumps(doc))
        assert input_error(["unembed", "phys.csv", "--embedded", "e.json", "--problem", "p.json",
                            "--out", "log.csv"], capsys).startswith(message)


class TestDatasetAndConfig:
    def test_gen_dataset_deterministic(self, workdir):
        assert run(["gen-dataset", "--count", "4", "--len", "8", "--seed", "9",
                    "--out", "d1.json"]) == 0
        assert run(["gen-dataset", "--count", "4", "--len", "8", "--seed", "9",
                    "--out", "d2.json"]) == 0
        a = json.loads((workdir / "d1.json").read_text())
        b = json.loads((workdir / "d2.json").read_text())
        assert [r["sequence"] for r in a["sequences"]] == [r["sequence"] for r in b["sequences"]]
        seq = a["sequences"][0]["sequence"]
        assert len(seq) == 8
        assert a["sequences"][0]["prefixes"]["4"] == seq[:4]

    def test_gen_dataset_of_no_sequences(self, workdir, capsys):
        assert run(["gen-dataset", "--count", "0", "--len", "8", "--seed", "9", "--out", "d.json"]) == 0
        assert capsys.readouterr().out == "sequences=0 length=8\n"
        doc = json.loads((workdir / "d.json").read_text())
        assert (doc["count"], doc["length"], doc["sequences"]) == (0, 8, [])

    @pytest.mark.parametrize("count, length, message", [
        ("-1", "8", "--count must be non-negative, got -1"),
        ("4", "-1", "--len must be at least 2, the shortest chain a model encodes, got -1"),
    ], ids=["count", "len"])
    def test_gen_dataset_negative_size_exits_2(self, workdir, capsys, count, length, message):
        assert input_error(["gen-dataset", "--count", count, "--len", length, "--seed", "9",
                            "--out", "d.json"], capsys) == message
        assert not (workdir / "d.json").exists()

    def test_input_files_are_closed(self, workdir):
        (workdir / "seq.fa").write_text(">rec\nHPPH\n")
        (workdir / "conf.txt").write_text("interaction = hp\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(["--config", "conf.txt", "encode", "turn-cart", "--fasta", "seq.fa",
                        "--out", "f.json"]) == 0
            gc.collect()
        assert [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_config_file_defaults(self, workdir):
        (workdir / "conf.txt").write_text("restarts = 6\ncooling-rate = 0.99\n")
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2",
                    "--out", "p.json"]) == 0
        assert run(["--config", "conf.txt", "solve", "p.json", "--solver", "sa",
                    "--seed", "1", "--sweeps", "30", "--out", "s.csv"]) == 0
        rows = (workdir / "s.csv").read_text().splitlines()
        assert len(rows) == 2 + 6  # restarts from the config file

    def test_config_sets_an_analysis_option(self, workdir):
        (workdir / "conf.txt").write_text("bins = 7\n")
        (workdir / "a.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n"
                                       "011,-1.0,0,3\n110,-2.0,0,4\n")
        assert run(["--config", "conf.txt", "analyze", "sod", "a.csv", "a.csv", "--out", "sod.csv"]) == 0
        assert len((workdir / "sod.csv").read_text().splitlines()) == 2 + 7

    def test_config_value_of_wrong_type_exits_2(self, workdir, capsys):
        (workdir / "conf.txt").write_text("sweeps = abc\n")
        assert run(["encode", "coord-tet", "--seq", "HHHH", "--L", "2", "--out", "p.json"]) == 0
        assert usage_error(["--config", "conf.txt", "solve", "p.json", "--solver", "sa",
                            "--seed", "1", "--out", "s.csv"], capsys).endswith(
            "argument --sweeps: invalid int value: 'abc'")

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_config_flag_takes_true_or_false(self, workdir, value):
        (workdir / "conf.txt").write_text(f"efficient_h3 = {value}\n")
        argv = ["encode", "coord-cart", "--seq", "HHHHH", "--L", "3"]
        assert run(["--config", "conf.txt", *argv, "--out", "c.json"]) == 0
        flag = ["--efficient-h3"] if value == "true" else []
        assert run([*argv, *flag, "--out", "f.json"]) == 0
        from_config = json.loads((workdir / "c.json").read_text())
        from_flag = json.loads((workdir / "f.json").read_text())
        assert from_config["layout"]["efficient_h3"] is (value == "true")
        del from_config["manifest"], from_flag["manifest"]
        assert from_config == from_flag

    def test_config_flag_other_value_exits_2(self, workdir, capsys):
        (workdir / "conf.txt").write_text("efficient_h3 = yes\n")
        assert input_error(["--config", "conf.txt", "encode", "coord-cart", "--seq", "HHHHH",
                            "--L", "3", "--out", "c.json"], capsys) == (
            "config flag efficient_h3 takes true or false, got 'yes'")

    @pytest.mark.parametrize("line, message", [
        ("help = true", "config key help names no option of any subcommand"),
        ("what = sod", "config key what names no option of any subcommand"),
        ("problem = p.json", "config key problem names only required arguments; give it on the command line"),
        ("out = x.json", "config key out names only required arguments; give it on the command line"),
    ], ids=["help", "what", "problem", "out"])
    def test_config_key_without_a_default_exits_2(self, workdir, capsys, line, message):
        """help, the analysis chooser, a positional (and unembed's required
        --problem) and the required --out take no default from a config file."""
        (workdir / "conf.txt").write_text(line + "\n")
        assert input_error(["--config", "conf.txt", "gen-dataset", "--seed", "1", "--out", "d.json"],
                           capsys) == message
        assert not (workdir / "d.json").exists()

    def test_config_sets_an_option_that_a_positional_shares(self, workdir):
        """model is encode's positional and analyze tts's --model label."""
        (workdir / "conf.txt").write_text("model = from-config\n")
        (workdir / "a.csv").write_text("# manifest=-\nassignment,energy,replica,sweep\n011,-1.0,0,3\n")
        assert run(["--config", "conf.txt", "analyze", "tts", "--samples", "a.csv",
                    "--reference-energy", "-1", "--tau", "0.5", "--out", "t.csv"]) == 0
        assert "from-config" in (workdir / "t.csv").read_text()

    def test_config_repeatable_key_exits_2(self, workdir, capsys):
        (workdir / "conf.txt").write_text("penalty = lambda_1=30\n")
        assert input_error(["--config", "conf.txt", "encode", "turn-tet", "--seq", "HHHHHH",
                            "--out", "t.json"], capsys) == (
            "config key penalty is repeatable; give it on the command line")


@pytest.mark.parametrize("argv", [
    [], ["encode"], ["reduce"], ["solve"], ["decode"], ["analyze"], ["analyze", "sod"], ["analyze", "tts"],
    ["analyze", "scaling"], ["embed"], ["unembed"], ["gen-dataset"],
], ids=lambda argv: "-".join(argv) or "top")
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: latticefold")


def test_cli_import_loads_no_process_pool():
    """Only `solve --jobs` > 1 uses the process pool: a fresh interpreter
    that imports the CLI has loaded neither of its modules."""
    code = ("import sys, latticefold.cli; "
            "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(Path(latticefold.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
