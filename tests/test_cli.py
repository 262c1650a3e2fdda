"""End-to-end CLI tests: run main() in process and inspect reports and codes."""

import ast
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quotdt import chern, cli, toric, vertex
from quotdt.errors import NonzeroFixedPartError
from quotdt.series import Series
from quotdt.vertex import EquivParams


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_render_report_writes_fractions_and_refuses_other_objects():
    # json writes tuples as arrays; the one hook writes a Fraction as 'p/q'
    # and refuses any other object instead of printing its str, also as a
    # table scalar or in a flat row, which once printed it
    report = {"values": {"v": (Fraction(1, 2), 3), "rows": ((1, Fraction(-2, 3)), [4])}}
    assert json.loads(cli.render_report(report, "json")) == {
        "values": {"v": ["1/2", 3], "rows": [[1, "-2/3"], [4]]}
    }
    table = cli.render_report(report, "table")
    assert table == 'values.v = 1/2, 3\nvalues.rows = [[1, "-2/3"], [4]]'
    scalars = {"s": "s", "b": True, "none": None, "f": 0.5, "q": Fraction(-2, 3)}
    assert cli.render_report(scalars, "table") == "s = s\nb = True\nnone = None\nf = 0.5\nq = -2/3"
    for value in ({1, 2}, [[1], {2}], (1, {2}), [Fraction(1, 2), {3}]):
        for fmt in ("json", "table"):
            with pytest.raises(TypeError, match="set is not JSON serializable"):
                cli.render_report({"values": {"x": value}}, fmt)


def test_toric_report_shape(capsys):
    report = run_json(capsys, "toric", "--space", "p3", "--bundle", "O", "--nmax", "1")
    assert list(report) == ["command", "inputs", "seed", "values", "verdicts"]
    assert report["command"] == "toric"
    assert report["seed"] == 0
    assert report["values"]["series"] == [1, 20]
    assert report["values"]["closed_formula"] == [1, 20]
    assert report["values"]["c3_t_omega"] == -20
    assert report["values"]["fixed_points"] == [1, 4]
    assert report["verdicts"]["series_matches_closed_formula"] == "MATCH"
    assert report["verdicts"]["coefficients"] == ["MATCH", "MATCH"]


def test_byte_determinism(capsys):
    argv = ("toric", "--space", "p3", "--bundle", "O", "--nmax", "1", "--seed", "11")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert hashlib.sha256(out1.encode()).digest() == hashlib.sha256(out2.encode()).digest()


def test_timing_flag_adds_elapsed(capsys):
    report = run_json(capsys, "macmahon", "--nmax", "2", "--timing")
    assert "elapsed_ms" in report
    report = run_json(capsys, "macmahon", "--nmax", "2")
    assert "elapsed_ms" not in report


def test_table_format(capsys):
    code, out, _ = run(
        capsys, "toric", "--space", "p3", "--bundle", "O", "--nmax", "1", "--format", "table"
    )
    assert code == 0
    assert "values.series = 1, 20" in out
    assert "verdicts.series_matches_closed_formula = MATCH" in out


def test_table_format_writes_a_list_of_records_as_json(capsys):
    code, out, _ = run(capsys, "cobordism", "--space", "prod:3", "--bundle", "O2", "--rank", "1",
                       "--format", "table")
    assert code == 0
    pairs = next(line for line in out.splitlines() if line.startswith("values.pairs = "))
    assert pairs.startswith('values.pairs = [{"lam": [3], "mu": []}, {"lam": [3], "mu": [3]}, ')


def test_config_file_equivalence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# p3 baseline\nspace=p3\nbundle=O\nnmax=1\nseed=11\n")
    _, direct, _ = run(
        capsys, "toric", "--space", "p3", "--bundle", "O", "--nmax", "1", "--seed", "11"
    )
    _, via_config, _ = run(capsys, "toric", "--config", str(cfg))
    assert direct == via_config


def test_flags_override_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("space=p3\nbundle=O\nnmax=2\n")
    report = run_json(capsys, "toric", "--config", str(cfg), "--nmax", "1")
    assert report["inputs"]["nmax"] == 1


def test_a_flag_overrides_a_config_boolean(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("nmax = 3\npower = -20\nnegate-q = no\n")
    negated = run(capsys, "macmahon", "--nmax", "3", "--power", "-20", "--negate-q")
    assert negated[0] == 0
    assert run(capsys, "macmahon", "--config", str(cfg), "--negate-q") == negated
    assert run(capsys, "macmahon", "--config", str(cfg)) != negated


def test_config_custom_space(tmp_path, capsys):
    # one-point blow-up of P^3 fed as raw charts; exponent is -18
    charts = [
        "-1,0,0;-1,1,0;-1,0,1",
        "0,-1,0;1,-1,0;0,-1,1",
        "0,0,-1;1,0,-1;0,1,-1",
        "1,0,0;-1,1,0;-1,0,1",
        "1,-1,0;0,1,0;0,-1,1",
        "1,0,-1;0,1,-1;0,0,1",
    ]
    cfg = tmp_path / "blowup.cfg"
    cfg.write_text("".join(f"chart={c}\n" for c in charts) + "bundle=O\nnmax=1\n")
    report = run_json(capsys, "toric", "--config", str(cfg))
    assert report["inputs"]["space"] == "custom"
    assert report["values"]["c3_t_omega"] == -18
    assert report["values"]["series"] == [1, 18]
    assert report["verdicts"]["series_matches_closed_formula"] == "MATCH"


def test_config_errors(tmp_path, capsys):
    bad_key = tmp_path / "a.cfg"
    bad_key.write_text("spaec=p3\n")
    code, _, err = run(capsys, "toric", "--config", str(bad_key), "--nmax", "0")
    assert code == 1 and "unknown config key" in err

    bad_line = tmp_path / "b.cfg"
    bad_line.write_text("space p3\n")
    code, _, err = run(capsys, "toric", "--config", str(bad_line), "--nmax", "0")
    assert code == 1 and "expected key=value" in err

    wrong_command = tmp_path / "c.cfg"
    wrong_command.write_text("command=chern\n")
    code, out, err = run(capsys, "toric", "--config", str(wrong_command), "--nmax", "0")
    assert (code, out) == (1, "")
    assert err == "usage error: config names command 'chern', got 'toric'\n"
    # a config that names the command it is given to runs as the flags alone
    same_command = tmp_path / "d.cfg"
    same_command.write_text("command = toric\nspace = p3\n")
    via_config = run(capsys, "toric", "--config", str(same_command), "--nmax", "1")
    assert via_config == run(capsys, "toric", "--space", "p3", "--nmax", "1")

    missing = tmp_path / "nope.cfg"
    code, _, err = run(capsys, "toric", "--config", str(missing), "--nmax", "0")
    assert code == 1 and "cannot read config" in err


def test_config_values_are_checked_like_flags(tmp_path, capsys):
    # each key is read through its flag's argparse Action: type, choices,
    # boolean and list handling come from build_parser alone
    base = "space=p3\nbundle=O\nnmax=1\n"
    table = tmp_path / "table.cfg"
    table.write_text(base + "format=table\n")
    _, direct, _ = run(
        capsys, "toric", "--space", "p3", "--bundle", "O", "--nmax", "1", "--format", "table"
    )
    code, via_config, _ = run(capsys, "toric", "--config", str(table))
    assert code == 0 and via_config == direct

    cases = [
        ("format=xml\n", "config key 'format' wants one of table, json, got 'xml'"),
        ("seed=eleven\n", "config key 'seed' wants an integer, got 'eleven'"),
        ("timing=maybe\n", "config key 'timing' wants a boolean, got 'maybe'"),
        ("seed=1\nseed=2\n", "config key 'seed' given more than once"),
        ("command=toric\ncommand=toric\n", "config key 'command' given more than once"),
        ("help=1\n", "unknown config key 'help' for toric"),
        ("config=other.cfg\n", "unknown config key 'config' for toric"),
        ("chart_index=0\n", "unknown config key 'chart_index' for toric"),
    ]
    for line, message in cases:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(base + line)
        code, out, err = run(capsys, "toric", "--config", str(cfg))
        assert (code, out) == (1, ""), line
        assert message in err, (line, err)


def test_usage_errors(capsys):
    cases = [
        ("toric", "--space", "nowhere", "--nmax", "1"),
        ("toric", "--space", "p3"),  # missing nmax
        ("toric", "--space", "p3", "--nmax", "1", "--trials", "1"),
        ("toric", "--space", "p3", "--nmax", "1", "--bundle", "O1.2"),  # arity
        ("toric", "--space", "p3", "--nmax", "1", "--bundle", "Q1"),
        ("toric", "--nmax", "1"),  # no space at all
        ("toric", "--space", "p3", "--nmax", "1", "--chart", "1,0,0;0,1,0"),
        ("toric", "--space", "p3", "--nmax", "1", "--rank", "2", "--bundle", "O"),
        ("cobordism", "--builtin", "unknown-dpr"),
        ("cobordism",),  # neither builtin nor space
        ("macmahon",),  # missing nmax
        ("vertex", "--space", "p3", "--chart-index", "9"),
        ("chern", "--space", "prod:2.2"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, (argv, err)
        assert "usage error" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1


def test_mismatch_exit_code(capsys, monkeypatch):
    # force a wrong reference series to exercise the oracle-mismatch path
    monkeypatch.setattr(
        cli, "dt_closed_formula", lambda rank, c3, order: Series((1,) + (999,) * order)
    )
    code, out, _ = run(capsys, "toric", "--space", "p3", "--bundle", "O", "--nmax", "1")
    assert code == 3
    report = json.loads(out)
    assert report["verdicts"]["series_matches_closed_formula"] == "MISMATCH"
    assert report["verdicts"]["coefficients"] == ["MATCH", "MISMATCH"]


def test_quadric_dpr_passes(capsys):
    report = run_json(capsys, "cobordism", "--builtin", "quadric-dpr")
    assert report["values"]["exponents"] == [-20, -18, -20, -18]
    assert report["verdicts"]["double_point_relation"] == "PASS"


def test_naive_dpr_fails_with_exit_2(capsys):
    code, out, _ = run(capsys, "cobordism", "--builtin", "naive-quadric-dpr")
    assert code == 2
    report = json.loads(out)
    assert report["verdicts"]["vector_identity"] == "FAIL"
    assert report["verdicts"]["exponent_identity"] == "FAIL"


def test_cobordism_decompose(capsys):
    report = run_json(capsys, "cobordism", "--space", "quadric", "--rank", "1")
    assert report["values"]["basis_size"] == 7
    assert report["values"]["coefficients"] == ["-3/2", "0", "5", "0", "0", "-5/2", "0"]
    assert report["verdicts"]["reconstructs"] == "PASS"


def test_macmahon_values(capsys):
    report = run_json(capsys, "macmahon", "--nmax", "4")
    assert report["values"]["coefficients"] == [1, 1, 3, 6, 13]


def test_macmahon_power_and_sign(capsys):
    report = run_json(
        capsys, "macmahon", "--nmax", "3", "--power", "-20", "--negate-q"
    )
    assert report["values"]["coefficients"] == [1, 20, 150, 400]


def test_vertex_single_box_table(capsys):
    report = run_json(
        capsys, "vertex", "--space", "p3", "--nmax", "1", "--chart-index", "0"
    )
    rows = report["values"]["tables"]["0"]
    assert rows[0] == {"partition": [[]], "character": []}
    assert rows[1]["character"] == [
        [[-1, -1, 0, 0], -1],
        [[-1, 0, -1, 0], -1],
        [[-1, 0, 0, 0], 1],
        [[0, -1, -1, 0], -1],
        [[0, -1, 0, 0], 1],
        [[0, 0, -1, 0], 1],
    ]
    assert report["verdicts"] == {"vd_zero": "PASS", "symmetry": "PASS"}
    assert len(report["values"]["contributions"]["0"]) == 1


def test_vertex_rank_two_cross_terms(capsys):
    report = run_json(
        capsys,
        "vertex", "--space", "p3", "--bundle", "O,O", "--nmax", "1", "--chart-index", "0",
    )
    rows = report["values"]["tables"]["0"]
    box_in_first_color = rows[1]["character"]
    assert [[0, 0, 0, 1, -1], 1] in box_in_first_color


def test_vertex_probe_does_not_retry_fixed_part(capsys, monkeypatch):
    # only a zero weight is a reason to draw new parameters; a nonzero
    # constant term is an invariant failure and must surface at once
    calls = []

    def broken(*args):
        calls.append(args)
        raise NonzeroFixedPartError("constant term 1 in virtual character")

    monkeypatch.setattr(vertex, "chart_sums", broken)
    code, out, err = run(capsys, "vertex", "--space", "p3", "--nmax", "1", "--chart-index", "0")
    assert len(calls) == 1
    assert code == 2
    assert out == ""
    assert "constant term 1" in err
    assert "no admissible" not in err


def test_chern_command(capsys):
    report = run_json(capsys, "chern", "--space", "p2xp1")
    assert report["values"]["c3_t_omega"] == -18
    assert report["values"]["c3_via_localization"] == -18
    assert report["verdicts"]["localization_agrees"] == "PASS"
    assert report["values"]["monomials"][:3] == ["c3", "c1*c2", "c1^3"]


def test_chern_quadric_with_bundle(capsys):
    report = run_json(capsys, "chern", "--space", "quadric", "--bundle", "O2")
    assert report["values"]["mixed_chern_vector"] == ["4", "24", "54", "16", "36", "24", "16"]


def test_chern_projective_bundle(capsys):
    report = run_json(capsys, "chern", "--space", "pbundle-p2-1")
    assert report["values"]["c3_t_omega"] == -18
    assert report["values"]["euler_characteristic"] == 6
    assert report["verdicts"] == {}


def test_chern_product_descriptor(capsys):
    report = run_json(capsys, "chern", "--space", "prod:2.1")
    assert report["values"]["c3_t_omega"] == -18


def test_malformed_product_ring_names_the_grammar(capsys):
    for space in ("prod:a", "prod:", "prod:2.x", "prod:2..1"):
        for command in (("chern",), ("cobordism", "--rank", "1")):
            code, out, err = run(capsys, *command, "--space", space)
            assert (code, out) == (1, ""), space
            assert f"ring {space!r}: a product ring is prod:d1.d2..." in err, err


def test_projective_bundle_ring_reads_a_negative_twist(capsys):
    # pbundle-p2--1 is P(O + O(-1)); it was once read as twist +1
    from quotdt.chern import named_ring, projective_bundle_ring

    argv = ("chern", "--space", "pbundle-p2--1", "--bundle", "O0.1")
    report = run_json(capsys, *argv)
    assert report["values"]["mixed_chern_vector"] == ["6", "24", "56", "6", "16", "4", "1"]
    plus = run_json(capsys, "chern", "--space", "pbundle-p2-1", "--bundle", "O0.1")
    assert plus["values"]["mixed_chern_vector"] == ["6", "24", "56", "0", "4", "-2", "1"]
    assert named_ring("pbundle-p2--1").name == projective_bundle_ring(-1).name


def test_malformed_projective_bundle_ring_names_the_grammar(capsys):
    for space in ("pbundle-p2-x", "pbundle-p2-", "pbundle-p2-1.5"):
        for command in (("chern",), ("cobordism", "--rank", "1")):
            code, out, err = run(capsys, *command, "--space", space)
            assert (code, out) == (1, ""), space
            assert f"ring {space!r}: a projective bundle ring is pbundle-p2-<d>" in err, err


def test_bundle_chart_explicit_characters(capsys):
    # trivial bundle handed over as explicit per-chart characters
    argv = ["toric", "--space", "p3", "--nmax", "1"]
    for _ in range(4):
        argv += ["--bundle-chart", "0,0,0"]
    report = run_json(capsys, *argv)
    assert report["values"]["series"] == [1, 20]
    # one character per chart of the space, for toric and vertex alike
    for command in ("toric", "vertex"):
        code, out, err = run(capsys, command, *argv[1:-2])
        assert (code, out, err) == (1, "", "usage error: 3 bundle charts for 4 space charts\n")


def test_bundle_and_bundle_chart_are_exclusive(tmp_path, capsys):
    # --bundle-chart would decide the bundle while the report echoed --bundle
    charts = ["--bundle-chart", "0,0,0"] * 4
    want = "usage error: give either --bundle or --bundle-chart, not both\n"
    for command in ("toric", "vertex"):
        argv = [command, "--space", "p3", "--nmax", "1"]
        code, out, err = run(capsys, *argv, "--bundle", "O,O1", *charts)
        assert (code, out, err) == (1, "", want), command
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text("bundle = O,O1\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg), *charts)
        assert (code, out, err) == (1, "", want), command
        cfg.write_text("".join("bundle-chart = 0,0,0\n" for _ in range(4)))
        code, out, err = run(capsys, *argv, "--config", str(cfg), "--bundle", "O")
        assert (code, out, err) == (1, "", want), command


def test_custom_atlas_bundle_takes_untwisted_summands(capsys):
    # a custom atlas has no polytope factors, so --bundle O,O is the rank 2
    # trivial bundle and a twisted summand is refused, naming the twist
    charts = [f"--chart={chart}" for chart in _P3_CHARTS]
    summands = run_json(capsys, "toric", *charts, "--bundle", "O,O", "--nmax", "2")
    trivial = run_json(capsys, "toric", *charts, "--rank", "2", "--nmax", "2")
    # the reports differ only in the bundle they echo
    assert (summands["inputs"].pop("bundle"), trivial["inputs"].pop("bundle")) == (
        "O,O", "trivial rank 2")
    assert summands == trivial
    code, out, err = run(capsys, "toric", *charts, "--bundle", "O1", "--nmax", "2")
    assert (code, out, err) == (1, "", "usage error: custom twist (1,) is not a vector in Z^0\n")


def test_custom_space_without_charts_names_the_chart_data(capsys):
    for command in ("toric", "vertex"):
        code, out, err = run(capsys, command, "--space", "custom", "--nmax", "1")
        assert (code, out) == (1, ""), command
        assert err == "usage error: --space custom needs --chart data, one --chart per fixed point\n"


def test_non_unimodular_chart_rejected_at_input(capsys):
    code, out, err = run(
        capsys, "toric", "--chart", "2,0,0;0,1,0;0,0,1", "--rank", "1", "--nmax", "1"
    )
    assert code == 1
    assert out == ""
    assert "chart 0 has determinant 2" in err
    code, _, err = run(
        capsys, "vertex", "--chart", "1,0,0;0,1,0;0,0,1", "--chart", "1,1,0;1,-1,0;0,0,1",
    )
    assert code == 1 and "chart 1 has determinant -2" in err


def test_chart_values_may_start_with_minus(capsys):
    # the four charts of P^3, each value a separate argument
    argv = ["toric", "--nmax", "2"]
    for chart in (
        "1,0,0;0,1,0;0,0,1",
        "-1,0,0;-1,1,0;-1,0,1",
        "0,-1,0;1,-1,0;0,-1,1",
        "0,0,-1;1,0,-1;0,1,-1",
    ):
        argv += ["--chart", chart]
    custom = run_json(capsys, *argv)
    builtin = run_json(capsys, "toric", "--space", "p3", "--nmax", "2")
    assert custom["inputs"]["charts"][1] == [[-1, 0, 0], [-1, 1, 0], [-1, 0, 1]]
    assert custom["values"]["series"] == builtin["values"]["series"] == [1, 20, 150]

    # a bundle character that starts with a minus sign: O(-1) on P^3
    twisted = ["toric", "--space", "p3", "--nmax", "2"]
    for colors in ("0,0,0", "-1,0,0", "0,-1,0", "0,0,-1"):
        twisted += ["--bundle-chart", colors]
    report = run_json(capsys, *twisted)
    assert report["inputs"]["bundle"][1] == "-1,0,0"
    assert report["values"]["series"] == [1, 20, 150]

    # abbreviated flags resolve as argparse resolves them
    abbreviated = ["toric", "--nmax", "2"]
    for chart in ("1,0,0;0,1,0;0,0,1", "-1,0,0;-1,1,0;-1,0,1"):
        abbreviated += ["--char", chart]
    abbreviated += ["--chart", "0,-1,0;1,-1,0;0,-1,1", "--ch", "0,0,-1;1,0,-1;0,1,-1"]
    assert run_json(capsys, *abbreviated)["values"]["series"] == [1, 20, 150]
    short_bundle = ["toric", "--space", "p3", "--nmax", "2"]
    for colors in ("0,0,0", "-1,0,0", "0,-1,0", "0,0,-1"):
        short_bundle += ["--bundle-ch", colors]
    assert run_json(capsys, *short_bundle)["inputs"]["bundle"][1] == "-1,0,0"
    # on vertex, --char is ambiguous with --chart-index and stays an error
    code, _, err = run(capsys, "vertex", "--char", "-1,0,0;-1,1,0;-1,0,1")
    assert code == 1 and "ambiguous" in err


def test_negative_tokens_attach_to_any_value_option(capsys):
    # a '-<digit>' token after an option that takes a value is that option's
    # value, so it fails with the option's own message, not argparse's
    code, out, err = run(capsys, "toric", "--space", "-1", "--nmax", "1")
    assert (code, out) == (1, "")
    assert "unknown space '-1'" in err
    code, _, err = run(capsys, "toric", "--spa", "-1,0", "--nmax", "1")
    assert code == 1 and "unknown space '-1,0'" in err
    code, _, err = run(capsys, "macmahon", "--nmax", "-2x")
    assert code == 1 and "invalid int value: '-2x'" in err
    assert run_json(capsys, "toric", "--space", "p3", "--nmax", "1", "--seed", "-3")["seed"] == -3
    # a flag that takes no value leaves the token alone: --help still prints help
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["toric", "--space", "p3", "--nmax", "1", "--help", "-1"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: quotdt toric")


def test_toric_refuses_threads_and_ignores_its_variable(capsys, monkeypatch):
    # the sum runs in one thread: toric has no --threads and reads no
    # QUOTDT_THREADS, and its report keeps "threads": 1
    argv = ("toric", "--space", "p3", "--bundle", "O,O", "--nmax", "2")
    code, out, err = run(capsys, *argv, "--threads", "2")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --threads 2" in err
    plain = run_json(capsys, *argv)
    monkeypatch.setenv("QUOTDT_THREADS", "abc")
    assert run_json(capsys, *argv) == plain
    assert plain["inputs"]["threads"] == 1


def test_vertex_refuses_negative_nmax(capsys):
    # one check, and one message, for the --nmax of every command
    for argv in (("vertex", "--space", "p3", "--chart-index", "0"), ("toric", "--space", "p3"),
                 ("macmahon",)):
        code, out, err = run(capsys, *argv, "--nmax", "-3")
        assert (code, out) == (1, ""), argv
        assert err == "usage error: --nmax -3 must be nonnegative\n", argv


def test_vertex_refuses_a_chart_index_out_of_range(capsys):
    for index in ("4", "-1"):
        code, out, err = run(capsys, "vertex", "--space", "p3", "--nmax", "1", "--chart-index", index)
        assert (code, out) == (1, "")
        assert err == f"usage error: chart index {index} out of range\n"


def test_threads_is_a_toric_option(tmp_path, capsys):
    # no command reads --threads, so every one refuses it
    code, out, err = run(capsys, "macmahon", "--nmax", "3", "--threads", "-1")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --threads -1" in err
    code, _, err = run(capsys, "vertex", "--space", "p3", "--threads", "2")
    assert code == 1 and "unrecognized arguments: --threads 2" in err
    cfg = tmp_path / "chern.cfg"
    cfg.write_text("space = p2xp1\nthreads = 2\n")
    code, out, err = run(capsys, "chern", "--config", str(cfg))
    assert (code, out) == (1, "")
    assert "unknown config key 'threads' for chern" in err


def test_trials_is_an_option_of_the_sampling_commands(tmp_path, capsys):
    # only toric and chern sample their invariants; the other commands once
    # took --trials and ignored it
    for argv in (("macmahon", "--nmax", "3", "--trials", "7"),
                 ("vertex", "--space", "p3", "--nmax", "1", "--chart-index", "0", "--trials", "9"),
                 ("cobordism", "--builtin", "quadric-dpr", "--trials", "5")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"unrecognized arguments: --trials {argv[-1]}" in err, argv
    cfg = tmp_path / "macmahon.cfg"
    cfg.write_text("nmax = 3\ntrials = 3\n")
    code, out, err = run(capsys, "macmahon", "--config", str(cfg))
    assert (code, out, err) == (1, "", "usage error: unknown config key 'trials' for macmahon\n")
    # chern keeps it, with its minimum of 2
    report = run_json(capsys, "chern", "--space", "p3", "--trials", "3")
    assert report["verdicts"]["localization_agrees"] == "PASS"
    code, out, err = run(capsys, "chern", "--space", "p3", "--trials", "1")
    assert (code, out, err) == (1, "", "usage error: --trials must be at least 2\n")


def test_chern_refuses_trials_on_a_ring_it_does_not_sample(tmp_path, capsys):
    # only a built-in toric ring checks c3 by localization; on any other
    # ring --trials, or a config line "trials = 5", was once ignored
    want = (1, "", "usage error: --trials needs a ring whose c3 is localized, not 'quadric'\n")
    assert run(capsys, "chern", "--space", "quadric", "--trials", "5") == want
    cfg = tmp_path / "quadric.cfg"
    cfg.write_text("space = quadric\ntrials = 5\n")
    assert run(capsys, "chern", "--config", str(cfg)) == want
    report = run_json(capsys, "chern", "--space", "quadric")
    assert "c3_via_localization" not in report["values"]


def test_an_empty_bundle_is_refused(tmp_path, capsys):
    # an empty --bundle, or a config line "bundle =", was once read as the
    # trivial bundle
    want = (1, "", "usage error: bad bundle summand ''\n")
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("bundle =\n")
    for argv in (("toric", "--space", "p3", "--nmax", "2"), ("vertex", "--space", "p3"),
                 ("chern", "--space", "p3"), ("cobordism", "--space", "p3")):
        assert run(capsys, *argv, "--bundle=") == want, argv
        assert run(capsys, *argv, "--config", str(cfg)) == want, argv


_P3_CHARTS = ("1,0,0;0,1,0;0,0,1", "-1,0,0;-1,1,0;-1,0,1",
              "0,-1,0;1,-1,0;0,-1,1", "0,0,-1;1,0,-1;0,1,-1")


@st.composite
def malformed_vector_options(draw):
    """p3 as --chart and rank 2 --bundle-chart options, one value broken; and what names it.

    A value that is not integers in rows names itself; a row of the wrong
    length, or a chart of the wrong number of rows, names its int tuples.
    """
    values = {"--chart": list(_P3_CHARTS), "--bundle-chart": ["0,0,0;1,0,0"] * 4}
    flag = draw(st.sampled_from(sorted(values)))
    index = draw(st.integers(0, 3))
    rows = [row.split(",") for row in values[flag][index].split(";")]
    r = draw(st.integers(0, len(rows) - 1))
    kinds = ["entry", "short row", "long row", "empty row"]
    if flag == "--chart":
        kinds += ["missing row", "extra row"]
    kind = draw(st.sampled_from(kinds))
    if kind == "entry":
        rows[r][draw(st.integers(0, 2))] = draw(st.sampled_from(["1.5", "True", "x", "", "1/2"]))
    elif kind == "short row":
        del rows[r][draw(st.integers(0, 2))]
    elif kind == "long row":
        rows[r].append(draw(st.sampled_from(["0", "-1", "7"])))
    elif kind == "empty row":
        rows.insert(draw(st.integers(0, len(rows))), [""])
    elif kind == "missing row":
        del rows[r]
    else:
        rows.insert(r, ["0", "0", "1"])
    text = ";".join(",".join(row) for row in rows)
    values[flag][index] = text
    argv = ["toric", "--nmax", "1"]
    for name, texts in values.items():
        argv += [f"{name}={value}" for value in texts]
    if kind in ("entry", "empty row"):
        named = repr(text)
    elif kind in ("missing row", "extra row"):
        named = repr(tuple(tuple(map(int, row)) for row in rows))
    else:
        named = repr(tuple(map(int, rows[r])))
    return argv, named


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=malformed_vector_options())
def test_malformed_vector_options_exit_1_and_name_the_value(case):
    # cli.main is called directly, so an uncaught exception fails the test
    argv, named = case
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    err = stderr.getvalue()
    assert (code, stdout.getvalue()) == (1, ""), err
    assert err.startswith("usage error: ") and err.count("\n") == 1, err
    assert named in err, (named, err)


# the documented grammar on built-in spaces and rings; custom --chart atlases
# are left out, since a one-chart P^3 atlas still exits 2
_SPACES = ("p3", "p2xp1", "p1cubed")
_RINGS = (*_SPACES, "quadric", "blowup-p3-conic", "pbundle-p2-1", "pbundle-p2--2",
          "prod:2.1", "prod:1.1.1", "prod:3")
_BUNDLES = ("O", "O1", "O,O", "O2.-1", "O1.0,O", "O1.-1.0", "O,O1.1", "O,O,O")
_MALFORMED = ("", "x", "-1", "1.5", "O1.x", "Q1", "O,", "custom", "prod:4", "pbundle-p2-x")


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


# per command: option -> (values, required); a flag takes no value when values is None
_GRAMMAR = (
    ("toric", {"--space": (st.sampled_from(_SPACES), True),
              "--bundle": (st.sampled_from(_BUNDLES), False), "--rank": (_ints(1, 3), False),
              "--nmax": (_ints(0, 2), True), "--trials": (_ints(2, 3), False)}),
    ("vertex", {"--space": (st.sampled_from(_SPACES), True),
               "--bundle": (st.sampled_from(_BUNDLES), False), "--rank": (_ints(1, 3), False),
               "--nmax": (_ints(0, 2), False), "--chart-index": (_ints(0, 7), False)}),
    ("chern", {"--space": (st.sampled_from(_RINGS), True),
              "--bundle": (st.sampled_from(_BUNDLES), False), "--rank": (_ints(1, 3), False),
              "--trials": (_ints(2, 3), False)}),
    ("cobordism", {"--space": (st.sampled_from(_RINGS), True),
                   "--bundle": (st.sampled_from(_BUNDLES), False),
                   "--rank": (_ints(1, 3), False)}),
    ("cobordism", {"--builtin": (st.sampled_from(sorted(chern.BUILTIN_DPRS)), True)}),
    ("macmahon", {"--nmax": (_ints(0, 8), True), "--power": (_ints(-20, 20), False),
                  "--negate-q": (None, False)}),
)
_COMMON = {"--seed": (_ints(-3, 99), False), "--timing": (None, False),
           "--format": (st.sampled_from(("table", "json")), False)}


@st.composite
def documented_argv(draw):
    """argv of one command from the documented grammar; four in seven have one part broken."""
    command, grammar = draw(st.sampled_from(_GRAMMAR))
    grammar = {**grammar, **_COMMON}
    options = {
        flag: values if values is None else draw(values)
        for flag, (values, required) in grammar.items()
        if required or draw(st.booleans())
    }
    broken = draw(st.sampled_from((None, None, None, "value", "drop", "unknown", "dangling")))
    valued = sorted(flag for flag, value in options.items() if value is not None)
    if broken == "value" and valued:
        options[draw(st.sampled_from(valued))] = draw(st.sampled_from(_MALFORMED))
    elif broken == "drop" and options:
        del options[draw(st.sampled_from(sorted(options)))]
    argv = [command]
    for flag, value in options.items():
        argv += [flag] if value is None else [flag, value]
    if broken == "unknown":
        argv += draw(st.sampled_from((["--bogus"], ["extra"], ["--format", "xml"], ["--rank", "1"],
                                      ["--builtin", "quadric-dpr"], ["--chart-index", "0"])))
    elif broken == "dangling":  # a flag that takes a value, given none
        takes_value = [flag for flag, (values, _) in grammar.items() if values is not None]
        argv.append(draw(st.sampled_from(takes_value)))
    return argv


@settings(max_examples=250, deadline=None, derandomize=True)
@given(argv=documented_argv())
def test_every_documented_argv_keeps_the_exit_code_contract(argv):
    # main returns, never raises; exit 1 prints nothing to stdout; on
    # built-in spaces and rings exit 2 comes only from the naive quadric
    # relation, and no run exits 3
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(list(argv))
    out, err = stdout.getvalue(), stderr.getvalue()
    if code == cli.EXIT_USAGE:
        assert out == "" and err.startswith("usage error: "), (argv, err)
    elif code == cli.EXIT_INVARIANT:
        naive = ("--builtin", "naive-quadric-dpr") in zip(argv, argv[1:])
        assert argv[0] == "cobordism" and naive, (argv, err)
    else:
        assert code == cli.EXIT_OK and out and err == "", (argv, code, err)


def test_cobordism_builtin_refuses_bundle_and_rank(capsys):
    for extra in (("--bundle", "foo"), ("--bundle", "O2"), ("--rank", "1")):
        code, out, err = run(capsys, "cobordism", "--builtin", "quadric-dpr", *extra)
        assert (code, out) == (1, ""), extra
        assert err == "usage error: --builtin takes no --bundle or --rank\n"


def test_cobordism_takes_a_builtin_or_a_space(capsys):
    code, out, err = run(capsys, "cobordism", "--builtin", "quadric-dpr", "--space", "p3")
    assert (code, out, err) == (1, "", "usage error: give either --builtin or --space, not both\n")


def test_a_malformed_twist_names_the_summand(capsys):
    code, out, err = run(capsys, "toric", "--space", "p3", "--bundle", "O1.x", "--nmax", "1")
    assert (code, out, err) == (1, "", "usage error: bad bundle summand 'O1.x'\n")


def test_rank_zero_is_refused_by_every_command(capsys):
    # --rank 0 is given, not absent: it must not fall back to rank 1
    for argv in (("chern", "--space", "prod:3"), ("cobordism", "--space", "p3"),
                 ("toric", "--space", "p3", "--nmax", "1"), ("vertex", "--space", "p3")):
        code, out, err = run(capsys, *argv, "--rank", "0")
        assert (code, out) == (1, ""), argv
        assert "rank 0 must be at least 1" in err, argv


def test_a_rank_of_a_thousand_is_no_recursion_failure(capsys):
    # compositions once recursed once per part, so both exited 2 with
    # "maximum recursion depth exceeded in comparison"
    report = run_json(capsys, "toric", "--space", "p3", "--rank", "1000", "--nmax", "0")
    assert report["values"]["series"] == report["values"]["closed_formula"] == [1]
    assert report["verdicts"]["series_matches_closed_formula"] == "MATCH"
    report = run_json(capsys, "vertex", "--space", "p3", "--rank", "1000", "--nmax", "0",
                      "--chart-index", "0")
    assert len(report["values"]["params"]["v"]) == 1000


def test_a_non_integral_chern_number_exits_2(capsys, monkeypatch):
    # NonIntegralError is a QuotDTError, the one class main reports as an invariant failure
    half = chern.ChernRing("half", ("h",), {(3,): Fraction(1, 2)}, [{(0,): 1, (3,): 1}])
    monkeypatch.setattr(chern, "named_ring", lambda name: half)
    code, out, err = run(capsys, "chern", "--space", "half")
    assert (code, out) == (2, "")
    assert err == "invariant failure: c3_t_omega of half is not an integer: 1/2\n"


def test_vertex_probe_names_the_zero_weight(capsys, monkeypatch):
    monkeypatch.setattr(toric, "sample_params", lambda rank, rng: EquivParams((1, -1, 5), (3,)))
    code, out, err = run(capsys, "vertex", "--space", "p3", "--nmax", "2")
    assert code == 2
    assert out == ""
    assert "after 32 draws" in err
    assert "chart 0, n=1: monomial (-1, -1, 0, 0) has weight zero" in err


def _python(*lines):
    """Run the lines in a fresh interpreter that imports quotdt from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )


# quotdt modules whose code has run; a module cli defers stays a lazy
# subclass of ModuleType until its first attribute access.
_RAN = (
    "sorted(n for n, m in sys.modules.items() "
    "if n.split('.')[0] == 'quotdt' and type(m) is types.ModuleType)"
)


def test_cli_import_skips_unused_modules():
    # the package registers every engine module without running it, so the
    # import runs only what every command needs.  The value types are
    # slotted records, so dataclasses and the inspect it pulls in stay out
    # unless the interpreter's own start-up loaded them.
    proc = _python(
        "import sys, types",
        "before = set(sys.modules)",
        "import quotdt.cli, quotdt",
        "added = {'dataclasses', 'inspect'} & set(sys.modules) - before",
        "assert not added, sorted(added)",
        f"ran = {_RAN}",
        "assert ran == ['quotdt', 'quotdt.cli', 'quotdt.errors', 'quotdt.series'], ran",
        "lazy = sorted(n for n in sys.modules if n.split('.')[0] == 'quotdt' and n not in ran)",
        "assert lazy == ['quotdt.chern', 'quotdt.conventions', 'quotdt.partitions', "
        "'quotdt.toric', 'quotdt.vertex'], lazy",
        "assert 'concurrent.futures' not in sys.modules, 'futures'",
        "assert all(getattr(quotdt, name) is not None for name in quotdt.__all__)",
        "assert quotdt.chern.named_ring.__module__ == 'quotdt.chern'",
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv, runs",
    [
        (["macmahon", "--nmax", "3"], []),
        (["toric", "--space", "p3", "--nmax", "2"],
         ["conventions", "partitions", "toric", "vertex"]),
        (["chern", "--space", "quadric"], ["chern", "conventions", "partitions"]),
        (["chern", "--space", "p3"], ["chern", "conventions", "partitions", "toric", "vertex"]),
        (["cobordism", "--builtin", "quadric-dpr"], ["chern", "conventions", "partitions"]),
    ],
)
def test_a_command_runs_only_the_modules_it_reads(argv, runs):
    proc = _python(
        "import contextlib, io, sys, types",
        "from quotdt import cli",
        "with contextlib.redirect_stdout(io.StringIO()):",
        f"    assert cli.main({argv!r}) == 0",
        f"print({_RAN})",
    )
    assert proc.returncode == 0, proc.stderr
    expected = ["quotdt", "quotdt.cli", "quotdt.errors", "quotdt.series"]
    assert ast.literal_eval(proc.stdout) == sorted(expected + [f"quotdt.{m}" for m in runs])


@pytest.mark.parametrize("first, then", [("quotdt.toric", "quotdt.cli"),
                                         ("quotdt.cli", "quotdt.toric")])
def test_each_module_name_has_one_module_object(first, then):
    # a second module object for quotdt.toric would bring a second ToricSpace
    proc = _python(
        "import sys",
        f"import {first}",
        "early = dict(sys.modules)",
        f"import {then}",
        "import quotdt",
        "from quotdt import cli",
        "for name in ('chern', 'conventions', 'partitions', 'toric', 'vertex'):",
        "    module = sys.modules['quotdt.' + name]",
        "    assert getattr(cli, name) is module is getattr(quotdt, name), name",
        "    assert early.get('quotdt.' + name, module) is module, name",
        "from quotdt.toric import builtin_space",
        "assert isinstance(builtin_space('p3'), cli.toric.ToricSpace)",
    )
    assert proc.returncode == 0, proc.stderr


def test_the_package_registers_its_modules_without_running_them():
    # the library side of the registry: `import quotdt` alone binds each
    # engine module on the package, and none runs before its first read
    engine = ("chern", "conventions", "errors", "partitions", "series", "toric", "vertex")
    proc = _python(
        "import sys, types",
        "import quotdt",
        "assert quotdt.toric is sys.modules['quotdt.toric']",
        f"for name in {engine!r}:",
        "    assert type(sys.modules['quotdt.' + name]) is not types.ModuleType, name",
        "assert callable(quotdt.toric.dt_series)",
        "assert type(sys.modules['quotdt.toric']) is types.ModuleType",
        "assert not hasattr(quotdt, 'named_ring')",
        "assert quotdt.chern.named_ring.__module__ == 'quotdt.chern'",
    )
    assert proc.returncode == 0, proc.stderr


def test_star_import_binds_the_modules_without_running_them():
    # __all__ names the seven modules and nothing else: a function is read
    # through its module, and the star import binds each one still lazy
    engine = ("chern", "conventions", "errors", "partitions", "series", "toric", "vertex")
    proc = _python(
        "import sys, types",
        "from quotdt import *",
        "import quotdt",
        f"for name in {engine!r}:",
        "    m = globals()[name]",
        "    assert m is sys.modules['quotdt.' + name] is getattr(quotdt, name), name",
        "    assert type(m) is not types.ModuleType, name",
        f"assert sorted(quotdt.__all__) == {sorted(engine)!r}",
        "assert not hasattr(quotdt, 'dt_series')",
    )
    assert proc.returncode == 0, proc.stderr


def test_reload_keeps_the_registered_module_objects():
    # a second module object for quotdt.toric would bring a second ToricSpace
    proc = _python(
        "import importlib, sys",
        "import quotdt, quotdt.cli",
        "t = quotdt.toric",
        "importlib.reload(quotdt)",
        "assert quotdt.toric is t",
        "assert quotdt.cli.toric is sys.modules['quotdt.toric'] is t",
        "assert isinstance(quotdt.toric.builtin_space('p3'), quotdt.cli.toric.ToricSpace)",
    )
    assert proc.returncode == 0, proc.stderr
