"""End-to-end CLI tests: run main() in process and inspect reports and codes."""

import hashlib
import json

import pytest

from quotdt import cli
from quotdt.errors import NonzeroFixedPartError
from quotdt.series import Series


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


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
    code, _, err = run(capsys, "toric", "--config", str(wrong_command), "--nmax", "0")
    assert code == 1 and "config names command" in err

    missing = tmp_path / "nope.cfg"
    code, _, err = run(capsys, "toric", "--config", str(missing), "--nmax", "0")
    assert code == 1 and "cannot read config" in err


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

    monkeypatch.setattr(cli, "chart_contribution", broken)
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


def test_threads_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("QUOTDT_THREADS", "3")
    report = run_json(capsys, "toric", "--space", "p3", "--bundle", "O", "--nmax", "1")
    assert report["inputs"]["threads"] == 3


def test_bundle_chart_explicit_characters(capsys):
    # trivial bundle handed over as explicit per-chart characters
    argv = ["toric", "--space", "p3", "--nmax", "1"]
    for _ in range(4):
        argv += ["--bundle-chart", "0,0,0"]
    report = run_json(capsys, *argv)
    assert report["values"]["series"] == [1, 20]
