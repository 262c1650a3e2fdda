"""End-to-end CLI tests: run main() in process and inspect reports and codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quotdt import cli, toric
from quotdt.charalg import EquivParams
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

    monkeypatch.setattr(cli, "chart_sums", broken)
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
            assert f"--space {space!r}: a product ring is prod:d1.d2..." in err, err


def test_projective_bundle_ring_reads_a_negative_twist(capsys):
    # pbundle-p2--1 is P(O + O(-1)); it was once read as twist +1
    from quotdt.chern import named_ring, projective_bundle_ring

    argv = ("chern", "--space", "pbundle-p2--1", "--bundle", "O0.1")
    report = run_json(capsys, *argv)
    assert report["values"]["mixed_chern_vector"] == ["6", "24", "56", "6", "16", "4", "1"]
    plus = run_json(capsys, "chern", "--space", "pbundle-p2-1", "--bundle", "O0.1")
    assert plus["values"]["mixed_chern_vector"] == ["6", "24", "56", "0", "4", "-2", "1"]
    assert named_ring("pbundle-p2--1").name == projective_bundle_ring("p2", -1).name


def test_malformed_projective_bundle_ring_names_the_grammar(capsys):
    for space in ("pbundle-p2-x", "pbundle-p2-", "pbundle-p2-1.5"):
        for command in (("chern",), ("cobordism", "--rank", "1")):
            code, out, err = run(capsys, *command, "--space", space)
            assert (code, out) == (1, ""), space
            assert f"ring {space!r}: a projective bundle ring is pbundle-p2-<d>" in err, err


def test_threads_env_must_be_an_integer(capsys, monkeypatch):
    for value, message in [("abc", "QUOTDT_THREADS='abc' is not an integer"),
                           ("1.5", "QUOTDT_THREADS='1.5' is not an integer"),
                           ("0", "QUOTDT_THREADS='0': threads must be at least 1")]:
        monkeypatch.setenv("QUOTDT_THREADS", value)
        code, out, err = run(capsys, "toric", "--space", "p3", "--bundle", "O", "--nmax", "1")
        assert (code, out) == (1, "")
        assert message in err, err
    # --threads wins over the variable, which is then not read
    report = run_json(capsys, "toric", "--space", "p3", "--nmax", "1", "--threads", "2")
    assert report["inputs"]["threads"] == 2


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


def test_resolve_threads(monkeypatch):
    monkeypatch.delenv("QUOTDT_THREADS", raising=False)
    assert cli.resolve_threads(None) == 1
    assert cli.resolve_threads(3) == 3
    monkeypatch.setenv("QUOTDT_THREADS", "5")
    assert cli.resolve_threads(None) == 5
    assert cli.resolve_threads(2) == 2
    with pytest.raises(ValueError):
        cli.resolve_threads(0)


def test_threads_do_not_change_values(capsys):
    argv = ("toric", "--space", "p3", "--bundle", "O,O", "--nmax", "2")
    one = run_json(capsys, *argv, "--threads", "1")
    four = run_json(capsys, *argv, "--threads", "4")
    assert (one["inputs"].pop("threads"), four["inputs"].pop("threads")) == (1, 4)
    assert one == four
    code, _, err = run(capsys, *argv, "--threads", "0")
    assert code == 1 and "threads must be at least 1" in err


def test_vertex_refuses_negative_nmax(capsys):
    code, out, err = run(capsys, "vertex", "--space", "p3", "--nmax", "-3", "--chart-index", "0")
    assert (code, out) == (1, "")
    assert err == "usage error: --nmax must be nonnegative\n"


def test_threads_is_a_toric_option(tmp_path, capsys):
    # only toric reads --threads, so the other commands refuse it
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


def test_cobordism_builtin_refuses_bundle_and_rank(capsys):
    for extra in (("--bundle", "foo"), ("--bundle", "O2"), ("--rank", "1")):
        code, out, err = run(capsys, "cobordism", "--builtin", "quadric-dpr", *extra)
        assert (code, out) == (1, ""), extra
        assert err == "usage error: --builtin takes no --bundle or --rank\n"


def test_rank_zero_is_refused_by_every_command(capsys):
    # --rank 0 is given, not absent: it must not fall back to rank 1
    for argv in (("chern", "--space", "prod:3"), ("cobordism", "--space", "p3"),
                 ("toric", "--space", "p3", "--nmax", "1"), ("vertex", "--space", "p3")):
        code, out, err = run(capsys, *argv, "--rank", "0")
        assert (code, out) == (1, ""), argv
        assert "rank must be at least 1" in err, argv


def test_vertex_probe_names_the_zero_weight(capsys, monkeypatch):
    monkeypatch.setattr(toric, "sample_params", lambda rank, rng: EquivParams((1, -1, 5), (3,)))
    code, out, err = run(capsys, "vertex", "--space", "p3", "--nmax", "2")
    assert code == 2
    assert out == ""
    assert "after 32 draws" in err
    assert "chart 0, n=1: monomial (-1, -1, 0, 0) has weight zero" in err


def test_cli_import_skips_unused_modules():
    # chern is imported only by the chern and cobordism commands, and the
    # package resolves its re-exports on first access.  The value types are
    # slotted records, so dataclasses and the inspect it pulls in stay out
    # unless the interpreter's own start-up loaded them.
    code = (
        "import sys; before = set(sys.modules); import quotdt.cli, quotdt; "
        "added = {'dataclasses', 'inspect'} & set(sys.modules) - before; "
        "assert not added, sorted(added); "
        "assert 'quotdt.chern' not in sys.modules, 'chern'; "
        "assert 'concurrent.futures' not in sys.modules, 'futures'; "
        "assert all(getattr(quotdt, name) is not None for name in quotdt.__all__); "
        "assert quotdt.named_ring.__module__ == 'quotdt.chern'"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
