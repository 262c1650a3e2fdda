"""The README's command lines are the output contract: their stdout bytes are pinned.

Each `quotdt ...` line of a ```sh block in README.md runs through cli.main,
and the sha256 of its stdout must equal the digest recorded here.  A new
README command needs its digest added; a changed digest means the report
bytes changed.  Each command also runs in the other report format, JSON for
the one README prints as a table and a table for the rest, against its own
digest.  The code of README's Library section runs too, and each series it
computes must equal the value its comment states.
"""

import ast
import hashlib
import re
import shlex
from pathlib import Path

import pytest

from quotdt import cli

README = Path(__file__).resolve().parents[1] / "README.md"

STDOUT_SHA256 = {
    "quotdt toric --space p3 --bundle O --nmax 3 --seed 7":
        "f039f3823bd8fa0d7dd8cf48d14a49b492f8d27aa817760e82758bae98a61f1c",
    "quotdt toric --space p2xp1 --bundle O2.-1 --nmax 2 --format table":
        "40d5dc77c683591c6a1660230f55d4fe36f9564cb0416f25ffbd5c8bdbeb70ab",
    "quotdt vertex --space p3 --rank 2 --nmax 2 --chart-index 0":
        "cf1797bd9f76c71b6ef6c930bda888abac8f26c8a447df07c8706894a0bef635",
    "quotdt chern --space pbundle-p2-1":
        "971758bce9b85dcdd9f32663967f2524ae182ea06b42a1d92cecaf4a079aa222",
    "quotdt chern --space prod:2.1 --bundle O2.1":
        "e58ce711404615ad1edf30a459ca20ffc0114f7a2926cd1f6d15636f10534c35",
    "quotdt cobordism --builtin quadric-dpr":
        "bc895799008d41f34f0d68911f88ba63ce43aeae228f8a7f99de9376f177945a",
    "quotdt cobordism --space prod:3 --bundle O2 --rank 1":
        "93660d5db7a13fc90a8cef7a14aed87994aba42a8bb53616d9b6ae7fec73de4a",
    "quotdt macmahon --nmax 8 --power -20 --negate-q":
        "c952f8c596d4a66bd9b82b336a983f8ec375a1fd1dce1bed09fd7a1c271fddad",
}


# the same commands in the other format: the table walker's tuple path, and
# JSON for the README's table command
OTHER_FORMAT = {"json": "table", "table": "json"}
OTHER_FORMAT_SHA256 = {
    "quotdt toric --space p3 --bundle O --nmax 3 --seed 7":
        "3da6335f8528eabc4be167008cb2e16b52e2c417b5790bc6a5017ef2a5b6bf1a",
    "quotdt toric --space p2xp1 --bundle O2.-1 --nmax 2 --format table":
        "b59e67ac8ca8130381fc3fa1e5e5d5f25c36fa0583387bc1170e579d9521f42b",
    "quotdt vertex --space p3 --rank 2 --nmax 2 --chart-index 0":
        "ece7960efb683ffe8ded42db8a882405ca7321d8b038944d75e270ce8c404df8",
    "quotdt chern --space pbundle-p2-1":
        "8768963e8509980561145d3ec8d73d7a9ebc06ca261e9ade1acb4b7d48136658",
    "quotdt chern --space prod:2.1 --bundle O2.1":
        "0db8c270c1163305acea3b74dc843732a391aa973d97dc7d6c3afb0200829880",
    "quotdt cobordism --builtin quadric-dpr":
        "1a7f58a47d9c8ce03168f38206b688948b8e1410360db3e1a32029219b0d5bde",
    "quotdt cobordism --space prod:3 --bundle O2 --rank 1":
        "4b4f2426a10acdebef9ef5db3392e3edfe0c3c65a7ef95f304db5a1337ade8c7",
    "quotdt macmahon --nmax 8 --power -20 --negate-q":
        "c2487524117d769366ab2f88a399b4f8fe5ce7b0cecb24bba05d04bc097e8e8a",
}


def readme_commands() -> list[str]:
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    return [line for block in blocks for line in block.splitlines() if line.startswith("quotdt ")]


def test_every_readme_command_is_pinned():
    assert readme_commands() == list(STDOUT_SHA256) == list(OTHER_FORMAT_SHA256)


@pytest.mark.parametrize("line", list(STDOUT_SHA256))
def test_readme_command_stdout_is_unchanged(line, capsys):
    code = cli.main(shlex.split(line)[1:])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[line]


@pytest.mark.parametrize("line", list(OTHER_FORMAT_SHA256))
def test_readme_command_in_the_other_format_is_unchanged(line, capsys):
    argv = shlex.split(line)[1:]
    fmt = argv[argv.index("--format") + 1] if "--format" in argv else "json"
    code = cli.main([*argv, "--format", OTHER_FORMAT[fmt]])  # the last --format wins
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OTHER_FORMAT_SHA256[line]


def _render(series) -> str:
    """A series as README writes it: 1 - 40q + 700q^2, zero terms left out."""
    coeffs = series.integer_coeffs()
    text = str(coeffs[0])
    for n, c in enumerate(coeffs[1:], 1):
        if c:
            text += f" {'-' if c < 0 else '+'} {abs(c)}q" + (f"^{n}" if n > 1 else "")
    return text


def test_library_section_computes_its_commented_values():
    readme = README.read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    namespace, values = {}, []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    rendered = [_render(value) for value in values]
    assert rendered == ["1 + 20q + 150q^2 + 400q^3", "1 - 40q + 700q^2", "1 - 40q + 700q^2"]
    assert all(text in block for text in rendered)  # the comments state them
