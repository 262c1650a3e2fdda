"""Each mutant of the ledger fails every test it lists.

Each run copies src/, tests/, pyproject.toml and README.md to a temporary
directory, with perfbench/tracer.py read-only for the API-surface test,
applies one mutant there and runs only its listed tests.  Run from the
repository root: python3 -m pytest mutants
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from ledger import MUTANTS  # noqa: E402


def _copy(dest: Path) -> Path:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=skip)
    for name in ("pyproject.toml", "README.md", "perfbench/tracer.py"):
        (dest / name).parent.mkdir(exist_ok=True)
        shutil.copy(ROOT / name, dest / name)
    (dest / "perfbench" / "tracer.py").chmod(0o444)
    return dest


def _run(root: Path, tests) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run tests in root; the process and the node ids that failed or errored."""
    # pyproject.toml puts the copy's src first on the path; a PYTHONPATH that
    # names the checkout's src is dropped all the same
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    failed = {
        line.split(" ", 1)[1].split(" - ", 1)[0]
        for line in proc.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    return proc, failed


def test_listed_tests_pass_without_a_mutant(tmp_path):
    # otherwise a listed test that fails in the copy would pass the ledger
    tests = sorted({test for m in MUTANTS for test in (*m.oracles, *m.pinned)})
    proc, failed = _run(_copy(tmp_path), tests)
    assert proc.returncode == 0 and not failed, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert f"{len(tests)} passed" in proc.stdout


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.file}:{m.replacement}")
def test_mutant_fails_every_listed_test(mutant, tmp_path):
    root = _copy(tmp_path)
    path = root / "src" / "quotdt" / mutant.file
    text = path.read_text()
    assert text.count(mutant.text) == 1, f"{mutant.text!r} must occur once in {mutant.file}"
    path.write_text(text.replace(mutant.text, mutant.replacement))
    tests = (*mutant.oracles, *mutant.pinned)
    assert tests, "a mutant lists at least one test"
    proc, failed = _run(root, tests)
    survived = [test for test in tests if test not in failed]
    assert not survived, proc.stdout[-3000:] + proc.stderr[-3000:]
