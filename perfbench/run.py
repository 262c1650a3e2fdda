"""Benchmark of the quotdt command line, run from outside the package.

Usage (from the repository root):

    python3 perfbench/run.py --workload p3-r1-n8 --seed 1 --seconds 32 --trace 0

One operation is one `python -m quotdt.cli ...` command in a fresh
interpreter; operations run one at a time.  The package keeps its caches for
the life of the process, so every CLI user pays the cold cost, and that is
what an operation measures.  `--seed` picks the `--seed` of each operation:
the sampled parameters change with it, the answer does not.  Every report is
compared with the golden values in golden.json (the seed ignored); a
mismatch or a non-zero exit counts as a failed operation.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json: the mean wall
and CPU time of an operation as multiples of those of perfbench/reference.py,
which runs after each operation, and the peak RSS and import time.  `--trace 1`
reports the per-layer metrics, taken from runs under perfbench/tracer.py
alternated with untraced runs.  The first line of stdout records the
environment and the last is the result object; with `--trace 0` the line
before it holds the raw mean times.  `--smoke` cuts every workload to a tiny
`--nmax` for a quick check of the harness.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import STATS_MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACER = HERE / "tracer.py"
REFERENCE = HERE / "reference.py"
REFERENCE_OUTPUT = b"572842 357369272 968000 543499\n"

# No operation may run past this many seconds from the start of a run.
HARD_LIMIT_S = 160.0


@dataclass(frozen=True)
class Workload:
    """How to run a workload; its --nmax and rank are the golden report's inputs."""

    argv: tuple[str, ...]  # CLI arguments without --nmax and --seed
    smoke_nmax: int
    charts: int  # charts of the space; 0 when the engine is idle


WORKLOADS = {
    "p3-r1-n8": Workload(("toric", "--space", "p3", "--bundle", "O"), 3, 4),
    "p1cubed-r1-n7": Workload(("toric", "--space", "p1cubed", "--bundle", "O"), 3, 8),
    "p2xp1-r2tw-n5": Workload(("toric", "--space", "p2xp1", "--bundle", "O,O1.-1"), 2, 6),
    "closed-form-n60": Workload(("macmahon", "--power", "-20", "--negate-q"), 12, 0),
}


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    out: bytes
    err: bytes


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QUOTDT_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict, timeout: float) -> Proc:
    """Run argv to completion; wall time, and CPU and peak RSS from wait4."""
    started = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,  # Linux reports KiB
        code=proc.returncode,
        out=out,
        err=err[0],
    )


# -- correctness -------------------------------------------------------------


def expected_report(golden: dict, nmax: int) -> dict:
    """The golden report cut to nmax: every q-indexed list keeps nmax + 1 entries."""
    full = golden["inputs"]["nmax"] + 1

    def cut(node):
        if isinstance(node, dict):
            return {key: cut(value) for key, value in node.items()}
        if isinstance(node, list) and len(node) == full:
            return node[: nmax + 1]
        return node

    report = copy.deepcopy(golden)
    report["inputs"]["nmax"] = nmax
    report["values"] = cut(report["values"])
    report["verdicts"] = cut(report["verdicts"])
    return report


def check_report(proc: Proc, expected: dict) -> str | None:
    """None if the operation succeeded, else why it failed."""
    if proc.code != 0:
        return f"exit code {proc.code}: {proc.err.decode(errors='replace').strip()[-300:]}"
    try:
        report = json.loads(proc.out)
    except ValueError:
        return "stdout is not a JSON report"
    report.pop("seed", None)
    verdict = report.get("verdicts", {}).get("series_matches_closed_formula")
    if report.get("command") == "toric" and verdict != "MATCH":
        return f"series_matches_closed_formula is {verdict}"
    if report != expected:
        return "report differs from the golden values"
    return None


def colored_partition_counts(nmax: int, rank: int) -> list[int]:
    """[q^n] M(q)^rank for n <= nmax: rank-colored plane partitions of n.

    Uses n a_n = sum_k sigma_2(k) a_(n-k) for M(q) and plain convolution for
    the power, so it shares no code with the engine.
    """
    sigma2 = [0] + [sum(d * d for d in range(1, k + 1) if k % d == 0) for k in range(1, nmax + 1)]
    single = [1] + [0] * nmax
    for n in range(1, nmax + 1):
        single[n] = sum(sigma2[k] * single[n - k] for k in range(1, n + 1)) // n
    power = [1] + [0] * nmax
    for _ in range(rank):
        power = [sum(power[i] * single[n - i] for i in range(n + 1)) for n in range(nmax + 1)]
    return power


def expected_character_misses(charts: int, rank: int, nmax: int) -> int:
    """One vertex character per chart and colored partition of size 1..nmax."""
    return charts * sum(colored_partition_counts(nmax, rank)[1:])


def check_stats(stats: dict, workload: Workload, rank: int, nmax: int) -> str | None:
    """The MacMahon self-check of a traced toric operation; it fails, not skips,
    when the toric path no longer builds its characters through vertex_character."""
    if not workload.charts:
        return None
    want = expected_character_misses(workload.charts, rank, nmax)
    got = stats["vertex.vertex_character.misses"]
    if got != want:
        return f"vertex_character misses {got} != MacMahon count {want}"
    return None


def parse_stats(proc: Proc) -> dict | None:
    for line in reversed(proc.err.decode(errors="replace").splitlines()):
        if line.startswith(STATS_MARKER):
            return json.loads(line[len(STATS_MARKER):])
    return None


# -- environment ---------------------------------------------------------------


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code outside git too."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "quotdt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# -- runs ----------------------------------------------------------------------


class Run:
    """Operations of one benchmark run, with their outcomes."""

    def __init__(self, workload: Workload, nmax: int, seed: int, golden: dict, seconds: int):
        self.workload = workload
        self.nmax = nmax
        self.rank = golden["inputs"].get("rank", 1)
        self.expected = expected_report(golden, nmax)
        self.rng = random.Random(seed)
        self.seconds = seconds
        self.env = child_env()
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.raw = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def has_time_for(self, op_s: float) -> bool:
        return self.elapsed() + op_s <= self.seconds

    def timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - self.elapsed())

    def cli_argv(self, traced: bool) -> list[str]:
        entry = [str(TRACER)] if traced else ["-m", "quotdt.cli"]
        seed = str(self.rng.randrange(2 ** 31))
        return [sys.executable, *entry, *self.workload.argv,
                "--nmax", str(self.nmax), "--seed", seed]

    def operation(self, traced: bool) -> tuple[Proc, dict | None]:
        argv = self.cli_argv(traced)
        proc = spawn(argv, self.env, self.timeout())
        self.attempted += 1
        problem = check_report(proc, self.expected)
        stats = None
        if traced and problem is None:
            stats = parse_stats(proc)
            problem = "no stats line from the tracer" if stats is None else check_stats(
                stats, self.workload, self.rank, self.nmax)
        if problem is not None:
            self.failed += 1
            print(f"FAILED {' '.join(argv[1:])}: {problem}", file=sys.stderr)
        return proc, stats

    def setup_time(self) -> float:
        """A fresh interpreter that imports quotdt.cli and exits."""
        proc = spawn([sys.executable, "-c", "import quotdt.cli"], self.env, self.timeout())
        if proc.code != 0:
            raise RuntimeError(f"import quotdt.cli failed: {proc.err.decode(errors='replace')}")
        return proc.wall_s

    def reference(self) -> Proc:
        proc = spawn([sys.executable, str(REFERENCE)], self.env, self.timeout())
        if proc.code != 0 or proc.out != REFERENCE_OUTPUT:
            raise RuntimeError(f"reference.py failed: {proc.err.decode(errors='replace')}")
        return proc

    def end_to_end(self) -> dict:
        self.setup_time()  # warms the .pyc files
        ops, refs, setup = [], [], []
        while not ops or self.has_time_for(
                statistics.median(p.wall_s for p in ops) + statistics.median(p.wall_s for p in refs)
                + statistics.median(setup)):
            ops.append(self.operation(traced=False)[0])
            refs.append(self.reference())
            setup.append(self.setup_time())
        # On a shared host the CPU speed can switch every few seconds between
        # levels about 1.5x apart, and stay at one for minutes.  Operations
        # alternate with reference.py, and the ratio of the means cancels most
        # of that.  Means, not medians: the median of a run jumps to whichever
        # level held more of its operations.  The imports that time set-up are
        # spread over the run for the same reason.
        self.raw = {
            "operations": len(ops),
            "wall_s": statistics.fmean(p.wall_s for p in ops),
            "cpu_s": statistics.fmean(p.cpu_s for p in ops),
            "reference_wall_s": statistics.fmean(p.wall_s for p in refs),
            "reference_cpu_s": statistics.fmean(p.cpu_s for p in refs),
        }
        return {
            "wall_rel": self.raw["wall_s"] / self.raw["reference_wall_s"],
            "cpu_rel": self.raw["cpu_s"] / self.raw["reference_cpu_s"],
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in ops),
            "setup_s": statistics.median(setup),
        }

    def per_layer(self, units: dict) -> dict:
        plain, traced, stats = [], [], []
        while not traced or self.has_time_for(
                statistics.median(p.wall_s for p in plain) + statistics.median(p.wall_s for p in traced)):
            plain.append(self.operation(traced=False)[0])
            proc, proc_stats = self.operation(traced=True)
            traced.append(proc)
            if proc_stats is not None:
                stats.append(proc_stats)
        metrics = {}
        for name, unit in units.items():
            if name == "cli.stdout_bytes":
                value = statistics.median_low(len(p.out) for p in traced)
            elif name == "trace.overhead_s":
                value = (statistics.fmean(p.wall_s for p in traced)
                         - statistics.fmean(p.wall_s for p in plain))
            elif not stats:
                continue
            elif unit == "s":
                value = statistics.median(s.get(name, 0.0) for s in stats)
            else:
                value = statistics.median_low(s.get(name, 0) for s in stats)
            metrics[name] = value
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny --nmax for every workload")
    args = parser.parse_args(argv)

    if not (SRC / "quotdt" / "cli.py").is_file():
        print(f"no quotdt sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)[args.workload]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    workload = WORKLOADS[args.workload]
    nmax = workload.smoke_nmax if args.smoke else golden["inputs"]["nmax"]
    run = Run(workload, nmax, args.seed, golden, args.seconds)
    print(json.dumps({"environment": environment(args.seed), "workload": args.workload,
                      "nmax": nmax}))
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = run.per_layer(units) if args.trace else run.end_to_end()
    if run.raw is not None:
        print(json.dumps({"raw_means": run.raw}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
