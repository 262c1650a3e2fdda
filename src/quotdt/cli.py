"""Command line front end for exact DT computations.

Five subcommands: `toric` (DT series with closed-formula verdict), `vertex`
(per-chart character tables and contributions), `chern` (intersection ring
numbers), `cobordism` (phi-basis decomposition and double point relation
checks) and `macmahon` (series expansions).

Reports are emitted as JSON (default) or a flat key=value table.  Identical
configuration and seed give byte-identical output; the optional --timing flag
adds a wall-clock field and therefore breaks byte determinism, so it is off
by default.  Exit codes: 0 success, 1 usage error, 2 internal invariant
failure, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import chern as chern_mod
from .charalg import EquivParams
from .errors import QuotDTError, ZeroWeightError
from .partitions import enum_colored
from .series import dt_closed_formula, macmahon, series_pow
from .toric import (
    SplitBundle,
    ToricSpace,
    builtin_space,
    c3_via_localization,
    chart_of,
    count_fixed_points,
    dt_series,
    resolve_threads,
    sample_params,
    split_bundle,
    trivial_bundle,
)
from .vertex import chart_contribution, symmetry_defect, vertex_character

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_MISMATCH = 3

MAX_SAMPLE_ATTEMPTS = 32


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # invariant failures, so route everything through UsageError instead.
    def error(self, message):
        raise UsageError(message)


# -- argument plumbing -----------------------------------------------------

_COMMON_OPTS = {
    "config": "str",
    "seed": "int",
    "trials": "int",
    "threads": "int",
    "format": "str",
    "timing": "flag",
}

_COMMAND_OPTS = {
    "toric": {
        **_COMMON_OPTS,
        "space": "str",
        "bundle": "str",
        "nmax": "int",
        "rank": "int",
        "chart": "list",
        "bundle_chart": "list",
    },
    "vertex": {
        **_COMMON_OPTS,
        "space": "str",
        "bundle": "str",
        "nmax": "int",
        "rank": "int",
        "chart": "list",
        "bundle_chart": "list",
        "chart_index": "int",
    },
    "chern": {**_COMMON_OPTS, "space": "str", "bundle": "str", "rank": "int"},
    "cobordism": {
        **_COMMON_OPTS,
        "builtin": "str",
        "space": "str",
        "bundle": "str",
        "rank": "int",
    },
    "macmahon": {**_COMMON_OPTS, "nmax": "int", "power": "int", "negate_q": "flag"},
}


def _add_common(sub):
    sub.add_argument("--config", help="flat key=value file; flags override it")
    sub.add_argument("--seed", type=int, help="RNG seed recorded in the report")
    sub.add_argument("--trials", type=int, help="independent parameter samples (>= 2)")
    sub.add_argument("--threads", type=int, help="worker pool cap; QUOTDT_THREADS as fallback")
    sub.add_argument("--format", choices=("table", "json"), help="report format")
    sub.add_argument("--timing", action="store_true", help="include elapsed_ms in the report")


def _add_space_bundle(sub):
    sub.add_argument("--space", help="built-in space name, or 'custom' with --chart data")
    sub.add_argument("--bundle", help="split bundle, e.g. O,O1 or O1.2 per polytope factor")
    sub.add_argument("--rank", type=int, help="rank of the trivial bundle when --bundle is absent")
    sub.add_argument(
        "--chart",
        action="append",
        help="custom chart 'a1,a2,a3;b1,b2,b3;c1,c2,c3'; repeat per fixed point",
    )
    sub.add_argument(
        "--bundle-chart",
        action="append",
        help="per-chart summand characters 'x,y,z;x,y,z'; repeat per chart",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="quotdt", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    toric = commands.add_parser("toric", help="DT series against the closed formula")
    _add_space_bundle(toric)
    toric.add_argument("--nmax", type=int, help="highest box count")
    _add_common(toric)

    vertex = commands.add_parser("vertex", help="virtual character tables per chart")
    _add_space_bundle(vertex)
    vertex.add_argument("--nmax", type=int, help="tabulate partitions up to this size")
    vertex.add_argument("--chart-index", type=int, help="restrict to one chart")
    _add_common(vertex)

    chern = commands.add_parser("chern", help="Chern numbers of a 3-fold ring")
    chern.add_argument("--space", help="ring name, e.g. p2xp1, quadric, pbundle-p2-1, prod:2.1")
    chern.add_argument("--bundle", help="split bundle in the divisor generators, e.g. O2 or O1.0")
    chern.add_argument("--rank", type=int, help="rank of the trivial bundle when --bundle is absent")
    _add_common(chern)

    cobordism = commands.add_parser("cobordism", help="phi basis and double point relations")
    cobordism.add_argument("--builtin", help="quadric-dpr | normal-cone-dpr | naive-quadric-dpr")
    cobordism.add_argument("--space", help="ring to decompose in the phi basis")
    cobordism.add_argument("--bundle", help="bundle on that ring, same grammar as chern")
    cobordism.add_argument("--rank", type=int, help="rank of the decomposition basis")
    _add_common(cobordism)

    mac = commands.add_parser("macmahon", help="MacMahon series coefficients")
    mac.add_argument("--nmax", type=int, help="series order")
    mac.add_argument("--power", type=int, help="integer exponent, default 1")
    mac.add_argument("--negate-q", action="store_true", help="substitute q -> -q")
    _add_common(mac)
    return parser


def load_config(path: str) -> dict[str, list[str]]:
    data: dict[str, list[str]] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        data.setdefault(key.strip().replace("-", "_"), []).append(value.strip())
    return data


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def merge_config(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the config file; flags always win."""
    opts = _COMMAND_OPTS[args.command]
    if not args.config:
        return args
    data = load_config(args.config)
    for key, values in data.items():
        if key == "command":
            if values != [args.command]:
                raise UsageError(f"config names command {values[0]!r}, got {args.command!r}")
            continue
        if key not in opts or key == "config":
            raise UsageError(f"unknown config key {key!r} for {args.command}")
        kind = opts[key]
        current = getattr(args, key)
        if kind == "list":
            if not current:
                setattr(args, key, list(values))
            continue
        if len(values) > 1:
            raise UsageError(f"config key {key!r} given more than once")
        value = values[0]
        if kind == "flag":
            if value.lower() not in _FLAG_VALUES:
                raise UsageError(f"config key {key!r} wants a boolean, got {value!r}")
            if not current:
                setattr(args, key, _FLAG_VALUES[value.lower()])
        elif kind == "int":
            if current is None:
                try:
                    setattr(args, key, int(value))
                except ValueError:
                    raise UsageError(f"config key {key!r} wants an integer, got {value!r}") from None
        else:
            if current is None:
                setattr(args, key, value)
    return args


# -- descriptor parsing ----------------------------------------------------


def parse_chart(text: str):
    rows = text.split(";")
    if len(rows) != 3:
        raise UsageError(f"chart {text!r} needs three ';'-separated vectors")
    chart = []
    for row in rows:
        try:
            vec = tuple(int(x) for x in row.split(","))
        except ValueError:
            raise UsageError(f"bad chart vector {row!r}") from None
        if len(vec) != 3:
            raise UsageError(f"chart vector {row!r} needs three entries")
        chart.append(vec)
    return tuple(chart)


def parse_bundle_chart(text: str):
    colors = []
    for row in text.split(";"):
        try:
            vec = tuple(int(x) for x in row.split(","))
        except ValueError:
            raise UsageError(f"bad summand character {row!r}") from None
        if len(vec) != 3:
            raise UsageError(f"summand character {row!r} needs three entries")
        colors.append(vec)
    return tuple(colors)


def parse_twists(descriptor: str, factors: int):
    """'O,O1' or 'O2.-1,O' -> one twist tuple per summand."""
    summands = []
    for token in descriptor.split(","):
        token = token.strip()
        if not token.startswith("O"):
            raise UsageError(f"bad bundle summand {token!r}")
        body = token[1:]
        if not body:
            summands.append((0,) * factors)
            continue
        try:
            twist = tuple(int(part) for part in body.split("."))
        except ValueError:
            raise UsageError(f"bad bundle summand {token!r}") from None
        if len(twist) != factors:
            raise UsageError(f"summand {token!r} needs {factors} degrees")
        summands.append(twist)
    if not summands:
        raise UsageError("empty bundle descriptor")
    return tuple(summands)


def resolve_space_bundle(args) -> tuple[ToricSpace, SplitBundle]:
    if args.chart:
        if args.space not in (None, "custom"):
            raise UsageError("give either --space or --chart data, not both")
        space = ToricSpace("custom", tuple(parse_chart(c) for c in args.chart))
    elif args.space:
        try:
            space = builtin_space(args.space)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    else:
        raise UsageError("a space is required: --space or --chart")

    if args.bundle_chart:
        per_chart = tuple(parse_bundle_chart(b) for b in args.bundle_chart)
        if len(per_chart) != space.num_charts:
            raise UsageError(
                f"{len(per_chart)} bundle charts for {space.num_charts} space charts"
            )
        ranks = {len(colors) for colors in per_chart}
        if len(ranks) != 1:
            raise UsageError("every chart needs the same number of summands")
        bundle = SplitBundle(ranks.pop(), per_chart)
    elif args.bundle:
        if space.twist_vertices is None:
            tokens = [t.strip() for t in args.bundle.split(",")]
            if any(t != "O" for t in tokens):
                raise UsageError("custom spaces take twisted bundles via --bundle-chart")
            bundle = trivial_bundle(space, len(tokens))
        else:
            bundle = split_bundle(space, parse_twists(args.bundle, space.num_factors))
    else:
        bundle = trivial_bundle(space, args.rank or 1)
    if args.rank is not None and bundle.rank != args.rank:
        raise UsageError(f"--rank {args.rank} contradicts a rank {bundle.rank} bundle")
    return space, bundle


def resolve_ring(name: str) -> chern_mod.ChernRing:
    if name is None:
        raise UsageError("a ring is required: --space")
    try:
        if name.startswith("prod:"):
            lam = tuple(int(x) for x in name[5:].split("."))
            return chern_mod.ring_of_projective_product(lam)
        return chern_mod.named_ring(name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def resolve_ring_bundle(args) -> tuple[chern_mod.ChernRing, chern_mod.BundleClass]:
    ring = resolve_ring(args.space)
    if not args.bundle:
        return ring, chern_mod.trivial_bundle_class(ring, args.rank or 1)
    roots = []
    for twist in parse_twists(args.bundle, len(ring.gens)):
        root = ring.zero()
        for gen_name, degree in zip(ring.gens, twist):
            if degree:
                root = ring.add(root, ring.scale(ring.gen(gen_name), degree))
        roots.append(root)
    bundle = chern_mod.BundleClass(ring, len(roots), tuple(roots))
    if args.rank is not None and bundle.rank != args.rank:
        raise UsageError(f"--rank {args.rank} contradicts a rank {bundle.rank} bundle")
    return ring, bundle


# -- report rendering -------------------------------------------------------


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def render_report(report: dict, fmt: str) -> str:
    payload = _jsonable(report)
    if fmt == "json":
        return json.dumps(payload, indent=2, ensure_ascii=False)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        elif isinstance(value, list) and all(not isinstance(v, (list, dict)) for v in value):
            lines.append(f"{prefix} = {', '.join(str(v) for v in value)}")
        elif isinstance(value, list):
            lines.append(f"{prefix} = {json.dumps(value, ensure_ascii=False)}")
        else:
            lines.append(f"{prefix} = {value}")

    walk("", payload)
    return "\n".join(lines)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# -- subcommands -------------------------------------------------------------


def cmd_toric(args) -> tuple[dict, int]:
    if args.nmax is None:
        raise UsageError("toric needs --nmax")
    space, bundle = resolve_space_bundle(args)
    threads = resolve_threads(args.threads)
    series = dt_series(space, bundle, args.nmax, seed=args.seed, trials=args.trials, threads=threads)
    coeffs = list(series.integer_coeffs())
    c3 = c3_via_localization(space, seed=args.seed, trials=args.trials)
    closed = list(dt_closed_formula(bundle.rank, c3, args.nmax).integer_coeffs())
    counts = [count_fixed_points(space, bundle.rank, n) for n in range(args.nmax + 1)]
    per_coeff = ["MATCH" if a == b else "MISMATCH" for a, b in zip(coeffs, closed)]
    matched = all(v == "MATCH" for v in per_coeff)
    inputs = {
        "space": space.name,
        "bundle": args.bundle or args.bundle_chart or f"trivial rank {bundle.rank}",
        "rank": bundle.rank,
        "nmax": args.nmax,
        "trials": args.trials,
        "threads": threads,
    }
    if args.chart:
        inputs["charts"] = [list(map(list, c)) for c in (parse_chart(c) for c in args.chart)]
    values = {
        "series": coeffs,
        "closed_formula": closed,
        "c3_t_omega": c3,
        "fixed_points": counts,
    }
    verdicts = {
        "coefficients": per_coeff,
        "series_matches_closed_formula": "MATCH" if matched else "MISMATCH",
    }
    report = _base_report("toric", inputs, args.seed, values, verdicts)
    return report, EXIT_OK if matched else EXIT_MISMATCH


def _admissible_params(rank: int, seed: int, probe) -> EquivParams:
    rng = random.Random(seed)
    last_error = None
    for _ in range(MAX_SAMPLE_ATTEMPTS):
        params = sample_params(rank, rng)
        try:
            probe(params)
            return params
        except ZeroWeightError as exc:
            last_error = exc
    raise QuotDTError(f"no admissible parameters after {MAX_SAMPLE_ATTEMPTS} draws: {last_error}")


def cmd_vertex(args) -> tuple[dict, int]:
    space, bundle = resolve_space_bundle(args)
    nmax = 1 if args.nmax is None else args.nmax
    if args.chart_index is not None and not 0 <= args.chart_index < space.num_charts:
        raise UsageError(f"chart index {args.chart_index} out of range")
    indices = (
        range(space.num_charts) if args.chart_index is None else (args.chart_index,)
    )
    charts = {ci: chart_of(space, bundle, ci) for ci in indices}

    def probe(params):
        for ci in indices:
            for n in range(1, nmax + 1):
                chart_contribution(charts[ci], bundle.rank, n, params)

    params = _admissible_params(bundle.rank, args.seed, probe)

    symmetric = True
    tables = {}
    contributions = {}
    for ci in indices:
        chart = charts[ci]
        rows = []
        for n in range(nmax + 1):
            for cpp in enum_colored(n, bundle.rank):
                char = vertex_character(cpp, chart)
                if symmetry_defect(char, chart):
                    symmetric = False
                rows.append(
                    {
                        "partition": [list(map(list, part)) for part in cpp.parts],
                        "character": [[list(e), c] for e, c in char.terms()],
                    }
                )
        tables[str(ci)] = rows
        contributions[str(ci)] = [
            chart_contribution(chart, bundle.rank, n, params) for n in range(1, nmax + 1)
        ]

    inputs = {
        "space": space.name,
        "rank": bundle.rank,
        "nmax": nmax,
        "chart_index": args.chart_index,
    }
    values = {
        "params": {"s": list(params.s), "v": list(params.v)},
        "contributions": contributions,
        "tables": tables,
    }
    verdicts = {
        # vertex_character raises on a nonzero constant term, so reaching
        # this point already certifies virtual dimension zero.
        "vd_zero": "PASS",
        "symmetry": _verdict(symmetric),
    }
    report = _base_report("vertex", inputs, args.seed, values, verdicts)
    return report, EXIT_OK if symmetric else EXIT_INVARIANT


_TORIC_RINGS = {"p3", "p2xp1", "p1cubed"}


def _monomial_label(a, b) -> str:
    parts = []
    for base, exps in (("c", a), ("f", b)):
        for i, e in enumerate(exps, start=1):
            if e == 1:
                parts.append(f"{base}{i}")
            elif e > 1:
                parts.append(f"{base}{i}^{e}")
    return "*".join(parts)


def cmd_chern(args) -> tuple[dict, int]:
    ring, bundle = resolve_ring_bundle(args)
    vector = chern_mod.mixed_chern_vector(ring, bundle)
    labels = [_monomial_label(a, b) for a, b in chern_mod.mixed_monomials(bundle.rank)]
    values = {
        "c3_t_omega": chern_mod.c3_t_omega(ring),
        "euler_characteristic": chern_mod.euler_characteristic(ring),
        "monomials": labels,
        "mixed_chern_vector": list(vector),
    }
    verdicts = {}
    ok = True
    if args.space in _TORIC_RINGS:
        localized = c3_via_localization(builtin_space(args.space), seed=args.seed, trials=args.trials)
        values["c3_via_localization"] = localized
        ok = localized == values["c3_t_omega"]
        verdicts["localization_agrees"] = _verdict(ok)
    inputs = {
        "space": args.space,
        "bundle": args.bundle or f"trivial rank {bundle.rank}",
        "rank": bundle.rank,
    }
    report = _base_report("chern", inputs, args.seed, values, verdicts)
    return report, EXIT_OK if ok else EXIT_INVARIANT


def cmd_cobordism(args) -> tuple[dict, int]:
    if args.builtin and args.space:
        raise UsageError("give either --builtin or --space, not both")
    if args.builtin:
        try:
            quadruple = chern_mod.BUILTIN_DPRS[args.builtin]()
        except KeyError:
            raise UsageError(
                f"unknown built-in {args.builtin!r}; choose from {sorted(chern_mod.BUILTIN_DPRS)}"
            ) from None
        result = chern_mod.dpr_check(*quadruple)
        inputs = {"builtin": args.builtin, "spaces": list(result.names)}
        values = {
            "exponents": list(result.exponents),
            "vectors": [list(v) for v in result.vectors],
        }
        verdicts = {
            "vector_identity": _verdict(result.vector_identity_ok),
            "exponent_identity": _verdict(result.exponent_identity_ok),
            "double_point_relation": _verdict(result.passed),
        }
        report = _base_report("cobordism", inputs, args.seed, values, verdicts)
        return report, EXIT_OK if result.passed else EXIT_INVARIANT

    ring, bundle = resolve_ring_bundle(args)
    rank = bundle.rank
    coeffs = chern_mod.decompose(ring, bundle, rank)
    vector = chern_mod.mixed_chern_vector(ring, bundle)
    rebuilt = chern_mod.reconstruct(coeffs, rank)
    ok = rebuilt == vector
    inputs = {
        "space": args.space,
        "bundle": args.bundle or f"trivial rank {rank}",
        "rank": rank,
    }
    values = {
        "basis_size": len(coeffs),
        "pairs": [{"lam": list(p.lam), "mu": list(p.mu)} for p in coeffs],
        "coefficients": list(coeffs.values()),
        "mixed_chern_vector": list(vector),
        "reconstruction": list(rebuilt),
    }
    verdicts = {"reconstructs": _verdict(ok)}
    report = _base_report("cobordism", inputs, args.seed, values, verdicts)
    return report, EXIT_OK if ok else EXIT_INVARIANT


def cmd_macmahon(args) -> tuple[dict, int]:
    if args.nmax is None:
        raise UsageError("macmahon needs --nmax")
    if args.nmax < 0:
        raise UsageError("--nmax must be nonnegative")
    power = 1 if args.power is None else args.power
    series = series_pow(macmahon(args.nmax), power)
    if args.negate_q:
        series = series.substitute_signed(-1)
    inputs = {"nmax": args.nmax, "power": power, "negate_q": bool(args.negate_q)}
    values = {"coefficients": list(series.integer_coeffs())}
    report = _base_report("macmahon", inputs, args.seed, values, {})
    return report, EXIT_OK


def _base_report(command, inputs, seed, values, verdicts) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "values": values,
        "verdicts": verdicts,
    }


_DISPATCH = {
    "toric": cmd_toric,
    "vertex": cmd_vertex,
    "chern": cmd_chern,
    "cobordism": cmd_cobordism,
    "macmahon": cmd_macmahon,
}


def main(argv=None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        args = merge_config(args)
        if args.seed is None:
            args.seed = 0
        if args.trials is None:
            args.trials = 2
        if args.trials < 2:
            raise UsageError("--trials must be at least 2")
        if args.format is None:
            args.format = "json"
        report, code = _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (QuotDTError, RuntimeError) as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if args.timing:
        report["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    print(render_report(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
