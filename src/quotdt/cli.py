"""Command line front end for exact DT computations.

Five subcommands: `toric` (DT series with closed-formula verdict), `vertex`
(per-chart character tables and contributions), `chern` (intersection ring
numbers), `cobordism` (phi-basis decomposition and double point relation
checks) and `macmahon` (series expansions).

A command runs only the modules it reads.  The package registers its
modules lazily, so the names bound below run no module code until their
first attribute access: `macmahon` runs cli, errors and series; `toric`
and `vertex` add toric, vertex, partitions and conventions; `chern` and
`cobordism` add chern, partitions and conventions, and `chern` on a
built-in toric space adds toric and vertex for its localization check.

Each cmd_* returns its inputs, values, verdicts and exit code, and main
builds the report {command, inputs, seed, values, verdicts} from them; bad
input is a ValueError wherever it is raised, and main maps it to exit 1.
The commands hand the engine's own ints, tuples and Fractions to
render_report, whose one json hook writes a Fraction as its string 'p/q'.
Reports are emitted as JSON (default) or a flat key=value table.  Identical
configuration and seed give byte-identical output; the optional --timing flag
adds a wall-clock field and therefore breaks byte determinism, so it is off
by default.  Exit codes: 0 success, 1 usage error, 2 internal invariant
failure, 3 oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import chern, conventions, partitions, toric, vertex
from .errors import QuotDTError, check_size
from .series import dt_closed_formula, macmahon, series_pow

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_MISMATCH = 3


class _Parser(argparse.ArgumentParser):
    """The one declaration of the CLI's options.

    Each subcommand parser keeps the Action of every option by dest, so the
    config reader and the negative-value rewrite read names, value kinds and
    choices from the add_argument calls in build_parser.
    """

    def __init__(self, *args, **kwargs):
        self.options: dict[str, argparse.Action] = {}
        self.appends: set[str] = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self.options[action.dest] = action
        if kwargs.get("action") == "append":
            self.appends.add(action.dest)
        return action

    # argparse exits with code 2 on bad flags; the contract reserves 2 for
    # invariant failures, so raise a ValueError, which main maps to exit 1.
    def error(self, message):
        raise ValueError(message)


# -- argument plumbing -----------------------------------------------------


def _add_common(sub, sampled: bool = False):
    """The options of every command; --trials only on one that samples its invariants.

    chern samples only on a ring that is a built-in toric space, and refuses
    --trials on any other.
    """
    sub.add_argument("--config", help="flat key=value file; flags override it")
    sub.add_argument("--seed", type=int, help="RNG seed recorded in the report")
    if sampled:
        sub.add_argument("--trials", type=int, help="independent parameter samples (>= 2)")
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

    cmd = commands.add_parser("toric", help="DT series against the closed formula")
    _add_space_bundle(cmd)
    cmd.add_argument("--nmax", type=int, help="highest box count")
    _add_common(cmd, sampled=True)

    cmd = commands.add_parser("vertex", help="virtual character tables per chart")
    _add_space_bundle(cmd)
    cmd.add_argument("--nmax", type=int, help="tabulate partitions up to this size")
    cmd.add_argument("--chart-index", type=int, help="restrict to one chart")
    _add_common(cmd)

    cmd = commands.add_parser("chern", help="Chern numbers of a 3-fold ring")
    cmd.add_argument("--space", help="ring name, e.g. p2xp1, quadric, pbundle-p2-1, prod:2.1")
    cmd.add_argument("--bundle", help="split bundle in the divisor generators, e.g. O2 or O1.0")
    cmd.add_argument("--rank", type=int, help="rank of the trivial bundle when --bundle is absent")
    _add_common(cmd, sampled=True)

    cmd = commands.add_parser("cobordism", help="phi basis and double point relations")
    cmd.add_argument("--builtin", help="quadric-dpr | normal-cone-dpr | naive-quadric-dpr")
    cmd.add_argument("--space", help="ring to decompose in the phi basis")
    cmd.add_argument("--bundle", help="bundle on that ring, same grammar as chern")
    cmd.add_argument("--rank", type=int, help="rank of the decomposition basis")
    _add_common(cmd)

    cmd = commands.add_parser("macmahon", help="MacMahon series coefficients")
    cmd.add_argument("--nmax", type=int, help="series order")
    cmd.add_argument("--power", type=int, help="integer exponent, default 1")
    cmd.add_argument("--negate-q", action="store_true", help="substitute q -> -q")
    _add_common(cmd)
    parser.commands = commands.choices  # subcommand name -> its _Parser
    return parser


def load_config(path: str) -> dict[str, list[str]]:
    data: dict[str, list[str]] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        data.setdefault(key.strip().replace("-", "_"), []).append(value.strip())
    return data


_FLAG_VALUES = {"1": True, "true": True, "yes": True, "on": True,
                "0": False, "false": False, "no": False, "off": False}


def merge_config(args: argparse.Namespace, parser: _Parser) -> argparse.Namespace:
    """Fill unset options from the config file; flags always win.

    A key is read through the Action of the subcommand option it names, so a
    value gets the same type and choice checks as the flag would.
    """
    if not args.config:
        return args
    data = load_config(args.config)
    for key, values in data.items():
        action = parser.options.get(key)
        if (action is None and key != "command") or key in ("help", "config"):
            raise ValueError(f"unknown config key {key!r} for {args.command}")
        current = getattr(args, key)
        if key in parser.appends:
            if not current:
                setattr(args, key, list(values))
            continue
        if len(values) > 1:
            raise ValueError(f"config key {key!r} given more than once")
        value = values[0]
        if key == "command":
            if value != current:
                raise ValueError(f"config names command {value!r}, got {current!r}")
            continue
        if action.nargs == 0:
            if value.lower() not in _FLAG_VALUES:
                raise ValueError(f"config key {key!r} wants a boolean, got {value!r}")
            if not current:
                setattr(args, key, _FLAG_VALUES[value.lower()])
            continue
        if current is not None:
            continue
        if action.type is not None:
            # every typed option is type=int
            try:
                value = action.type(value)
            except ValueError:
                raise ValueError(f"config key {key!r} wants an integer, got {value!r}") from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config key {key!r} wants one of {', '.join(action.choices)}, got {value!r}"
            )
        setattr(args, key, value)
    return args


# -- descriptor parsing ----------------------------------------------------


def parse_vectors(text: str):
    """'x,y,z;x,y,z' -> one int tuple per ';'-separated row; the constructors check the shapes."""
    try:
        return tuple(tuple(int(x) for x in row.split(",")) for row in text.split(";"))
    except ValueError:
        raise ValueError(f"bad vector list {text!r}") from None


def parse_twists(descriptor: str, factors: int):
    """'O,O1' or 'O2.-1,O' -> one twist tuple per summand."""
    summands = []
    for token in descriptor.split(","):
        token = token.strip()
        if not token.startswith("O"):
            raise ValueError(f"bad bundle summand {token!r}")
        body = token[1:]
        if not body:
            summands.append((0,) * factors)
            continue
        try:
            twist = tuple(int(part) for part in body.split("."))
        except ValueError:
            raise ValueError(f"bad bundle summand {token!r}") from None
        summands.append(twist)
    return tuple(summands)


def resolve_space_bundle(args) -> tuple[toric.ToricSpace, toric.SplitBundle]:
    if args.chart:
        if args.space not in (None, "custom"):
            raise ValueError("give either --space or --chart data, not both")
        space = toric.ToricSpace("custom", tuple(map(parse_vectors, args.chart)))
    elif args.space == "custom":
        raise ValueError("--space custom needs --chart data, one --chart per fixed point")
    elif args.space:
        space = toric.builtin_space(args.space)
    else:
        raise ValueError("a space is required: --space or --chart")

    if args.bundle is not None and args.bundle_chart:
        raise ValueError("give either --bundle or --bundle-chart, not both")
    if args.bundle_chart:
        per_chart = tuple(map(parse_vectors, args.bundle_chart))
        if len(per_chart) != space.num_charts:
            raise ValueError(
                f"{len(per_chart)} bundle charts for {space.num_charts} space charts"
            )
        bundle = toric.SplitBundle(len(per_chart[0]), per_chart)
    elif args.bundle is not None:
        bundle = toric.split_bundle(space, parse_twists(args.bundle, space.num_factors))
    else:
        bundle = toric.trivial_bundle(space, 1 if args.rank is None else args.rank)
    _check_rank(args, bundle)
    return space, bundle


def _check_rank(args, bundle) -> None:
    if args.rank is not None and bundle.rank != args.rank:
        raise ValueError(f"--rank {args.rank} contradicts a rank {bundle.rank} bundle")


def resolve_ring_bundle(args):
    """The ring and bundle that chern and cobordism work on, and the inputs echo."""
    if args.space is None:
        raise ValueError("a ring is required: --space")
    ring = chern.named_ring(args.space)
    if args.bundle is not None:
        bundle = chern.split_bundle_class(ring, parse_twists(args.bundle, len(ring.gens)))
    else:
        bundle = chern.BundleClass(ring, 1 if args.rank is None else args.rank)
    _check_rank(args, bundle)
    described = args.bundle or f"trivial rank {bundle.rank}"
    return ring, bundle, {"space": args.space, "bundle": described, "rank": bundle.rank}


# -- report rendering -------------------------------------------------------


def _fraction_str(value):
    """json's hook for the one engine type it cannot write: a Fraction as 'p/q'."""
    if isinstance(value, Fraction):
        return str(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _scalar_str(value) -> str:
    """A table scalar as text: a JSON scalar by its str, anything else through _fraction_str."""
    if value is None or isinstance(value, (str, int, float)):
        return str(value)
    return _fraction_str(value)


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, ensure_ascii=False, default=_fraction_str)
    lines = []

    def walk(prefix, value):
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}" if prefix else k, v)
        elif not isinstance(value, (list, tuple)):
            lines.append(f"{prefix} = {_scalar_str(value)}")
        elif any(isinstance(v, (list, tuple, dict)) for v in value):
            nested = json.dumps(value, ensure_ascii=False, default=_fraction_str)
            lines.append(f"{prefix} = {nested}")
        else:
            lines.append(f"{prefix} = {', '.join(map(_scalar_str, value))}")

    walk("", report)
    return "\n".join(lines)


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# -- subcommands -------------------------------------------------------------


def cmd_toric(args) -> tuple[dict, dict, dict, int]:
    if args.nmax is None:
        raise ValueError("toric needs --nmax")
    check_size(args.nmax, "--nmax")
    space, bundle = resolve_space_bundle(args)
    trials = 2 if args.trials is None else args.trials
    series = toric.dt_series(space, bundle, args.nmax, seed=args.seed, trials=trials)
    coeffs = series.integer_coeffs()
    c3 = toric.c3_via_localization(space, seed=args.seed, trials=trials)
    closed = dt_closed_formula(bundle.rank, c3, args.nmax).integer_coeffs()
    counts = toric.count_fixed_points(space, bundle.rank, args.nmax)
    per_coeff = ["MATCH" if a == b else "MISMATCH" for a, b in zip(coeffs, closed)]
    matched = all(v == "MATCH" for v in per_coeff)
    inputs = {
        "space": space.name,
        "bundle": args.bundle or args.bundle_chart or f"trivial rank {bundle.rank}",
        "rank": bundle.rank,
        "nmax": args.nmax,
        "trials": trials,
        "threads": 1,  # the sum runs in one thread; kept in the pinned report
    }
    if args.chart:
        inputs["charts"] = space.charts
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
    return inputs, values, verdicts, EXIT_OK if matched else EXIT_MISMATCH


def cmd_vertex(args) -> tuple[dict, dict, dict, int]:
    space, bundle = resolve_space_bundle(args)
    nmax = check_size(1 if args.nmax is None else args.nmax, "--nmax")
    indices = (
        range(space.num_charts) if args.chart_index is None else (args.chart_index,)
    )
    charts = [toric.chart_of(space, bundle, ci) for ci in indices]

    (params,), (sums,) = toric.draw_admissible(
        bundle.rank, args.seed, 1,
        lambda points: vertex.chart_sums(charts, bundle.rank, nmax, points),
    )

    symmetric = True
    tables = {}
    contributions = {}
    for position, (ci, chart) in enumerate(zip(indices, charts)):
        rows = []
        for n in range(nmax + 1):
            for cpp in partitions.enum_colored(n, bundle.rank):
                char = vertex.vertex_character(cpp, chart)
                if vertex.symmetry_defect(char):
                    symmetric = False
                rows.append({
                    "partition": [part.boxes for part in cpp.parts],
                    "character": sorted(vertex.chart_terms(char).items()),
                })
        tables[str(ci)] = rows
        contributions[str(ci)] = [row[position] for row in sums]

    inputs = {
        "space": space.name,
        "rank": bundle.rank,
        "nmax": nmax,
        "chart_index": args.chart_index,
    }
    values = {
        "params": {"s": params.s, "v": params.v},
        "contributions": contributions,
        "tables": tables,
    }
    verdicts = {
        # the formal character of every partition raises on a nonzero
        # constant term and on a nonzero rank T(1), so reaching this point
        # already certifies virtual dimension zero.
        "vd_zero": "PASS",
        "symmetry": _verdict(symmetric),
    }
    return inputs, values, verdicts, EXIT_OK if symmetric else EXIT_INVARIANT


def _monomial_label(a, b) -> str:
    parts = []
    for base, exps in (("c", a), ("f", b)):
        for i, e in enumerate(exps, start=1):
            if e == 1:
                parts.append(f"{base}{i}")
            elif e > 1:
                parts.append(f"{base}{i}^{e}")
    return "*".join(parts)


def cmd_chern(args) -> tuple[dict, dict, dict, int]:
    ring, bundle, inputs = resolve_ring_bundle(args)
    localized = args.space in conventions.BUILTIN_SPACES
    if args.trials is not None and not localized:
        raise ValueError(f"--trials needs a ring whose c3 is localized, not {args.space!r}")
    vector = chern.mixed_chern_vector(ring, bundle)
    labels = [_monomial_label(a, b) for a, b in chern.mixed_monomials(bundle.rank)]
    values = {
        "c3_t_omega": chern.c3_t_omega(ring),
        "euler_characteristic": chern.euler_characteristic(ring),
        "monomials": labels,
        "mixed_chern_vector": vector,
    }
    verdicts = {}
    ok = True
    if localized:
        space = toric.builtin_space(args.space)
        trials = 2 if args.trials is None else args.trials
        c3 = toric.c3_via_localization(space, seed=args.seed, trials=trials)
        values["c3_via_localization"] = c3
        ok = c3 == values["c3_t_omega"]
        verdicts["localization_agrees"] = _verdict(ok)
    return inputs, values, verdicts, EXIT_OK if ok else EXIT_INVARIANT


def cmd_cobordism(args) -> tuple[dict, dict, dict, int]:
    if args.builtin and args.space:
        raise ValueError("give either --builtin or --space, not both")
    if args.builtin and (args.bundle is not None or args.rank is not None):
        raise ValueError("--builtin takes no --bundle or --rank")
    if args.builtin:
        try:
            quadruple = chern.BUILTIN_DPRS[args.builtin]()
        except KeyError:
            raise ValueError(
                f"unknown built-in {args.builtin!r}; choose from {sorted(chern.BUILTIN_DPRS)}"
            ) from None
        result = chern.dpr_check(*quadruple)
        inputs = {"builtin": args.builtin, "spaces": result.names}
        values = {"exponents": result.exponents, "vectors": result.vectors}
        verdicts = {
            "vector_identity": _verdict(result.vector_identity_ok),
            "exponent_identity": _verdict(result.exponent_identity_ok),
            "double_point_relation": _verdict(result.passed),
        }
        return inputs, values, verdicts, EXIT_OK if result.passed else EXIT_INVARIANT

    ring, bundle, inputs = resolve_ring_bundle(args)
    coeffs = chern.decompose(ring, bundle)
    vector = chern.mixed_chern_vector(ring, bundle)
    rebuilt = chern.reconstruct(coeffs, bundle.rank)
    ok = rebuilt == vector
    values = {
        "basis_size": len(coeffs),
        "pairs": [{"lam": p.lam, "mu": p.mu} for p in coeffs],
        "coefficients": list(coeffs.values()),
        "mixed_chern_vector": vector,
        "reconstruction": rebuilt,
    }
    verdicts = {"reconstructs": _verdict(ok)}
    return inputs, values, verdicts, EXIT_OK if ok else EXIT_INVARIANT


def cmd_macmahon(args) -> tuple[dict, dict, dict, int]:
    if args.nmax is None:
        raise ValueError("macmahon needs --nmax")
    check_size(args.nmax, "--nmax")
    power = 1 if args.power is None else args.power
    series = series_pow(macmahon(args.nmax), power)
    if args.negate_q:
        series = series.substitute_signed(-1)
    inputs = {"nmax": args.nmax, "power": power, "negate_q": bool(args.negate_q)}
    values = {"coefficients": series.integer_coeffs()}
    return inputs, values, {}, EXIT_OK


_DISPATCH = {
    "toric": cmd_toric,
    "vertex": cmd_vertex,
    "chern": cmd_chern,
    "cobordism": cmd_cobordism,
    "macmahon": cmd_macmahon,
}


def _attach_negative_values(parser: _Parser, argv: list[str]) -> list[str]:
    """Rewrite '--chart -1,0,0;...' as '--chart=-1,0,0;...'.

    argparse reads a separate value that starts with '-' as an option unless
    it is a plain negative number, so a chart whose first weight is negative
    would be refused.  A '-<digit>' token is attached to the flag before it
    when that flag names an option that takes a value, resolved the way
    argparse resolves it: exactly, or as the unique prefix of one of the
    command's long options.
    """
    command = next((token for token in argv if token in parser.commands), None)
    if command is None:
        return argv
    actions = {
        flag: action
        for action in parser.commands[command].options.values()
        for flag in action.option_strings
        if flag.startswith("--")
    }

    def takes_value(flag: str) -> bool:
        if flag not in actions:
            matches = [f for f in actions if f.startswith(flag)]
            if not flag.startswith("--") or len(matches) != 1:
                return False
            flag = matches[0]
        return actions[flag].nargs != 0

    out = []
    for token in argv:
        if out and token[:1] == "-" and token[1:2].isdigit() and takes_value(out[-1]):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = parser.parse_args(_attach_negative_values(parser, argv))
        args = merge_config(args, parser.commands[args.command])
        if args.seed is None:
            args.seed = 0
        if getattr(args, "trials", None) is not None and args.trials < 2:
            raise ValueError("--trials must be at least 2")
        if args.format is None:
            args.format = "json"
        inputs, values, verdicts, code = _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuotDTError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    report = dict(command=args.command, inputs=inputs, seed=args.seed,
                  values=values, verdicts=verdicts)
    if args.timing:
        report["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    print(render_report(report, args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
