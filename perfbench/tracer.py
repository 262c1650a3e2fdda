"""Run one quotdt CLI command with per-layer spans and counters.

Usage: python3 perfbench/tracer.py <quotdt cli arguments...>

The command's report goes to stdout exactly as `python -m quotdt.cli` would
print it.  After the command returns, one line `PERFBENCH_STATS <json>` goes
to stderr with the per-layer metrics.

Each traced function is rebound at every name the package holds it by
(`toric.chart_contribution`, `cli.dt_series`, ...), so the spans sit on the
layer boundaries without touching the package's source.  A function the
package caches with `lru_cache` gets a fresh `lru_cache` of the same kind
around its span: only misses enter the span, a hit stays a C-level lookup
charged to its caller, and the new cache's `cache_info()` gives hits and
misses.  If a traced name is gone, or has gained or lost its `lru_cache`,
the tracer exits with an error instead of reporting a misleading 0.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

STATS_MARKER = "PERFBENCH_STATS "

CACHED = ("vertex.vertex_character", "vertex.chart_contribution", "partitions.enum_colored")
TIMED = (
    "vertex.vertex_character", "vertex.euler_inverse", "vertex.chart_contribution",
    "partitions.enum_colored", "toric.dt_series", "toric.c3_via_localization",
    "toric.count_fixed_points", "series.macmahon", "series.series_pow",
    "series.dt_closed_formula", "cli.render_report",
)


class TracerError(RuntimeError):
    """The package no longer has the layout the tracer wraps."""


class Tracer:
    """Inclusive and self time per span name, call counts and counters."""

    def __init__(self):
        self.time_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counters = Counter()
        self.maxima = Counter()
        self._depth = Counter()
        self._children: list[list[float]] = []

    def active(self, name: str) -> bool:
        return self._depth[name] > 0

    def span(self, name: str, fn, on_result=None):
        """Wrap fn so each call adds to the span `name`.

        Only the outermost call of a name counts towards its time, so a
        recursive call is not counted twice.
        """

        def wrapper(*args, **kwargs):
            outermost = self._depth[name] == 0
            self._depth[name] += 1
            children = [0.0]
            self._children.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._children.pop()
                self._depth[name] -= 1
                self.calls[name] += 1
                if outermost:
                    self.time_s[name] += elapsed
                    self.self_s[name] += elapsed - children[0]
                if self._children:
                    self._children[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        return wrapper


def install(tracer: Tracer):
    """Wrap the package's layer functions; returns the cli module and a metrics function."""
    import quotdt.cli

    modules = [m for key, m in sys.modules.items() if key == "quotdt" or key.startswith("quotdt.")]
    caches = {}

    def wrap(name, on_result=None):
        module_name, attr = name.split(".")
        fn = getattr(sys.modules.get("quotdt." + module_name), attr, None)
        if fn is None:
            raise TracerError(f"quotdt.{name} is gone; update perfbench/tracer.py")
        if (name in CACHED) != hasattr(fn, "cache_info"):
            change = "lost" if name in CACHED else "gained"
            raise TracerError(f"quotdt.{name} {change} its lru_cache; update perfbench/tracer.py")
        if name in CACHED:
            wrapped = functools.lru_cache(**fn.cache_parameters())(
                tracer.span(name, fn.__wrapped__, on_result))
            caches[name] = wrapped
        else:
            wrapped = tracer.span(name, fn, on_result)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapped)

    def on_character(result):
        # Runs on cache misses only, so it counts the monomials of characters built.
        tracer.counters["vertex.character_monomials"] += result.num_terms

    def on_euler(result):
        bits = max(result.numerator.bit_length(), result.denominator.bit_length())
        tracer.maxima["vertex.euler_bits_max"] = max(tracer.maxima["vertex.euler_bits_max"], bits)

    def on_sample(_result):
        # Parameter points drawn for the series; c3 draws its own, not counted.
        if tracer.active("toric.dt_series"):
            tracer.counters["toric.samples"] += 1

    hooks = {"vertex.vertex_character": on_character, "vertex.euler_inverse": on_euler,
             "toric.sample_params": on_sample}
    for name in (*TIMED, "toric.sample_params"):
        wrap(name, hooks.get(name))

    def metrics() -> dict:
        out = {f"{name}.time_s": tracer.time_s[name] for name in TIMED}
        for name in ("vertex.vertex_character", "vertex.euler_inverse",
                     "vertex.chart_contribution", "partitions.enum_colored"):
            if name in caches:
                info = caches[name].cache_info()
                out[f"{name}.calls"] = info.hits + info.misses
            else:
                out[f"{name}.calls"] = tracer.calls[name]
        for name in ("vertex.vertex_character", "vertex.chart_contribution"):
            out[f"{name}.misses"] = caches[name].cache_info().misses
        out["toric.dt_series.self_s"] = tracer.self_s["toric.dt_series"]
        out["toric.assembly_products"] = caches["vertex.chart_contribution"].cache_info().hits
        out["toric.samples"] = tracer.counters["toric.samples"]
        out["vertex.character_monomials"] = tracer.counters["vertex.character_monomials"]
        out["vertex.euler_bits_max"] = tracer.maxima["vertex.euler_bits_max"]
        return out

    return quotdt.cli, metrics


def main(argv: list[str]) -> int:
    tracer = Tracer()
    cli, metrics = install(tracer)
    code = cli.main(argv)
    sys.stdout.flush()
    print(STATS_MARKER + json.dumps(metrics(), sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
