"""Traced job: wrap every layer's public functions, run one job, print the layers.

    python3 bench/tracing.py '<job json>'

runs the job in this interpreter (a CLI job through ``hurwitztau.cli.main``,
the sweep through ``workloads.run_sweep``) and prints one JSON object: the
job's exit code, its result digest and the per-layer metrics.

Each public function of a layer module is replaced by a wrapper in every
``hurwitztau`` namespace that binds it (``hurwitz`` binds ``symfun.char_table``
under its own name, for example).  A wrapper either records a span
(name, start, end, parent) or, for hot leaves and ring operations, only counts
calls.  Spans stay in memory until the job ends; a span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
import time
from collections import Counter, defaultdict

import workloads

LAYERS = ("exactalg", "partitions", "symfun", "weights", "grouporacle", "hurwitz",
          "taufn", "adaptedbasis", "correlators", "cutjoin", "cli")

# Called more than 5,000 times in some workload's job, where a span would cost
# more than the work it measures.  Their time stays in the caller's self time
# (so ``cli.emit.self_s`` includes serialising the report).
COUNT_ONLY = {
    "exactalg.exp_weight", "exactalg.exps_mul", "exactalg.monomial_from_partition",
    "partitions.enumerate_partitions", "symfun.character", "symfun.h_of_sigma",
    "symfun.elementary_list", "symfun.power_sum_value", "weights.g_coeff",
    "weights.r_factor", "weights.g_value", "grouporacle.compose", "grouporacle.cycle_type",
    "grouporacle.transposition", "grouporacle.identity", "cli.serialize",
}

# Ring operations: name -> (class, attributes, record spans?).
METHODS = {
    "exactalg.BetaSeries.mul": ("BetaSeries", ("__mul__", "__rmul__"), False),
    "exactalg.BetaSeries.add": ("BetaSeries", ("__add__", "__radd__"), False),
    "exactalg.LaurentWindow.mul": ("LaurentWindow", ("mul",), False),
    "exactalg.GradedPoly.mul": ("GradedPoly", ("__mul__", "__rmul__"), True),
    "exactalg.GradedPoly.log": ("GradedPoly", ("log",), True),
}

# Sizes read off a wrapped function's return value: name -> (metric, size).
RESULT_SIZES = {
    "taufn.build_tau": ("taufn.tau_terms", lambda tau: len(tau.body.terms)),
    "taufn.hirota_residual": ("taufn.hirota_residual.monomials", len),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.stack = [-1]
        self.calls = Counter()
        self.sizes = Counter()

    def span(self, name, fn):
        spans, stack, calls, clock = self.spans, self.stack, self.calls, time.perf_counter
        size = RESULT_SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            index = len(spans)
            record = [name, clock(), 0.0, stack[-1]]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if size is not None:
                self.sizes[size[0]] += size[1](result)
            return result

        return wrapper

    def counter(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap the layers' public functions and ring methods, everywhere bound."""
        import hurwitztau.cli  # noqa: F401  (imports every layer)

        modules = {n: m for n, m in sys.modules.items()
                   if n == "hurwitztau" or n.startswith("hurwitztau.")}
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            module = modules[f"hurwitztau.{layer}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrap = self.counter if name in COUNT_ONLY else self.span
                wrapped[id(obj)] = (obj, wrap(name, obj))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and wrapped[id(obj)][0] is obj:
                    setattr(module, attr, wrapped[id(obj)][1])
        exactalg = modules["hurwitztau.exactalg"]
        for name, (cls_name, attrs, spans) in METHODS.items():
            cls = getattr(exactalg, cls_name)
            for attr in attrs:
                fn = vars(cls)[attr]
                setattr(cls, attr, (self.span if spans else self.counter)(name, fn))

    def layer_metrics(self) -> dict:
        """name.calls and name.self_s for every wrapped name, plus the sizes."""
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[index]
        out = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
            if name in self_s:
                out[f"{name}.self_s"] = self_s[name]
        out.update(self.sizes)
        return out


def cache_metrics() -> dict:
    from hurwitztau import symfun

    chars = symfun._character.cache_info()
    return {
        "symfun.character_cache.hits": chars.hits,
        "symfun.character_cache.misses": chars.misses,
        "symfun.character_cache.size": chars.currsize,
        "symfun.h_cache.size": symfun._h_list_cached.cache_info().currsize,
    }


def run_traced(job: dict) -> dict:
    tracer = Tracer()
    tracer.install()
    if job["kind"] == "cli":
        from hurwitztau import cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(job["argv"])
        text = out.getvalue()
        digest = workloads.result_digest(text) if code == 0 else None
        ok = code == 0
        extra = {"cli.output_bytes": len(text.encode())}
    else:
        report = workloads.run_sweep(job["params"])
        code, digest, ok = 0, workloads.canonical_digest(report), workloads.all_ok(report)
        extra = {"cli.output_bytes": 0}
    metrics = {**tracer.layer_metrics(), **cache_metrics(), **extra}
    return {"exit": code, "digest": digest, "ok": ok, "metrics": metrics}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: tracing.py '<job json>'")
    print(json.dumps(run_traced(json.loads(sys.argv[1])), sort_keys=True))
