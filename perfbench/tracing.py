"""The traced run: the jobs of a workload executed in this process, with a
timing wrapper on each layer's entry points.

The wrappers are installed on module attributes, from the benchmark's own
files; nothing under src/ records spans.  Where a layer is reached only
through a name another module imported (`engine.tower_plan`,
`tp._bareiss_int`, ...), the wrapper goes on that imported name.  A name that
no longer exists is skipped, and the metrics that need it are left out.

Spans nest: each keeps the time its traced callees took, so a layer's self
time is its span minus its children's spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class _Frame:
    children_s: float = 0.0
    children: set = field(default_factory=set)


class Recorder:
    """Totals per span name: calls, inclusive time, self time, and counters
    filled in by the hooks."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.time_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[_Frame] = []

    # counters shown per job in the run metadata
    PER_JOB = ("engine.elements", "kernels.count_profiles_batch", "tp.minors_checked",
               "exactlinear.bareiss")

    def snapshot(self) -> dict[str, int]:
        both = self.calls + self.counts
        return {name: both[name] for name in self.PER_JOB}

    def since(self, before: dict[str, int]) -> dict[str, int]:
        now = self.snapshot()
        return {name: now[name] - before[name] for name in self.PER_JOB}

    def wrap(self, name: str, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame()
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1].children_s += elapsed
                    self._stack[-1].children.add(name)
                self.calls[name] += 1
                self.time_s[name] += elapsed
                self.self_s[name] += elapsed - frame.children_s
            if hook is not None:
                hook(self, args, result, elapsed, frame)
            return result

        return traced


# --------------------------------------------------------------------------
# Hooks: counters read from arguments and results at the layer boundary


def _plan_hook(rec, args, plan, elapsed, frame):
    rec.counts["coxeter.tail_size"] += len(plan.tail_mats)
    leaves = 1
    for mats, _ in plan.transversals:
        leaves *= len(mats)
    rec.counts["coxeter.leaf_prefixes"] += leaves


def _ntable_hook(rec, args, table, elapsed, frame):
    rec.counts["engine.elements"] += table.total()


def _kernel_hook(rec, args, result, elapsed, frame):
    rec.counts["kernels.elements"] += len(args[2])


def _certificate_hook(rec, args, cert, elapsed, frame):
    rec.counts["tp.minors_checked"] += cert.minors_checked


def _cache_hook(rec, args, table, elapsed, frame):
    if "engine.accumulate_ntable" in frame.children:
        rec.counts["cli.cache_misses"] += 1
    else:
        rec.counts["cli.cache_hits"] += 1
        rec.counts["cli.cache_read_s"] += elapsed


# (module, attribute, span name, hook)
TARGETS = [
    ("cli", "build_system", "coxeter.build_system", None),
    ("engine", "tower_plan", "coxeter.tower_plan", _plan_hook),
    ("engine", "accumulate_ntable", "engine.accumulate_ntable", _ntable_hook),
    ("engine", "metamatrix_from_ntable", "engine.metamatrix_from_ntable", None),
    ("engine", "metamatrix_bruteforce", "engine.metamatrix_bruteforce", None),
    ("engine", "group_table", "engine.group_table", None),
    ("engine", "double_coset_count", "engine.double_coset_count", None),
    ("_kernels", "count_profiles_batch", "kernels.count_profiles_batch", _kernel_hook),
    ("engine", "nonneg_grid", "goldring.nonneg_grid", None),
    ("typeb", "metamatrix_typeb", "typeb.metamatrix_typeb", None),
    ("typeb", "L_matrix", "typeb.L_matrix", None),
    ("typeb", "conjugate_by_inverse_pascal", "exactlinear.conjugate", None),
    ("tp", "_bareiss_int", "exactlinear.bareiss", None),
    ("tp", "bareiss_det", "exactlinear.bareiss", None),
    ("tp", "fekete_check", "tp.fekete_check", _certificate_hook),
    ("tp", "all_minors_positive", "tp.all_minors_positive", _certificate_hook),
    ("cli", "_cached_ntable", "cli.cached_ntable", _cache_hook),
    ("cli", "_parse_matrix_text", "cli.parse_matrix", None),
]


def _modules():
    import importlib

    return {
        name: importlib.import_module(f"metamatrix.{name}")
        for name in ("cli", "engine", "_kernels", "typeb", "tp")
    }


class Tracer:
    """Installs the wrappers on entry and removes them on exit; the recorder
    keeps its totals across entries.  `installed` names the spans whose
    target exists in the package."""

    def __init__(self):
        self.recorder = Recorder()
        self.installed: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.installed.clear()
        modules = _modules()
        for mod_name, attr, span, hook in TARGETS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self.recorder.wrap(span, original, hook))
            self.installed.add(span)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()
        return False


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(rec: Recorder, installed: set[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.  A
    metric whose span was not installed is absent."""
    t, n, c = rec.time_s, rec.calls, rec.counts
    have = installed.__contains__
    out: dict[str, tuple[float, str]] = {}

    def put(name, value, unit, *needs):
        if all(map(have, needs)):
            out[name] = (value if unit == "count" else float(value), unit)

    plan, acc, kern = "coxeter.tower_plan", "engine.accumulate_ntable", "kernels.count_profiles_batch"
    put("coxeter.build_system_s", t["coxeter.build_system"], "s", "coxeter.build_system")
    put("coxeter.tower_plan_s", t[plan], "s", plan)
    put("coxeter.tail_size", c["coxeter.tail_size"], "count", plan)
    put("coxeter.leaf_prefixes", c["coxeter.leaf_prefixes"], "count", plan)
    put("engine.accumulate_ntable_s", t[acc], "s", acc)
    put("engine.elements", c["engine.elements"], "count", acc)
    put("engine.elements_per_s", _rate(c["engine.elements"], t[acc]), "1/s", acc)
    put("engine.self_s", rec.self_s[acc], "s", acc)
    put("engine.metamatrix_from_ntable_s", t["engine.metamatrix_from_ntable"], "s",
        "engine.metamatrix_from_ntable")
    put("engine.group_table_s", t["engine.group_table"], "s", "engine.group_table")
    put("engine.unionfind_s",
        t["engine.metamatrix_bruteforce"] - t["engine.group_table"], "s",
        "engine.metamatrix_bruteforce", "engine.group_table")
    put("engine.double_coset_calls", n["engine.double_coset_count"], "count",
        "engine.double_coset_count")
    put("kernels.calls", n[kern], "count", kern)
    put("kernels.busy_s", t[kern], "s", kern)
    put("kernels.elements_per_s", _rate(c["kernels.elements"], t[kern]), "1/s", kern)
    put("goldring.nonneg_grid_calls", n["goldring.nonneg_grid"], "count", "goldring.nonneg_grid")
    put("goldring.nonneg_grid_s", t["goldring.nonneg_grid"], "s", "goldring.nonneg_grid")
    put("typeb.metamatrix_typeb_s", t["typeb.metamatrix_typeb"], "s", "typeb.metamatrix_typeb")
    put("typeb.L_matrix_s", t["typeb.L_matrix"], "s", "typeb.L_matrix")
    put("exactlinear.conjugate_s", t["exactlinear.conjugate"], "s", "exactlinear.conjugate")
    put("exactlinear.bareiss_calls", n["exactlinear.bareiss"], "count", "exactlinear.bareiss")
    put("exactlinear.bareiss_s", t["exactlinear.bareiss"], "s", "exactlinear.bareiss")
    certifiers = ("tp.fekete_check", "tp.all_minors_positive")
    put("tp.fekete_s", t["tp.fekete_check"], "s", "tp.fekete_check")
    put("tp.all_minors_s", t["tp.all_minors_positive"], "s", "tp.all_minors_positive")
    put("tp.minors_checked", c["tp.minors_checked"], "count", *certifiers)
    put("tp.minors_per_s",
        _rate(c["tp.minors_checked"], t["tp.fekete_check"] + t["tp.all_minors_positive"]),
        "1/s", *certifiers)
    put("cli.cache_hits", c["cli.cache_hits"], "count", "cli.cached_ntable", acc)
    put("cli.cache_misses", c["cli.cache_misses"], "count", "cli.cached_ntable", acc)
    put("cli.cache_read_s", c["cli.cache_read_s"], "s", "cli.cached_ntable", acc)
    put("cli.parse_matrix_s", t["cli.parse_matrix"], "s", "cli.parse_matrix")
    return out


# --------------------------------------------------------------------------
# In-process job execution


def run_in_process(args: list[str]) -> tuple[int, str, float]:
    """Run one CLI invocation in this process; returns (exit code, stdout,
    wall seconds).  A crash (an exception other than a click exit) reads as
    exit code -1, so no checker can mistake it for a verdict."""
    from click.testing import CliRunner

    from metamatrix import cli, engine

    # a fresh interpreter would start with an empty oracle table cache
    table_cache = getattr(engine, "_TABLE_CACHE", None)
    if table_cache is not None:
        table_cache.clear()
    runner = CliRunner()
    start = time.perf_counter()
    result = runner.invoke(cli.main, args)
    wall = time.perf_counter() - start
    code = result.exit_code
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        code = -1
    return code, result.stdout, wall
