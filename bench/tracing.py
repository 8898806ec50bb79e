"""Per-layer tracing from outside the program.

``Recorder.install`` replaces the public functions of each abbvloc layer
module by timing wrappers, everywhere the function object is bound inside
the package (so ``toric.det`` and ``polytope.det`` are wrapped along with
``core.det``), plus a few methods named in METHODS.  ``uninstall`` puts
every original back.  Spans are kept in memory as lists

    [name, parent index, job id, start ns, end ns, exception type, extra]

and written out at the end of a run.  Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "abbvloc"
LAYERS = ("core", "engine", "toric", "polytope", "homogeneous", "secondary", "sampling", "cli")

# Per-entry coercions, called once per vector entry: a span per call would
# cost more than the call and would only move time into the caller.
SKIP = {"rat", "rat_str", "canonical_multiindex", "basis_vector", "basis_covector",
        "integer_gcd", "sample_rational", "sample_positive_rational"}

# (layer, class, method, metric name, timed)
METHODS = (
    ("core", "Matrix", "inverse", "core.Matrix.inverse", True),
    ("engine", "OrbitSystem", "__post_init__", "engine.OrbitSystem.validate", True),
    ("core", "Covector", "__call__", "core.Covector.call", False),
)

NAME, PARENT, JOB, START, END, ERROR, EXTRA = range(7)


def _extra_for(name: str):
    """Result summaries kept on a span for the counters computed later."""
    if name == "toric.enumerate_vertices":
        return lambda args, result: [(args[0].normals, args[0].reeb), len(result)]
    if name == "engine.check_v_independence":
        return lambda args, result: [len(result.samples_used), result.rejected_poles]
    return None


class Recorder:
    """Counting and timing wrappers around the layer functions."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._patches = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, _extra_for(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, self.job, 0, 0, None, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in SKIP):
                    targets[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, targets[id(value)][1])
        for layer, cls_name, method, metric, timed in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], cls_name, None)
            original = None if cls is None else cls.__dict__.get(method)
            if original is None:
                continue
            self._patches.append((cls, method, original))
            setattr(cls, method, (self._wrap if timed else self._count)(metric, original))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans) -> list:
    """Self time of each span in ns: its duration minus its children's.

    Calls are nested on one thread, so children never overlap and the part
    of a span that its children cover is the sum of their durations."""
    child = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def check_self_time_sum(spans, selfs) -> tuple:
    """(sum of all self times, sum of the root cli.main spans' durations).

    The two are equal exactly when every span ran inside a cli.main call."""
    roots = sum(s[END] - s[START] for s in spans if s[PARENT] < 0 and s[NAME] == "cli.main")
    return sum(selfs), roots


def layer_metrics(spans, selfs, counts, passes: int) -> dict:
    """Per-layer metrics, as means per traced pass (ratios over all passes)."""
    calls, self_ns, total_ns, errors = Counter(), Counter(), Counter(), Counter()
    for span, own in zip(spans, selfs):
        name = span[NAME]
        calls[name] += 1
        self_ns[name] += own
        total_ns[name] += span[END] - span[START]
        if span[ERROR]:
            errors[name, span[ERROR]] += 1

    def under(idx: int, ancestor: str) -> bool:
        idx = spans[idx][PARENT]
        while idx >= 0:
            if spans[idx][NAME] == ancestor:
                return True
            idx = spans[idx][PARENT]
        return False

    enum_solves = sum(
        1 for i, s in enumerate(spans)
        if s[NAME] == "core.solve_linear" and under(i, "toric.enumerate_vertices")
    )
    enum_vertices = 0
    per_job = defaultdict(list)
    accepted = poles = 0
    for span in spans:
        if span[EXTRA] is None:
            continue
        if span[NAME] == "toric.enumerate_vertices":
            per_job[span[JOB]].append(span[EXTRA][0])
            enum_vertices += span[EXTRA][1]
        elif span[NAME] == "engine.check_v_independence":
            accepted += span[EXTRA][0]
            poles += span[EXTRA][1]
    per_cone = max((len(keys) / len(set(keys)) for keys in per_job.values()), default=0.0)

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def per_pass_calls(name):
        put(f"{name}.calls", calls[name] / passes, "count")

    def per_pass_self(name):
        put(f"{name}.self_s", self_ns[name] / passes / 1e9, "s")

    for name in ("core.det", "core.solve_linear", "core.Matrix.inverse", "core.smith_normal_form",
                 "core.s_J", "core.elementary_symmetric", "toric.enumerate_vertices",
                 "toric.toric_volume", "polytope.omega_h", "polytope.lawrence_volume",
                 "engine.check_v_independence", "engine.localize_volume",
                 "engine.localize_characteristic", "secondary.check_w1_identity",
                 "secondary.asuke_number"):
        per_pass_calls(name)
        per_pass_self(name)
    for name in ("toric.orbit_system_from_cone", "polytope.vertices_from_halfspaces",
                 "polytope.triangulation_volume", "polytope.random_functional",
                 "polytope.msy_check", "engine.dh_series", "homogeneous.homogeneous_volume",
                 "homogeneous.stiefel_four_sum"):
        per_pass_self(name)
    cli_ns = sum(v for k, v in self_ns.items() if k.startswith("cli."))
    put("cli.self_s", cli_ns / passes / 1e9, "s")
    for name in ("sampling.sample_vector", "sampling.sample_distinct_positive", "cli.main"):
        per_pass_calls(name)
    put("core.Covector.call.calls", counts["core.Covector.call"] / passes, "count")
    put("toric.enumerate_vertices.per_cone", per_cone, "calls/cone")
    put("toric.enum.solves", enum_solves / passes, "count")
    put("toric.enum.vertices", enum_vertices / passes, "count")
    put("toric.enum.yield", enum_vertices / enum_solves if enum_solves else 0.0, "vertices/solve")
    put("toric.toric_volume.poles", errors["toric.toric_volume", "PoleAtSample"] / passes, "count")
    put("polytope.lawrence_volume.rejects",
        errors["polytope.lawrence_volume", "EdgeConstantFunctional"] / passes, "count")
    put("polytope.omega_h.total_s", total_ns["polytope.omega_h"] / passes / 1e9, "s")
    put("engine.OrbitSystem.validate_s", total_ns["engine.OrbitSystem.validate"] / passes / 1e9, "s")
    put("engine.samples.accepted", accepted / passes, "count")
    put("engine.samples.poles", poles / passes, "count")
    put("engine.samples.yield", accepted / (accepted + poles) if accepted + poles else 0.0, "accepted/draw")
    return out


def dump(path, spans, selfs):
    """Write the spans as gzipped JSON lines: a header naming the fields,
    then one array per span; ``parent`` is a span's line index (-1: none)."""
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        fh.write(json.dumps(["name", "parent", "job", "start_ns", "end_ns", "self_ns", "error"]) + "\n")
        for span, own in zip(spans, selfs):
            fh.write(json.dumps([span[NAME], span[PARENT], span[JOB], span[START], span[END],
                                 own, span[ERROR]]) + "\n")
