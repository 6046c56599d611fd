"""Spans around the calls one ``rlah`` module makes into another.

The tracer rebinds module-level names (and a few methods) through which the
layers call each other, so the program itself is not changed: for example
``rlah.distribution._first_kind_prefix_scaled`` is the name through which the
distribution layer reaches the first-kind prefix kernel of the stirling
layer.  Each call becomes a span with its parent span, kept in memory and
written out once the round is over.  A span's self time is its duration
minus the time covered by its child spans.  Counters are attached to spans
where the call happens (table rows added, prefix cells, LP sizes, ...).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# span record: [name, parent index, start, end, child time, counters]
NAME, PARENT, START, END, CHILD, COUNTS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.active = False
        self._restore: List[Tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the harness opens itself (one per op)."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, 0.0, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        span = self.spans[index]
        span[END] = end = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += end - span[START]

    def wrap(self, owner, attr: str, name: str, pre: Optional[Callable] = None, post: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named ``name``.

        ``pre(args, kwargs)`` runs before the call; ``post(args, kwargs,
        result, pre_state)`` returns a dict of counters for the span.
        """
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre else None
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if post:
                tracer.spans[index][COUNTS] = post(args, kwargs, result, state)
            return result

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, child, counts) in enumerate(self.spans):
                record = {"id": i, "name": name, "parent": parent, "start": start, "end": end,
                          "self": end - start - child}
                if counts:
                    record["counts"] = counts
                fh.write(json.dumps(record) + "\n")


# -- counters -------------------------------------------------------------------

def _table_pre(args, kwargs):
    return args[0].max_filled


def _table_post(args, kwargs, result, before):
    after = args[0].max_filled
    return {"reads": 1, "rows": after - before, "entries": sum(m + 1 for m in range(before + 1, after + 1))}


def _prefix_post(args, kwargs, result, _):
    n, j_max = args[0], args[2]
    bits = sum(
        v.bit_length() if isinstance(v, int) else v.numerator.bit_length() + v.denominator.bit_length()
        for v in result
    )
    return {"cells": n * (min(j_max, n) + 1), "out_bits": bits}


def _head_pre(args, kwargs):
    from rlah import distribution

    return distribution._pmf_head_cached.cache_info().misses


def _head_post(args, kwargs, result, misses_before):
    from rlah import distribution

    misses = distribution._pmf_head_cached.cache_info().misses - misses_before
    return {"misses": misses, "j_hi": result.j_hi}


def _walk_post(args, kwargs, result, _):
    return {"redraws": result.redraws}


def _face_post(args, kwargs, result, _):
    return {"faces": int(result)}


def _estimate_post(args, kwargs, result, _):
    return {"rejects": result.rejects}


def _lp_post(args, kwargs, result, _):
    a_ub = kwargs.get("a_ub", args[1] if len(args) > 1 else ())
    a_eq = kwargs.get("a_eq", args[3] if len(args) > 3 else ())
    return {
        "vars": len(args[0]),
        "rows": len(a_ub) + len(a_eq),
        "infeasible": int(result.status == "infeasible"),
        "unbounded": int(result.status == "unbounded"),
    }


# (module, class or None, attribute, span name, pre, post)
WRAPS = [
    ("rlah.cli", None, "main", "cli", None, None),
    *[(f"rlah.{m}", None, "as_rational", "rational.parse", None, None)
      for m in ("cli", "stirling", "distribution", "asymptotics", "cones")],
    *[(f"rlah.{m}", None, "format_rational", "rational.format", None, None) for m in ("cli", "distribution")],
    *[(f"rlah.{m}", None, "stirling_r", "stirling.table", None, None) for m in ("stirling", "distribution", "cones")],
    ("rlah.stirling", "RStirlingTable", "ensure", "stirling.table", _table_pre, _table_post),
    ("rlah.distribution", None, "_first_kind_prefix_scaled", "stirling.prefix", None, _prefix_post),
    ("rlah.cones", None, "first_kind_prefix", "stirling.prefix", None, _prefix_post),
    ("rlah.distribution", None, "_second_kind_column_scaled", "stirling.column", None, None),
    ("rlah.stirling", None, "lah_r", "stirling.closed", None, None),
    *[("rlah.distribution", None, a, "stirling.closed", None, None) for a in ("lah_r", "gen_binomial", "harmonic_diff")],
    *[(f"rlah.{m}", None, "build_distribution", "distribution.build", None, None) for m in ("distribution", "cones")],
    *[("rlah.distribution", "LahDistribution", a, "distribution.summary", None, None)
      for a in ("to_rows", "expectation", "variance", "parity_probabilities", "mode")],
    ("rlah.distribution", None, "pgf_eval", "distribution.pgf", None, None),
    *[(f"rlah.{m}", None, "pmf_head", "distribution.head", _head_pre, _head_post)
      for m in ("distribution", "asymptotics", "cones")],
    ("rlah.distribution", "PmfHead", "head_cdf", "distribution.head_cdf", None, None),
    ("rlah.asymptotics", None, "kolmogorov_distance", "asymptotics.kolmogorov", None, None),
    ("rlah.asymptotics", None, "llt_sup_gap", "asymptotics.llt", None, None),
    ("rlah.asymptotics", None, "mod_poisson_residual", "asymptotics.mod_poisson", None, None),
    ("rlah.asymptotics", None, "ldp_tail_ratio", "asymptotics.ldp", None, None),
    ("rlah.asymptotics", None, "convergence_table", "asymptotics.table", None, None),
    *[("rlah.cones", None, a, "cones", None, None)
      for a in ("expected_face_count", "face_ratio", "recovery_probability", "weak_threshold")],
    ("rlah.montecarlo", None, "estimate_expected_faces", "montecarlo.estimate", None, None),
    ("rlah.montecarlo", None, "estimate_recovery_probability", "montecarlo.estimate", None, _estimate_post),
    ("rlah.montecarlo", None, "generate_walk", "montecarlo.walk", None, _walk_post),
    ("rlah.montecarlo", None, "_rank", "montecarlo.rank", None, None),
    ("rlah.montecarlo", None, "is_k_face", "montecarlo.face_test", None, _face_post),
    ("rlah.montecarlo", None, "is_pointed", "montecarlo.pointed", None, None),
    ("rlah.montecarlo", None, "make_recovery_instance", "montecarlo.instance", None, None),
    ("rlah.montecarlo", None, "_kernel_basis", "montecarlo.kernel", None, None),
    ("rlah.montecarlo", None, "is_unique_recovery", "montecarlo.unique", None, None),
    ("rlah.montecarlo", None, "solve_lp", "simplex.lp", None, _lp_post),
]


def install() -> Tracer:
    tracer = Tracer()
    for module, cls, attr, name, pre, post in WRAPS:
        owner = importlib.import_module(module)
        if cls:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, name, pre, post)
    return tracer


# -- per-layer metrics ----------------------------------------------------------

# (metric, unit, better); the README says which end-to-end metric each should move
LAYER_METRICS = [
    ("cli.self_s", "s", "lower"),
    ("rational.parse.self_s", "s", "lower"),
    ("rational.format.self_s", "s", "lower"),
    ("stirling.table.rows", "count", "lower"),
    ("stirling.table.entries", "count", "lower"),
    ("stirling.table.self_s", "s", "lower"),
    ("stirling.table.warm_op_share", "ratio", "higher"),
    ("stirling.prefix.calls", "count", "lower"),
    ("stirling.prefix.cells", "count", "lower"),
    ("stirling.prefix.out_bits", "bits", "lower"),
    ("stirling.prefix.self_s", "s", "lower"),
    ("stirling.column.self_s", "s", "lower"),
    ("stirling.closed.self_s", "s", "lower"),
    ("distribution.build.calls", "count", "lower"),
    ("distribution.build.self_s", "s", "lower"),
    ("distribution.summary.self_s", "s", "lower"),
    ("distribution.pgf.self_s", "s", "lower"),
    ("distribution.head.calls", "count", "lower"),
    ("distribution.head.misses", "count", "lower"),
    ("distribution.head.hit_ratio", "ratio", "higher"),
    ("distribution.head.j_hi_sum", "count", "lower"),
    ("distribution.head.self_s", "s", "lower"),
    ("distribution.head_cdf.calls", "count", "lower"),
    ("distribution.head_cdf.self_s", "s", "lower"),
    ("asymptotics.kolmogorov.self_s", "s", "lower"),
    ("asymptotics.llt.self_s", "s", "lower"),
    ("asymptotics.mod_poisson.self_s", "s", "lower"),
    ("asymptotics.ldp.self_s", "s", "lower"),
    ("asymptotics.mgf.windows", "count", "lower"),
    ("cones.self_s", "s", "lower"),
    ("montecarlo.walk.self_s", "s", "lower"),
    ("montecarlo.walk.redraws", "count", "lower"),
    ("montecarlo.rank.calls", "count", "lower"),
    ("montecarlo.rank.self_s", "s", "lower"),
    ("montecarlo.face_test.calls", "count", "lower"),
    ("montecarlo.face_test.self_s", "s", "lower"),
    ("montecarlo.face_test.face_ratio", "ratio", "higher"),
    ("montecarlo.pointed.self_s", "s", "lower"),
    ("montecarlo.instance.self_s", "s", "lower"),
    ("montecarlo.instance.rejects", "count", "lower"),
    ("montecarlo.kernel.self_s", "s", "lower"),
    ("montecarlo.unique.self_s", "s", "lower"),
    ("simplex.lp.calls", "count", "lower"),
    ("simplex.lp.self_s", "s", "lower"),
    ("simplex.lp.ms_p50", "ms", "lower"),
    ("simplex.lp.vars", "count", "lower"),
    ("simplex.lp.rows", "count", "lower"),
    ("simplex.lp.infeasible", "count", "lower"),
    ("simplex.lp.unbounded", "count", "lower"),
    ("trace.wall_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in LAYER_METRICS}


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """Aggregate the spans of one traced round into the per-layer metrics."""
    spans = tracer.spans
    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    counts: Dict[str, float] = defaultdict(float)
    lp_ms: List[float] = []
    op_of: List[int] = []  # index of the op span each span belongs to
    table_ops: Dict[int, int] = {}  # op index -> rows added while it read the triangle
    windows = 0
    for i, (name, parent, start, end, child, cnt) in enumerate(spans):
        op_of.append(i if parent < 0 else op_of[parent])
        self_s[name] += end - start - child
        calls[name] += 1
        if cnt:
            for key, value in cnt.items():
                counts[f"{name}.{key}"] += value
        if name == "simplex.lp":
            lp_ms.append((end - start) * 1000.0)
        elif name == "stirling.table" and cnt:
            table_ops[op_of[i]] = table_ops.get(op_of[i], 0) + cnt["rows"]
        elif name == "distribution.head" and _has_ancestor(spans, parent, "asymptotics.mod_poisson"):
            windows += 1

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    head_calls = calls["distribution.head"]
    out = {
        "stirling.table.rows": counts["stirling.table.rows"],
        "stirling.table.entries": counts["stirling.table.entries"],
        "stirling.table.warm_op_share": ratio(sum(1 for rows in table_ops.values() if rows == 0), len(table_ops)),
        "stirling.prefix.calls": calls["stirling.prefix"],
        "stirling.prefix.cells": counts["stirling.prefix.cells"],
        "stirling.prefix.out_bits": counts["stirling.prefix.out_bits"],
        "distribution.build.calls": calls["distribution.build"],
        "distribution.head.calls": head_calls,
        "distribution.head.misses": counts["distribution.head.misses"],
        "distribution.head.hit_ratio": ratio(head_calls - counts["distribution.head.misses"], head_calls),
        "distribution.head.j_hi_sum": counts["distribution.head.j_hi"],
        "distribution.head_cdf.calls": calls["distribution.head_cdf"],
        "asymptotics.mgf.windows": windows,
        "montecarlo.walk.redraws": counts["montecarlo.walk.redraws"],
        "montecarlo.rank.calls": calls["montecarlo.rank"],
        "montecarlo.face_test.calls": calls["montecarlo.face_test"],
        "montecarlo.face_test.face_ratio": ratio(counts["montecarlo.face_test.faces"], calls["montecarlo.face_test"]),
        "montecarlo.instance.rejects": counts["montecarlo.estimate.rejects"],
        "simplex.lp.calls": calls["simplex.lp"],
        "simplex.lp.ms_p50": statistics.median(lp_ms) if lp_ms else 0.0,
        "simplex.lp.vars": counts["simplex.lp.vars"],
        "simplex.lp.rows": counts["simplex.lp.rows"],
        "simplex.lp.infeasible": counts["simplex.lp.infeasible"],
        "simplex.lp.unbounded": counts["simplex.lp.unbounded"],
        "trace.wall_s": wall_s,
    }
    for metric, unit, _ in LAYER_METRICS:
        if metric.endswith(".self_s"):
            out[metric] = self_s[metric[: -len(".self_s")]]
    return {metric: out[metric] for metric, _, _ in LAYER_METRICS}


def _has_ancestor(spans: List[list], index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][NAME] == name:
            return True
        index = spans[index][PARENT]
    return False


def count_metrics(metrics: Dict[str, float]) -> Dict[str, float]:
    """The metrics that must repeat exactly between traced runs of one seed."""
    return {m: v for m, v in metrics.items() if UNITS[m] in ("count", "bits", "ratio")}
