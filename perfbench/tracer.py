"""Spans and counts at the ytwo module boundaries, recorded from outside.

The tracer wraps public functions and methods of the package in place:
a module-level function is replaced in every ``ytwo`` module that holds
it (so names bound with ``from .x import f`` are traced as well), and a
method is replaced on its class.  Each call records one span
``(name, start_ns, end_ns, parent)`` in memory; spans are written out
only when the run ends.  Per-scalar methods (Laurent, QE and GF(2**d)
arithmetic, millions of calls) are deliberately not wrapped: their cost
is measured afterwards by timing operations on operands sampled from
the traced calls.
"""

from __future__ import annotations

import importlib
import json
import operator
import random
import statistics
import sys
import time
from collections import defaultdict

POOL_SIZE = 256
# Each per-op timing loop runs at least OP_MIN_S; the median of
# OP_REPEATS such loops is reported.
OP_MIN_S = 0.01
OP_REPEATS = 5


def _count_clifford_mul(tracer, args, result):
    a, b = args[0], args[1]
    tracer.counts["clifford.mul.term_pairs"] += len(a.terms) * len(b.terms)
    for el in (a, b):
        if el.terms:
            tracer.offer(next(iter(el.terms.values())))


def _count_rmatrix_mul(tracer, args, result):
    a = args[0]
    n = a.size
    tracer.counts["quadspace.rmatrix_mul.entry_ops"] += n * n * n
    k = len(tracer.spans)
    tracer.offer(a.rows[k % n][(k // n) % n])


def _count_evaluate(tracer, args, result):
    tracer.counts["presentation.evaluate.letters"] += len(args[0])


def _count_ff_rank(tracer, args, result):
    rows = args[1]
    if rows:
        tracer.counts["rings.ff_rank.cells"] += len(rows) * len(rows[0])
        for x in rows[0][:8]:
            tracer.offer(x)


def _count_bfs(tracer, args, result):
    # BFS multiplies every state it reaches by every generator once, so
    # products is derived from the order and the generator count, not counted.
    gens = len(args[0])
    tracer.counts["spectool.bfs.states"] += result
    tracer.counts["spectool.bfs.products"] += result * gens


COUNTS = (
    "clifford.mul.term_pairs",
    "quadspace.rmatrix_mul.entry_ops",
    "presentation.evaluate.letters",
    "rings.ff_rank.cells",
    "spectool.bfs.states",
    "spectool.bfs.products",
)

# (span name, owner, attribute, count hook).  An owner "module:Class"
# means the attribute is a method patched on that class.
TARGETS = (
    ("cli", "ytwo.cli", "run", None),
    ("clifford.mul", "ytwo.clifford:CliffordElement", "__mul__", _count_clifford_mul),
    ("clifford.transpose", "ytwo.clifford:CliffordElement", "transpose", None),
    ("clifford.cl_inverse", "ytwo.clifford", "cl_inverse", None),
    ("clifford.conjugation_matrix", "ytwo.clifford", "conjugation_matrix", None),
    ("clifford.center_report", "ytwo.clifford", "center_report", None),
    ("quadspace.rmatrix_mul", "ytwo.quadspace:RMatrix", "__mul__", _count_rmatrix_mul),
    ("presentation.evaluate", "ytwo.presentation", "evaluate", _count_evaluate),
    ("rings.ff_rank", "ytwo.rings", "ff_rank", _count_ff_rank),
    ("rings.make_eval_map", "ytwo.rings", "make_eval_map", None),
    ("spinor.independence_certificate", "ytwo.spinor", "independence_certificate", None),
    ("spinor.check_action", "ytwo.spinor", "check_action", None),
    ("spectool.specialize", "ytwo.spectool", "specialize", None),
    ("spectool.eta_component_matrices", "ytwo.spectool", "eta_component_matrices", None),
    ("spectool.bfs", "ytwo.spectool", "group_order_bfs", _count_bfs),
    ("spectool.bfs", "ytwo.spectool", "group_order_bfs_tuples", _count_bfs),
)


def self_times(spans) -> dict:
    """Per span name, total seconds of span time not covered by child spans.

    ``spans`` is a sequence of ``(name, start_ns, end_ns, parent)`` with
    ``parent`` the index of the enclosing span or -1.  Child intervals are
    clipped to their parent and merged, so overlapping children are not
    subtracted twice.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        covered = 0
        run_start = run_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        totals[name] += (end - start - covered) / 1e9
    return dict(totals)


class Tracer:
    """Records spans and counts for the calls listed in ``TARGETS``."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.pools: dict = defaultdict(list)
        self.seen: dict = defaultdict(int)
        self._rng = random.Random(0)
        self._stack: list = []
        self._patched: list = []

    def offer(self, value):
        """Reservoir-sample one scalar operand, pooled by its type name and,
        for field elements, the field degree (operands must share a ring)."""
        field = getattr(value, "field", None)
        kind = (type(value).__name__, field.degree if field else None)
        self.seen[kind] += 1
        pool = self.pools[kind]
        if len(pool) < POOL_SIZE:
            pool.append(value)
        else:
            j = self._rng.randrange(self.seen[kind])
            if j < POOL_SIZE:
                pool[j] = value

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [
            mod
            for key, mod in sys.modules.items()
            if key == "ytwo" or key.startswith("ytwo.")
        ]
        for name, owner_path, attr, hook in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            owner = importlib.import_module(mod_name)
            if cls_name:
                cls = getattr(owner, cls_name)
                self._set(cls, attr, self._wrap(name, cls.__dict__[attr], hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh)

    def layer_metrics(self) -> dict:
        """Calls, self seconds and counts per traced name."""
        selfs = self_times(self.spans)
        calls = defaultdict(int)
        for name, *_ in self.spans:
            calls[name] += 1
        out = {name: self.counts.get(name, 0) for name in COUNTS}
        for name, *_ in TARGETS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = selfs.get(name, 0.0)
        products = self.counts["spectool.bfs.products"]
        states = self.counts["spectool.bfs.states"]
        out["spectool.bfs.product_us"] = (
            out["spectool.bfs.self_s"] * 1e6 / products if products else 0.0
        )
        # one start state per BFS call, so (states - calls) / products
        out["spectool.bfs.useful_ratio"] = (
            (states - out["spectool.bfs.calls"]) / products if products else 0.0
        )
        return out


# -- per-operation timing ----------------------------------------------------


def _fallback_operands():
    """Small reference operands for a ring the workload never touched."""
    from ytwo.rings import LaurentScalar, QEScalar, make_eval_map

    laurent = [LaurentScalar.from_exponents(range(-k, k + 1, 2)) for k in range(8)]
    field = make_eval_map(5).field
    return {
        "LaurentScalar": laurent,
        "QEScalar": [QEScalar(x, y) for x, y in zip(laurent, reversed(laurent))],
        "FFElement": [field.element(v) for v in range(1, field.order)],
    }


def op_ns(values, op) -> float:
    """Median nanoseconds of ``op(x, y)`` over pairs drawn from ``values``,
    less the cost of the same loop calling a C no-op."""
    pairs = [(x, values[(7 * i + 3) % len(values)]) for i, x in enumerate(values)]

    def timed(fn, loops):
        start = time.perf_counter_ns()
        for _ in range(loops):
            for x, y in pairs:
                fn(x, y)
        return time.perf_counter_ns() - start

    loops = 1
    while timed(op, loops) < OP_MIN_S * 1e9:
        loops *= 2
    samples = [
        (timed(op, loops) - timed(operator.is_, loops)) / (loops * len(pairs))
        for _ in range(OP_REPEATS)
    ]
    return max(statistics.median(samples), 0.0)


def scalar_op_metrics(pools, seen) -> dict:
    """Per-op timings on sampled operands (or reference ones when the
    workload produced none of that type)."""
    fallback = _fallback_operands()

    def pool(type_name):
        # the ring of this type the workload offered most operands from
        kinds = [k for k in pools if k[0] == type_name]
        if not kinds:
            return fallback[type_name]
        return pools[max(kinds, key=seen.__getitem__)]

    return {
        "rings.laurent_mul_ns": op_ns(pool("LaurentScalar"), operator.mul),
        "rings.laurent_add_ns": op_ns(pool("LaurentScalar"), operator.add),
        "rings.qe_mul_ns": op_ns(pool("QEScalar"), operator.mul),
        "rings.ff_mul_ns": op_ns(pool("FFElement"), operator.mul),
    }


def cache_entries() -> int:
    """Entries in the Clifford structure-constant and polybits caches."""
    from ytwo import clifford

    total = len(clifford._MTG_CACHE) + len(clifford._MTM_CACHE) + len(clifford._TR_CACHE)
    total += sum(len(alg._polybits_cache) for alg in clifford._ALGEBRAS.values())
    return total
