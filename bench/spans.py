"""Per-layer spans and counts, recorded from the benchmark's side.

``Tracer.install`` replaces the public functions of each ``rll`` layer, at
the module attribute the pipeline calls them through, with wrappers that
record a span (layer name, start, end, parent span) while an operation is
running, and that read counts off the returned objects afterwards. Spans stay
in memory until the run writes them out. A layer's time is its self time:
its spans' duration minus that of the wrapped calls made inside them. The
self time of the operation's own span, the call to ``rll.cli.main``, is the
CLI's overhead.
"""

from __future__ import annotations

import os
import time

TIME_METRICS = [
    ("syntax.parse", "syntax.parse_ms"),
    ("closure.fl_closure", "closure.fl_closure_ms"),
    ("closure.assign_priorities", "closure.assign_priorities_ms"),
    ("game.build_arena", "game.build_arena_ms"),
    ("game.solve_parity", "game.solve_parity_ms"),
    ("semantics.eval_rll", "semantics.eval_rll_ms"),
    ("semantics.enumerate_lassos", "semantics.enumerate_lassos_ms"),
    ("algebra.complement", "algebra.complement_ms"),
    ("calculus.load", "calculus.load_ms"),
    ("calculus.check", "calculus.check_ms"),
    ("cli.main", "cli.overhead_ms"),
]
COUNT_METRICS = [
    ("closure.members", "count"),
    ("closure.max_member_nodes", "count"),
    ("closure.distinct_priorities", "count"),
    ("game.arena_positions", "count"),
    ("game.arena_edges", "count"),
    ("game.games_solved", "count"),
    ("semantics.lassos_enumerated", "count"),
    ("calculus.proof_kb", "KB"),
    ("calculus.steps_checked", "count"),
]


def _nodes(e) -> int:
    """AST nodes of an rll expression, read off its fields."""
    count, stack = 0, [e]
    while stack:
        t = stack.pop()
        count += 1
        for field in ("body", "left", "right"):
            child = getattr(t, field, None)
            if child is not None:
                stack.append(child)
    return count


def _steps(steps) -> int:
    return sum(1 + (_steps(s.hyp.steps) if s.hyp is not None else 0)
               for s in steps)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [op, name, start, end, parent]
        self.counts = {name: 0.0 for name, _ in COUNT_METRICS}
        self.op = None
        self.stack: list[int] = []

    # -- spans ------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([self.op, name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int):
        self.spans[idx][3] = time.perf_counter()
        self.stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Run one operation under its root span, ``cli.main``."""
        self.op = op_id
        idx = self.open("cli.main")
        try:
            return fn(*args)
        finally:
            self.close(idx)
            self.op = None
            self.stack.clear()

    # -- wrappers ---------------------------------------------------------
    def _wrap(self, name, fn, counter=None, reentrant=True):
        tracer = self

        def traced(*args, **kwargs):
            if tracer.op is None or (not reentrant and tracer.spans[
                    tracer.stack[-1]][1] == name):
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                counter(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name, fn, count_name):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if tracer.op is None:
                return inner
            return tracer._timed_iter(name, inner, count_name)

        traced.__wrapped__ = fn
        return traced

    def _timed_iter(self, name, inner, count_name):
        while True:
            idx = self.open(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                self.close(idx)
            self.counts[count_name] += 1
            yield item

    def install(self, rll):
        """Wrap the layer entry points of the imported ``rll`` package."""
        c = self.counts

        def on_closure(res, _args):
            c["closure.members"] += len(res.members)
            c["closure.max_member_nodes"] += max(map(_nodes, res.members))

        def on_priorities(res, _args):
            c["closure.distinct_priorities"] += len(set(res.priority))

        def on_arena(res, _args):
            c["game.arena_positions"] += len(res.owners)
            c["game.arena_edges"] += sum(map(len, res.edges))

        def on_solve(_res, _args):
            c["game.games_solved"] += 1

        def on_load(_res, args):
            c["calculus.proof_kb"] += os.path.getsize(args[0]) / 1024

        def on_check(_res, args):
            c["calculus.steps_checked"] += _steps(args[0].steps)

        patches = [
            (rll.cli, "parse_expr_file", "syntax.parse", None),
            (rll.cli, "parse_lasso", "syntax.parse", None),
            (rll.closure, "fl_closure", "closure.fl_closure", on_closure),
            (rll.closure, "assign_priorities", "closure.assign_priorities",
             on_priorities),
            (rll.game, "build_arena", "game.build_arena", on_arena),
            (rll.game, "solve_parity", "game.solve_parity", on_solve),
            (rll.semantics, "eval_rll", "semantics.eval_rll", None),
            (rll.calculus, "load_proof_file", "calculus.load", on_load),
            (rll.calculus, "check_derivation", "calculus.check", on_check),
        ]
        for module, attr, name, counter in patches:
            setattr(module, attr, self._wrap(name, getattr(module, attr),
                                             counter))
        rll.algebra.complement = self._wrap(
            "algebra.complement", rll.algebra.complement, reentrant=False)
        rll.game.enumerate_lassos = self._wrap_generator(
            "semantics.enumerate_lassos", rll.game.enumerate_lassos,
            "semantics.lassos_enumerated")

    # -- results ----------------------------------------------------------
    def self_times(self, factors: dict) -> dict:
        """Normalised self time in ms per span name, summed over the run;
        ``factors`` maps an operation id to its normalisation factor."""
        child = [0.0] * len(self.spans)
        for op, _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: 0.0 for name, _ in TIME_METRICS}
        for i, (op, name, start, end, _parent) in enumerate(self.spans):
            out[name] += (end - start - child[i]) * 1e3 * factors[op]
        return out

    def metrics(self, factors: dict) -> dict:
        times = self.self_times(factors)
        out = {metric: {"value": times[name], "unit": "ms"}
               for name, metric in TIME_METRICS}
        for name, unit in COUNT_METRICS:
            out[name] = {"value": self.counts[name], "unit": unit}
        return out

    def dump(self) -> dict:
        base = self.spans[0][2] if self.spans else 0.0
        return {"fields": ["op", "name", "start_ms", "end_ms", "parent"],
                "spans": [[op, name, round((s - base) * 1e3, 4),
                           round((e - base) * 1e3, 4), parent]
                          for op, name, s, e, parent in self.spans]}
