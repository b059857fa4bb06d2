"""In-process traced runs: spans and counts per layer, wrapped from outside.

The program is not changed.  ``instrument`` rebinds the public functions
the CLI and the analyses call through their module attributes:

* coarse calls (parse, tree build, verdicts, coverability, DFAs, product,
  print) become spans with a name, start, end and parent;
* hot leaf calls (order checks, successor calls, certificate candidates
  and their checks, up to millions per instance) are aggregated as a
  call count, a hit count and total time, never one span per call.

A span's self time is its length minus its child spans and minus the leaf
time spent directly inside it.  Wrapping slows the program down, so end-to-
end numbers never come from a traced run; the run measures its own
overhead against an untraced in-process pass over the same instances.
"""

from __future__ import annotations

import contextlib
import io
import time
from collections import defaultdict

_clock = time.perf_counter
# The exact counts recorded per shape in counts.json and compared on every run.
RECORDED_COUNTS = ("rrt.nodes", "orders.leq_calls", "cover.rounds", "cover.candidates",
                   "fifo.product_states")


class Tracer:
    """Spans and leaf aggregates of one CLI call, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0, 0])  # calls, s, hits
        self.leaf_s = [0.0]  # all leaf time so far, for self-time accounting
        self.results: list[tuple[str, object]] = []  # (span name, return value)

    def span(self, name: str, fn, keep_result: bool = False):
        spans, stack, leaf_s = self.spans, self.stack, self.leaf_s

        def wrapped(*args, **kwargs):
            rec = {"name": name, "parent": stack[-1] if stack else None,
                   "start": _clock(), "leaf0": leaf_s[0]}
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = _clock()
                rec["leaf"] = leaf_s[0] - rec.pop("leaf0")
                stack.pop()
            if keep_result:
                self.results.append((name, result))
            return result

        return wrapped

    def leaf(self, name: str, fn):
        rec, leaf_s = self.leaves[name], self.leaf_s

        def wrapped(*args):
            t = _clock()
            result = fn(*args)
            dt = _clock() - t
            rec[0] += 1
            rec[1] += dt
            leaf_s[0] += dt
            if result is True:
                rec[2] += 1
            return result

        return wrapped

    def leaf_iter(self, name: str, factory):
        """Wrap a generator factory; time and count each ``next()``."""
        rec, leaf_s = self.leaves[name], self.leaf_s

        class _Timed:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                t = _clock()
                try:
                    item = next(self.it)
                finally:
                    dt = _clock() - t
                    rec[1] += dt
                    leaf_s[0] += dt
                rec[0] += 1
                return item

        return lambda *args: _Timed(factory(*args))

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over its spans, and per leaf name."""
        child_dur = [0.0] * len(self.spans)
        child_leaf = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_dur[s["parent"]] += s["end"] - s["start"]
                child_leaf[s["parent"]] += s["leaf"]
        out: dict[str, float] = defaultdict(float)
        for i, s in enumerate(self.spans):
            direct_leaf = s["leaf"] - child_leaf[i]
            out[s["name"]] += (s["end"] - s["start"]) - child_dur[i] - direct_leaf
        for name, (_, seconds, _) in self.leaves.items():
            out[name] += seconds
        return out

    def total_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    def dump(self) -> dict:
        return {"spans": [dict(s) for s in self.spans],
                "leaves": {k: {"calls": v[0], "s": v[1], "hits": v[2]}
                           for k, v in self.leaves.items()}}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Rebind the layers' public functions to traced wrappers, then restore."""
    from wstskit import cli, cover, olts
    from wstskit.orders import Order

    saved = []

    def rebind(module, attr, value):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def span(module, attr, name, keep=False):
        rebind(module, attr, tracer.span(name, getattr(module, attr), keep))

    def leaf(module, attr, name):
        rebind(module, attr, tracer.leaf(name, getattr(module, attr)))

    try:
        span(cli, "main", "cli.main")
        span(cli, "parse_model", "dsl.parse")
        span(cli, "parse_target", "dsl.parse")
        span(cli, "print_model", "dsl.print")
        span(cli, "counter_olts", "olts.build")
        span(cli, "fifo_olts", "olts.build")
        span(cli, "is_cmrz", "counter.is_cmrz")
        span(cli, "build_rrt", "rrt.build", keep=True)
        span(cli, "build_lrrt", "rrt.build", keep=True)
        span(cli, "decide_boundedness", "rrt.decide")
        span(cli, "decide_nontermination", "rrt.decide")
        span(cli, "decide_nonterm_by_iterable", "rrt.decide")
        span(cli, "export_dot", "rrt.dot")
        span(cli, "x0_coverability", "cover.x0", keep=True)
        leaf(cli, "downset_post", "cover.cert_check")
        leaf(cli, "downset_subset", "cover.cert_check")
        span(cli, "normalize_distinct_letter", "fifo.dfa")
        span(cli, "build_send_dfa", "fifo.dfa", keep=True)
        span(cli, "build_recv_dfa", "fifo.dfa", keep=True)
        span(cli, "product_machine", "fifo.product", keep=True)

        leaf(olts, "cm_post", "counter.post")
        leaf(olts, "fifo_post", "fifo.post")
        for attr in ("COUNTER_ORDER", "EXT_PREFIX_ORDER"):
            order = getattr(olts, attr)
            rebind(olts, attr, Order(leq=tracer.leaf("orders.leq", order.leq), eq=order.eq))

        rebind(cover, "downset_candidates",
               tracer.leaf_iter("cover.enum", cover.downset_candidates))
        for attr in ("downset_contains", "downset_post", "downset_subset"):
            leaf(cover, attr, "cover.check")
        leaf(cover, "cm_post", "cover.forward")
        leaf(cover, "counter_state_leq", "orders.leq")
        yield tracer
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


def call_main(argv: list[str]) -> tuple[int, str, str]:
    """Run ``wstskit.cli.main`` in this process with its output captured."""
    from wstskit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a benchmark failure, reported with its traceback
            import traceback

            traceback.print_exc(file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def instance_counts(tracer: Tracer) -> dict[str, int]:
    """Exact work counts of one traced call."""
    from wstskit.rrt import DEAD

    leaves = tracer.leaves
    counts = {
        "orders.leq_calls": leaves["orders.leq"][0],
        "orders.leq_hits": leaves["orders.leq"][2],
        "counter.post_calls": leaves["counter.post"][0] + leaves["cover.forward"][0],
        "fifo.post_calls": leaves["fifo.post"][0],
        "cover.forward_configs": leaves["cover.forward"][0],
        "cover.candidates": leaves["cover.enum"][0],
        "rrt.nodes": 0, "rrt.subsumed": 0, "rrt.deadlocks": 0,
        "cover.rounds": 0, "fifo.dfa_states": 0, "fifo.product_states": 0,
    }
    for name, result in tracer.results:
        if name == "rrt.build":
            counts["rrt.nodes"] += len(result.nodes)
            for n in result.nodes:
                if n.subsumed_by is not None:
                    counts["rrt.subsumed"] += 1
                elif n.mark == DEAD:
                    counts["rrt.deadlocks"] += 1
        elif name == "cover.x0":
            counts["cover.rounds"] += result.budget_used
        elif name == "fifo.dfa":
            counts["fifo.dfa_states"] += len(result.states)
        elif name == "fifo.product":
            counts["fifo.product_states"] += len(result.states)
    return counts


def instance_times(tracer: Tracer) -> dict[str, float]:
    """Busy time per layer metric, in seconds, of one traced call, plus the
    self time of every span and leaf name as ``self:<name>``."""
    self_s, total_s = tracer.self_times(), tracer.total_times()

    def own(name):
        return self_s.get(name, 0.0)

    def whole(name):
        return total_s.get(name, 0.0)

    return {
        "orders.leq_s": own("orders.leq"),
        "rrt.build_self_s": own("rrt.build"),
        "rrt.decide_s": whole("rrt.decide"),
        "counter.post_s": own("counter.post") + own("cover.forward"),
        "fifo.post_s": own("fifo.post"),
        "fifo.dfa_s": whole("fifo.dfa"),
        "fifo.product_s": whole("fifo.product"),
        "cover.enum_s": own("cover.enum"),
        "cover.check_s": own("cover.check"),
        "cover.self_s": own("cover.x0"),
        "dsl.parse_s": whole("dsl.parse"),
        "dsl.print_s": whole("dsl.print"),
        "cli.report_s": own("cli.main"),
        "traced_s": whole("cli.main"),
        **{f"self:{name}": v for name, v in self_s.items()},
    }
