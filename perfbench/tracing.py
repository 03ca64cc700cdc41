"""Outside-in layer tracing for the traced benchmark run.

`Tracer.install` wraps umtree's functions at the names their callers look
up: `umtree.cli` imports `build_supertree` and friends into its own
namespace and `umtree.supertree` does the same with `post_atom` and
`matrix_to_tree`, so those module attributes are replaced; engine,
store and propagator methods are replaced on their classes. Nothing in
`src/` changes, and `uninstall` puts every original back.

Wrappers record nothing outside a command (`Tracer.command`), so the
benchmark's own output checks are never counted. Each span is kept in
memory as [name, start_ns, end_ns, parent index, command id, flag] and
written out by `write_spans`; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
from collections import Counter
from contextlib import contextmanager
from time import process_time_ns

NAME, START, END, PARENT, CMD, FLAG = range(6)

RELATION_CLASSES = ("Less", "LessEq", "Equal")


class Tracer:
    def __init__(self, um) -> None:
        self.um = um
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.cmd = -1  # id of the running command; -1 records nothing
        self.commands = 0
        self.counts: Counter = Counter()
        self.tighten = [0, 0]  # calls, calls that narrowed a bound
        self.trail_max: dict[int, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        orig = owner.__dict__[attr]
        self._undo.append((owner, attr, orig))
        setattr(owner, attr, staticmethod(wrapper) if isinstance(orig, staticmethod) else wrapper)

    def span(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Wrap owner.attr in a span; on_exit(args, result, record) may count."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.cmd < 0:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.cmd, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = process_time_ns()
                stack.pop()
            if on_exit is not None:
                on_exit(args, result, rec)
            return result

        self._patch(owner, attr, wrapper)

    def count(self, owner, attr: str, key: str) -> None:
        """Wrap owner.attr to count its calls under `key`, with no span."""
        fn = getattr(owner, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.cmd >= 0:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        um = self.um
        cli, st = um.cli, um.supertree
        engine_cls, store_cls = um.engine.Engine, um.store.Store
        counts = self.counts
        failure = um.engine.PropagateResult.FAILURE
        # original checkpoint/restore: the trail probe must not count itself
        checkpoint, restore = engine_cls.checkpoint, engine_cls.restore

        def add(key, n):
            return lambda args, result, rec: counts.update({key: n(args, result)})

        self.span(cli, "parse_newick_many", "phylo.parse", add("trees_parsed", lambda a, r: len(r)))
        self.span(cli, "parse_atom", "phylo.parse")
        self.span(cli, "build_model", "supertree.model")
        self.span(cli, "build_supertree", "supertree.build")
        self.span(cli, "necessity", "supertree.necessity")
        self.span(cli, "greedy_build_with_model", "supertree.greedy", self._on_greedy)
        self.span(cli, "explain_conflict", "supertree.explain", self._on_explain)
        self.span(cli, "enumerate_supertrees", "supertree.enumerate", self._on_enumerate)
        self.span(st.Forest, "from_trees", "supertree.forest")
        self.span(st, "build_model", "supertree.model")
        self.span(st, "nested_preprocess", "supertree.nested")
        self.span(st, "apply_nested_taxa", "supertree.nested")
        self.span(st, "attach_labels", "supertree.verify")
        self.span(st, "hard_breakup", "phylo.breakup", add("atoms", lambda a, r: len(r)))
        self.span(st, "soft_breakup", "phylo.breakup", add("atoms", lambda a, r: len(r)))
        self.span(st, "matrix_to_tree", "phylo.readoff")
        self.span(st.SupertreeModel, "lb_matrix", "phylo.readoff")
        self.span(st, "canonical_form", "phylo.canonical")
        self.span(st, "perfectly_displays", "phylo.canonical")
        self.span(st, "tree_to_matrix", "phylo.tree_to_matrix")
        for name in ("post_atom", "post_le", "post_lt"):
            self.span(st, name, "relations.post")
        self.span(st, "post_um_matrix", "ultrametric.post")

        def on_propagate(args, result, rec):
            if result is failure:
                rec[FLAG] = "failed"
                return
            cp = checkpoint(args[0])
            restore(args[0], cp)
            cmd = rec[CMD]
            self.trail_max[cmd] = max(self.trail_max.get(cmd, 0), cp.store_cp.trail_len)

        self.span(engine_cls, "propagate", "engine.propagate", on_propagate)
        self.span(engine_cls, "checkpoint", "engine.checkpoint")
        self.span(engine_cls, "restore", "engine.restore")
        self.count(engine_cls, "register", "propagators")
        self.count(store_cls, "new_var", "vars")
        for cls in RELATION_CLASSES:
            self.span(getattr(um.relations, cls), "wake", f"relations.{cls}.wake")
        self._wrap_matrix_wake(um.ultrametric.UltrametricMatrix)
        self._wrap_tighten(store_cls, "tighten_lb")
        self._wrap_tighten(store_cls, "tighten_ub")

    def _wrap_matrix_wake(self, cls) -> None:
        """Span each matrix wake; count its triple filters (n-2 per event
        wake) and whether it narrowed any bound."""
        self.span(cls, "wake", "ultrametric.matrix.wake")
        spanned = cls.wake
        tracer = self

        @functools.wraps(spanned)
        def wake(p, store, var, events):
            if tracer.cmd < 0:
                return spanned(p, store, var, events)
            before = tracer.tighten[1]
            result = spanned(p, store, var, events)
            if var is not None:
                tracer.counts["triple_filters"] += p.matrix.n - 2
            if tracer.tighten[1] > before:
                tracer.counts["productive_matrix_wakes"] += 1
            return result

        cls.wake = wake  # the span wrapper's undo entry restores the original

    def _wrap_tighten(self, cls, attr: str) -> None:
        fn = getattr(cls, attr)
        tracer = self
        tally = self.tighten

        @functools.wraps(fn)
        def wrapper(store, v, val):
            ev = fn(store, v, val)
            if tracer.cmd >= 0:
                tally[0] += 1
                if ev:
                    tally[1] += 1
            return ev

        self._patch(cls, attr, wrapper)

    def _on_greedy(self, args, result, rec) -> None:
        report = result[1]
        self.counts["greedy_accepted"] += len(report.accepted)
        self.counts["greedy_attempted"] += len(report.accepted) + len(report.rejected)

    def _on_explain(self, args, result, rec) -> None:
        self.counts["explain_probes"] += result.probes
        self.counts["core_size"] += len(result.atoms)

    def _on_enumerate(self, args, result, rec) -> None:
        self.counts["search_nodes"] += args[0].engine.stats.search_nodes
        self.counts["solutions"] += len(result)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- recording ------------------------------------------------------------------

    @contextmanager
    def command(self):
        """Record one CLI call as a root span named cli.main."""
        cmd = self.commands
        self.commands += 1
        rec = ["cli.main", 0, 0, -1, cmd, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        self.cmd = cmd
        rec[START] = process_time_ns()
        try:
            yield
        finally:
            rec[END] = process_time_ns()
            self.cmd = -1
            self.stack.pop()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tcommand\tflag\n")
            for rec in self.spans:
                fh.write("\t".join("" if x is None else str(x) for x in rec) + "\n")

    # -- metrics ----------------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: call count, total ns and self ns."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_ns[rec[PARENT]] += rec[END] - rec[START]
        calls, total, self_ns = Counter(), Counter(), Counter()
        for i, rec in enumerate(spans):
            d = rec[END] - rec[START]
            calls[rec[NAME]] += 1
            total[rec[NAME]] += d
            self_ns[rec[NAME]] += d - child_ns[i]
        return calls, total, self_ns

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: times in ms per traced command, counts summed
        over the traced commands, shares and ratios as fractions."""
        calls, total, self_ns = self.totals()
        c = self.counts
        n = max(self.commands, 1)

        def ms(ns):
            return (ns / 1e6 / n, "ms")

        def frac(num, den):
            return (num / den if den else 0.0, "frac")

        def count(v):
            return (v, "count")

        cmd_ns = total["cli.main"]
        prop_ns = total["engine.propagate"]
        failed_ns = sum(r[END] - r[START] for r in self.spans if r[FLAG] == "failed")
        rel_wakes = [f"relations.{cls}.wake" for cls in RELATION_CLASSES]
        matrix_wakes = calls["ultrametric.matrix.wake"]
        all_wakes = matrix_wakes + sum(calls[w] for w in rel_wakes)
        return {
            "cli.self_ms": ms(self_ns["cli.main"]),
            "phylo.parse_ms": ms(total["phylo.parse"]),
            "phylo.trees_parsed": count(c["trees_parsed"]),
            "phylo.breakup_ms": ms(total["phylo.breakup"]),
            "phylo.atoms": count(c["atoms"]),
            "phylo.readoff_ms": ms(total["phylo.readoff"]),
            "phylo.canonical_share": frac(total["phylo.canonical"], cmd_ns),
            "supertree.model_ms": ms(self_ns["supertree.model"]),
            "supertree.verify_share": frac(total["supertree.verify"], cmd_ns),
            "supertree.search_nodes": count(c["search_nodes"]),
            "supertree.solutions": count(c["solutions"]),
            "supertree.explain_probes": count(c["explain_probes"]),
            "supertree.core_size": count(c["core_size"]),
            "supertree.greedy_accept_ratio": frac(c["greedy_accepted"], c["greedy_attempted"]),
            "store.vars": count(c["vars"]),
            "store.tighten_calls": count(self.tighten[0]),
            "store.effective_tighten_ratio": frac(self.tighten[1], self.tighten[0]),
            "store.trail_entries": count(sum(self.trail_max.values())),
            "engine.propagators": count(c["propagators"]),
            "engine.propagate_ms": ms(prop_ns),
            "engine.propagate_share": frac(prop_ns, cmd_ns),
            "engine.propagate_calls": count(calls["engine.propagate"]),
            "engine.wakes": count(all_wakes),
            "engine.failures": count(sum(1 for r in self.spans if r[FLAG] == "failed")),
            "engine.failed_propagate_share": frac(failed_ns, prop_ns),
            "engine.self_ms": ms(self_ns["engine.propagate"]),
            "engine.checkpoints": count(calls["engine.checkpoint"]),
            "engine.restores": count(calls["engine.restore"]),
            "engine.restore_share": frac(total["engine.restore"], cmd_ns),
            "relations.post_ms": ms(total["relations.post"]),
            "relations.Less.wakes": count(calls["relations.Less.wake"]),
            "relations.LessEq.wakes": count(calls["relations.LessEq.wake"]),
            "relations.Equal.wakes": count(calls["relations.Equal.wake"]),
            "relations.wake_ms": ms(sum(total[w] for w in rel_wakes)),
            "ultrametric.matrix_wakes": count(matrix_wakes),
            "ultrametric.matrix_wake_ms": ms(total["ultrametric.matrix.wake"]),
            "ultrametric.triple_filters": count(c["triple_filters"]),
            "ultrametric.productive_wake_ratio": frac(c["productive_matrix_wakes"], matrix_wakes),
        }
