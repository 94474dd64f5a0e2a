"""Spans and counts around calls into homforge, for the traced run only.

``Tracer.install`` rebinds public functions and methods of the library
with wrappers from this file: each wrapped call records a span (name,
start, end, parent) in memory, and the ring operators only bump a
counter.  A function is rebound in every loaded ``homforge`` module that
imported it by name, so calls between modules are seen too.  Nothing
under ``src/`` is edited; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

from homforge import (bp, circuit, compiler, gadget_search, gadgets, graphs,
                      intermediates, rings, treedecomp, verify)

FAMILIES = intermediates.FAMILIES


def _def_terms(family: str, n: int) -> int:
    """Terms of the literal definitional sum at index n."""
    if family in ("sat", "vc"):
        return 2 ** n
    if family == "cis":
        return 2 ** (n * (n - 1) // 2)
    if family == "tdm":
        return 2 ** (n ** 3)
    # clow: head h, then n-1 steps over the n-h larger vertices, never
    # standing still, the last step closing back to h
    return sum((n - h) * (n - h - 1) ** (n - 2) for h in range(1, n))


def live_gates(c) -> int:
    """Gates reachable from the output."""
    seen = {c.output}
    stack = [c.output]
    while stack:
        for a in c.gates[stack.pop()].args:
            if a not in seen:
                seen.add(a)
                stack.append(a)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.stack: list[tuple[int, str]] = []   # open spans: (index, name)
        self.counts: Counter = Counter()
        self.compiled: list = []          # circuits returned by compile_hom
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, after=None):
        """Wrap fn in a span; ``name`` is a string or a function of the
        call's arguments, ``after(args, kwargs, result)`` updates counts
        when the call returns."""
        spans, stack = self.spans, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            stack.append((idx, label))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (label, t0, t1, parent)
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _count(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    # -- patching -------------------------------------------------------------

    def _rebind(self, module, attr, wrapper) -> None:
        """Replace module.attr wherever a homforge module holds it."""
        orig = getattr(module, attr)
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "homforge" or mod is None:
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self._undo.append((mod, key, val))
                    setattr(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _func(self, module, attr, name, after=None) -> None:
        self._rebind(module, attr, self._span(name, getattr(module, attr), after))

    def _method(self, cls, attr, name, after=None) -> None:
        self._set(cls, attr, self._span(name, cls.__dict__[attr], after))

    def install(self) -> None:
        c = self.counts

        def nice_nodes(args, kwargs, res):
            # a make_nice call inside treewidth_exact is counted by the latter
            if all(name != "treedecomp.treewidth_exact" for _, name in self.stack):
                nice = res[1] if isinstance(res, tuple) else res
                c["treedecomp.nice_nodes"] += len(nice)

        def on_compile(args, kwargs, res):
            self.compiled.append(res.circuit)

        def on_eval_batch(args, kwargs, res):
            c["circuit.eval_batch.gate_evals"] += len(args[0].gates) * max(1, res.size)

        def on_parse_trees(args, kwargs, res):
            c["circuit.parse_trees.count"] += len(res)

        def on_def(args, kwargs, res):
            inst = args[0]
            c[f"intermediates.def_terms.{inst.family}"] += _def_terms(inst.family, inst.n)

        def on_count(args, kwargs, res):
            family, instance = args[0], args[1]
            c[f"intermediates.def_terms.{family}"] += _def_terms(family, instance.n)

        def on_homs(args, kwargs, res):
            c["graphs.enumerate_homs.homs"] += len(res)

        def on_rigid(args, kwargs, res):
            c["graphs.is_rigid.rigid"] += bool(res)

        td = treedecomp
        self._func(td, "treewidth_exact", "treedecomp.treewidth_exact", nice_nodes)
        self._func(td, "make_nice", "treedecomp.make_nice", nice_nodes)
        self._func(td, "validate_nice", "treedecomp.validate_nice")
        self._func(compiler, "compile_hom", "compiler.compile_hom", on_compile)
        self._method(circuit.CircuitBuilder, "build", "circuit.build")
        self._method(circuit.Circuit, "eval_batch",
                     lambda self_, assignment, field: (
                         "circuit.eval_batch.prime" if field.k == 1
                         else "circuit.eval_batch.ext"),
                     on_eval_batch)
        self._method(circuit.Circuit, "to_text", "circuit.text")
        from_text = circuit.Circuit.__dict__["from_text"].__func__
        self._set(circuit.Circuit, "from_text",
                  classmethod(self._span("circuit.text", from_text)))
        self._method(circuit.Circuit, "parse_trees", "circuit.parse_trees", on_parse_trees)
        self._func(intermediates, "eval_fast", "intermediates.eval_fast")
        self._func(intermediates, "eval_definitional",
                   lambda inst, ring=None: f"intermediates.eval_definitional.{inst.family}",
                   on_def)
        self._func(intermediates, "count_via_coefficient",
                   lambda family, *a, **k: f"intermediates.count_via_coefficient.{family}",
                   on_count)
        self._set(rings.TruncPoly, "__mul__",
                  self._count("rings.truncpoly.mul_calls", rings.TruncPoly.__mul__))
        self._set(rings.TruncPoly, "__add__",
                  self._count("rings.truncpoly.add_calls", rings.TruncPoly.__add__))
        self._set(rings.TruncPoly, "__eq__",
                  self._count("rings.truncpoly.eq_calls", rings.TruncPoly.__eq__))
        self._set(rings.Field, "mul", self._count("rings.field.mul_calls", rings.Field.mul))
        self._func(graphs, "enumerate_homs", "graphs.enumerate_homs", on_homs)
        self._func(graphs, "is_rigid", "graphs.is_rigid", on_rigid)
        self._func(graphs, "are_incomparable", "graphs.are_incomparable")
        self._func(gadget_search, "search_gadgets", "gadget_search.search_gadgets")
        for builder in ("build_Gk", "build_Gm", "build_Jn", "embed_bp"):
            self._func(gadgets, builder, "gadgets.build")
        self._method(gadgets.GadgetPair, "certify", "gadgets.certify")
        self._method(gadgets.GadgetTriple, "certify", "gadgets.certify")
        self._func(verify, "verify_cycle_identity", "verify.cycle")
        self._func(verify, "verify_gadget_bijection", "verify.gadget_bp")
        self._func(verify, "verify_parse_hom_bijection", "verify.parse_hom")
        self._method(bp.LayeredBP, "path_polynomial", "bp.path_polynomial")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, val = self._undo.pop()
            setattr(owner, attr, val)

    # -- summaries ------------------------------------------------------------

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """busy and self seconds per span name.

        busy counts only spans with no same-named ancestor, so recursion is
        not counted twice; self is a span's length minus its children's.
        Spans are recorded whether or not the call raised.
        """
        spans = self.spans
        busy: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (name, t0, t1, parent) in enumerate(spans):
            self_s[name] += (t1 - t0) - child[idx]
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                busy[name] += t1 - t0
        return busy, self_s

    def metrics(self, passes: int, traced_wall: float, untraced_wall: float
                ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass, as name -> (value, unit)."""
        busy, self_s = self.times()
        c = self.counts
        calls = Counter(span[0] for span in self.spans)
        out: dict[str, tuple[float, str]] = {}

        def per(v):
            return v / passes

        def secs(name, key=None):
            out[name] = (per(busy.get(key or name[:-len(".busy_s")], 0.0)), "s")

        out["treedecomp.treewidth_exact.calls"] = (per(calls["treedecomp.treewidth_exact"]), "count")
        secs("treedecomp.treewidth_exact.busy_s")
        secs("treedecomp.make_nice.busy_s")
        out["treedecomp.nice_nodes"] = (per(c["treedecomp.nice_nodes"]), "count")

        emitted = sum(len(x.gates) for x in self.compiled)
        live = sum(live_gates(x) for x in self.compiled)
        compile_busy = busy.get("compiler.compile_hom", 0.0)
        out["compiler.compile_hom.calls"] = (per(calls["compiler.compile_hom"]), "count")
        secs("compiler.compile_hom.busy_s")
        out["compiler.compile_hom.self_s"] = (per(self_s.get("compiler.compile_hom", 0.0)), "s")
        out["compiler.gates_emitted"] = (per(emitted), "count")
        out["compiler.gates_live"] = (per(live), "count")
        out["compiler.live_ratio"] = (live / emitted if emitted else 0.0, "ratio")
        out["compiler.gates_per_s"] = (emitted / compile_busy if compile_busy else 0.0, "1/s")

        eval_busy = busy.get("circuit.eval_batch.prime", 0.0) + busy.get("circuit.eval_batch.ext", 0.0)
        gate_evals = c["circuit.eval_batch.gate_evals"]
        out["circuit.eval_batch.calls"] = (
            per(calls["circuit.eval_batch.prime"] + calls["circuit.eval_batch.ext"]), "count")
        secs("circuit.eval_batch.prime.busy_s")
        secs("circuit.eval_batch.ext.busy_s")
        out["circuit.eval_batch.gate_evals"] = (per(gate_evals), "count")
        out["circuit.eval_batch.gate_evals_per_s"] = (gate_evals / eval_busy if eval_busy else 0.0, "1/s")
        secs("circuit.text.busy_s")
        secs("circuit.parse_trees.busy_s")
        out["circuit.parse_trees.count"] = (per(c["circuit.parse_trees.count"]), "count")

        secs("intermediates.eval_fast.busy_s")
        for fam in FAMILIES:
            secs(f"intermediates.eval_definitional.{fam}.busy_s")
        for fam in FAMILIES:
            secs(f"intermediates.count_via_coefficient.{fam}.busy_s")
        for fam in FAMILIES:
            out[f"intermediates.def_terms.{fam}"] = (per(c[f"intermediates.def_terms.{fam}"]), "count")
        for key in ("rings.truncpoly.mul_calls", "rings.truncpoly.add_calls",
                    "rings.truncpoly.eq_calls", "rings.field.mul_calls"):
            out[key] = (per(c[key]), "count")

        out["graphs.enumerate_homs.calls"] = (per(calls["graphs.enumerate_homs"]), "count")
        secs("graphs.enumerate_homs.busy_s")
        out["graphs.enumerate_homs.homs"] = (per(c["graphs.enumerate_homs.homs"]), "count")
        out["graphs.is_rigid.calls"] = (per(calls["graphs.is_rigid"]), "count")
        out["graphs.are_incomparable.calls"] = (per(calls["graphs.are_incomparable"]), "count")
        secs("gadget_search.search_gadgets.busy_s")
        rigid_calls = calls["graphs.is_rigid"]
        out["gadget_search.rigid_yield"] = (
            c["graphs.is_rigid.rigid"] / rigid_calls if rigid_calls else 0.0, "ratio")
        secs("gadgets.build.busy_s")
        secs("gadgets.certify.busy_s")
        for v in ("cycle", "gadget_bp", "parse_hom"):
            secs(f"verify.{v}.busy_s")
            out[f"verify.{v}.self_s"] = (per(self_s.get(f"verify.{v}", 0.0)), "s")
        secs("bp.path_polynomial.busy_s")
        out["trace.overhead_frac"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
        return out

    def module_shares(self, traced_wall_total: float) -> dict[str, float]:
        """Share of the traced wall time spent in each module's own code."""
        _busy, self_s = self.times()
        shares: dict[str, float] = defaultdict(float)
        for name, secs in self_s.items():
            shares[name.split(".")[0]] += secs / traced_wall_total
        shares["benchmark"] = 1.0 - sum(shares.values())
        return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
