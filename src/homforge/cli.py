"""Command-line front end.

Subcommands: compile, eval, count, oracle, verify, search, decomp.
Every run echoes a reproducibility header (seed, field, content hashes
of the input files).  Exit codes: 0 success/verified, 1 verification
mismatch, 2 usage or input error, or an exceeded budget (homomorphism
cap), 3 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from .circuit import Circuit
from .compiler import InvalidDecomposition, check_table_size, compile_hom
from .formulas import CNF
from .bp import LayeredBP
from .gadget_search import search_gadgets
from .gadgets import GadgetPair, GadgetTriple, dump_gadget, load_gadget
from .graphs import Graph, HomCapExceeded, Hypergraph3
from .intermediates import (FAMILIES, FamilyInstance, count_via_coefficient,
                            eval_definitional, eval_fast, family_plan,
                            hc_from_coefficient)
from .labels import read_lines
from .oracles import (count_3dm, count_clique, count_clows, count_hc,
                      count_sat3, count_vc)
from .rings import Field
from .treedecomp import (NiceTreeDecomp, _make_nice, heuristic_decomp,
                         treewidth_exact)
from .verify import (verify_cycle_identity, verify_gadget_bijection,
                     verify_parse_hom_bijection)


class Reporter:
    def __init__(self, fmt: str, seed: int):
        self.fmt = fmt
        self.lines: list[str] = []
        self.header(f"seed={seed}")

    def header(self, kv: str) -> None:
        self.lines.append(kv if self.fmt == "kv" else f"# {kv}")

    def note_file(self, path: str, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()[:12]
        self.header(f"input.{path}=sha256:{digest}")

    def result(self, line: str) -> None:
        self.lines.append(line)

    def text(self, line: str) -> None:
        if self.fmt == "human":
            self.lines.append(line)

    def emit(self) -> None:
        for line in self.lines:
            print(line)


def _read(path: str, rep: Reporter) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    rep.note_file(path, data)
    return data.decode()


def read_assignment_file(text: str) -> dict[str, int]:
    out: dict[str, int] = {}

    def line(toks):
        if len(toks) != 2:
            raise ValueError("expected '<label> <value>'")
        if toks[0] in out:
            raise ValueError(f"duplicate label {toks[0]!r}")
        try:
            out[toks[0]] = int(toks[1])
        except ValueError:
            raise ValueError(f"value {toks[1]!r} is not an integer") from None

    read_lines(text, line)
    return out


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="homforge")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("human", "kv"), default="human")

    sp = sub.add_parser("compile",
                        help="compile a homomorphism polynomial circuit")
    sp.add_argument("--graph", required=True, help="source graph file (.gr)")
    sp.add_argument("--decomp", required=True,
                    help="nice tree decomposition file (.td)")
    sp.add_argument("--target", help="target graph file (.gr)")
    sp.add_argument("--target-size", type=int,
                    help="use a complete target graph on this many vertices")
    sp.add_argument("--out", help="write the circuit text here")
    common(sp)

    sp = sub.add_parser("eval", help="evaluate a family polynomial")
    sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--field", required=True, help="finite field, e.g. 3 or 2^2")
    sp.add_argument("--assign", help="assignment file: '<label> <value>' lines")
    sp.add_argument("--default", type=int, default=1, choices=(0, 1),
                    help="value for labels missing from the assignment file")
    sp.add_argument("--method", choices=("fast", "definitional"),
                    default="fast")
    common(sp)

    sp = sub.add_parser("count",
                        help="count witnesses via a polynomial coefficient")
    sp.add_argument("--family", required=True, choices=FAMILIES)
    sp.add_argument("--graph", help="instance graph (vc, cis, clow)")
    sp.add_argument("--cnf", help="instance formula in DIMACS (sat)")
    sp.add_argument("--hyper", help="instance 3-partite hypergraph (tdm)")
    sp.add_argument("--field", required=True)
    sp.add_argument("--k", type=int, help="cover/clique size (vc, cis)")
    sp.add_argument("--strict-recipe", action="store_true",
                    help="tdm only: send absent hyperedges to 1 instead of 0")
    common(sp)

    sp = sub.add_parser("oracle", help="brute-force counting oracles")
    sp.add_argument("--what", required=True,
                    choices=("sat", "vc", "clique", "hc", "3dm", "clows"))
    sp.add_argument("--graph")
    sp.add_argument("--cnf")
    sp.add_argument("--hyper")
    sp.add_argument("--k", type=int)
    sp.add_argument("--length", type=int, help="clow length (default n)")
    sp.add_argument("--mod", required=True, type=int)
    common(sp)

    sp = sub.add_parser("verify", help="run a theorem verification")
    sp.add_argument("--theorem", required=True,
                    choices=("cycle", "gadget-bp", "parse-hom"))
    sp.add_argument("--bp", help="branching program file (.bp)")
    sp.add_argument("--pair", help="block pair file (.gad)")
    sp.add_argument("--triple", help="block triple file (.gad)")
    sp.add_argument("--circuit", help="normal-form circuit file (.ct)")
    sp.add_argument("--fault-inject", action="store_true",
                    help="parse-hom only: corrupt one gadget level; the "
                    "verifier must then report a mismatch")
    common(sp)

    sp = sub.add_parser("search", help="search for certified gadget blocks")
    sp.add_argument("--need", choices=("pair", "triple"), default="triple")
    sp.add_argument("--max-n", type=int, default=8)
    sp.add_argument("--out", help="write the blocks as JSON (.gad)")
    common(sp)

    sp = sub.add_parser("decomp", help="compute a nice tree decomposition")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--method", choices=("exact", "heuristic"), default="exact")
    sp.add_argument("--out", help="write the decomposition text here")
    common(sp)

    return p


def _load_gad(path: str, rep: Reporter):
    return load_gadget(json.loads(_read(path, rep)))


def _emit_text(args, rep: Reporter, text: str) -> int:
    """Write ``text`` to ``--out`` and report that, or print it after the report."""
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        rep.result(f"wrote={args.out}")
    rep.emit()
    if not args.out:
        sys.stdout.write(text)
    return 0


def cmd_compile(args, rep: Reporter) -> int:
    G = Graph.from_text(_read(args.graph, rep))
    dtext = _read(args.decomp, rep)
    if (args.target is None) == (args.target_size is None):
        raise ValueError("give exactly one of --target / --target-size")
    d = NiceTreeDecomp.from_text(dtext)
    if args.target:
        H = Graph.from_text(_read(args.target, rep))
    else:
        check_table_size(d, args.target_size)  # before K_N's edges exist
        H = Graph.complete(args.target_size)
    rep.header(f"target_size={H.n}")
    try:
        compiled = compile_hom(G, d, H)
    except InvalidDecomposition as e:
        rep.result("invalid decomposition:")
        for msg in e.problems:
            rep.result(f"  {msg}")
        rep.emit()
        return 2
    rep.result(f"gates={compiled.gate_count} wires={compiled.wire_count} "
               f"width={compiled.width} size_bound={compiled.size_bound} "
               f"skew={compiled.skew}")
    return _emit_text(args, rep, compiled.circuit.to_text())


def cmd_eval(args, rep: Reporter) -> int:
    F = Field.from_spec(args.field)
    rep.header(f"field={F.q}")
    plan = family_plan(args.family, args.n)
    values = {}
    if args.assign:
        values = read_assignment_file(_read(args.assign, rep))
        unknown = [lab for lab in values if lab not in plan.index]
        if unknown:
            raise ValueError(
                f"labels not in the {args.family} n={args.n} registry: "
                f"{unknown[:3]}")
    # values are reduced mod p over F_p but are element indices over F_q,
    # where FamilyInstance refuses any outside range(q)
    value = F.from_int if F.k == 1 else int
    assignment = {lab: value(values.get(lab, args.default)) for lab in plan.labels}
    inst = FamilyInstance(args.family, args.n, F, assignment)
    val = (eval_fast if args.method == "fast" else eval_definitional)(inst)
    rep.result(f"value={val}")
    rep.emit()
    return 0


def _count_instance(args, rep: Reporter):
    fam = args.family if hasattr(args, "family") else args.what
    if fam in ("vc", "cis", "clow", "clique", "hc", "clows"):
        if not args.graph:
            raise ValueError(f"{fam} needs --graph")
        return Graph.from_text(_read(args.graph, rep))
    if fam in ("sat",):
        if not args.cnf:
            raise ValueError("sat needs --cnf")
        return CNF.from_dimacs(_read(args.cnf, rep))
    if not args.hyper:
        raise ValueError(f"{fam} needs --hyper")
    return Hypergraph3.from_text(_read(args.hyper, rep))


def cmd_count(args, rep: Reporter) -> int:
    F = Field.from_spec(args.field)
    rep.header(f"field={F.q}")
    inst = _count_instance(args, rep)
    cc = count_via_coefficient(args.family, inst, F, k=args.k,
                               strict_recipe=args.strict_recipe)
    rep.result(f"coefficient={cc.value} z_degree={cc.z_degree} "
               f"t_degree={cc.t_degree}")
    if cc.note:
        rep.text(f"note: {cc.note}")
    if args.family == "clow" and F.p != 2:
        rep.result(f"hc_mod_p={hc_from_coefficient(cc)}")
    rep.emit()
    return 0


def cmd_oracle(args, rep: Reporter) -> int:
    p = args.mod
    rep.header(f"mod={p}")
    inst = _count_instance(args, rep)
    if args.what == "sat":
        res = count_sat3(inst, p)
    elif args.what in ("vc", "clique"):
        # the same refusal as count --family vc|cis, not a count of 0
        if args.k is None:
            raise ValueError(f"{args.what} needs --k")
        if not 0 <= args.k <= inst.n:
            size = "cover" if args.what == "vc" else "clique"
            raise ValueError(f"{size} size {args.k} out of range 0..{inst.n}")
        res = (count_vc if args.what == "vc" else count_clique)(inst, args.k, p)
    elif args.what == "hc":
        res = count_hc(inst, p)
    elif args.what == "3dm":
        res = count_3dm(inst, p)
    else:
        length = args.length if args.length is not None else inst.n
        res = count_clows(inst, length, p)
    rep.result(f"exact={res.exact} modp={res.modp}")
    rep.emit()
    return 0


def cmd_verify(args, rep: Reporter) -> int:
    if args.theorem == "cycle":
        if not args.bp:
            raise ValueError("cycle verification needs --bp")
        bp = LayeredBP.from_text(_read(args.bp, rep))
        report = verify_cycle_identity(bp)
        kv = {"theorem": "cycle", "ok": report.ok, "ell": report.ell,
              "factor": report.factor, "paths": report.n_paths,
              "homs": report.n_homs}
    elif args.theorem == "gadget-bp":
        if not args.bp:
            raise ValueError("gadget-bp verification needs --bp")
        bp = LayeredBP.from_text(_read(args.bp, rep))
        if not (args.pair or args.triple):
            raise ValueError("gadget-bp verification needs --pair or --triple")
        gad = _load_gad(args.pair or args.triple, rep)
        pair = gad.pair() if isinstance(gad, GadgetTriple) else gad
        report = verify_gadget_bijection(bp, pair)
        kv = {"theorem": "gadget-bp", "ok": report.ok, "ell": report.ell,
              "paths": report.n_paths, "homs": report.n_homs}
    else:
        if not (args.circuit and args.triple):
            raise ValueError("parse-hom verification needs --circuit and --triple")
        c = Circuit.from_text(_read(args.circuit, rep))
        triple = _load_gad(args.triple, rep)
        if not isinstance(triple, GadgetTriple):
            raise ValueError("parse-hom verification needs a triple, not a pair")
        report = verify_parse_hom_bijection(c, triple,
                                            fault_inject=args.fault_inject)
        kv = {"theorem": "parse-hom", "ok": report.ok, "m": report.m,
              "parse_trees": report.n_parse_trees, "homs": report.n_homs}
    if args.format == "kv":
        for key, val in kv.items():
            rep.result(f"{key}={val}")
    else:
        for line in report.lines():
            rep.result(line)
    rep.emit()
    return 0 if report.ok else 1


def cmd_search(args, rep: Reporter) -> int:
    found = search_gadgets(args.max_n, args.need, seed=args.seed)
    if isinstance(found, GadgetTriple):
        sizes = f"{found.i0.n},{found.i1.n},{found.i2.n}"
        kind = "triple"
    else:
        sizes = f"{found.i1.n},{found.i2.n}"
        kind = "pair"
    rep.result(f"found={kind} sizes={sizes} c_max={found.c_max}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(dump_gadget(found), fh, indent=1, sort_keys=True)
            fh.write("\n")
        rep.result(f"wrote={args.out}")
    rep.emit()
    return 0


def cmd_decomp(args, rep: Reporter) -> int:
    G = Graph.from_text(_read(args.graph, rep))
    if args.method == "exact":
        width, nice = treewidth_exact(G)
    else:
        nice = _make_nice(heuristic_decomp(G))
        width = nice.width()
    rep.result(f"width={width} nodes={len(nice)} join_free={not nice.has_join()}")
    return _emit_text(args, rep, nice.to_text())


_DISPATCH = {
    "compile": cmd_compile,
    "eval": cmd_eval,
    "count": cmd_count,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "search": cmd_search,
    "decomp": cmd_decomp,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    rep = Reporter(args.format, args.seed)
    try:
        return _DISPATCH[args.cmd](args, rep)
    except (ValueError, OSError, HomCapExceeded) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # not 1, which means a verification mismatch
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
