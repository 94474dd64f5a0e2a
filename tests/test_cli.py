"""End-to-end tests for the command-line interface.

Each test drives ``main(argv)`` in process and inspects stdout/stderr
and the exit code.
"""

from __future__ import annotations

import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import circuit_eval, cnf_to_dimacs, counts_by_op, input_labels
from homforge import verify
from homforge.bp import Arc, LayeredBP
from homforge.circuit import Circuit, Gate
from homforge.cli import main, read_assignment_file
from homforge.formulas import CNF
from homforge.gadgets import dump_gadget
from homforge.graphs import Graph, HomCapExceeded, Hypergraph3
from homforge.rings import Field
from homforge.treedecomp import validate_nice

K4_TEXT = Graph.complete(4).to_text()


@pytest.fixture()
def k4_file(tmp_path):
    p = tmp_path / "k4.gr"
    p.write_text(K4_TEXT)
    return str(p)


@pytest.fixture()
def bp_file(tmp_path):
    bp = LayeredBP((1, 2, 1), (
        Arc(0, 0, 0, "a"), Arc(0, 0, 1, "b"),
        Arc(1, 0, 0, "c"), Arc(1, 1, 0, "d"),
    ))
    p = tmp_path / "two.bp"
    p.write_text(bp.to_text())
    return str(p)


@pytest.fixture()
def triple_file(tmp_path, certified_triple):
    p = tmp_path / "trip.gad"
    p.write_text(json.dumps(dump_gadget(certified_triple)))
    return str(p)


@pytest.fixture()
def circuit_file(tmp_path):
    gates = (Gate("input", label="x"), Gate("input", label="y"),
             Gate("input", label="u"), Gate("input", label="v"),
             Gate("add", args=(0, 1)), Gate("add", args=(2, 3)),
             Gate("mul", args=(4, 5)))
    p = tmp_path / "nf.ct"
    p.write_text(Circuit(gates, 6).to_text())
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- oracle -------------------------------------------------------------------


def test_oracle_vc_exact_line(capsys, k4_file):
    code, out, _ = run(capsys, "oracle", "--what", "vc", "--graph", k4_file,
                       "--k", "3", "--mod", "3")
    assert code == 0
    assert "exact=4 modp=1" in out


def test_oracle_hc_and_clows(capsys, k4_file):
    code, out, _ = run(capsys, "oracle", "--what", "hc", "--graph", k4_file,
                       "--mod", "5")
    assert code == 0 and "exact=3 modp=3" in out
    code, out, _ = run(capsys, "oracle", "--what", "clows", "--graph", k4_file,
                       "--length", "4", "--mod", "5")
    assert code == 0 and "exact=14 modp=4" in out


def test_oracle_missing_k_is_usage_error(capsys, k4_file):
    code, _, err = run(capsys, "oracle", "--what", "vc", "--graph", k4_file,
                       "--mod", "3")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("what, flag, text, message", [
    ("hc", "--graph", "p x 1\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ("hc", "--graph", "p 2 1\ne 1 y\n", "line 2: invalid literal for int() with base 10: 'y'"),
    ("3dm", "--hyper", "# part size\nh z\n", "line 2: invalid literal for int() with base 10: 'z'"),
    ("sat", "--cnf", "p cnf x 1\n1 0\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ("sat", "--cnf", "p cnf 2 1\n1 -q 0\n", "line 2: invalid literal for int() with base 10: '-q'"),
], ids=["gr-header", "gr-edge", "hg-header", "dimacs-header", "dimacs-clause"])
def test_non_integer_token_is_input_error_with_line(capsys, tmp_path, what, flag,
                                                    text, message):
    f = tmp_path / "bad.txt"
    f.write_text(text)
    code, _, err = run(capsys, "oracle", "--what", what, flag, str(f), "--mod", "3")
    assert code == 2 and f"error: {message}" in err


@pytest.mark.parametrize("text, message", [
    ("h -1\n", "part size -1 is negative"),
    ("h 2\nh 3\n", "line 2: duplicate header"),
], ids=["negative-part", "duplicate-header"])
@pytest.mark.parametrize("argv", [
    ("count", "--family", "tdm", "--field", "3"),
    ("oracle", "--what", "3dm", "--mod", "3"),
], ids=["count", "oracle"])
def test_bad_hypergraph_header_is_input_error(capsys, tmp_path, argv, text, message):
    # "h -1" made count exit 3 and oracle print exact=1; "h 2\nh 3" read as n = 3
    f = tmp_path / "bad.hg"
    f.write_text(text)
    code, out, err = run(capsys, *argv, "--hyper", str(f))
    assert code == 2 and f"error: {message}" in err
    assert "coefficient=" not in out and "exact=" not in out


@pytest.mark.parametrize("what,size", [("vc", "cover"), ("clique", "clique")])
@pytest.mark.parametrize("k", [-1, 5])
def test_oracle_size_out_of_range_is_usage_error(capsys, k4_file, what, size, k):
    # k = -1 and k = n + 1 used to print exact=0 and exit 0
    code, out, err = run(capsys, "oracle", "--what", what, "--graph", k4_file,
                         "--k", str(k), "--mod", "3")
    assert code == 2
    assert "exact=" not in out
    assert f"error: {size} size {k} out of range 0..4" in err
    if what == "vc":  # count refuses the same way
        code, _, count_err = run(capsys, "count", "--family", "vc", "--graph",
                                 k4_file, "--field", "3", "--k", str(k))
        assert code == 2 and f"error: {size} size {k} out of range 0..4" in count_err


def test_oracle_kv_format_header(capsys, k4_file):
    code, out, _ = run(capsys, "oracle", "--what", "clique", "--graph", k4_file,
                       "--k", "2", "--mod", "7", "--format", "kv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed=0"
    assert "mod=7" in lines
    assert any(line.startswith("input.") for line in lines)
    assert "exact=6 modp=6" in lines


# -- eval ---------------------------------------------------------------------


def test_eval_fast_matches_definitional(capsys):
    args = ("eval", "--family", "vc", "--n", "3", "--field", "3")
    code, out_fast, _ = run(capsys, *args, "--method", "fast")
    code2, out_def, _ = run(capsys, *args, "--method", "definitional")
    assert code == code2 == 0
    line = [l for l in out_fast.splitlines() if l.startswith("value=")]
    assert line and line == [l for l in out_def.splitlines()
                             if l.startswith("value=")]


def test_eval_over_large_characteristic(capsys):
    # 2^61 - 1 is prime; 2^89 - 1 is past the range where primality is exact
    code, out, _ = run(capsys, "eval", "--family", "vc", "--n", "3", "--field",
                       str(2**61 - 1), "--format", "kv")
    assert code == 0 and "value=8" in out.splitlines()
    code, _, err = run(capsys, "eval", "--family", "vc", "--n", "3", "--field", str(2**89 - 1))
    assert code == 2 and "primality is decided only below" in err


def test_eval_clow_over_a_70_bit_prime(capsys):
    # walk counts mod a 70-bit prime do not fit a 64-bit word; the 14 clows
    # of K_4 are counted exactly
    code, out, _ = run(capsys, "eval", "--family", "clow", "--n", "4", "--field",
                       "1180591620717411303389", "--format", "kv")
    assert code == 0 and "value=14" in out.splitlines()


def test_eval_with_assignment_file(capsys, tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("Yv:1 0  # drop vertex 1 from every subset\n")
    code, out, _ = run(capsys, "eval", "--family", "vc", "--n", "3",
                       "--field", "5", "--assign", str(f), "--default", "1")
    assert code == 0
    # subsets avoiding vertex 1: 2^2 of the 2^3
    assert "value=4" in out


def test_eval_rejects_unknown_label(capsys, tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("nosuch 1\n")
    code, _, err = run(capsys, "eval", "--family", "vc", "--n", "3",
                       "--field", "3", "--assign", str(f))
    assert code == 2 and "registry" in err


def test_eval_checks_a_long_assignment_file_in_linear_time(capsys, tmp_path):
    # each label is looked up in the plan's index; a set of the 13,836 sat
    # n = 12 labels per file label took 3.7 s for this file
    from homforge.intermediates import registry
    f = tmp_path / "a.txt"
    f.write_text("".join(f"{lab} 1\n" for lab in registry("sat", 12)[:5000]))
    start = time.perf_counter()
    code, out, _ = run(capsys, "eval", "--family", "sat", "--n", "12",
                       "--field", "5", "--assign", str(f), "--format", "kv")
    assert code == 0 and out.endswith("value=1\n")
    assert time.perf_counter() - start < 1.5


def test_eval_rejects_default_sentinel_label(capsys, tmp_path):
    # "__default__" was the in-band key that carried --default, so this
    # line used to be dropped without a word
    f = tmp_path / "a.txt"
    f.write_text("__default__ 7\n")
    code, _, err = run(capsys, "eval", "--family", "vc", "--n", "3",
                       "--field", "3", "--assign", str(f))
    assert code == 2 and "labels not in the vc n=3 registry" in err


def test_eval_extension_field_values_are_element_indices(capsys, tmp_path):
    # over F_4 the values are element indices, not integers reduced mod 2
    f = tmp_path / "a.txt"
    args = ("eval", "--family", "cis", "--n", "2", "--field", "2^2", "--assign", str(f))
    for value, want in ((0, 1), (1, 0), (2, 0), (3, 0)):
        f.write_text(f"X:1:2 {value}\n")
        code, out, _ = run(capsys, *args)
        assert code == 0 and f"value={want}" in out
    f.write_text("X:1:2 4\n")
    code, _, err = run(capsys, *args)
    assert code == 2 and "element index of F_4" in err


def test_eval_rejects_repeated_label(capsys, tmp_path):
    # the second line used to replace the first without a word
    f = tmp_path / "a.txt"
    f.write_text("Yv:1 0\nYv:1 1\n")
    code, out, err = run(capsys, "eval", "--family", "vc", "--n", "3",
                         "--field", "5", "--assign", str(f))
    assert code == 2 and "error: line 2: duplicate label 'Yv:1'" in err
    assert "value=" not in out


def test_read_assignment_file_parsing():
    vals = read_assignment_file("# comment\nA 3\n\nB 0 # trailing\n")
    assert vals == {"A": 3, "B": 0}
    with pytest.raises(ValueError, match="line 1"):
        read_assignment_file("A\n")
    with pytest.raises(ValueError, match="not an"):
        read_assignment_file("A x\n")


# -- count --------------------------------------------------------------------


def test_count_vc_coefficient(capsys, k4_file):
    code, out, _ = run(capsys, "count", "--family", "vc", "--graph", k4_file,
                       "--k", "3", "--field", "5")
    assert code == 0
    assert "coefficient=4" in out and "z_degree=" in out


def test_count_clow_reports_hc(capsys, k4_file):
    code, out, _ = run(capsys, "count", "--family", "clow", "--graph", k4_file,
                       "--field", "5")
    assert code == 0
    assert "coefficient=1" in out  # 2 * #HC = 6 = 1 mod 5
    assert "hc_mod_p=3" in out


def test_count_clow_below_three_vertices_has_no_hc(capsys, tmp_path):
    # the K2 coefficient counts the walk 1 -> 2 -> 1, not a cycle
    k2 = tmp_path / "k2.gr"
    k2.write_text(Graph.complete(2).to_text())
    code, out, _ = run(capsys, "count", "--family", "clow", "--graph", str(k2),
                       "--field", "3")
    assert code == 0
    assert "coefficient=1" in out
    assert "hc_mod_p=0" in out and "no Hamiltonian cycle" in out


def test_count_needs_matching_input(capsys):
    code, _, err = run(capsys, "count", "--family", "sat", "--field", "3")
    assert code == 2 and "--cnf" in err


# the empty instances: family index 0, whose one witness is the empty
# assignment, cover, clique or matching, and which has no Hamiltonian cycle;
# the clow coefficient is twice the cycle count
@pytest.mark.parametrize("family, what, flag, text, k, exact", [
    ("sat", "sat", "--cnf", "p cnf 0 0\n", (), 1),
    ("vc", "vc", "--graph", "p 0 0\n", ("--k", "0"), 1),
    ("cis", "clique", "--graph", "p 0 0\n", ("--k", "0"), 1),
    ("tdm", "3dm", "--hyper", "h 0\n", (), 1),
    ("clow", "hc", "--graph", "p 0 0\n", (), 0),
], ids=["sat", "vc", "cis", "tdm", "clow"])
@pytest.mark.parametrize("p", [3, 5])
def test_count_matches_oracle_on_empty_instance(capsys, tmp_path, family, what, flag,
                                                text, k, exact, p):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    code, out, _ = run(capsys, "count", "--family", family, flag, str(path), *k,
                       "--field", str(p), "--format", "kv")
    assert code == 0
    coefficient = re.search(r"^coefficient=(\d+) z_degree=0 t_degree=0$", out, re.M)
    code, out, _ = run(capsys, "oracle", "--what", what, flag, str(path), *k,
                       "--mod", str(p), "--format", "kv")
    assert code == 0 and re.search(f"^exact={exact} modp={exact}$", out, re.M)
    assert int(coefficient.group(1)) == (2 if family == "clow" else 1) * exact % p


# field spec -> characteristic, the modulus the oracle reduces by
COUNT_FIELDS = {"2": 2, "3": 3, "5": 5, "2^2": 2, "3^2": 3}


@st.composite
def _count_case(draw):
    """A family, its instance as (oracle name, flag, file text, --k args) and a
    field spec; k runs one past each end of its range."""
    family = draw(st.sampled_from(["sat", "vc", "cis", "clow", "tdm"]))
    spec = draw(st.sampled_from(sorted(COUNT_FIELDS)))
    if family == "sat":
        n = draw(st.integers(0, 4))
        literal = st.integers(1, max(n, 1)).flatmap(lambda v: st.sampled_from([v, -v]))
        clauses = draw(st.lists(st.tuples(literal, literal, literal),
                                max_size=6 if n else 0))
        return family, ("sat", "--cnf", cnf_to_dimacs(CNF(n, tuple(clauses))), ()), spec
    if family == "tdm":
        n = draw(st.integers(0, 2))
        edges = draw(st.sets(st.sampled_from(list(product(range(1, n + 1), repeat=3))))
                     if n else st.just(set()))
        return family, ("3dm", "--hyper", Hypergraph3.from_edges(n, edges).to_text(), ()), spec
    n = draw(st.integers(0, 5))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    text = Graph.from_edges(n, edges).to_text()
    k = () if family == "clow" else ("--k", str(draw(st.integers(-1, n + 1))))
    what = {"vc": "vc", "cis": "clique", "clow": "hc"}[family]
    return family, (what, "--graph", text, k), spec


def _main(*argv) -> tuple[int, str, str]:
    """``run`` without capsys, a function-scoped fixture that @given refuses."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _kv(out: str) -> dict[str, int]:
    return {key: int(val) for key, val in re.findall(r"(\w+)=(-?\d+)\b", out)}


@settings(max_examples=300, deadline=None)
@given(_count_case())
def test_count_matches_oracle_through_the_cli(tmp_path_factory, case):
    # each printed count agrees with the brute-force oracle mod p, or both
    # commands refuse the input; the clow coefficient is twice the number of
    # Hamiltonian cycles, and below three vertices the number of clows of
    # length n (the walks u -> v -> u); nothing is an internal error
    family, (what, flag, text, k), spec = case
    p = COUNT_FIELDS[spec]
    path = tmp_path_factory.mktemp("count") / "instance.txt"
    path.write_text(text)
    code, out, err = _main("count", "--family", family, flag, str(path), *k,
                           "--field", spec, "--format", "kv")
    ocode, oout, oerr = _main("oracle", "--what", what, flag, str(path), *k,
                              "--mod", str(p), "--format", "kv")
    assert code in (0, 2) and ocode in (0, 2), (err, oerr)
    if family == "cis" and k[1] == "1":
        # a size-1 clique spans no edge, so count refuses it; the oracle counts
        # the vertices
        assert code == 2 and "size-1 cliques" in err
        return
    assert code == ocode, (out, err, oout, oerr)
    if code:
        return
    got, want = _kv(out), _kv(oout)
    if family != "clow":
        assert got["coefficient"] == want["modp"], (text, spec, out, oout)
        return
    n = Graph.from_text(text).n
    if n < 3:
        _, cout, _ = _main("oracle", "--what", "clows", flag, str(path), "--mod", str(p),
                           "--format", "kv")
        assert got["coefficient"] == _kv(cout)["modp"], (text, spec, out, cout)
    else:
        assert got["coefficient"] == 2 * want["exact"] % p, (text, spec, out, oout)
    if p != 2:
        assert got["hc_mod_p"] == want["modp"], (text, spec, out, oout)


# -- compile and decomp -------------------------------------------------------


def test_decomp_then_compile_round_trip(capsys, tmp_path, k4_file):
    td = tmp_path / "k4.td"
    code, out, _ = run(capsys, "decomp", "--graph", k4_file,
                       "--out", str(td))
    assert code == 0 and "width=3" in out
    ct = tmp_path / "k4c.ct"
    code, out, _ = run(capsys, "compile", "--graph", k4_file,
                       "--decomp", str(td), "--target-size", "3",
                       "--out", str(ct))
    assert code == 0
    assert "skew=True" in out and "gates=1 " in out
    # K4 has no homomorphism into K3: the live circuit is the constant 0
    c = Circuit.from_text(ct.read_text())
    assert circuit_eval(c, {}, Field(5)) == 0
    code, out, _ = run(capsys, "compile", "--graph", k4_file,
                       "--decomp", str(td), "--target-size", "4",
                       "--out", str(ct))
    assert code == 0 and "gates=" in out
    c = Circuit.from_text(ct.read_text())
    assert counts_by_op(c)["mul"] >= 1
    # with every variable 1 it counts the 4! homomorphisms K4 -> K4
    assert circuit_eval(c, {lab: 1 for lab in input_labels(c)}, Field(29)) == 24


def test_compile_rejects_invalid_decomposition(capsys, tmp_path, k4_file):
    td = tmp_path / "k4.td"
    run(capsys, "decomp", "--graph", k4_file, "--out", str(td))
    text = td.read_text()
    assert "forget:1" in text
    td.write_text(text.replace("forget:1", "forget:2", 1))
    code, out, _ = run(capsys, "compile", "--graph", k4_file,
                       "--decomp", str(td), "--target-size", "3")
    assert code == 2
    assert "invalid decomposition" in out


def test_compile_rejects_join_with_differing_child_bags(capsys, tmp_path):
    gr = tmp_path / "edge.gr"
    gr.write_text(Graph.path(2).to_text())
    td = tmp_path / "edge.td"
    # the join's bag is {1, 2}, its right child's only {1}
    td.write_text("bag 0 leaf 1\nbag 1 intro:2 1 2\nbag 2 leaf 1\nbag 3 join 1 2\n"
                  "bag 4 forget:1 2\nbag 5 forget:2\n"
                  "child 1 0\nchild 3 1\nchild 3 2\nchild 4 3\nchild 5 4\nroot 5\n")
    code, out, _ = run(capsys, "compile", "--graph", str(gr), "--decomp", str(td),
                       "--target-size", "3")
    assert code == 2
    assert "invalid decomposition:\n  node 3: join children bags differ from own bag\n" in out


def test_compile_validates_once_and_reports_before_the_target(capsys, tmp_path, k4_file,
                                                              monkeypatch):
    from homforge import compiler
    calls = []

    def counting(d, G):
        calls.append(d)
        return validate_nice(d, G)

    monkeypatch.setattr(compiler, "validate_nice", counting)
    td = tmp_path / "k4.td"
    run(capsys, "decomp", "--graph", k4_file, "--out", str(td))
    code, _, _ = run(capsys, "compile", "--graph", k4_file,
                     "--decomp", str(td), "--target-size", "3")
    assert code == 0 and len(calls) == 1
    td.write_text(td.read_text().replace("forget:1", "forget:2", 1))
    # an empty target is refused too, but the decomposition is reported first
    code, out, err = run(capsys, "compile", "--graph", k4_file,
                         "--decomp", str(td), "--target-size", "0")
    assert code == 2 and len(calls) == 2 and err == ""
    assert "invalid decomposition:\n  " in out


def test_compile_wants_exactly_one_target(capsys, tmp_path, k4_file):
    td = tmp_path / "k4.td"
    run(capsys, "decomp", "--graph", k4_file, "--out", str(td))
    code, _, err = run(capsys, "compile", "--graph", k4_file,
                       "--decomp", str(td))
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "compile", "--graph", k4_file,
                       "--decomp", str(td), "--target", k4_file,
                       "--target-size", "3")
    assert code == 2


def _fail_if_called(name):
    def fail(*_args, **_kwargs):
        raise AssertionError(f"{name} called before the refusal")
    return fail


def test_compile_refuses_oversized_tables_before_building(capsys, tmp_path, monkeypatch):
    # a single edge into K_3000: each two-vertex bag has 3000^2 mappings;
    # the count comes from the decomposition alone, before K_3000 exists
    from homforge import compiler
    monkeypatch.setattr(compiler, "CircuitBuilder", _fail_if_called("CircuitBuilder"))
    monkeypatch.setattr(Graph, "complete", _fail_if_called("Graph.complete"))
    gr, td = tmp_path / "edge.gr", tmp_path / "edge.td"
    gr.write_text("p 2 1\ne 1 2\n")
    td.write_text("bag 0 leaf 1\nbag 1 intro:2 1 2\nbag 2 forget:1 2\nbag 3 forget:2\n"
                  "child 1 0\nchild 2 1\nchild 3 2\nroot 3\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "compile", "--graph", str(gr), "--decomp", str(td),
                         "--target-size", "3000")
    assert code == 2 and out == ""
    assert err == "error: compile builds at most 1000000 bag-table entries, got 9006001\n"
    assert time.perf_counter() - start < 1


def test_compile_hom_refuses_oversized_tables_before_building(monkeypatch):
    # a 14-cycle into K50, whose compile took 15.7 s and 890 MiB before the limit
    from homforge import compiler
    from homforge.treedecomp import _make_nice, heuristic_decomp
    G = Graph.cycle(14)
    d = _make_nice(heuristic_decomp(G))
    monkeypatch.setattr(compiler, "CircuitBuilder", _fail_if_called("CircuitBuilder"))
    with pytest.raises(ValueError, match="bag-table entries, got 1532601$"):
        compiler.compile_hom(G, d, Graph.complete(50))


@pytest.mark.parametrize("family, n, size", [("vc", 100000, 5000050000), ("cis", 1414, 1000405),
                                             ("sat", 50, 1000050), ("tdm", 101, 1030604)])
def test_eval_refuses_oversized_registry_before_building(capsys, monkeypatch, family, n, size):
    from homforge import intermediates
    for name in ("combinations", "_triples", "clause_space"):
        monkeypatch.setattr(intermediates, name, _fail_if_called(name))
    monkeypatch.setattr(intermediates.FamilyPlan, "labels", property(_fail_if_called("labels")))
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--family", family, "--n", str(n), "--field", "5")
    assert code == 2 and out == ""
    assert err == (f"error: a family registry holds at most 1000000 labels; "
                   f"{family} n={n} has {size}\n")
    assert time.perf_counter() - start < 1


def test_decomp_heuristic(capsys, k4_file):
    code, out, _ = run(capsys, "decomp", "--graph", k4_file,
                       "--method", "heuristic")
    assert code == 0 and "width=3" in out


@pytest.mark.parametrize("argv, graph, code, line", [
    (["decomp", "--method", "exact"], "p 0 0\n", 2, "error: graph has no vertices"),
    (["decomp", "--method", "heuristic"], "p 0 0\n", 2, "error: graph has no vertices"),
    (["decomp", "--method", "exact"], "p 3 0\n", 0, "width=0 nodes=6 join_free=True"),
    (["decomp", "--method", "heuristic"], "p 3 0\n", 0, "width=0 nodes=6 join_free=True"),
    (["compile", "--target-size", "0"], "p 1 0\n", 2,
     "error: target graph needs at least one vertex"),
    (["compile", "--target-size", "1", "--format", "kv"], "p 1 0\n", 0,
     "gates=1 wires=0 width=0 size_bound=4 skew=True"),
], ids=["empty-exact", "empty-heuristic", "edgeless-exact", "edgeless-heuristic",
        "empty-target", "one-vertex"])
def test_degenerate_decomposition_inputs(capsys, tmp_path, argv, graph, code, line):
    gr = tmp_path / "g.gr"
    gr.write_text(graph)
    td = tmp_path / "g.td"
    td.write_text("bag 0 leaf 1\nbag 1 forget:1\nchild 1 0\nroot 1\n")
    extra = ["--decomp", str(td)] if argv[0] == "compile" else []
    got, out, err = run(capsys, *argv, "--graph", str(gr), *extra)
    assert got == code
    assert line in (out + err).splitlines()


# -- verify -------------------------------------------------------------------


def test_verify_cycle_human_and_kv(capsys, bp_file):
    code, out, _ = run(capsys, "verify", "--theorem", "cycle", "--bp", bp_file)
    assert code == 0
    assert "verdict: ok" in out
    code, out, _ = run(capsys, "verify", "--theorem", "cycle", "--bp", bp_file,
                       "--format", "kv")
    assert code == 0
    assert "ok=True" in out and "factor=6" in out


def test_verify_gadget_bp_via_triple(capsys, bp_file, triple_file):
    code, out, _ = run(capsys, "verify", "--theorem", "gadget-bp",
                       "--bp", bp_file, "--triple", triple_file,
                       "--format", "kv")
    assert code == 0
    assert "paths=2" in out and "homs=2" in out


def test_verify_parse_hom_and_fault(capsys, circuit_file, triple_file):
    code, out, _ = run(capsys, "verify", "--theorem", "parse-hom",
                       "--circuit", circuit_file, "--triple", triple_file)
    assert code == 0 and "verdict: ok" in out
    code, out, _ = run(capsys, "verify", "--theorem", "parse-hom",
                       "--circuit", circuit_file, "--triple", triple_file,
                       "--fault-inject")
    assert code == 1
    assert "MISMATCH" in out


def deep_circuit_text(depth: int) -> str:
    """2^depth one-input sums, paired up by x/+ levels to x-depth ``depth``."""
    lines, sums, n = [], [], 0
    for i in range(1 << depth):
        lines += [f"gate {n} input x{i}", f"gate {n + 1} add {n}"]
        sums.append(n + 1)
        n += 2
    while len(sums) > 2:
        pairs, sums = zip(sums[::2], sums[1::2]), []
        for a, b in pairs:
            lines += [f"gate {n} mul {a} {b}", f"gate {n + 1} add {n}"]
            sums.append(n + 1)
            n += 2
    lines += [f"gate {n} mul {sums[0]} {sums[1]}", f"output {n}"]
    return "\n".join(lines) + "\n"


def test_verify_parse_hom_refuses_deep_circuit_before_building_Gm(
        capsys, tmp_path, triple_file, monkeypatch):
    # x-depth 10 needs G_1024, with 34,790 vertices; the refusal comes from
    # its size alone, before G_m or any parse tree is built
    def too_soon(*_args, **_kwargs):
        raise AssertionError("G_m built before the refusal")

    monkeypatch.setattr(verify, "build_Gm", too_soon)
    f = tmp_path / "deep.ct"
    f.write_text(deep_circuit_text(10))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--theorem", "parse-hom",
                         "--circuit", str(f), "--triple", triple_file)
    assert code == 2 and out == ""
    assert ("error: homomorphism search takes at most 800 source vertices, "
            "got 34790") in err
    assert time.perf_counter() - start < 3


def test_verify_missing_inputs(capsys, bp_file):
    code, _, err = run(capsys, "verify", "--theorem", "gadget-bp",
                       "--bp", bp_file)
    assert code == 2 and "--pair or --triple" in err


def test_verify_circuit_const_without_value_is_input_error(capsys, tmp_path,
                                                          triple_file):
    f = tmp_path / "bad.ct"
    f.write_text("gate 0 const\noutput 0\n")
    code, _, err = run(capsys, "verify", "--theorem", "parse-hom",
                       "--circuit", str(f), "--triple", triple_file)
    assert code == 2 and "error: line 1:" in err


def test_verify_circuit_repeated_output_is_input_error(capsys, tmp_path,
                                                      circuit_file, triple_file):
    # the last output line used to win without a word
    f = tmp_path / "two.ct"
    f.write_text((tmp_path / "nf.ct").read_text() + "output 6\n")
    code, out, err = run(capsys, "verify", "--theorem", "parse-hom",
                         "--circuit", str(f), "--triple", triple_file)
    assert code == 2 and "error: line 9: duplicate output line" in err
    assert out == ""


@pytest.mark.parametrize("text, message", [
    ("gate x input a\noutput 0\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ("gate 0 input a\noutput y\n", "line 2: invalid literal for int() with base 10: 'y'"),
    ("gate 0 const q\noutput 0\n", "line 1: invalid literal for int() with base 10: 'q'"),
    ("gate 0 input a\ngate 1 add 0 z\noutput 1\n",
     "line 2: invalid literal for int() with base 10: 'z'"),
    ("gate 0 input a\ngate 1 add 0 123456789012345678901234567890\noutput 1\n",
     "line 2: argument outside the 64-bit range"),
])
def test_verify_circuit_bad_token_names_its_line(capsys, tmp_path, triple_file,
                                                 text, message):
    f = tmp_path / "bad.ct"
    f.write_text(text)
    code, _, err = run(capsys, "verify", "--theorem", "parse-hom",
                       "--circuit", str(f), "--triple", triple_file)
    assert code == 2 and f"error: {message}" in err


K3_BLOCK = {"n": 3, "edges": [[1, 2], [1, 3], [2, 3]]}


@pytest.mark.parametrize("gad, message", [
    ({"kind": "triple", "c_max": 9}, "triple gadget lacks i0, i1, i2"),
    ([1, 2], "a gadget is a JSON object"),
    ({"kind": "pair", "c_max": 9, "i1": 3, "i2": {"n": 3}}, "a gadget block is"),
    ({"kind": "pair", "c_max": "9", "i1": K3_BLOCK, "i2": K3_BLOCK},
     "gadget key 'c_max' must be an int"),
    ({"kind": "pair", "c_max": 9, "i1": {"n": "3", "edges": []}, "i2": K3_BLOCK},
     "gadget block key 'n' must be an int"),
    ({"kind": "pair", "c_max": 9, "i1": {"n": 3, "edges": 5}, "i2": K3_BLOCK},
     "gadget block key 'edges' must be a list"),
    # refused before certification would build a billion-vertex adjacency
    ({"kind": "pair", "c_max": 10**9 + 1, "i1": {"n": 10**9, "edges": []}, "i2": K3_BLOCK},
     "c_max must be at most 800"),
])
def test_verify_malformed_gadget_is_input_error(capsys, tmp_path, bp_file,
                                                gad, message):
    f = tmp_path / "bad.gad"
    f.write_text(json.dumps(gad))
    code, _, err = run(capsys, "verify", "--theorem", "gadget-bp",
                       "--bp", bp_file, "--triple", str(f))
    assert code == 2 and f"error: {message}" in err


@pytest.mark.parametrize("theorem", ["gadget-bp", "parse-hom"])
def test_verify_uncertified_gadget_is_input_error(capsys, tmp_path, bp_file,
                                                  circuit_file, theorem):
    # well-formed, but triangles are neither rigid nor pairwise incomparable
    f = tmp_path / "k3s.gad"
    f.write_text(json.dumps({"kind": "triple", "c_max": 4, "i0": K3_BLOCK,
                             "i1": K3_BLOCK, "i2": K3_BLOCK}))
    code, out, err = run(capsys, "verify", "--theorem", theorem, "--bp", bp_file,
                         "--circuit", circuit_file, "--triple", str(f))
    assert code == 2 and "error: gadget blocks failed certification" in err
    assert "verdict" not in out


def width_one_bp_text(layers: int) -> str:
    return LayeredBP((1,) * layers,
                     tuple(Arc(l, 0, 0, f"x{l}") for l in range(layers - 1))).to_text()


def test_verify_source_above_hom_search_limit_is_input_error(capsys, tmp_path, triple_file):
    # the source graph has more than MAX_SOURCE_VERTICES vertices; the
    # recursive search used to hit RecursionError (exit 3)
    f = tmp_path / "long.bp"
    f.write_text(width_one_bp_text(1000))
    code, out, err = run(capsys, "verify", "--theorem", "gadget-bp", "--bp", str(f),
                         "--triple", triple_file)
    assert code == 2 and "source vertices" in err and err.startswith("error: ")
    assert "verdict" not in out


@pytest.mark.parametrize("c_max, message", [
    (9, "c_max must exceed the largest block size (need >= 1201)"),
    (1201, "c_max must be at most 800"),
])
def test_verify_oversized_gadget_block_is_input_error(capsys, tmp_path, bp_file,
                                                      certified_triple, c_max, message):
    # a 1,200-vertex odd cycle with a chord: certifying it as a block used
    # to recurse past the default limit (exit 3)
    big = {"n": 1200, "edges": [[v, v % 1199 + 1] for v in range(1, 1200)]
           + [[1199, 1200], [1, 1200]]}
    gad = dump_gadget(certified_triple.pair())
    f = tmp_path / "big.gad"
    f.write_text(json.dumps({**gad, "c_max": c_max, "i1": big}))
    code, _, err = run(capsys, "verify", "--theorem", "gadget-bp",
                       "--bp", bp_file, "--pair", str(f))
    assert code == 2 and f"error: {message}" in err


@pytest.mark.parametrize("line, extra, n", [("layers 3", " 7", 1), ("node 1 0", " 1", 3),
                                            ("source 0", " 9", 10), ("sink 0", " 9", 11)])
def test_verify_bp_trailing_token_is_input_error(capsys, tmp_path, bp_file,
                                                 line, extra, n):
    text = open(bp_file).read()
    assert text.splitlines()[n - 1] == line
    f = tmp_path / "extra.bp"
    f.write_text(text.replace(line + "\n", line + extra + "\n", 1))
    code, _, err = run(capsys, "verify", "--theorem", "cycle", "--bp", str(f))
    assert code == 2 and f"error: line {n}: expected" in err


@pytest.mark.parametrize("exc", [HomCapExceeded(10, 11)])
def test_verify_budget_error_is_exit_2(capsys, monkeypatch, bp_file, exc):
    def over_budget(*args, **kwargs):
        raise exc

    monkeypatch.setattr("homforge.cli.verify_cycle_identity", over_budget)
    code, _, err = run(capsys, "verify", "--theorem", "cycle", "--bp", bp_file)
    assert code == 2 and f"error: {exc}" in err


def test_verify_unexpected_exception_is_exit_3(capsys, monkeypatch, bp_file):
    def broken(*args, **kwargs):
        raise RuntimeError("no such state")

    monkeypatch.setattr("homforge.cli.verify_cycle_identity", broken)
    code, _, err = run(capsys, "verify", "--theorem", "cycle", "--bp", bp_file)
    assert code == 3 and "internal error: RuntimeError: no such state" in err


# -- search -------------------------------------------------------------------


def test_search_pair_deterministic_output(capsys, tmp_path):
    f1, f2 = tmp_path / "p1.gad", tmp_path / "p2.gad"
    code, out, _ = run(capsys, "search", "--need", "pair", "--max-n", "8",
                       "--out", str(f1))
    assert code == 0
    assert "found=pair" in out
    run(capsys, "search", "--need", "pair", "--max-n", "8", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_search_too_small_fails(capsys):
    code, _, err = run(capsys, "search", "--need", "pair", "--max-n", "5")
    assert code == 2 and "none exist below 8" in err


# -- plumbing -----------------------------------------------------------------


def test_missing_file_is_exit_2(capsys):
    code, _, err = run(capsys, "oracle", "--what", "hc",
                       "--graph", "/nonexistent/g.gr", "--mod", "2")
    assert code == 2 and "error:" in err


def test_unknown_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--bogus"])
    assert exc.value.code == 2


def test_human_header_is_commented(capsys, k4_file):
    code, out, _ = run(capsys, "oracle", "--what", "hc", "--graph", k4_file,
                       "--mod", "2")
    assert code == 0
    assert out.splitlines()[0] == "# seed=0"
