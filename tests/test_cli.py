"""End-to-end tests for the command-line interface.

Each test drives ``main(argv)`` in process and inspects stdout/stderr
and the exit code.
"""

from __future__ import annotations

import json

import pytest

from homforge.bp import Arc, LayeredBP
from homforge.circuit import Circuit, Gate
from homforge.cli import main, read_assignment_file
from homforge.gadgets import dump_gadget
from homforge.graphs import Graph

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


def test_read_assignment_file_parsing():
    vals = read_assignment_file("# comment\nA 3\n\nB 0 # trailing\n", 1)
    assert vals == {"A": 3, "B": 0, "__default__": 1}
    with pytest.raises(ValueError, match="line 1"):
        read_assignment_file("A\n", 0)
    with pytest.raises(ValueError, match="not an"):
        read_assignment_file("A x\n", 0)


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
    assert "skew=True" in out and "gates=" in out
    c = Circuit.from_text(ct.read_text())
    assert c.counts_by_op()["mul"] >= 1


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


def test_decomp_heuristic(capsys, k4_file):
    code, out, _ = run(capsys, "decomp", "--graph", k4_file,
                       "--method", "heuristic")
    assert code == 0 and "width=3" in out


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


def test_verify_missing_inputs(capsys, bp_file):
    code, _, err = run(capsys, "verify", "--theorem", "gadget-bp",
                       "--bp", bp_file)
    assert code == 2 and "--pair or --triple" in err


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
