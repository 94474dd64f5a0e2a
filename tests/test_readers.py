"""The seven text readers share one line grammar.

``#`` comments are cut, blank lines are skipped, a repeated single-value
line is refused, and every per-line error is a ``ValueError`` that names
the line as ``line N:``.  The fuzz tests draw lines from each format's
directive words and int and non-int tokens.  The JSON gadget reader
``load_gadget`` is fuzzed here too: it must refuse bad input with
``ValueError`` only.  Fuzzed inputs through the CLI must never exit 3,
fuzzed branching programs through both ``.bp`` verifiers exit 0
(verified) or 2 (refused), never 1, and fuzzed ``.td`` files through
``compile`` exit 0 exactly when they hold a valid nice decomposition.
``Circuit.from_text`` and ``to_text`` work on the whole text at once; they
must agree with the line-at-a-time references in ``brute`` on every fuzzed
``.ct`` text, odd blanks, breaks and comments included.
"""

from __future__ import annotations

import io
import json
import re
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from brute import ct_from_text_reference, ct_to_text_reference
from homforge.bp import LayeredBP
from homforge.circuit import Circuit
from homforge.cli import main, read_assignment_file
from homforge.formulas import CNF
from homforge.gadgets import GadgetPair, GadgetTriple, dump_gadget, load_gadget
from homforge.graphs import Graph, Hypergraph3
from homforge.treedecomp import NiceTreeDecomp, treewidth_exact, validate_nice

BP_TEXT = "layers 2\nnode 0 0\nnode 1 0\narc 0 0 0 a\nsource 0\nsink 0\n"
CT_TEXT = "gate 0 input x\ngate 1 input y\ngate 2 mul 0 1\noutput 2\n"
NF_TEXT = ("gate 0 input x\ngate 1 input y\ngate 2 input u\ngate 3 input v\n"
           "gate 4 add 0 1\ngate 5 add 2 3\ngate 6 mul 4 5\noutput 6\n")


@pytest.mark.parametrize("read, text, message", [
    (Circuit.from_text, CT_TEXT + "output 2\n", "line 5: duplicate output line"),
    (NiceTreeDecomp.from_text, "bag 0 leaf\nroot 0\nroot 0\n",
     "line 3: duplicate root line"),
    (LayeredBP.from_text, BP_TEXT + "source 0\n", "line 7: duplicate source line"),
    (LayeredBP.from_text, BP_TEXT + "# again\nsink 0\n", "line 8: duplicate sink line"),
    (read_assignment_file, "Yv:1 0\nYv:1 1\n", "line 2: duplicate label 'Yv:1'"),
], ids=["ct-output", "td-root", "bp-source", "bp-sink", "assign-label"])
def test_repeated_single_value_line_is_refused(read, text, message):
    # the last such line used to win without a word
    with pytest.raises(ValueError) as exc:
        read(text)
    assert str(exc.value) == message


def test_dimacs_cuts_hash_comments():
    cnf = CNF.from_dimacs("c a comment\np cnf 2 1  # header\n\n1 -2 0 # clause\n")
    assert cnf == CNF.from_dimacs("p cnf 2 1\n1 -2 0\n")


NON_INT = st.sampled_from(["x", "-", "1.5", "0x1", "#", "# 1", ":", "intro:",
                           "forget:y", "c", "p", "__default__"])


def texts(*templates: str):
    """Texts drawn from a format's line templates: one line of the first
    template, then up to 7 of the others.  Each ``N`` is a small int and
    each ``I`` counts the earlier lines with the same first word.  About
    one line in eight then has one token replaced by a non-int or a
    directive word, dropped or doubled."""
    words = sorted({w for t in templates for w in t.split() if not {"N", "I"} & set(w)})
    odd = st.one_of(NON_INT, st.sampled_from(words))

    @st.composite
    def text(draw):
        seen: Counter = Counter()
        lines = []
        rest = draw(st.lists(st.sampled_from(templates[1:]), max_size=7))
        for t in [templates[0], *rest]:
            head = t.split()[0]
            toks = [w.replace("I", str(seen[head])).replace("N", str(draw(st.integers(-1, 4))))
                    for w in t.split()]
            seen[head] += 1
            if draw(st.integers(0, 7)) == 0:
                i = draw(st.integers(0, len(toks) - 1))
                toks[i] = draw(st.one_of(odd, st.just(""), st.just(f"{toks[i]} {toks[i]}")))
            lines.append(" ".join(toks))
        return "\n".join(lines)

    return text()


READERS = {
    "gr": (Graph.from_text, texts("p N N", "e N N")),
    "hg": (Hypergraph3.from_text, texts("h N", "t N N N")),
    "dimacs": (CNF.from_dimacs, texts("p cnf N N", "N N N 0", "N 0", "c N")),
    "ct": (Circuit.from_text, texts("output N", "gate I input x", "gate I const N",
                                    "gate I add N N", "gate I mul N N")),
    "td": (NiceTreeDecomp.from_text, texts("root N", "bag I leaf", "bag I intro:N N",
                                           "bag I forget:N N", "bag I join N N",
                                           "child N N")),
    "bp": (LayeredBP.from_text, texts("layers N", "node N N", "arc N N N a",
                                      "arc N N N 1", "source N", "sink N")),
    "assign": (read_assignment_file, texts("X:1 N", "Yv:N N")),
}


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_reader_fuzz_raises_only_value_errors_naming_real_lines(fmt):
    read, texts = READERS[fmt]

    @settings(max_examples=100, deadline=None)
    @given(texts)
    def check(text):
        try:
            read(text)
        except ValueError as e:
            m = re.match(r"line (\d+): ", str(e))
            if m:
                assert 1 <= int(m[1]) <= len(text.splitlines()), str(e)

    check()


def ct_outcome(read, text):
    """What a ``.ct`` reader makes of text: the circuit's arrays, or the
    error's type and message."""
    try:
        c = read(text)
    except ValueError as e:
        return type(e), str(e)
    return (c.ops.tolist(), [(type(k), k) for k in c.keys], c.offsets.tolist(),
            c.args.tolist(), c.output)


def assert_ct_reads_as_reference(text):
    got = ct_outcome(Circuit.from_text, text)
    assert got == ct_outcome(ct_from_text_reference, text), repr(text)
    if not isinstance(got[0], type):
        c = Circuit.from_text(text)
        assert c.to_text() == ct_to_text_reference(c)


CT_TEXTS = texts("output N", "gate I input x", "gate I input ünï", "gate I const N",
                 "gate I add N N", "gate I mul N N")


@st.composite
def ct_respaced(draw):
    """A fuzzed ``.ct`` text with its blanks and line breaks redrawn from
    every kind str.split and str.splitlines know, and some comments."""
    out = []
    for line in draw(CT_TEXTS).split("\n"):
        words = line.split(" ")
        line = "".join(w + draw(st.sampled_from([" ", "\t", "\x1f", "\xa0", "\u3000", "  "]))
                       for w in words[:-1]) + words[-1]
        if draw(st.integers(0, 4)) == 0:
            line += draw(st.sampled_from(["#", " # c", "#x 1", "\t# ü"]))
        out.append(line + draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c",
                                                "\x85", "\u2028", "\n\n"])))
    return "".join(out)


@settings(max_examples=300, deadline=None)
@given(st.one_of(CT_TEXTS, ct_respaced()))
def test_ct_reader_fuzz_matches_the_line_reference(text):
    assert_ct_reads_as_reference(text)


def _error_on_last_line():
    lines = ["gate 0 input x", *(f"gate {i} add {i - 1}" for i in range(1, 10_000))]
    lines[-1] = "gate 9999 add x"
    return "\n".join(lines) + "\noutput 9999\n"


@pytest.mark.parametrize("text", [
    "gate 0 input x\r\ngate 1 input y\r\ngate 2 mul 0 1\r\noutput 2\r\n",
    "gate 0 input x\rgate 1 input y\rgate 2 mul 0 1\routput 2\r",
    "gate 0 input x\r\r\ngate 1 add 0\r\n\routput 1",
    "gate\x0b0 input x\x0bgate 1 add 0\x0boutput 1",
    "gate\x1c0 input x\x1cgate 1 add 0\x1coutput 1",
    "gate\u20030\xa0input x\ngate 1 add 0\x85output 1\u2029",
    "gate 0 input x # the leaf\n# a comment-only line\ngate 1 add 0#0\noutput 1 #",
    "gate 0 input x#y\n#gate 1 add 0\noutput 0",
    "gate 0 input ünï\ngate 1 input Yv:ü\ngate 2 mul 0 1\noutput 2\n",
    "gate 0 input \ud800\noutput 0",
    "gate 0 const +3\ngate 1 const 0_1\ngate 2 const -1\ngate 3 const 007\n"
    "gate 4 const 123456789012345678901234567890\ngate 5 add 0 1 2 3 4\noutput 5\n",
    "gate 0 const ٣\ngate +1 add 00\noutput ٢",
    "gate 0 const 1_\noutput 0",
    "gate 0 const " + "9" * 5000 + "\noutput 0",
    "gate 0 input x\ngate 1 add 0 123456789012345678901234567890\noutput 1",
    "gate 0 input x\ngate 1 add 0 1234567890123456789\noutput 1",
    "gate 0 input x\ngate 1 add 0 -1\noutput 1",
    "gate 0 input x\ngate 2 add 0\noutput 1",
    "gate 0 input x\noutput 0\noutput 0",
    "gate 0 input x\noutput 0 0",
    "gate 0 input x\ngate 1 add\noutput 1",
    "gate 0\noutput 0", "gate 0 nop 1\noutput 0", "gate 0 const\noutput 0",
    "gate 0 input x y\noutput 0", "gates 0 input x\noutput 0", "gate 0 input x\n",
    "", "# only a comment\n",
    _error_on_last_line(),
], ids=lambda text: repr(text[:24]))
def test_ct_reader_matches_the_line_reference(text):
    assert_ct_reads_as_reference(text)


@pytest.mark.parametrize("arg", [str(2**63), str(-2**63 - 1), "1" + "0" * 40])
def test_ct_argument_outside_int64_names_its_line(arg):
    # such an argument is no gate id; it used to escape as an OverflowError
    text = f"gate 0 input x\ngate 1 add 0 {arg}\ngate 2 mul 1\noutput 2\n"
    with pytest.raises(ValueError, match=r"^line 2: argument outside the 64-bit range$"):
        Circuit.from_text(text)
    assert_ct_reads_as_reference(text)


def test_ct_reader_splits_on_every_unicode_blank_and_break():
    for ch in map(chr, range(sys.maxunicode + 1)):
        if ch.isspace():
            assert_ct_reads_as_reference(f"gate 0 input x{ch}gate{ch}1 add 0{ch}output 1")


SMALL = st.integers(-1, 10)
JSON = st.recursive(
    st.none() | st.booleans() | SMALL | st.sampled_from(["", "3", "pair", "triple"]),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(["kind", "c_max", "n", "edges", "i1"]),
                                     inner, max_size=3)),
    max_leaves=8)
BLOCKS = st.fixed_dictionaries(
    {"n": SMALL, "edges": st.lists(st.lists(SMALL, min_size=2, max_size=2), max_size=16)}) | JSON
PATCHES = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["pair", "triple"]) | JSON, "c_max": SMALL | JSON,
    "i0": BLOCKS, "i1": BLOCKS, "i2": BLOCKS})


def test_load_gadget_fuzz_raises_only_value_errors(certified_triple):
    real = [dump_gadget(certified_triple), dump_gadget(certified_triple.pair())]

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(real), PATCHES, JSON)
    def check(base, patch, other):
        # a real gadget with some keys replaced, the replacements alone,
        # and an arbitrary JSON value
        for d in ({**base, **patch}, patch, other):
            try:
                got = load_gadget(d)
            except ValueError:
                continue
            assert isinstance(got, (GadgetPair, GadgetTriple))

    check()


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory, certified_triple):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "k3.gr").write_text(Graph.complete(3).to_text())
    (d / "k3.td").write_text(treewidth_exact(Graph.complete(3))[1].to_text())
    (d / "t.gad").write_text(json.dumps(dump_gadget(certified_triple)))
    return d


def run_main(*argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


@pytest.mark.parametrize("flag", ["--graph", "--target"])
def test_compile_fuzz_exit_code_is_never_internal(cli_files, flag):
    files = {"--graph": str(cli_files / "k3.gr"), "--target": str(cli_files / "k3.gr")}
    files[flag] = str(cli_files / "fuzz.gr")

    @settings(max_examples=50, deadline=None)
    @given(READERS["gr"][1])
    def check(text):
        (cli_files / "fuzz.gr").write_text(text)
        code = run_main("compile", "--graph", files["--graph"], "--target",
                        files["--target"], "--decomp", str(cli_files / "k3.td"))
        assert code in (0, 1, 2)

    check()


PATH3_TD = treewidth_exact(Graph.path(3))[1].to_text().splitlines()
TD_TOKENS = st.one_of(NON_INT, st.integers(-1, 7).map(str),
                      st.sampled_from(["leaf", "join", "bag", "child", "root"]),
                      st.builds("{}:{}".format, st.sampled_from(["intro", "forget"]),
                                st.integers(0, 4)))


@st.composite
def td_mutations(draw):
    """The nice decomposition of the path 1-2-3 with one line changed: a
    token replaced, the line dropped or doubled, or a child line added
    before it."""
    lines = list(PATH3_TD)
    i = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["token", "drop", "double", "child"]))
    if how == "token":
        toks = lines[i].split()
        toks[draw(st.integers(0, len(toks) - 1))] = draw(TD_TOKENS)
        lines[i] = " ".join(toks)
    elif how == "drop":
        del lines[i]
    elif how == "double":
        lines.insert(i, lines[i])
    else:
        kids = st.integers(-1, len(PATH3_TD) // 2)
        lines.insert(i, f"child {draw(kids)} {draw(kids)}")
    return "\n".join(lines) + "\n"


def test_td_fuzz_compiles_exactly_the_valid_decompositions(cli_files):
    (cli_files / "p3.gr").write_text(Graph.path(3).to_text())

    @settings(max_examples=150, deadline=None)
    @given(td_mutations() | READERS["td"][1])
    @example("\n".join(PATH3_TD) + "\n")
    def check(text):
        (cli_files / "fuzz.td").write_text(text)
        code = run_main("compile", "--graph", str(cli_files / "p3.gr"), "--decomp",
                        str(cli_files / "fuzz.td"), "--target-size", "2")
        assert code in (0, 2)
        try:
            valid = validate_nice(NiceTreeDecomp.from_text(text), Graph.path(3)) == []
        except ValueError:
            valid = False
        assert (code == 0) == valid

    check()


@settings(max_examples=50, deadline=None)
@given(READERS["ct"][1])
@example(NF_TEXT)
@example(NF_TEXT + "output 6\n")
def test_parse_hom_fuzz_exit_code_is_never_internal(cli_files, text):
    (cli_files / "fuzz.ct").write_text(text)
    code = run_main("verify", "--theorem", "parse-hom", "--circuit",
                    str(cli_files / "fuzz.ct"), "--triple", str(cli_files / "t.gad"))
    assert code in (0, 1, 2)


ARC_LABELS = st.sampled_from(["a", "b", "w7", "x_1", "X:1", "X:1:2", "Ye:1:2", "Yv:3",
                              "Z:1:2", "Yc:1:-2:3", "0", "1"])
BAD_ARC_LABELS = st.sampled_from(["Ye:2:1", "y", "2", "Yc:0:1:2"])
ONE_IN_EIGHT = st.sampled_from([False] * 7 + [True])


@st.composite
def bp_texts(draw):
    """Small layered programs: 2-6 layers of 1-3 nodes, each arc between
    consecutive layers present or not, free, registry-shaped and constant
    labels, and now and then an invalid label or a trailing token."""
    n_layers = draw(st.sampled_from([3, 5, 4, 2, 6]))  # odd counts first, for the cycle
    sizes = draw(st.lists(st.integers(1, 3), min_size=n_layers, max_size=n_layers))
    lines = [f"layers {len(sizes)}"]
    lines += [f"node {l} {i}" for l, s in enumerate(sizes) for i in range(s)]
    for l in range(len(sizes) - 1):
        for i in range(sizes[l]):
            for j in range(sizes[l + 1]):
                if draw(st.booleans()):
                    bad = draw(ONE_IN_EIGHT) and draw(st.booleans())
                    lines.append(f"arc {l} {i} {j} {draw(BAD_ARC_LABELS if bad else ARC_LABELS)}")
    lines += ["source 0", "sink 0"]
    if draw(ONE_IN_EIGHT):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] += " 7"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("theorem", ["cycle", "gadget-bp"])
def test_bp_verifier_fuzz_exits_ok_or_input_error(cli_files, theorem):
    extra = ["--triple", str(cli_files / "t.gad")] if theorem == "gadget-bp" else []

    @settings(max_examples=100, deadline=None)
    @given(bp_texts())
    @example("layers 3\nnode 0 0\nnode 1 0\nnode 1 1\nnode 2 0\narc 0 0 0 a\n"
             "arc 0 0 1 b\narc 1 0 0 c\narc 1 1 0 d\nsource 0\nsink 0\n")
    def check(text):
        (cli_files / "fuzz.bp").write_text(text)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["verify", "--theorem", theorem, "--bp", str(cli_files / "fuzz.bp"),
                         "--format", "kv", *extra])
        assert code in (0, 2)
        assert (code == 0) == ("ok=True" in out.getvalue().splitlines())

    check()
