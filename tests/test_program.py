"""Parser, control-point labeling, renderer, and def-use analysis."""

import pytest
from hypothesis import given, strategies as st

from bittune.flow import (
    FlowError, build_links, check_defined_before_use,
)
from bittune.parse import (
    MAX_BRACKETS, MAX_DEPTH, ParseError, parse_program, tokenize,
)
from bittune.program import Assign, BinOp, Neg, Num, Require, Var, While
from bittune.render import emit_annotated, emit_plain, strip_annotations
from helpers import gen_straight_line

LOOP = """\
t = 0.0;
x = 1.0;
while (t < 4.0) {
    x = x * 0.5;
    t = t + 1.0;
}
require_nsb(x, 20);
"""

BRANCH = """\
a = 2.0;
if (a > 1.0) {
    b = a + 1.0;
} else {
    b = a - 1.0;
}
c = b * b;
"""


def _assign_point(prog, name, nth=0):
    hits = [n.point for n in prog.points
            if isinstance(n, Assign) and n.name == name]
    return hits[nth]


def _read_points(prog, name):
    return [n.point for n in prog.points
            if isinstance(n, Var) and n.name == name]


class TestParser:
    def test_points_are_dense_and_owned(self):
        prog = parse_program(LOOP)
        for i, node in enumerate(prog.points):
            assert node.point == i

    def test_numbering_deterministic(self):
        a = parse_program(LOOP)
        b = parse_program(LOOP)
        assert [type(n).__name__ for n in a.points] == \
            [type(n).__name__ for n in b.points]
        assert emit_plain(a) == emit_plain(b)

    def test_operands_numbered_before_operator(self):
        prog = parse_program("c = 1.0 + 2.0;\n")
        op = next(n for n in prog.points if isinstance(n, BinOp))
        assert op.left.point < op.right.point < op.point

    def test_negative_literal_is_one_point(self):
        prog = parse_program("a = -0.5;\n")
        lits = [n for n in prog.points if isinstance(n, Num)]
        assert len(lits) == 1 and lits[0].text == "-0.5"

    def test_scopes_track_loop_nesting(self):
        prog = parse_program(LOOP)
        inner = _assign_point(prog, "x", nth=1)
        outer = _assign_point(prog, "x", nth=0)
        assert len(prog.scopes[inner]) == 1
        assert prog.scopes[outer] == ()

    def test_comments_and_exponent_literals(self):
        prog = parse_program("# setup\nv = 6.9046E-5;  # AU/day\n")
        lit = next(n for n in prog.points if isinstance(n, Num))
        assert lit.text == "6.9046E-5"

    @pytest.mark.parametrize("bad", [
        "a = ;\n",
        "a = 1.0\n",                      # missing semicolon
        "while t < 1.0 { }\n",            # missing parens
        "a = 1.0 + ;\n",
        "require_nsb(1.0, 5);\n",         # literal instead of name
        "a = (1.0;\n",
        "a = 1.0 ** 2.0;\n",
        "b = $;\n",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_program(bad)

    @pytest.mark.parametrize("make", [
        lambda n: " + ".join(["1.5"] * (n + 1)),      # n additions
        lambda n: "-" * n + "x",                      # n signs
    ])
    def test_operator_depth_limit(self, make):
        parse_program(f"x = 2.0;\ny = {make(MAX_DEPTH)};\n")
        with pytest.raises(ParseError) as exc:
            parse_program(f"x = 2.0;\ny = {make(MAX_DEPTH + 1)};\n")
        assert str(exc.value) == (
            f"line 2, column 5: expression nested {MAX_DEPTH + 1} operators "
            f"deep, over the limit of {MAX_DEPTH}")

    @pytest.mark.parametrize("make", [
        lambda n: "y = " + "(" * n + "1.5" + ")" * n + ";",
        lambda n: "y = " + "sqrt(" * n + "1.5" + ")" * n + ";",
        lambda n: "if (1.0 < 2.0) {" * n + "y = 1.5;" + "}" * n,
    ])
    def test_bracket_limit(self, make):
        parse_program("x = 2.0;\n" + make(MAX_BRACKETS) + "\n")
        with pytest.raises(ParseError) as exc:
            parse_program("x = 2.0;\n" + make(MAX_BRACKETS + 1) + "\n")
        assert str(exc.value).startswith("line 2, column ")
        assert str(exc.value).endswith(
            f": brackets nested over the limit of {MAX_BRACKETS}")

    def test_signs_fold_into_the_innermost_literal_only(self):
        prog = parse_program("a = - - 0.5;\nb = - -x;\n", ("x",))
        a, b = prog.stmts[0].expr, prog.stmts[1].expr
        assert isinstance(a, Neg) and a.operand.text == "-0.5"
        assert isinstance(b, Neg) and isinstance(b.operand, Neg)
        assert isinstance(b.operand.operand, Var)

    def test_parse_error_carries_line(self):
        with pytest.raises(ParseError) as exc:
            parse_program("a = 1.0;\nb = ;\n")
        assert "line 2" in str(exc.value)

    def test_tokenizer_positions(self):
        toks = tokenize("a = 1.0;\nbb = a;\n")
        assert toks[0].line == 1
        assert toks[-1].kind == "end"
        assert toks[-2].line == 2          # the second statement's semicolon


class TestRender:
    @pytest.mark.parametrize("src", [LOOP, BRANCH])
    def test_plain_round_trip(self, src, rng):
        prog = parse_program(src)
        text = emit_plain(prog)
        assert emit_plain(parse_program(text)) == text

    def test_random_round_trip(self, rng):
        for _ in range(40):
            src = gen_straight_line(rng)
            text = emit_plain(parse_program(src))
            assert emit_plain(parse_program(text)) == text

    def test_annotations_strip_back_to_plain(self):
        prog = parse_program(LOOP)
        widths = {i: 10 + i for i in range(len(prog.points))}
        annotated = emit_annotated(prog, widths)
        assert "|10|" in annotated
        assert strip_annotations(annotated) == emit_plain(prog)

    def test_annotated_preserves_literal_spelling(self):
        prog = parse_program("v = 6.9046E-5;\n")
        annotated = emit_annotated(prog, {i: 7 for i in range(len(prog.points))})
        assert "6.9046E-5|7|" in annotated

    def test_parenthesizes_only_when_needed(self):
        src = "a = 1.0;\nb = a * (a + a);\nc = a - (a - a);\nd = a + a * a;\n"
        assert emit_plain(parse_program(src)) == src


class TestFlow:
    def test_straight_line_links(self):
        prog = parse_program("a = 1.0;\nb = a + a;\n")
        links = build_links(prog)
        d = _assign_point(prog, "a")
        assert sorted(l.use_point for l in links) == _read_points(prog, "a")
        assert all(l.def_point == d and not l.back_edge for l in links)

    def test_branch_join_sees_both_defs(self):
        prog = parse_program(BRANCH)
        links = build_links(prog)
        b_defs = {_assign_point(prog, "b", 0), _assign_point(prog, "b", 1)}
        first_b_read = _read_points(prog, "b")[0]
        incoming = {l.def_point for l in links if l.use_point == first_b_read}
        assert incoming == b_defs

    def test_loop_carried_defs_marked_back_edge(self):
        prog = parse_program(LOOP)
        links = build_links(prog)
        init = _assign_point(prog, "x", 0)
        carried = _assign_point(prog, "x", 1)
        x_read = _read_points(prog, "x")[0]         # the x in x * 0.5
        incoming = {(l.def_point, l.back_edge) for l in links
                    if l.use_point == x_read}
        assert incoming == {(init, False), (carried, True)}

    def test_loop_condition_uses_flagged(self):
        prog = parse_program(LOOP)
        links = build_links(prog)
        cond_reads = [l for l in links if l.loop_cond_use]
        assert cond_reads and all(l.var == "t" for l in cond_reads)

    def test_require_is_a_use(self):
        prog = parse_program("a = 1.0;\nrequire_nsb(a, 9);\n")
        links = build_links(prog)
        req = next(n for n in prog.points if isinstance(n, Require))
        assert any(l.use_point == req.point for l in links)

    def test_undefined_use_raises(self):
        with pytest.raises(FlowError):
            check_defined_before_use(parse_program("b = q + 1.0;\n"))

    def test_predefined_inputs_allowed(self):
        prog = parse_program("b = q + 1.0;\n", inputs=("q",))
        check_defined_before_use(prog, predefined=("q",))

    def test_use_defined_only_in_branch_still_flows(self):
        # A def on one path reaches the use; the analysis is a may-reach,
        # so this is legal even though the else path leaves c unset.
        src = "a = 1.0;\nif (a > 0.0) {\n    c = a;\n} else {\n    c = a + 1.0;\n}\nd = c;\n"
        links = build_links(parse_program(src))
        assert len([l for l in links if l.var == "c"]) == 2

    @given(st.integers(0, 2**32))
    def test_random_programs_have_total_link_cover(self, seed):
        import random
        src = gen_straight_line(random.Random(seed), max_ops=4)
        prog = parse_program(src)
        links = build_links(prog)
        uses = {l.use_point for l in links}
        for node in prog.points:
            if isinstance(node, Var):
                assert node.point in uses
