"""Parser, control-point numbering, renderer, and def-use analysis."""

import hashlib
import importlib.util
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bittune import flow
from bittune.cli import main
from bittune.flow import FlowError, check_defined_before_use
from bittune.nbody import build_nbody_program, horizon_t_max
from bittune.parse import (
    _NUMBER, MAX_BRACKETS, MAX_DEPTH, MAX_DIGITS, MAX_EXPONENT, ParseError,
    parse_program, scan,
)
from bittune.program import (
    Assign, BinOp, If, Neg, Num, Require, Sqrt, Var, While,
)
from bittune.render import emit_annotated
from helpers import (
    BRANCH, LOOP, emit_plain, gen_straight_line, loops, strip_annotations,
)


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

    def test_body_points_track_loop_nesting(self):
        prog = parse_program(LOOP)
        inner = _assign_point(prog, "x", nth=1)
        outer = _assign_point(prog, "x", nth=0)
        around = [w.body_points for w in loops(prog.stmts)]
        assert sum(inner in body for body in around) == 1
        assert not any(outer in body for body in around)

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

    def test_tokenizer_positions(self):
        src = "a = 1.0;\nbb = a;\n"
        kinds, _, starts = scan(src)
        assert _line_col(src, starts[0])[0] == 1
        assert kinds[-1] == "end"
        assert _line_col(src, starts[-2])[0] == 2   # the second semicolon

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

    # Each error comes after a comment line and a \r\n line break; the
    # comment holds characters that would be errors outside it.
    @pytest.mark.parametrize("body, where", [
        ("b = ;", "3, column 5: expected a value, got ';'"),
        ("b = a\r\nc = a;", "4, column 1: expected ';', got 'c'"),
        ("b = a", "3, column 6: expected ';', got end of input"),
        ("while a < 1.0 { }", "3, column 7: expected '(', got 'a'"),
        ("if (a) { }",
         "3, column 6: expected a comparison operator, got ')'"),
        ("if (a <", "3, column 8: expected a value, got end of input"),
        ("require_nsb(1.0, 5);",
         "3, column 13: expected a variable name, got '1.0'"),
        ("require_nsb(a, 5.0);",
         "3, column 16: expected an integer bit count, got '5.0'"),
        ("require_nsb(a 5);", "3, column 15: expected ',', got '5'"),
        ("require_nsb(a, 5;", "3, column 17: expected ')', got ';'"),
        ("require_nsb(a, 5)", "3, column 18: expected ';', got end of input"),
        ("b = (a;", "3, column 7: expected ')', got ';'"),
        ("b = a ** 2.0;", "3, column 8: expected a value, got '*'"),
        (") = 1.0;", "3, column 1: expected a statement, got ')'"),
        ("b 1.0;", "3, column 3: expected '=', got '1.0'"),
        ("while (a < 1.0) b = 1.0;", "3, column 17: expected '{', got 'b'"),
        ("while (a < 1.0) {\r\n  b = 1.0;",
         "4, column 11: expected '}', got end of input"),
        ("if (a < 1.0) { } else b = 1.0;",
         "3, column 23: expected '{', got 'b'"),
        ("b = sqrt a;", "3, column 10: expected '(', got 'a'"),
        ("\tb = 1" + "0" * MAX_DIGITS + ";",
         "3, column 6: numeric literal '10000000000000000000...' is too "
         f"long: it has {MAX_DIGITS + 1} digits, past the limit of "
         f"{MAX_DIGITS}"),
        (f"b = 1e{MAX_EXPONENT + 1};",
         f"3, column 5: numeric literal '1e{MAX_EXPONENT + 1}' is out of "
         f"range: its decimal exponent is past the limit of {MAX_EXPONENT} "
         "in magnitude"),
        ("b = " + "-" * (MAX_DEPTH + 1) + "a;",
         f"3, column 5: expression nested {MAX_DEPTH + 1} operators deep, "
         f"over the limit of {MAX_DEPTH}"),
        ("b = " + "(" * (MAX_BRACKETS + 1) + "a",
         f"3, column {MAX_BRACKETS + 5}: brackets nested over the limit of "
         f"{MAX_BRACKETS}"),
        ("b = a @ ;", "3, column 7: unexpected character '@'"),
        # A bad character is found before any parse error, and of a bad
        # character and too many brackets, the first in the source wins.
        ("b = ; @", "3, column 7: unexpected character '@'"),
        ("b = " + "(" * (MAX_BRACKETS + 1) + "@",
         f"3, column {MAX_BRACKETS + 5}: brackets nested over the limit of "
         f"{MAX_BRACKETS}"),
        ("b = @" + "(" * (MAX_BRACKETS + 1),
         "3, column 5: unexpected character '@'"),
    ], ids=lambda text: text[:30])
    def test_error_positions(self, body, where):
        src = "# a comment ( @ {\r\na = 1.0;\r\n" + body
        with pytest.raises(ParseError) as exc:
            parse_program(src)
        assert str(exc.value) == "line " + where
        line, _, col = where.partition(":")[0].partition(", column ")
        assert (exc.value.line, exc.value.col) == (int(line), int(col))


# --- the tokenizer that built a Token per token ---------------------------
#
# Kept here as the reference for the differential test: a match of one
# token or one run of blanks at each position in turn, with the line and
# column of every token tracked as it goes.

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>      [ \t\r\n]+ | \#[^\n]* )
    | (?P<number>  """ + _NUMBER + r""" )
    | (?P<ident>   [A-Za-z_][A-Za-z_0-9]* )
    | (?P<cmp>     <=|>=|==|!=|<|> )
    | (?P<sym>     [-+*/=(){};,] )
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str      # number | ident | cmp | sym | end
    text: str
    line: int
    col: int


def _line_col(src, offset):
    line_start = src.rfind("\n", 0, offset) + 1
    return src.count("\n", 0, offset) + 1, offset - line_start + 1


def _tokenize_by_match(src):
    """The tokens of src, a match at each position in turn."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    depth = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(f"unexpected character {src[pos]!r}",
                             line, pos - line_start + 1)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            tokens.append(Token(kind, text, line, pos - line_start + 1))
            if kind == "sym":
                if text in "({":
                    depth += 1
                    if depth > MAX_BRACKETS:
                        raise ParseError(
                            f"brackets nested over the limit of {MAX_BRACKETS}",
                            line, pos - line_start + 1)
                elif text in ")}":
                    depth -= 1
        nl = text.count("\n")
        if nl:
            line += nl
            line_start = pos + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(Token("end", "", line, len(src) - line_start + 1))
    return tokens


# Pieces of source: every token kind, comments, line breaks and brackets
# that do not balance (runs of openers now and then pass MAX_BRACKETS),
# and characters no token begins with.
_GOOD_PIECES = ["x", "v12", "_a", "while", "sqrt", "1.5", ".5", "2.", "1e-3",
                "3E+4", "7", "<=", ">=", "==", "!=", "<", ">", "=", "+", "-",
                "*", "/", ";", ",", "(", ")", "{", "}", " ", "\t", "\r\n",
                "\n", "# note ( @\n", "#", "(" * 8, "{" * 12]
_BAD_PIECES = ["@", "$", "!", "&", "'", "\"", "\u00e9", "\\", "[", "~", "\x00"]


def _scanned(src):
    """(kind, text, line, column) of each token scan() finds."""
    kinds, texts, starts = scan(src)
    return [(kind, text, *_line_col(src, start))
            for kind, text, start in zip(kinds, texts, starts)]


def _by_match(src):
    return [(t.kind, t.text, t.line, t.col) for t in _tokenize_by_match(src)]


def _outcome(tokenizer, src):
    try:
        return tokenizer(src)
    except ParseError as e:
        return (str(e), e.line, e.col)


class TestTokenizer:
    def test_same_tokens_and_errors_as_a_match_per_position(self):
        rng = random.Random(0x70C)
        for i in range(600):
            # One source in three may hold any piece, run together.  The
            # others hold only good pieces, spaced apart, so most run to
            # the end.
            pieces, gap = ((_GOOD_PIECES + _BAD_PIECES, "") if i % 3 == 0
                           else (_GOOD_PIECES, " "))
            src = gap.join(rng.choice(pieces)
                           for _ in range(rng.randint(0, 200)))
            assert _outcome(_scanned, src) == _outcome(_by_match, src), src

    @pytest.mark.parametrize("src", [
        "", "@", "a = 1.0;@", "a\n  $", "#@\n@", "x = 1.0; # ok\n!",
        "(" * (MAX_BRACKETS + 1) + "@", "@" + "(" * (MAX_BRACKETS + 1),
        " \r\n\t", "a # no line break", "a\n\n", "# only", "1.5e", "x@",
    ])
    def test_edges(self, src):
        assert _outcome(_scanned, src) == _outcome(_by_match, src)


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
        links = prog.links
        d = _assign_point(prog, "a")
        assert sorted(l.use_point for l in links) == _read_points(prog, "a")
        assert all(l.def_point == d and not l.back_edge for l in links)

    def test_branch_join_sees_both_defs(self):
        prog = parse_program(BRANCH)
        links = prog.links
        b_defs = {_assign_point(prog, "b", 0), _assign_point(prog, "b", 1)}
        first_b_read = _read_points(prog, "b")[0]
        incoming = {l.def_point for l in links if l.use_point == first_b_read}
        assert incoming == b_defs

    def test_loop_carried_defs_marked_back_edge(self):
        prog = parse_program(LOOP)
        links = prog.links
        init = _assign_point(prog, "x", 0)
        carried = _assign_point(prog, "x", 1)
        x_read = _read_points(prog, "x")[0]         # the x in x * 0.5
        incoming = {(l.def_point, l.back_edge) for l in links
                    if l.use_point == x_read}
        assert incoming == {(init, False), (carried, True)}

    def test_loop_condition_uses_flagged(self):
        prog = parse_program(LOOP)
        links = prog.links
        cond_reads = [l for l in links if l.loop_cond_use]
        assert cond_reads and all(l.var == "t" for l in cond_reads)

    def test_require_is_a_use(self):
        prog = parse_program("a = 1.0;\nrequire_nsb(a, 9);\n")
        links = prog.links
        req = next(n for n in prog.points if isinstance(n, Require))
        assert any(l.use_point == req.point for l in links)

    def test_undefined_use_raises(self):
        with pytest.raises(FlowError):
            check_defined_before_use(parse_program("b = q + 1.0;\n"))

    @pytest.mark.parametrize("src, message", [
        ("a = 1.0;\nb = q + a;\nc = r;\n",
         "variable 'q' is read (control point 2) before any definition"),
        ("a = 1.0;\nif (a > 0.5) {\n    b = a * 2.0;\n} else {\n"
         "    b = q;\n}\nc = b + r;\n",
         "variable 'q' is read (control point 8) before any definition"),
        ("t = 0.0;\nwhile (t < 3.0) {\n    s = t * r;\n    t = t + q;\n}\n",
         "variable 'r' is read (control point 5) before any definition"),
        # u is defined later in the body and reaches its read round the
        # loop, so the first undefined read is q.
        ("t = 0.0;\nwhile (t < 3.0) {\n    s = t * u;\n    u = 1.0;\n"
         "    t = t + q;\n}\n",
         "variable 'q' is read (control point 11) before any definition"),
    ])
    def test_first_undefined_read_is_named(self, src, message):
        with pytest.raises(FlowError) as exc:
            parse_program(src)
        assert str(exc.value) == message

    def test_predefined_inputs_allowed(self):
        prog = parse_program("b = q + 1.0;\n", inputs=("q",))
        check_defined_before_use(prog, predefined=("q",))

    def test_use_defined_only_in_branch_still_flows(self):
        # A def on one path reaches the use; the analysis is a may-reach,
        # so this is legal even though the else path leaves c unset.
        src = "a = 1.0;\nif (a > 0.0) {\n    c = a;\n} else {\n    c = a + 1.0;\n}\nd = c;\n"
        links = parse_program(src).links
        assert len([l for l in links if l.var == "c"]) == 2

    @given(st.integers(0, 2**32))
    def test_random_programs_have_total_link_cover(self, seed):
        src = gen_straight_line(random.Random(seed), max_ops=4)
        prog = parse_program(src)
        links = prog.links
        uses = {l.use_point for l in links}
        for node in prog.points:
            if isinstance(node, Var):
                assert node.point in uses


# --- the labelling pass the parser's numbering replaced ---------------------
#
# Kept here as the reference for the numbering test and for the set-based
# analysis below.

def _old_labels(stmts):
    """(points, scopes, sids) as the separate labelling pass assigned them:
    the nodes in point order, the ids of the while loops enclosing each
    point, and each while or if statement's structure id, keyed by id()."""
    points, scopes, sids, stack = [], {}, {}, []

    def take(node):
        scopes[len(points)] = tuple(stack)
        points.append(node)

    def visit_expr(e):
        if isinstance(e, (Num, Var)):
            take(e)
        elif isinstance(e, BinOp):
            visit_expr(e.left)
            visit_expr(e.right)
            take(e)
        elif isinstance(e, Neg):
            visit_expr(e.operand)
            take(e)
        elif isinstance(e, Sqrt):
            visit_expr(e.arg)
            take(e)
        else:
            raise TypeError(f"unexpected expression node {e!r}")

    def visit_stmts(body):
        for st in body:
            if isinstance(st, Assign):
                visit_expr(st.expr)
                take(st)
            elif isinstance(st, (While, If)):
                sids[id(st)] = len(sids)
                visit_expr(st.cond.left)
                visit_expr(st.cond.right)
                if isinstance(st, While):
                    stack.append(sids[id(st)])
                    visit_stmts(st.body)
                    stack.pop()
                else:
                    visit_stmts(st.then_body)
                    visit_stmts(st.else_body)
            elif isinstance(st, Require):
                take(st)
            else:
                raise TypeError(f"unexpected statement {st!r}")

    visit_stmts(stmts)
    return points, scopes, sids


# --- the CFG and set-based analysis the syntax-driven pass replaced ---------
#
# Kept here as the reference for the differential test: a statement-level
# CFG, every node's in-set is a full set of (var, def point) pairs, and a
# read scans the whole set.

@dataclass
class _FlowNode:
    reads: list                 # (var, read point)
    define: tuple | None        # (var, def point)
    while_sid: int | None = None
    succs: list = field(default_factory=list)


def _read_pairs(e):
    if isinstance(e, Var):
        return [(e.name, e.point)]
    if isinstance(e, BinOp):
        return _read_pairs(e.left) + _read_pairs(e.right)
    if isinstance(e, Neg):
        return _read_pairs(e.operand)
    if isinstance(e, Sqrt):
        return _read_pairs(e.arg)
    return []


def _build_cfg(stmts, sids):
    """Flow nodes in source order, which is also control-point order."""
    nodes = []

    def new_node(reads, define, while_sid=None):
        nodes.append(_FlowNode(reads, define, while_sid))
        return len(nodes) - 1

    def link(preds, target):
        for p in preds:
            if target not in nodes[p].succs:
                nodes[p].succs.append(target)

    def cond_reads(c):
        return _read_pairs(c.left) + _read_pairs(c.right)

    def seq(body, preds):
        for st in body:
            if isinstance(st, Assign):
                i = new_node(_read_pairs(st.expr), (st.name, st.point))
                link(preds, i)
                preds = [i]
            elif isinstance(st, Require):
                i = new_node([(st.name, st.point)], None)
                link(preds, i)
                preds = [i]
            elif isinstance(st, While):
                c = new_node(cond_reads(st.cond), None, sids[id(st)])
                link(preds, c)
                link(seq(st.body, [c]), c)
                preds = [c]
            elif isinstance(st, If):
                c = new_node(cond_reads(st.cond), None)
                link(preds, c)
                merged = []
                for x in seq(st.then_body, [c]) + seq(st.else_body, [c]):
                    if x not in merged:
                        merged.append(x)
                preds = merged
            else:
                raise TypeError(f"unexpected statement {st!r}")
        return preds

    seq(stmts, [])
    return nodes


def _set_reaching(nodes, entry=frozenset()):
    preds = [[] for _ in nodes]
    for i, n in enumerate(nodes):
        for s in n.succs:
            preds[s].append(i)
    ins = [set() for _ in nodes]
    outs = [set() for _ in nodes]
    work = list(range(len(nodes)))
    queued = [True] * len(nodes)
    while work:
        i = work.pop(0)
        queued[i] = False
        inset = set(entry) if i == 0 else set()
        for p in preds[i]:
            inset |= outs[p]
        ins[i] = inset
        if nodes[i].define is not None:
            var, pt = nodes[i].define
            out = {(v, d) for (v, d) in inset if v != var}
            out.add((var, pt))
        else:
            out = inset
        if out != outs[i]:
            outs[i] = out
            for s in nodes[i].succs:
                if not queued[s]:
                    work.append(s)
                    queued[s] = True
    return ins


def _set_based_def_use(prog, predefined=()):
    """(inputs, link tuples) as the set-based analysis computes them, or
    the FlowError message it raises."""
    _, scopes, sids = _old_labels(prog.stmts)
    nodes = _build_cfg(prog.stmts, sids)
    ins = _set_reaching(nodes, frozenset((v, -1) for v in predefined))
    free = set()
    for i, n in enumerate(nodes):
        for var, use_pt in n.reads:
            if var in predefined:
                if (var, -1) in ins[i]:
                    free.add(var)
            elif not any(v == var for (v, _) in ins[i]):
                return (f"variable {var!r} is read (control point {use_pt}) "
                        f"before any definition")
    ins = _set_reaching(nodes)
    links = []
    for i, n in enumerate(nodes):
        for var, use_pt in n.reads:
            for d in sorted(d for (v, d) in ins[i] if v == var):
                links.append((d, use_pt, var, d > use_pt,
                              n.while_sid is not None
                              and n.while_sid in scopes[d]))
    links.sort(key=lambda l: (l[1], l[0]))
    return tuple(sorted(free)), links


def _link_tuples(links):
    return [(l.def_point, l.use_point, l.var, l.back_edge, l.loop_cond_use)
            for l in links]


_NAMES = ("a", "b", "c", "x", "y")


def _random_flow_program(rng):
    """Source and input names of a small program with nested while/if
    blocks; reads mostly name variables assigned earlier in the text."""
    inputs = tuple(sorted(rng.sample(_NAMES, rng.randint(0, 2))))
    known = list(inputs)
    lines = []

    def read():
        if not known:
            return f"{rng.randint(1, 9)}.25"
        return rng.choice(known if rng.random() < 0.95 else _NAMES)

    def expr(depth=0):
        k = rng.random()
        if k < 0.3 or depth > 3:
            return f"{rng.randint(1, 9)}.5"
        if k < 0.65:
            return read()
        return f"{expr(depth + 1)} {rng.choice('+-*/')} {expr(depth + 1)}"

    def block(indent, depth):
        for _ in range(rng.randint(1, 6 - depth)):
            pad = "    " * indent
            k = rng.random()
            if depth < 3 and k < 0.2:
                lines.append(f"{pad}while ({read()} < {expr()}) {{")
                block(indent + 1, depth + 1)
                lines.append(pad + "}")
            elif depth < 3 and k < 0.4:
                lines.append(f"{pad}if ({expr()} >= {read()}) {{")
                block(indent + 1, depth + 1)
                if rng.random() < 0.5:
                    lines.append(pad + "} else {")
                    block(indent + 1, depth + 1)
                lines.append(pad + "}")
            elif k < 0.5 and known:
                lines.append(f"{pad}require_nsb({rng.choice(known)}, 10);")
            else:
                name = rng.choice(_NAMES)
                lines.append(f"{pad}{name} = {expr()};")
                known.append(name)

    block(0, 0)
    return "\n".join(lines) + "\n", inputs


def _wide_source(rng, n_stmts=1100):
    """A closed straight-line program of single-operation statements over
    earlier variables and literals, shaped like the benchmark's wide
    programs."""
    names = ["v0", "v1"]
    lines = ["v0 = 1.5;", "v1 = 2.25;"]
    for i in range(2, n_stmts):
        a = rng.choice(names)
        op = rng.choice("+-*/s")
        if op == "s":
            expr = f"sqrt({a})"
        else:
            b = (rng.choice(names) if rng.random() < 0.8
                 else f"{rng.uniform(0.5, 2.0):.3f}")
            expr = f"{a} {op} {b}"
        lines.append(f"v{i} = {expr};")
        names.append(f"v{i}")
    lines.append(f"require_nsb({names[-1]}, 24);")
    return "\n".join(lines) + "\n"


def _pinned_sources():
    yield _wide_source(random.Random(7))
    rng = random.Random(0xD16)
    for _ in range(50):
        yield gen_straight_line(rng)
    yield LOOP
    yield BRANCH
    yield build_nbody_program(t_max=horizon_t_max(0.05))


def _links_digest(link_lists):
    h = hashlib.sha256()
    for links in link_lists:
        for t in _link_tuples(links):
            h.update(repr(t).encode())
        h.update(b"\n")
    return h.hexdigest()


class TestDefUsePass:
    # sha256 of every link over _pinned_sources(), recorded with the
    # set-based analysis.
    PINNED = ("d9790c69f29127e43081898a4d1010bf"
              "6f9a510cfc7d71dd62349a00df93e70a")

    def test_links_match_the_pinned_digest(self):
        digest = _links_digest(parse_program(src).links
                               for src in _pinned_sources())
        assert digest == self.PINNED

    @settings(max_examples=300)
    @given(st.integers(0, 2**32))
    def test_matches_the_set_based_analysis(self, seed):
        src, inputs = _random_flow_program(random.Random(seed))
        # With every name bound no read is undefined, and numbering does
        # not depend on the inputs: this is the program the reference reads.
        want = _set_based_def_use(parse_program(src, _NAMES), inputs)
        try:
            prog = parse_program(src, inputs)
        except FlowError as e:
            assert str(e) == want
        else:
            assert (prog.inputs, _link_tuples(prog.links)) == want

    def test_one_tune_runs_the_pass_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        real = flow.check_defined_before_use

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(flow, "check_defined_before_use", counted)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "loop.pop").write_text(LOOP)
        for argv in (["tune", "loop.pop", "--method", "pi", "--emit-lp"],
                     ["export-lp", "loop.pop", "--refined"]):
            calls.clear()
            assert main(argv) == 0, capsys.readouterr().err
            assert len(calls) == 1, argv


class TestNumbering:
    @settings(max_examples=300)
    @given(st.integers(0, 2**32), st.booleans())
    def test_parser_numbers_as_the_labelling_pass_did(self, seed, nested):
        rng = random.Random(seed)
        src = (_random_flow_program(rng)[0] if nested
               else gen_straight_line(rng))
        prog = parse_program(src, _NAMES)
        points, scopes, sids = _old_labels(prog.stmts)
        assert len(prog.points) == len(points)
        assert all(a is b for a, b in zip(prog.points, points))
        for w in loops(prog.stmts):
            assert set(w.body_points) == {
                p for p, around in scopes.items() if sids[id(w)] in around}


def _bench_gen():
    """perfbench/gen.py, the benchmark's input generator, loaded by path
    (and registered, as its dataclass needs)."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench"
        / "gen.py")
    module = sys.modules.setdefault(spec.name,
                                    importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


class TestParsedForm:
    # sha256 of the tree (repr), inputs and links of the three seed-7 wide
    # programs and the first seed-7 corpus block, recorded with the
    # tokenizer that built a Token per token.
    PINNED = ("88c2c7092aa459f13b70e5b4c20bf9f0"
              "59410b5c31715c14bcb8aacc61f30d0f")

    def test_trees_links_and_inputs_match_the_pinned_digest(self):
        gen = _bench_gen()
        h = hashlib.sha256()
        for p in gen.wide(7) + gen.corpus(7, blocks=1):
            prog = parse_program(p.source(), p.inputs)
            h.update(repr(prog.stmts).encode())
            h.update(repr(prog.inputs).encode())
            for t in _link_tuples(prog.links):
                h.update(repr(t).encode())
            h.update(b"\n")
        assert h.hexdigest() == self.PINNED
