"""Scanner and recursive-descent parser for the tuning language.

Grammar:

    program  := stmt*
    stmt     := IDENT '=' expr ';'
              | 'while' '(' cond ')' '{' stmt* '}'
              | 'if' '(' cond ')' '{' stmt* '}' [ 'else' '{' stmt* '}' ]
              | 'require_nsb' '(' IDENT ',' INT ')' ';'
    cond     := expr CMP expr          CMP in < <= > >= == !=
    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | atom
    atom     := NUMBER | IDENT | 'sqrt' '(' expr ')' | '(' expr ')'

'#' starts a comment running to end of line.  A unary minus applied
directly to a numeral folds into the literal, so -0.5 is one control
point, not two.

scan() reads the whole source with one regular expression, one match per
token: the blanks and comments before it, then the token, a character no
token begins with, or the end.  It returns the tokens as three parallel
lists, kinds, texts and start offsets, ending with one "end" token whose
text is empty.  The parser reads those lists by index.  Only an error
turns an offset into a line and column, so a program that parses never
counts lines.

Nesting is bounded so that no pass runs out of Python's default
recursion limit of 1000 frames: at most MAX_BRACKETS brackets (round
or curly) open at once, and at most MAX_DEPTH operators on any path
from an expression's root to a leaf.  The parser recurses four frames
per parenthesis and two per block, and numbers control points as it
builds the nodes, with no labelling pass of its own.  The def-use walk
takes one frame per block; the interpreter, constraint generation and
rendering take one per block and one per operator.  A program at both
limits needs about 810 frames, which leaves room for the callers.

A numeric literal's decimal exponent, once its fraction digits are
folded in (1.25e3 is 125e1), is at most MAX_EXPONENT in magnitude:
reading the literal builds a power of ten or five that large, and the
cost grows faster than linearly with it.  It has at most MAX_DIGITS
digits, below the 4300 that Python's int() reads from a string, and so
does a require_nsb bit count.  The scanner's number group is the literal
syntax, so the parser checks a literal's bounds only; check_literal
checks the syntax and both bounds of the string values of input
bindings.
"""

from __future__ import annotations

import re

from . import flow
from .program import (
    Assign, BinOp, Compare, If, Neg, Num, Program, Require, Sqrt, Stmt, Var,
    While, shown,
)

KEYWORDS = {"while", "if", "else", "sqrt", "require_nsb"}

MAX_BRACKETS = 100
MAX_DEPTH = 700
MAX_EXPONENT = 9999
MAX_DIGITS = 4000

_NUMBER = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_LITERAL_RE = re.compile(r"[+-]?" + _NUMBER)
# cmp comes before sym, so that '==' is one token; no other two groups
# share a first character, so their order only decides how soon a token
# is found, and names, the most common tokens, come first.  A character
# no token begins with takes the rest of the source with it: the scan
# ends there, with that character as the last token before the end.
_SCAN_RE = re.compile(
    r"""
    [ \t\r\n]* (?: \#[^\n]* [ \t\r\n]* )*
    (?: (?P<ident>   [A-Za-z_][A-Za-z_0-9]* )
      | (?P<number>  """ + _NUMBER + r""" )
      | (?P<cmp>     <=|>=|==|!=|<|> )
      | (?P<sym>     [-+*/=(){};,] )
      | (?P<bad>     . ) .*
      | (?P<end>     \Z ) )
    """,
    re.VERBOSE | re.DOTALL,
)
_DEPTH = {"(": 1, "{": 1, ")": -1, "}": -1}


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


def _error(message: str, src: str, offset: int) -> ParseError:
    """A ParseError at offset, counting its line and column from 1."""
    line_start = src.rfind("\n", 0, offset) + 1
    return ParseError(message, src.count("\n", 0, offset) + 1,
                      offset - line_start + 1)


def scan(src: str) -> tuple[list[str], list[str], list[int]]:
    """The tokens of src as parallel lists of kinds (number, ident, cmp,
    sym, end), texts and start offsets.  Raises ParseError at the first
    character no token begins with or the first bracket past
    MAX_BRACKETS open, whichever comes first in the source."""
    kinds, texts, starts = [], [], []
    for m in _SCAN_RE.finditer(src):
        kind = m.lastgroup
        kinds.append(kind)
        texts.append(m[kind])
        starts.append(m.start(kind))
    # Blanks that run to the end make a match that ends with the end
    # token, and finditer then finds the empty end match once more.
    if kinds[-2:] == ["end", "end"]:
        del kinds[-1], texts[-1], starts[-1]
    # Only a source with more openers than the limit can pass it.
    if src.count("(") + src.count("{") > MAX_BRACKETS:
        depth = 0
        for i, text in enumerate(texts):
            if text in _DEPTH:
                depth += _DEPTH[text]
                if depth > MAX_BRACKETS:
                    raise _error(f"brackets nested over the limit of "
                                 f"{MAX_BRACKETS}", src, starts[i])
    if kinds[-2:-1] == ["bad"]:
        raise _error(f"unexpected character {texts[-2]!r}", src, starts[-2])
    return kinds, texts, starts


def _check_size(body: str, text: str) -> None:
    """Raise ValueError, quoting text, unless the literal body has at most
    MAX_DIGITS digits and a folded decimal exponent at most MAX_EXPONENT
    in magnitude."""
    mant, _, exp = body.lower().partition("e")
    n_digits = len(mant.lstrip("+-")) - ("." in mant)
    if n_digits > MAX_DIGITS:
        raise ValueError(f"numeric literal {shown(text)} is too long: it "
                         f"has {n_digits} digits, past the limit of "
                         f"{MAX_DIGITS}")
    digits = exp.lstrip("+-").lstrip("0")
    # No literal has more fraction digits than characters, so an exponent
    # written with more digits than this is out of range whatever it
    # says, and int() never reads a long string.
    if (len(digits) > len(str(MAX_EXPONENT + len(body)))
            or abs(int(exp or "0") - len(mant.partition(".")[2]))
            > MAX_EXPONENT):
        raise ValueError(f"numeric literal {shown(text)} is out of range: "
                         f"its decimal exponent is past the limit of "
                         f"{MAX_EXPONENT} in magnitude")


def check_literal(text: str) -> None:
    """Raise ValueError unless text, with surrounding blanks and a sign
    allowed, is a numeric literal of at most MAX_DIGITS digits whose
    folded decimal exponent is at most MAX_EXPONENT in magnitude."""
    body = text.strip()
    if _LITERAL_RE.fullmatch(body) is None:
        raise ValueError(f"malformed numeric literal {shown(text)}")
    _check_size(body, text)


class _Parser:
    """Builds the tree from scan()'s lists, reading the token at index i;
    each node that carries a control point gets the next one as it is
    built and is appended to points.  A token is consumed only once it is
    known not to be the end, so i never passes the end token."""

    def __init__(self, src: str):
        self.src = src
        self.kinds, self.texts, self.starts = scan(src)
        self.i = 0
        self.points: list[object] = []

    def take(self, node):
        """Give node the next control point; returns node."""
        node.point = len(self.points)
        self.points.append(node)
        return node

    def error(self, message: str, i: int) -> ParseError:
        return _error(message, self.src, self.starts[i])

    def fail(self, message: str) -> ParseError:
        t = self.texts[self.i]
        return self.error(message + (f", got {shown(t)}" if t
                                     else ", got end of input"), self.i)

    def expect(self, text: str) -> None:
        if self.texts[self.i] != text:
            raise self.fail(f"expected {text!r}")
        self.i += 1

    def at_ident(self) -> bool:
        return (self.kinds[self.i] == "ident"
                and self.texts[self.i] not in KEYWORDS)

    def program(self) -> list[Stmt]:
        stmts = []
        while self.kinds[self.i] != "end":
            stmts.append(self.statement())
        return stmts

    def statement(self) -> Stmt:
        text = self.texts[self.i]
        if text == "while":
            self.i += 1
            self.expect("(")
            cond = self.condition()
            self.expect(")")
            start = len(self.points)
            body = self.block()
            return While(cond, body, range(start, len(self.points)))
        if text == "if":
            self.i += 1
            self.expect("(")
            cond = self.condition()
            self.expect(")")
            then_body = self.block()
            else_body = []
            if self.texts[self.i] == "else":
                self.i += 1
                else_body = self.block()
            return If(cond, then_body, else_body)
        if text == "require_nsb":
            self.i += 1
            self.expect("(")
            name = self.ident()
            self.expect(",")
            i = self.i
            bits = self.texts[i]
            if self.kinds[i] != "number" or not bits.isdigit():
                raise self.fail("expected an integer bit count")
            if len(bits) > MAX_DIGITS:
                raise self.error(f"bit count {shown(bits)} is too long: it "
                                 f"has {len(bits)} digits, past the limit "
                                 f"of {MAX_DIGITS}", i)
            self.i += 1
            self.expect(")")
            self.expect(";")
            return self.take(Require(name, int(bits)))
        if self.at_ident():
            self.i += 1
            self.expect("=")
            expr = self.bounded_expr()
            self.expect(";")
            return self.take(Assign(text, expr))
        raise self.fail("expected a statement")

    def ident(self) -> str:
        text = self.texts[self.i]
        if not self.at_ident():
            raise self.fail("expected a variable name")
        self.i += 1
        return text

    def block(self) -> list[Stmt]:
        self.expect("{")
        stmts = []
        while self.texts[self.i] != "}":
            if self.kinds[self.i] == "end":
                raise self.fail("expected '}'")
            stmts.append(self.statement())
        self.i += 1
        return stmts

    def condition(self) -> Compare:
        left = self.bounded_expr()
        op = self.texts[self.i]
        if self.kinds[self.i] != "cmp":
            raise self.fail("expected a comparison operator")
        self.i += 1
        return Compare(op, left, self.bounded_expr())

    def bounded_expr(self):
        """An expression of a statement or condition, refused if it nests
        more than MAX_DEPTH operators deep."""
        start = self.i
        node = self.expr()
        # Each operator takes a token, so only a long expression can be
        # too deep.
        if self.i - start > MAX_DEPTH:
            depth = _operator_depth(node)
            if depth > MAX_DEPTH:
                raise self.error(f"expression nested {depth} operators deep, "
                                 f"over the limit of {MAX_DEPTH}", start)
        return node

    def expr(self):
        node = self.term()
        texts = self.texts
        while texts[self.i] in ("+", "-"):
            op = texts[self.i]
            self.i += 1
            node = self.take(BinOp(op, node, self.term()))
        return node

    def term(self):
        node = self.factor()
        texts = self.texts
        while texts[self.i] in ("*", "/"):
            op = texts[self.i]
            self.i += 1
            node = self.take(BinOp(op, node, self.factor()))
        return node

    def factor(self):
        start = self.i
        while self.texts[self.i] == "-":
            self.i += 1
        signs = self.i - start
        node = self.atom()
        for _ in range(signs):               # innermost sign first
            if isinstance(node, Num) and not node.text.startswith("-"):
                node.text = "-" + node.text
            else:
                node = self.take(Neg(node))
        return node

    def atom(self):
        i = self.i
        kind, text = self.kinds[i], self.texts[i]
        if kind == "number":
            # The scanner's number group is the literal syntax, so only
            # the size bounds are left to check.
            try:
                _check_size(text, text)
            except ValueError as e:
                raise self.error(str(e), i) from None
            self.i = i + 1
            return self.take(Num(text))
        if kind == "ident":
            if text not in KEYWORDS:
                self.i = i + 1
                return self.take(Var(text))
            if text == "sqrt":
                self.i = i + 1
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return self.take(Sqrt(arg))
        elif text == "(":
            self.i = i + 1
            node = self.expr()
            self.expect(")")
            return node
        raise self.fail("expected a value")


def _operator_depth(e) -> int:
    """Operators on the longest path from e to a leaf, without recursion."""
    deepest = 0
    stack = [(e, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, BinOp):
            stack += ((node.left, depth + 1), (node.right, depth + 1))
        elif isinstance(node, Neg):
            stack.append((node.operand, depth + 1))
        elif isinstance(node, Sqrt):
            stack.append((node.arg, depth + 1))
        else:
            deepest = max(deepest, depth)
    return deepest


def parse_program(src: str, inputs=()) -> Program:
    """Parse source text, numbering its control points as the tree is
    built, then run the def-use pass once; raises ParseError on malformed
    input and FlowError on a read that no definition reaches.

    Variable names listed in inputs are treated as externally bound, so
    reading them before any assignment is not an error; those that some
    read can see unassigned become prog.inputs.  The def-use links become
    prog.links.
    """
    parser = _Parser(src)
    prog = Program(parser.program(), parser.points)
    prog.inputs, prog.links = flow.check_defined_before_use(prog, inputs)
    return prog
