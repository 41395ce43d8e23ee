"""Lexer and recursive-descent parser for the tuning language.

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
digits, below the 4300 that Python's int() reads from a string.
check_literal applies both bounds to the string values of input
bindings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import flow
from .program import (
    Assign, BinOp, Compare, If, Neg, Num, Program, Require, Sqrt, Stmt, Var,
    While,
)

KEYWORDS = {"while", "if", "else", "sqrt", "require_nsb"}

MAX_BRACKETS = 100
MAX_DEPTH = 700
MAX_EXPONENT = 9999
MAX_DIGITS = 4000

_NUMBER = r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
_LITERAL_RE = re.compile(r"[+-]?" + _NUMBER)
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


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


@dataclass
class Token:
    kind: str      # number | ident | cmp | sym | end
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    """The tokens of src, in one scan.  Every token begins where the one
    before it ended, so a match that starts further on means the regular
    expression skipped a character no token begins with."""
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    depth = 0                       # brackets open
    for m in _TOKEN_RE.finditer(src):
        if m.start() != pos:
            break
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
    if pos < len(src):
        raise ParseError(f"unexpected character {src[pos]!r}",
                         line, pos - line_start + 1)
    tokens.append(Token("end", "", line, len(src) - line_start + 1))
    return tokens


def _shown(text: str) -> str:
    return repr(text if len(text) <= 24 else text[:20] + "...")


def check_literal(text: str) -> None:
    """Raise ValueError unless text, with surrounding blanks and a sign
    allowed, is a numeric literal of at most MAX_DIGITS digits whose
    folded decimal exponent is at most MAX_EXPONENT in magnitude."""
    body = text.strip()
    if _LITERAL_RE.fullmatch(body) is None:
        raise ValueError(f"malformed numeric literal {_shown(text)}")
    mant, _, exp = body.lower().partition("e")
    n_digits = len(mant.lstrip("+-")) - ("." in mant)
    if n_digits > MAX_DIGITS:
        raise ValueError(f"numeric literal {_shown(text)} is too long: it "
                         f"has {n_digits} digits, past the limit of "
                         f"{MAX_DIGITS}")
    digits = exp.lstrip("+-").lstrip("0")
    # No literal has more fraction digits than characters, so an exponent
    # written with more digits than this is out of range whatever it
    # says, and int() never reads a long string.
    if (len(digits) > len(str(MAX_EXPONENT + len(body)))
            or abs(int(exp or "0") - len(mant.partition(".")[2]))
            > MAX_EXPONENT):
        raise ValueError(f"numeric literal {_shown(text)} is out of range: "
                         f"its decimal exponent is past the limit of "
                         f"{MAX_EXPONENT} in magnitude")


class _Parser:
    """Builds the tree; each node that carries a control point gets the
    next one as it is built and is appended to points."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0
        self.points: list[object] = []

    def take(self, node):
        """Give node the next control point; returns node."""
        node.point = len(self.points)
        self.points.append(node)
        return node

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        if t.kind != "end":
            self.i += 1
        return t

    def fail(self, message: str) -> "ParseError":
        t = self.peek()
        return ParseError(message + (f", got {t.text!r}" if t.text else ", got end of input"),
                          t.line, t.col)

    def expect(self, text: str) -> Token:
        t = self.peek()
        if t.text != text:
            raise self.fail(f"expected {text!r}")
        return self.next()

    def at_ident(self) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text not in KEYWORDS

    def program(self) -> list[Stmt]:
        stmts = []
        while self.peek().kind != "end":
            stmts.append(self.statement())
        return stmts

    def statement(self) -> Stmt:
        t = self.peek()
        if t.text == "while":
            self.next()
            self.expect("(")
            cond = self.condition()
            self.expect(")")
            start = len(self.points)
            body = self.block()
            return While(cond, body, range(start, len(self.points)))
        if t.text == "if":
            self.next()
            self.expect("(")
            cond = self.condition()
            self.expect(")")
            then_body = self.block()
            else_body = []
            if self.peek().text == "else":
                self.next()
                else_body = self.block()
            return If(cond, then_body, else_body)
        if t.text == "require_nsb":
            self.next()
            self.expect("(")
            name = self.ident()
            self.expect(",")
            bits_tok = self.peek()
            if bits_tok.kind != "number" or not bits_tok.text.isdigit():
                raise self.fail("expected an integer bit count")
            self.next()
            self.expect(")")
            self.expect(";")
            return self.take(Require(name, int(bits_tok.text)))
        if self.at_ident():
            name = self.ident()
            self.expect("=")
            expr = self.bounded_expr()
            self.expect(";")
            return self.take(Assign(name, expr))
        raise self.fail("expected a statement")

    def ident(self) -> str:
        t = self.peek()
        if not self.at_ident():
            raise self.fail("expected a variable name")
        self.next()
        return t.text

    def block(self) -> list[Stmt]:
        self.expect("{")
        stmts = []
        while self.peek().text != "}":
            if self.peek().kind == "end":
                raise self.fail("expected '}'")
            stmts.append(self.statement())
        self.expect("}")
        return stmts

    def condition(self) -> Compare:
        left = self.bounded_expr()
        t = self.peek()
        if t.kind != "cmp":
            raise self.fail("expected a comparison operator")
        self.next()
        right = self.bounded_expr()
        return Compare(t.text, left, right)

    def bounded_expr(self):
        """An expression of a statement or condition, refused if it nests
        more than MAX_DEPTH operators deep."""
        t, start = self.peek(), self.i
        node = self.expr()
        # Each operator takes a token, so only a long expression can be
        # too deep.
        if self.i - start > MAX_DEPTH:
            depth = _operator_depth(node)
            if depth > MAX_DEPTH:
                raise ParseError(f"expression nested {depth} operators deep, "
                                 f"over the limit of {MAX_DEPTH}",
                                 t.line, t.col)
        return node

    def expr(self):
        node = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            node = self.take(BinOp(op, node, self.term()))
        return node

    def term(self):
        node = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            node = self.take(BinOp(op, node, self.factor()))
        return node

    def factor(self):
        signs = 0
        while self.peek().text == "-":
            self.next()
            signs += 1
        node = self.atom()
        for _ in range(signs):               # innermost sign first
            if isinstance(node, Num) and not node.text.startswith("-"):
                node.text = "-" + node.text
            else:
                node = self.take(Neg(node))
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "number":
            try:
                check_literal(t.text)
            except ValueError as e:
                raise ParseError(str(e), t.line, t.col) from None
            self.next()
            return self.take(Num(t.text))
        if t.text == "sqrt":
            self.next()
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return self.take(Sqrt(arg))
        if t.text == "(":
            self.next()
            node = self.expr()
            self.expect(")")
            return node
        if self.at_ident():
            self.next()
            return self.take(Var(t.text))
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
    parser = _Parser(tokenize(src))
    prog = Program(parser.program(), parser.points)
    prog.inputs, prog.links = flow.check_defined_before_use(prog, inputs)
    return prog
