"""AST for the small imperative language, plus control-point labeling.

Every syntactic site that carries a precision variable gets an integer
control point: literals, variable reads, operator results, assignment
targets, and the variable read inside a require_nsb statement.  Points are
numbered in execution order: operands before their operator, right-hand
side before the assigned variable, loop condition before loop body.
Structural statements (while / if) carry a separate structure id used to
track loop nesting; they have no precision of their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


@dataclass
class Num:
    text: str              # literal exactly as written, sign included
    point: int = -1


@dataclass
class Var:
    name: str
    point: int = -1


@dataclass
class BinOp:
    op: str                # one of + - * /
    left: "Expr"
    right: "Expr"
    point: int = -1


@dataclass
class Neg:
    operand: "Expr"
    point: int = -1


@dataclass
class Sqrt:
    arg: "Expr"
    point: int = -1


Expr = Union[Num, Var, BinOp, Neg, Sqrt]


@dataclass
class Compare:
    op: str                # one of < <= > >= == !=
    left: Expr
    right: Expr


@dataclass
class Assign:
    name: str
    expr: Expr
    point: int = -1        # the write


@dataclass
class While:
    cond: Compare
    body: list["Stmt"]
    sid: int = -1


@dataclass
class If:
    cond: Compare
    then_body: list["Stmt"]
    else_body: list["Stmt"]
    sid: int = -1


@dataclass
class Require:
    name: str
    bits: int
    point: int = -1        # the read being constrained


Stmt = Union[Assign, While, If, Require]


@dataclass
class Program:
    stmts: list[Stmt]
    points: list[object] = field(default_factory=list)   # point id -> owning node
    scopes: dict[int, tuple[int, ...]] = field(default_factory=dict)
    n_structs: int = 0
    source: str = ""
    inputs: tuple[str, ...] = ()     # free inputs, bound before the first statement
    links: list = field(default_factory=list)   # flow.DefUseLink, by use then def point

    @property
    def n_points(self) -> int:
        return len(self.points)

    def kind(self, point: int) -> str:
        return kind_of(self.points[point])


def kind_of(node: object) -> str:
    if isinstance(node, Num):
        return "lit"
    if isinstance(node, Var):
        return "read"
    if isinstance(node, (BinOp, Neg, Sqrt)):
        return "op"
    if isinstance(node, Assign):
        return "def"
    if isinstance(node, Require):
        return "req"
    raise TypeError(f"node {node!r} carries no control point")


def op_symbol(node: object) -> str:
    """Operation name for an operator node."""
    if isinstance(node, BinOp):
        return node.op
    if isinstance(node, Neg):
        return "neg"
    if isinstance(node, Sqrt):
        return "sqrt"
    raise TypeError(f"{node!r} is not an operator node")


def expr_reads(e: Expr) -> Iterator[Var]:
    """All variable reads in an expression, in point order."""
    if isinstance(e, Var):
        yield e
    elif isinstance(e, BinOp):
        yield from expr_reads(e.left)
        yield from expr_reads(e.right)
    elif isinstance(e, Neg):
        yield from expr_reads(e.operand)
    elif isinstance(e, Sqrt):
        yield from expr_reads(e.arg)


def label_program(prog: Program) -> Program:
    """Assign control points and structure ids; fills prog.points/scopes."""
    points: list[object] = []
    scopes: dict[int, tuple[int, ...]] = {}
    stack: list[int] = []      # enclosing while sids, innermost last
    n_structs = 0

    def take(node: object) -> None:
        node.point = len(points)
        scopes[node.point] = tuple(stack)
        points.append(node)

    def visit_expr(e: Expr) -> None:
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

    def visit_cond(c: Compare) -> None:
        visit_expr(c.left)
        visit_expr(c.right)

    def visit_stmts(stmts: list[Stmt]) -> None:
        nonlocal n_structs
        for st in stmts:
            if isinstance(st, Assign):
                visit_expr(st.expr)
                take(st)
            elif isinstance(st, While):
                st.sid = n_structs
                n_structs += 1
                visit_cond(st.cond)
                stack.append(st.sid)
                visit_stmts(st.body)
                stack.pop()
            elif isinstance(st, If):
                st.sid = n_structs
                n_structs += 1
                visit_cond(st.cond)
                visit_stmts(st.then_body)
                visit_stmts(st.else_body)
            elif isinstance(st, Require):
                take(st)
            else:
                raise TypeError(f"unexpected statement {st!r}")

    visit_stmts(prog.stmts)
    prog.points = points
    prog.scopes = scopes
    prog.n_structs = n_structs
    return prog
