"""AST for the small imperative language.

Every syntactic site that carries a precision variable gets an integer
control point: literals, variable reads, operator results, assignment
targets, and the variable read inside a require_nsb statement.  The
parser numbers each node as it builds it, so points run in execution
order: operands before their operator, right-hand side before the
assigned variable, loop condition before loop body.  Structural
statements (while / if) have no precision of their own; a while loop
records body_points, the range of its body's points, which is how
passes tell whether a point sits inside that loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


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
    body_points: range = range(0)   # the body's points, nested ones included


@dataclass
class If:
    cond: Compare
    then_body: list["Stmt"]
    else_body: list["Stmt"]


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
    inputs: tuple[str, ...] = ()     # free inputs, bound before the first statement
    links: list = field(default_factory=list)   # flow.DefUseLink, by use then def point

    @property
    def n_points(self) -> int:
        return len(self.points)


def shown(text: str) -> str:
    """text quoted for an error message, cut to its first 20 characters
    and '...' when it is longer than 24, so that no message repeats a
    long name, token or literal in full."""
    return repr(text if len(text) <= 24 else text[:20] + "...")


def expr_reads(e: Expr) -> list[Var]:
    """All variable reads in an expression, in point order, found without
    recursion."""
    reads = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            reads.append(node)
        elif isinstance(node, BinOp):
            stack += (node.right, node.left)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Sqrt):
            stack.append(node.arg)
    return reads
