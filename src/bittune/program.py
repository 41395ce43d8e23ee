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

from typing import Union


class _Node:
    """A syntax node.  Nodes are slot classes, which build no code when
    the module is imported; repr lists the slots in order, as
    name=value."""

    __slots__ = ()

    def __repr__(self) -> str:
        fields = ", ".join(f"{s}={getattr(self, s)!r}" for s in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Num(_Node):
    __slots__ = ("text", "point")

    def __init__(self, text: str, point: int = -1):
        self.text = text       # literal exactly as written, sign included
        self.point = point


class Var(_Node):
    __slots__ = ("name", "point")

    def __init__(self, name: str, point: int = -1):
        self.name = name
        self.point = point


class BinOp(_Node):
    __slots__ = ("op", "left", "right", "point")

    def __init__(self, op: str, left: Expr, right: Expr, point: int = -1):
        self.op = op           # one of + - * /
        self.left = left
        self.right = right
        self.point = point


class Neg(_Node):
    __slots__ = ("operand", "point")

    def __init__(self, operand: Expr, point: int = -1):
        self.operand = operand
        self.point = point


class Sqrt(_Node):
    __slots__ = ("arg", "point")

    def __init__(self, arg: Expr, point: int = -1):
        self.arg = arg
        self.point = point


Expr = Union[Num, Var, BinOp, Neg, Sqrt]


class Compare(_Node):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op           # one of < <= > >= == !=
        self.left = left
        self.right = right


class Assign(_Node):
    __slots__ = ("name", "expr", "point")

    def __init__(self, name: str, expr: Expr, point: int = -1):
        self.name = name
        self.expr = expr
        self.point = point     # the write


class While(_Node):
    __slots__ = ("cond", "body", "body_points")

    def __init__(self, cond: Compare, body: list[Stmt],
                 body_points: range = range(0)):
        self.cond = cond
        self.body = body
        self.body_points = body_points   # the body's points, nested ones included


class If(_Node):
    __slots__ = ("cond", "then_body", "else_body")

    def __init__(self, cond: Compare, then_body: list[Stmt],
                 else_body: list[Stmt]):
        self.cond = cond
        self.then_body = then_body
        self.else_body = else_body


class Require(_Node):
    __slots__ = ("name", "bits", "point")

    def __init__(self, name: str, bits: int, point: int = -1):
        self.name = name
        self.bits = bits
        self.point = point     # the read being constrained


Stmt = Union[Assign, While, If, Require]

# The node kinds that carry a variable name.
_NAMED = frozenset((Var, Assign, Require))


class Program:
    __slots__ = ("stmts", "points", "inputs", "links", "_slots")

    def __init__(self, stmts: list[Stmt], points: list[object]):
        self.stmts = stmts
        self.points = points   # point id -> owning node
        # The free inputs, bound before the first statement, and the
        # flow.DefUseLinks by use then def point: parse_program sets both.
        self.inputs: tuple[str, ...] = ()
        self.links: list = []
        self._slots: dict[str, int] | None = None

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def slots(self) -> dict[str, int]:
        """Each variable name's slot, 0 up, in the order of the first
        point that reads, assigns or requires it.  Numbered on first use
        and kept: the passes index their environments by it."""
        if self._slots is None:
            slots: dict[str, int] = {}
            for node in self.points:
                if type(node) in _NAMED and node.name not in slots:
                    slots[node.name] = len(slots)
            self._slots = slots
        return self._slots


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
