"""Precision-demand constraint systems over program control points.

Two systems share one generator walk.  The plain system (C1) has one
integer variable nsb(p) per control point plus a carry variable xi(r)
per binary-operation result, bounded below by 1: every operation may
feed one carry bit into its operands' demands.  The refined system (C2)
adds error-width variables nsbe(p) tracking how many bits of the
accumulated error are significant, and replaces the constant carry at
additions and subtractions with a definition

    xi(r) = min(max(ufp(b) - ufp(a) + nsb(a) + nsbe(a), 0),
                max(ufp(a) - ufp(b) + nsb(b) + nsbe(b), 0), 1)

which is 0 exactly when one operand's error tail lies entirely below
the other operand's first bit, so no carry can cross.  Multiplications
and divisions keep the constant carry bound in both systems.

All ufp constants come from a recorded range map; a point whose
observed values were all zero uses the sentinel ufp and is reported.
Zero is read from the map's missing top, not from the ufp, since a
nonzero value can have the sentinel's ufp.
Demands flow backward (operand width >= result width plus an alignment
constant), error widths flow forward.  Each comparison operand is
demanded COND_NSB bits, or the system's pmax where that is lower.

The generator reads the def-use links from prog.links.  A system is
stored as the solver reads it: variables numbered as the generator
first uses them (nsb(p) is index p for each of the program's
system.points points, then nsbe and xi in order of appearance, left
side before terms) and rows as Rows' parallel index lists, which the
generator appends to.  The objective is the sum of the nsb widths, the
first system.points variables.  A solution is a list of ints in the same
numbering; satisfied_by checks one against the rows and the carry
definitions.  system.constraints is a read-only view that builds a
LinearConstraint per row read.  Variables are named tuples, one per
index in system.variables, which names every variable a row or a
definition reads by index.

A refined system keeps each carry definition once, in that numbering:
xi_defs holds (xi, (const, terms), (const, terms)) per definition, the
carry's index and the two arguments of its min.  carry_rows lists each
row that reads a defined carry, with its terms without the carry (each
variable once, never the left one), so that the solver patches only the
rows a carry policy changes.  Every other row of a system with carry
definitions has a left variable and no negative term.
with_requirement's copies share both lists, which hold no constant that
a requirement changes.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .interp import UfpMap
from .mpfloat import DEFAULT_PRECISION
from .program import (
    Assign, BinOp, Compare, Expr, If, Neg, Num, Program, Require, Sqrt, Stmt,
    Var, While,
)

# Read when a system is generated, not when the module is imported.
COND_NSB = 53


class GenError(ValueError):
    """Constraint generation cannot proceed (e.g. requirement on dead code)."""


class IntVar(NamedTuple):
    kind: str                   # nsb | nsbe | xi
    point: int
    operands: tuple[int, int] | None = None    # xi only: the two operand points

    @property
    def name(self) -> str:
        return f"{self.kind}_{self.point}"

    def __str__(self) -> str:
        if self.kind == "xi" and self.operands is not None:
            return f"xi_{self.point}({self.operands[0]},{self.operands[1]})"
        return self.name


def nsb(point: int) -> IntVar:
    return IntVar("nsb", point)


def nsbe(point: int) -> IntVar:
    return IntVar("nsbe", point)


def xi(point: int, a: int, b: int) -> IntVar:
    return IntVar("xi", point, (a, b))


class LinExpr(NamedTuple):
    """const + sum of coef * var."""

    const: int
    terms: tuple[tuple[int, IntVar], ...] = ()

    def __str__(self) -> str:
        parts = []
        for c, v in self.terms:
            if c == 1:
                parts.append(f"+ {v}")
            elif c == -1:
                parts.append(f"- {v}")
            else:
                parts.append(f"{'+' if c > 0 else '-'} {abs(c)}*{v}")
        if self.const or not parts:
            parts.append(f"{'+' if self.const >= 0 else '-'} {abs(self.const)}")
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else text


class LinearConstraint(NamedTuple):
    """lhs >= rhs, with lhs a single variable (None means the constant 0)."""

    lhs: IntVar | None
    rhs: LinExpr
    origin: str                 # operand | carry | copy | link | require | cond | seed | error
    site: int                   # control point the row is attributed to

    def __str__(self) -> str:
        left = str(self.lhs) if self.lhs is not None else "0"
        return f"{left} >= {self.rhs}"


class Rows:
    """Rows as parallel lists: left variable index (-1 for the constant
    0), constant, ((coef, index), ...) terms, origin and site."""

    __slots__ = ("lhs", "const", "terms", "origin", "site")

    def __init__(self, lhs: list[int], const: list[int],
                 terms: list[tuple[tuple[int, int], ...]], origin: list[str],
                 site: list[int]):
        self.lhs = lhs
        self.const = const
        self.terms = terms
        self.origin = origin
        self.site = site

    def append(self, lhs: int, const: int, terms, origin, site) -> None:
        self.lhs.append(lhs)
        self.const.append(const)
        self.terms.append(terms)
        self.origin.append(origin)
        self.site.append(site)


class _RowView(Sequence):
    """A system's rows as LinearConstraints, each built when read."""

    def __init__(self, system: ConstraintSystem):
        self._system = system

    def __len__(self) -> int:
        return len(self._system.rows.lhs)

    def __getitem__(self, r: int) -> LinearConstraint:
        rows, vs = self._system.rows, self._system.variables
        left = rows.lhs[r]
        return LinearConstraint(
            vs[left] if left >= 0 else None,
            LinExpr(rows.const[r], tuple((c, vs[i]) for c, i in rows.terms[r])),
            rows.origin[r], rows.site[r])


class ConstraintSystem:
    __slots__ = ("pmax", "points", "variables", "rows", "xi_defs",
                 "carry_rows", "skipped_points", "zero_ufp_points")

    def __init__(self, pmax: int, points: int, variables: list[IntVar],
                 rows: Rows | None = None):
        self.pmax = pmax
        self.points = points    # nsb(p) is variable p for p < points
        self.variables = variables
        self.rows = Rows([], [], [], [], []) if rows is None else rows
        # Per carry definition, (xi, (const, terms), (const, terms)) by
        # variable index: xi = min(max(arg1, 0), max(arg2, 0), 1).  Per
        # row that reads a defined carry, in row order, (row, xi_defs
        # position, its terms without the carry).
        self.xi_defs: list[tuple] = []
        self.carry_rows: list[tuple] = []
        self.skipped_points: list[int] = []
        self.zero_ufp_points: list[int] = []

    @property
    def constraints(self) -> _RowView:
        return _RowView(self)

    def satisfied_by(self, values: list[int]) -> bool:
        """Every row holds and every carry equals its definition, at
        values in the system's numbering."""
        rows = self.rows
        for left, k, terms in zip(rows.lhs, rows.const, rows.terms):
            for c, i in terms:
                k += c * values[i]
            if (values[left] if left >= 0 else 0) < k:
                return False

        def arg(const: int, terms) -> int:
            return max(const + sum(c * values[i] for c, i in terms), 0)

        return all(values[x] == min(arg(*arg1), arg(*arg2), 1)
                   for x, arg1, arg2 in self.xi_defs)


def with_requirement(system: ConstraintSystem, bits: int) -> ConstraintSystem:
    """A copy of system with bits as the constant of every require row.

    Only the constants list is new; the copy shares everything else with
    system, so it is what generation would build from the program with
    each require_nsb set to bits, and neither may be extended after."""
    rows = system.rows
    const = [bits if o == "require" else k
             for o, k in zip(rows.origin, rows.const)]
    copy = ConstraintSystem(system.pmax, system.points, system.variables,
                            Rows(rows.lhs, const, rows.terms, rows.origin,
                                 rows.site))
    copy.xi_defs, copy.carry_rows = system.xi_defs, system.carry_rows
    copy.skipped_points = system.skipped_points
    copy.zero_ufp_points = system.zero_ufp_points
    return copy


def system_stats(system: ConstraintSystem) -> dict[str, int]:
    return {"num_vars": len(system.variables),
            "num_constraints": len(system.rows.lhs)}


class _Generator:
    def __init__(self, prog: Program, ranges: UfpMap, refined: bool,
                 pmax: int):
        self.prog = prog
        self.ranges = ranges
        self.refined = refined
        self.cond_nsb = min(COND_NSB, pmax)
        self.system = ConstraintSystem(
            pmax, prog.n_points, [nsb(p) for p in range(prog.n_points)])
        self.variables = self.system.variables
        self.row = self.system.rows.append
        self.zero_points: set[int] = set()
        self.error = [-1] * prog.n_points       # nsbe(p)'s index, once used

    def e(self, point: int) -> int:
        """The index of nsbe(point), numbered on first use."""
        i = self.error[point]
        if i < 0:
            i = self.error[point] = len(self.variables)
            self.variables.append(nsbe(point))
        return i

    def ufp(self, point: int) -> int:
        if self.ranges.top[point] is None:
            self.zero_points.add(point)
        return self.ranges.ufp(point)

    def visited(self, point: int) -> bool:
        return self.ranges.visited(point)

    def is_zero(self, point: int) -> bool:
        """The point held zero on every recorded visit, so its stored
        value is exact at any width and it contributes no error terms."""
        return self.ranges.visited(point) and self.ranges.top[point] is None

    def run(self) -> ConstraintSystem:
        sys = self.system
        self.stmts(self.prog.stmts)
        self.emit_links()
        sys.skipped_points = sorted(p for p in range(self.prog.n_points)
                                    if not self.visited(p))
        sys.zero_ufp_points = sorted(self.zero_points)
        return sys

    def stmts(self, body: list[Stmt]) -> None:
        for st in body:
            if isinstance(st, Assign):
                self.expr(st.expr)
                if self.visited(st.point):
                    self.copy_like(st.expr.point, st.point)
            elif isinstance(st, While):
                self.cond(st.cond)
                self.stmts(st.body)
            elif isinstance(st, If):
                self.cond(st.cond)
                self.stmts(st.then_body)
                self.stmts(st.else_body)
            elif isinstance(st, Require):
                if not self.visited(st.point):
                    raise GenError(
                        f"require_nsb({st.name}, {st.bits}) at control point "
                        f"{st.point} has no range information: the statement "
                        f"was never executed")
                self.row(st.point, st.bits, (), "require", st.point)
            else:
                raise TypeError(f"unexpected statement {st!r}")

    def cond(self, c: Compare) -> None:
        self.expr(c.left)
        self.expr(c.right)
        for side in (c.left, c.right):
            if self.visited(side.point):
                self.row(side.point, self.cond_nsb, (), "cond", side.point)

    def expr(self, e: Expr) -> None:
        if isinstance(e, Num):
            # One bit of representation error per literal, except a zero
            # literal, which every width stores exactly.
            if self.refined and self.visited(e.point) and not self.is_zero(e.point):
                self.row(self.e(e.point), 1, (), "seed", e.point)
        elif isinstance(e, Var):
            pass                                    # handled via def-use links
        elif isinstance(e, Neg):
            self.expr(e.operand)
            if self.visited(e.point):
                self.copy_like(e.operand.point, e.point)
        elif isinstance(e, Sqrt):
            self.expr(e.arg)
            if self.visited(e.point):
                r, a = e.point, e.arg.point
                if not self.is_zero(a):
                    k = self.ufp(a) - 2 * self.ufp(r) - 2
                    self.row(a, k, ((1, r),), "operand", r)
                if self.refined:
                    self.row(self.e(r), 0, ((1, self.e(a)),), "operand", r)
        elif isinstance(e, BinOp):
            self.expr(e.left)
            self.expr(e.right)
            if self.visited(e.point):
                self.binop(e)
        else:
            raise TypeError(f"unexpected expression node {e!r}")

    def copy_like(self, src: int, dst: int) -> None:
        self.row(src, 0, ((1, dst),), "copy", dst)
        if self.refined:
            self.row(self.e(dst), 0, ((1, self.e(src)),), "copy", dst)

    def carry_row(self, x: int, left: int, const: int, plain: tuple,
                  site: int) -> None:
        """An operand row that reads the carry x being defined at site:
        plain plus x.  plain names each variable once, never left."""
        sys = self.system
        sys.carry_rows.append((len(sys.rows.lhs), len(sys.xi_defs), plain))
        self.row(left, const, plain + ((1, x),), "operand", site)

    def binop(self, e: BinOp) -> None:
        row = self.row
        r, a, b = e.point, e.left.point, e.right.point
        ua, ub, ur = self.ufp(a), self.ufp(b), self.ufp(r)
        x = len(self.variables)
        self.variables.append(xi(r, a, b))
        if e.op in ("+", "-"):
            ka, kb = ua - ur, ub - ur
        elif e.op == "*":
            ka = kb = ua + ub - ur
        else:                                       # division a / b
            ka = kb = ua - ub - ur
        if self.refined and e.op in ("+", "-"):
            er, ea, eb = self.e(r), self.e(a), self.e(b)
            self.carry_row(x, a, ka, ((1, r),), r)
            self.carry_row(x, b, kb, ((1, r),), r)
            row(er, 0, ((1, ea),), "operand", r)
            row(er, 0, ((1, eb),), "operand", r)
            # Each cross row spans one operand's error top down to the
            # other's error floor.  An always-zero operand is exact, so
            # no error floor anchors to it; emitting the row anyway would
            # turn the zero sentinel into a huge positive constant.
            if not self.is_zero(b):
                self.carry_row(x, er, ua - ub, ((1, b), (-1, a), (1, eb)), r)
            if not self.is_zero(a):
                self.carry_row(x, er, ub - ua, ((1, a), (-1, b), (1, ea)), r)
            self.system.xi_defs.append((x, (ub - ua, ((1, a), (1, ea))),
                                        (ua - ub, ((1, b), (1, eb)))))
            return
        row(a, ka, ((1, r), (1, x)), "operand", r)
        row(b, kb, ((1, r), (1, x)), "operand", r)
        row(x, 1, (), "carry", r)
        if not self.refined:
            return
        er, ea, eb = self.e(r), self.e(a), self.e(b)
        row(er, -2, ((1, a), (1, ea), (1, eb)), "operand", r)
        row(er, -2, ((1, b), (1, eb), (1, ea)), "operand", r)

    def emit_links(self) -> None:
        links = self.prog.links
        carried = {l.def_point for l in links if l.back_edge}
        for link in links:
            d, u = link.def_point, link.use_point
            if not (self.visited(d) and self.visited(u)):
                continue
            if link.back_edge and not link.loop_cond_use:
                # A body-internal back edge: the pre-loop definition's link
                # already carries the first iteration's demand, and later
                # iterations' demands are the same static constraint.
                continue
            # A definition that stays live across the loop's back edge
            # (an accumulator) re-rounds its own previous value every
            # iteration, so after V visits it carries up to V compounded
            # roundings: keep ceil(log2 V) guard bits beyond what each
            # use needs.  This is what skews loop widths upward so the
            # requirement holds at any iteration, not just the first.
            # A temporary rewritten from scratch each iteration carries
            # a single rounding and needs no guard.
            margin = (self.ranges.visits(d) - 1).bit_length() if d in carried else 0
            self.row(d, margin, ((1, u),), "link", u)
            if self.refined and not link.back_edge:
                self.row(self.e(u), 0, ((1, self.e(d)),), "link", u)


def gen_ilp(prog: Program, ranges: UfpMap,
            pmax: int = DEFAULT_PRECISION) -> ConstraintSystem:
    """The plain system C1: constant carry bit at every binary operation."""
    return _Generator(prog, ranges, False, pmax).run()


def gen_refined(prog: Program, ranges: UfpMap,
                pmax: int = DEFAULT_PRECISION) -> ConstraintSystem:
    """The refined system C2: carry bits at additions become min-definitions."""
    return _Generator(prog, ranges, True, pmax).run()
