"""Reaching definitions and def-use links, by one walk over the tree.

check_defined_before_use() is the one def-use pass: parse_program runs
it once per Program and stores its two results there, the free inputs
as prog.inputs and the links as prog.links.  Every later stage reads
prog.links; nothing recomputes them.

The walk visits the statements in source order, which is control-point
order, and carries one map that sends each variable to the sorted tuple
of definition points that reach the statement at hand.  An assignment
replaces its own variable's entry in place.  The map is copied only
where the path forks: an if statement walks its else branch on a copy
and merges it back after both branches, and a loop body runs on a copy
of the loop head's map.  So no two paths ever share a map, and a read
looks its variable up at the moment it is visited: changing the map in
place cannot alter what an earlier read saw.

A loop head is reached from before the loop and, round the back edge,
from the end of the body.  Reaching definitions are a gen/kill problem,
so the body sends any map it is entered with to what it defines when
entered with an empty map, plus those entries of the entry map that
some path through the body leaves alone.  The head's map, the least
solution of that equation, is therefore the map from before the loop
merged with the body's own summary: one walk of the body from an empty
map, which checks no reads.  That map reaches the condition, the body
and the statement after the loop.

A def-use link connects every definition that reaches a read to that
read.  Links where the definition's control point is numbered after the
read are back edges (they only arise through loops).  A link is
additionally marked when its read sits in the condition of a while loop
whose body contains the definition; such links close the loop's own
progress chain and are the one kind of back edge that precision
constraints propagate through.
"""

from __future__ import annotations

from typing import NamedTuple

from .program import (
    Assign, Compare, If, Program, Require, Stmt, Var, While, expr_reads, shown,
)


# Definition point of a program input, bound before the first statement.
_ENTRY = -1


class FlowError(ValueError):
    """A variable is read on every path before any definition."""


class DefUseLink(NamedTuple):
    def_point: int
    use_point: int
    var: str
    back_edge: bool
    loop_cond_use: bool


def _merge(into: dict, other: dict) -> None:
    """Add other's reaching definitions to into, in place."""
    for var, defs in other.items():
        have = into.get(var)
        if have is None:
            into[var] = defs
        elif have != defs:
            into[var] = tuple(sorted({*have, *defs}))


def _cond_reads(c: Compare) -> list[Var]:
    return expr_reads(c.left) + expr_reads(c.right)


def _walk(stmts: list[Stmt], reach: dict, check: bool, read) -> dict:
    """Carry reach through stmts, in place, and return it; reads are
    checked and passed to read(reach, var, use_pt, loop) only when check
    is set.  A module function rather than a closure that calls itself,
    so the walk leaves no reference cycle holding read and its links:
    reference counting frees them, which lets cli.main pause the cyclic
    collector (test_cli.py's TestNoReferenceCycles keeps that safe)."""
    for st in stmts:
        if isinstance(st, Assign):
            if check:
                for v in expr_reads(st.expr):
                    read(reach, v.name, v.point)
            reach[st.name] = (st.point,)
        elif isinstance(st, Require):
            if check:
                read(reach, st.name, st.point)
        elif isinstance(st, While):
            _merge(reach, _walk(st.body, {}, False, read))
            if check:
                for v in _cond_reads(st.cond):
                    read(reach, v.name, v.point, st)
                _walk(st.body, dict(reach), True, read)
        elif isinstance(st, If):
            if check:
                for v in _cond_reads(st.cond):
                    read(reach, v.name, v.point)
            other = dict(reach)
            _walk(st.then_body, reach, check, read)
            _merge(reach, _walk(st.else_body, other, check, read))
        else:
            raise TypeError(f"unexpected statement {st!r}")
    return reach


def check_defined_before_use(prog: Program, predefined=()):
    """Run the def-use analysis; raise FlowError if some read has no
    reaching definition at all.

    Names in predefined count as defined at entry (program inputs bound
    externally at run time).  Returns (inputs, links): those predefined
    names that some read can see before any assignment (the program's
    free inputs, sorted), and every def-use link ordered by use point,
    then def point.  Entry definitions of inputs make no links.
    """
    free: set[str] = set()
    links: list[DefUseLink] = []

    def read(reach: dict, var: str, use_pt: int, loop: While | None = None):
        defs = reach.get(var)
        if defs is None:
            raise FlowError(f"variable {shown(var)} is read (control point "
                            f"{use_pt}) before any definition")
        if defs[0] == _ENTRY:
            free.add(var)
            defs = defs[1:]
        body = loop.body_points if loop is not None else ()
        for d in defs:
            links.append(DefUseLink(d, use_pt, var, d > use_pt, d in body))

    # Reads are visited in control-point order, and each read's
    # definitions are sorted, so the links come out sorted.
    _walk(prog.stmts, dict.fromkeys(predefined, (_ENTRY,)), True, read)
    return tuple(sorted(free)), links
