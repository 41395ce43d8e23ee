"""Reaching definitions and def-use links over the statement-level CFG.

Each assignment, requirement, and condition occurrence is one flow node.
Reaching definitions are computed with a standard worklist iteration; a
def-use link connects every definition that reaches a read to that read.
Links where the definition's control point is numbered after the read are
back edges (they only arise through loops).  A link is additionally marked
when its read sits in the condition of a while loop whose body contains
the definition; such links close the loop's own progress chain and are
the one kind of back edge that precision constraints propagate through.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .program import (
    Assign, Compare, Expr, If, Program, Require, Stmt, While, expr_reads,
)


# Definition point of a program input, bound before the first statement.
_ENTRY = -1


class FlowError(ValueError):
    """A variable is read on every path before any definition."""


@dataclass
class DefUseLink:
    def_point: int
    use_point: int
    var: str
    back_edge: bool
    loop_cond_use: bool


@dataclass
class _FlowNode:
    reads: list[tuple[str, int]]          # (var, read point)
    define: tuple[str, int] | None        # (var, def point)
    while_sid: int | None = None
    succs: list[int] = field(default_factory=list)


def _expr_read_pairs(e: Expr) -> list[tuple[str, int]]:
    return [(v.name, v.point) for v in expr_reads(e)]


def _cond_read_pairs(c: Compare) -> list[tuple[str, int]]:
    return _expr_read_pairs(c.left) + _expr_read_pairs(c.right)


def _build_cfg(stmts: list[Stmt]) -> list[_FlowNode]:
    nodes: list[_FlowNode] = []

    def new_node(reads, define, while_sid=None) -> int:
        nodes.append(_FlowNode(reads, define, while_sid))
        return len(nodes) - 1

    def link(preds: list[int], target: int) -> None:
        for p in preds:
            if target not in nodes[p].succs:
                nodes[p].succs.append(target)

    def seq(body: list[Stmt], preds: list[int]) -> list[int]:
        for st in body:
            if isinstance(st, Assign):
                i = new_node(_expr_read_pairs(st.expr), (st.name, st.point))
                link(preds, i)
                preds = [i]
            elif isinstance(st, Require):
                i = new_node([(st.name, st.point)], None)
                link(preds, i)
                preds = [i]
            elif isinstance(st, While):
                c = new_node(_cond_read_pairs(st.cond), None, while_sid=st.sid)
                link(preds, c)
                body_exits = seq(st.body, [c])
                link(body_exits, c)
                preds = [c]
            elif isinstance(st, If):
                c = new_node(_cond_read_pairs(st.cond), None)
                link(preds, c)
                t_exits = seq(st.then_body, [c])
                e_exits = seq(st.else_body, [c])
                merged = []
                for x in t_exits + e_exits:
                    if x not in merged:
                        merged.append(x)
                preds = merged
            else:
                raise TypeError(f"unexpected statement {st!r}")
        return preds

    seq(stmts, [])
    return nodes


def _reaching(nodes: list[_FlowNode],
              entry: frozenset = frozenset()) -> list[set[tuple[str, int]]]:
    """In-sets of reaching (var, def point) pairs; entry reaches node 0."""
    preds: list[list[int]] = [[] for _ in nodes]
    for i, n in enumerate(nodes):
        for s in n.succs:
            preds[s].append(i)
    ins: list[set] = [set() for _ in nodes]
    outs: list[set] = [set() for _ in nodes]
    work = deque(range(len(nodes)))
    queued = [True] * len(nodes)
    while work:
        i = work.popleft()
        queued[i] = False
        inset: set = set(entry) if i == 0 else set()
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


def build_links(prog: Program) -> list[DefUseLink]:
    """All def-use links, ordered by use point then def point."""
    nodes = _build_cfg(prog.stmts)
    ins = _reaching(nodes)
    links: list[DefUseLink] = []
    for i, n in enumerate(nodes):
        for var, use_pt in n.reads:
            defs = sorted(d for (v, d) in ins[i] if v == var)
            for d in defs:
                in_cond = (n.while_sid is not None
                           and n.while_sid in prog.scopes[d])
                links.append(DefUseLink(d, use_pt, var, d > use_pt, in_cond))
    links.sort(key=lambda l: (l.use_point, l.def_point))
    return links


def check_defined_before_use(prog: Program, predefined=()) -> tuple[str, ...]:
    """Raise FlowError if some read has no reaching definition at all.

    Names in predefined count as defined at entry (program inputs bound
    externally at run time).  Returns those of them that some read can
    see before any assignment: the program's free inputs, sorted.
    """
    bound = set(predefined)
    nodes = _build_cfg(prog.stmts)
    ins = _reaching(nodes, frozenset((var, _ENTRY) for var in bound))
    free: set[str] = set()
    for i, n in enumerate(nodes):
        for var, use_pt in n.reads:
            if var in bound:
                if (var, _ENTRY) in ins[i]:
                    free.add(var)
            elif not any(v == var for (v, _) in ins[i]):
                raise FlowError(
                    f"variable {var!r} is read (control point {use_pt}) "
                    f"before any definition")
    return tuple(sorted(free))
