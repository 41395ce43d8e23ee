"""Reaching definitions and def-use links over the statement-level CFG.

Each assignment, requirement, and condition occurrence is one flow node.
check_defined_before_use() is the one def-use pass: parse_program runs
it once per Program and stores its two results there, the free inputs
as prog.inputs and the links as prog.links.  Every later stage reads
prog.links; nothing recomputes them.

Reaching definitions are computed by a worklist iteration over maps
keyed by variable: a node's in-map sends each variable to the sorted
tuple of definition points that reach the node.  A node that defines
nothing passes its in-map on unchanged (the same object); a defining
node copies it and replaces its own variable's entry; a join merges only
the entries that differ between its predecessors.  A read looks up its
own variable.

A def-use link connects every definition that reaches a read to that
read.  Links where the definition's control point is numbered after the
read are back edges (they only arise through loops).  A link is
additionally marked when its read sits in the condition of a while loop
whose body contains the definition; such links close the loop's own
progress chain and are the one kind of back edge that precision
constraints propagate through.
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
    """Flow nodes in source order, which is also control-point order."""
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


def _join(maps: list[dict]) -> dict:
    """Union of reaching-definition maps; the first map itself when the
    others add nothing to it."""
    out = base = maps[0]
    for m in maps[1:]:
        if m is base:
            continue
        for var, defs in m.items():
            have = out.get(var)
            if have is defs or have == defs:
                continue
            if out is base:
                out = dict(base)
            out[var] = defs if have is None else tuple(sorted({*have, *defs}))
    return out


def _reaching(nodes: list[_FlowNode], entry: dict) -> list[dict]:
    """In-maps var -> sorted tuple of reaching def points; entry reaches
    node 0.  In-maps are shared between nodes and must not be mutated."""
    preds: list[list[int]] = [[] for _ in nodes]
    for i, n in enumerate(nodes):
        for s in n.succs:
            preds[s].append(i)
    ins: list[dict | None] = [None] * len(nodes)
    outs: list[dict | None] = [None] * len(nodes)   # None: not yet visited
    work = deque(range(len(nodes)))
    queued = [True] * len(nodes)
    while work:
        i = work.popleft()
        queued[i] = False
        # The first visits go in index order, so a node always has a
        # visited predecessor, or the entry for node 0.
        maps = [outs[p] for p in preds[i] if outs[p] is not None]
        if i == 0:
            maps.append(entry)
        new_in = _join(maps)
        old_in = ins[i]
        if new_in is old_in:
            continue
        if old_in is not None and new_in == old_in:
            # A join rebuilt the same map: keep the old object, so that
            # nodes after this one see no change.
            continue
        ins[i] = new_in
        define = nodes[i].define
        if define is None:
            outs[i] = new_in
        else:
            var, pt = define
            out = dict(new_in)
            out[var] = (pt,)
            outs[i] = out
        for s in nodes[i].succs:
            if not queued[s]:
                work.append(s)
                queued[s] = True
    return ins


def check_defined_before_use(prog: Program, predefined=()):
    """Run the def-use analysis; raise FlowError if some read has no
    reaching definition at all.

    Names in predefined count as defined at entry (program inputs bound
    externally at run time).  Returns (inputs, links): those predefined
    names that some read can see before any assignment (the program's
    free inputs, sorted), and every def-use link ordered by use point,
    then def point.  Entry definitions of inputs make no links.
    """
    bound = set(predefined)
    nodes = _build_cfg(prog.stmts)
    ins = _reaching(nodes, dict.fromkeys(bound, (_ENTRY,)))
    scopes = prog.scopes
    free: set[str] = set()
    links: list[DefUseLink] = []
    # Nodes are in control-point order, and so are the reads of a node,
    # so the links come out sorted by use point.
    for n, inmap in zip(nodes, ins):
        for var, use_pt in n.reads:
            defs = inmap.get(var)
            if not defs:
                if var in bound:
                    continue
                raise FlowError(
                    f"variable {var!r} is read (control point {use_pt}) "
                    f"before any definition")
            if defs[0] == _ENTRY:
                free.add(var)
                defs = defs[1:]
            sid = n.while_sid
            for d in defs:
                links.append(DefUseLink(d, use_pt, var, d > use_pt,
                                        sid is not None and sid in scopes[d]))
    return tuple(sorted(free)), links
