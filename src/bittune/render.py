"""Source rendering with |nsb| width annotations.

The annotated form suffixes every literal, variable occurrence, and
operator with the solved width, e.g. ``distance|44| = sqrt(dx|46| *|46|
dx|46| ...)|44|;``.  Loop/branch conditions and require_nsb statements
are left bare.  Stripping the annotations yields text that re-parses to
an identical AST with identical control-point numbering, which is what
makes the annotated file a faithful exchange format.
"""

from __future__ import annotations

from .program import (
    Assign, BinOp, Compare, Expr, If, Neg, Num, Program, Require, Sqrt, Stmt,
    Var, While,
)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _tag(widths, point: int) -> str:
    return "" if widths is None else f"|{widths[point]}|"


def _render_expr(e: Expr, widths, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(e, Num):
        return e.text + _tag(widths, e.point)
    if isinstance(e, Var):
        return e.name + _tag(widths, e.point)
    if isinstance(e, Sqrt):
        return f"sqrt({_render_expr(e.arg, widths)}){_tag(widths, e.point)}"
    if isinstance(e, Neg):
        inner = _render_expr(e.operand, widths)
        if isinstance(e.operand, (BinOp, Neg)) or inner.startswith("-"):
            inner = f"({inner})"
        return f"-{_tag(widths, e.point)}{inner}"
    if isinstance(e, BinOp):
        prec = _PREC[e.op]
        left = _render_expr(e.left, widths, prec, False)
        right = _render_expr(e.right, widths, prec, True)
        text = f"{left} {e.op}{_tag(widths, e.point)} {right}"
        # Parenthesize whenever re-parsing could regroup: lower precedence
        # always, equal precedence when this node sits on a right side.
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    raise TypeError(f"unexpected expression node {e!r}")


def _render_cond(c: Compare) -> str:
    return f"{_render_expr(c.left, None)} {c.op} {_render_expr(c.right, None)}"


def _render_stmts(stmts: list[Stmt], widths, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    for st in stmts:
        if isinstance(st, Assign):
            name = st.name + _tag(widths, st.point)
            out.append(f"{pad}{name} = {_render_expr(st.expr, widths)};")
        elif isinstance(st, While):
            out.append(f"{pad}while ({_render_cond(st.cond)}) {{")
            _render_stmts(st.body, widths, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(st, If):
            out.append(f"{pad}if ({_render_cond(st.cond)}) {{")
            _render_stmts(st.then_body, widths, indent + 1, out)
            if st.else_body:
                out.append(f"{pad}}} else {{")
                _render_stmts(st.else_body, widths, indent + 1, out)
            out.append(f"{pad}}}")
        elif isinstance(st, Require):
            out.append(f"{pad}require_nsb({st.name}, {st.bits});")
        else:
            raise TypeError(f"unexpected statement {st!r}")


def emit_annotated(prog: Program, widths: dict[int, int] | None) -> str:
    """Render source with |nsb| suffixes from widths, which holds one
    for every point; with widths None, the bare source."""
    out: list[str] = []
    _render_stmts(prog.stmts, widths, 0, out)
    return "\n".join(out) + "\n"
