"""CPLEX-LP text export for constraint systems.

The export lets any external ILP solver cross-check the built-in ones:
variables keep their deterministic nsb_p / nsbe_p / xi_p names, every
row is rewritten as ``lhs - rhs-terms >= constant``, and all variables
are declared integer over [0, pmax].  The objective is the sum of the
nsb widths, the first system.points variables.  Rows are written under
the always-carry policy (solver.always_carry_rows), which sets every
defined carry to 1, so a defined carry is neither read nor declared.
"""

from __future__ import annotations

from .constraints import ConstraintSystem
from .solver import always_carry_rows


def _wrap(parts: list[str], head: str, limit: int = 72) -> list[str]:
    lines = []
    cur = head
    for p in parts:
        if len(cur) + len(p) + 1 > limit and cur != head:
            lines.append(cur)
            cur = "   "
        cur += " " + p
    lines.append(cur)
    return lines


def export_lp(system: ConstraintSystem) -> str:
    """Render the system, every defined carry at 1, as LP text."""
    names = [v.name for v in system.variables]
    out: list[str] = ["\\ precision-demand constraint system"]
    out.append("Minimize")
    obj_parts = [("+ " if i else "") + name
                 for i, name in enumerate(names[:system.points])]
    out += _wrap(obj_parts, " obj:")

    out.append("Subject To")
    lhs, const, terms = always_carry_rows(system)
    for i, left in enumerate(lhs):
        coeffs: dict[int, int] = {}
        if left >= 0:
            coeffs[left] = 1
        for coef, v in terms[i]:
            coeffs[v] = coeffs.get(v, 0) - coef
        parts = []
        for v, k in coeffs.items():
            if k == 0:
                continue
            sign = "+" if k > 0 else "-"
            mag = "" if abs(k) == 1 else f"{abs(k)} "
            parts.append(f"{sign} {mag}{names[v]}")
        if not parts:
            # Degenerate row with no variables left: keep it as a comment so
            # row numbering in the file matches the system.
            out.append(f" \\ c{i}: 0 >= {const[i]}")
            continue
        parts.append(f">= {const[i]}")
        out += _wrap(parts, f" c{i}:")

    defined = {x for x, _, _ in system.xi_defs}
    declared = [name for i, name in enumerate(names) if i not in defined]
    out.append("Bounds")
    for name in declared:
        out.append(f" 0 <= {name} <= {system.pmax}")
    out.append("General")
    out += _wrap(declared, " ")
    out.append("End")
    return "\n".join(out) + "\n"
