"""Minimal integer solutions for precision-demand systems.

Three layers.  solve_monotone computes the componentwise-least solution
of a system whose right-hand sides use only +1 coefficients (the plain
system's shape) by Kleene/worklist iteration; the least point minimizes
the bit-sum outright.  solve_ilp minimizes the bit-sum for systems that
also carry negative coefficients (the refined system under a fixed
carry policy) with depth-first branch and bound: the node relaxation
freezes every negatively-occurring variable at its box upper bound,
which restores monotonicity and yields an exact integer lower bound,
and a repair pass that re-raises variables against the true rows turns
the relaxed point into a feasible incumbent.  policy_iterate drives the
min-selections of the refined system's carry definitions, starting from
the always-carry policy and switching any definition whose selected
argument is not minimal at the current solution; each switch keeps the
incumbent feasible, so the bit-sum never increases.

Everything is exact integer arithmetic; optimality is certified either
by monotonicity or by exhausting the branch tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import (
    ConstraintSystem, IntVar, LinExpr, LinearConstraint, XiDef,
)

DEFAULT_NODE_LIMIT = 200_000
DEFAULT_PI_CAP = 100


_SHOWN_ROWS = 10


class SolverError(RuntimeError):
    pass


@dataclass
class NsbAssignment:
    values: dict[IntVar, int]
    total: int                       # objective value, the sum of nsb widths
    subtotals: dict[str, int] = field(default_factory=dict)
    optimal: bool = True
    converged: bool = True
    nodes: int = 0

    def __getitem__(self, var: IntVar) -> int:
        return self.values[var]

    def widths(self) -> dict[int, int]:
        """Control point -> nsb width, for execution and rendering."""
        return {v.point: n for v, n in self.values.items() if v.kind == "nsb"}


@dataclass
class Policy:
    """Selected argument (1, 2, or 3 = the constant 1) per carry definition."""

    selections: dict[XiDef, int]

    @classmethod
    def const_one(cls, system: ConstraintSystem) -> "Policy":
        return cls({d: 3 for d in system.xi_defs})

    def __getitem__(self, d: XiDef) -> int:
        return self.selections[d]


def _finish(system: ConstraintSystem, values: dict[IntVar, int],
            optimal: bool = True, nodes: int = 0) -> NsbAssignment:
    """Fill carry values from their definitions, verify, and package."""
    for d in system.xi_defs:
        values[d.var] = d.evaluate(values)
    for c in system.constraints:
        if not c.holds(values):
            raise SolverError(f"solver produced an infeasible point: {c}")
    subtotals: dict[str, int] = {}
    for v, n in values.items():
        subtotals[v.kind] = subtotals.get(v.kind, 0) + n
    total = system.objective_value(values)
    return NsbAssignment(dict(values), total, subtotals, optimal, True, nodes)


def _check_monotone(system: ConstraintSystem) -> None:
    for c in system.constraints:
        if c.lhs is None:
            raise SolverError(f"constraint without a left-hand variable: {c}")
        for coef, _ in c.rhs.terms:
            if coef != 1:
                raise SolverError(
                    f"non-unit coefficient {coef} in {c}; "
                    f"not a monotone-shaped system")


def _kleene(constraints, values, upper, raised_by=None):
    """Raise values to the least fixpoint; returns the violated constraint
    if some variable must exceed its upper bound, else None."""
    by_var: dict[IntVar, list] = {}
    for c in constraints:
        for _, v in c.rhs.terms:
            by_var.setdefault(v, []).append(c)
    pending = list(constraints)
    on_queue = set(map(id, pending))
    while pending:
        c = pending.pop()
        on_queue.discard(id(c))
        need = c.rhs.evaluate(values)
        if values[c.lhs] < need:
            if need > upper[c.lhs]:
                if raised_by is not None:
                    raised_by[c.lhs] = c
                return c
            values[c.lhs] = need
            if raised_by is not None:
                raised_by[c.lhs] = c
            for dep in by_var.get(c.lhs, ()):
                if id(dep) not in on_queue:
                    pending.append(dep)
                    on_queue.add(id(dep))
    return None


def _raising_rows(start: LinearConstraint, raised_by) -> str:
    """Walk the rows that raised start's variables backward, until a
    variable repeats (a cycle) or nothing raised them (a chain), and
    describe the first _SHOWN_ROWS of them."""
    rows = []
    seen: dict[IntVar, int] = {}
    kind = "raising chain"
    c = start
    while True:
        rows.append(str(c))
        drivers = [v for _, v in c.rhs.terms if v in raised_by]
        if not drivers:
            break
        v = drivers[0]
        if v in seen:
            rows, kind = rows[seen[v]:], "tight cycle"
            break
        seen[v] = len(rows)
        c = raised_by[v]
    text = f"\n  {kind} of {len(rows)} rows:\n    " + "\n    ".join(
        rows[:_SHOWN_ROWS])
    if len(rows) > _SHOWN_ROWS:
        text += f"\n    … and {len(rows) - _SHOWN_ROWS} more rows"
    return text


def solve_monotone(system: ConstraintSystem) -> NsbAssignment:
    """Least solution of a +1-coefficient system; minimizes the bit-sum."""
    _check_monotone(system)
    values = {v: 0 for v in system.variables}
    upper = {v: system.pmax for v in system.variables}
    raised_by: dict[IntVar, LinearConstraint] = {}
    bad = _kleene(system.constraints, values, upper, raised_by)
    if bad is not None:
        raise SolverError(
            f"infeasible: {bad.lhs} is driven past the cap {system.pmax}"
            + _raising_rows(bad, raised_by))
    return _finish(system, values)


def apply_policy(system: ConstraintSystem, policy: Policy) -> ConstraintSystem:
    """Substitute each carry variable per the policy.

    Selection 3 replaces the carry with the constant 1.  Selection 1 or 2
    replaces max(e, 0) by emitting the row twice, once without the carry
    term and once with e added; a row whose left variable cancels against
    e becomes a pure upper-bound row (left side None).
    """
    defs = {d.var: d for d in system.xi_defs}
    out = ConstraintSystem("policy", system.pmax)
    for v in system.variables:
        if v not in defs:
            out.declare(v)
    out.objective = list(system.objective)
    out.skipped_points = list(system.skipped_points)
    out.zero_ufp_points = list(system.zero_ufp_points)

    def emit(lhs, const, terms, origin, site):
        combined: dict[IntVar, int] = {}
        for coef, v in terms:
            combined[v] = combined.get(v, 0) + coef
        if lhs is not None and lhs in combined:
            k = combined.pop(lhs)
            if k == 1:
                lhs = None
            else:
                combined[lhs] = k
        rhs = LinExpr(const, tuple((c, v) for v, c in combined.items() if c))
        out.add(lhs, rhs, origin, site)

    for c in system.constraints:
        plain = [(coef, v) for coef, v in c.rhs.terms if v not in defs]
        xis = [v for _, v in c.rhs.terms if v in defs]
        if not xis:
            out.add(c.lhs, c.rhs, c.origin, c.site)
            continue
        variants = [(c.rhs.const, plain)]
        for x in xis:
            d = defs[x]
            sel = policy[d]
            if sel == 3:
                variants = [(k + 1, t) for k, t in variants]
            else:
                arg = d.arg1 if sel == 1 else d.arg2
                expanded = []
                for k, t in variants:
                    expanded.append((k, t))
                    expanded.append((k + arg.const, t + list(arg.terms)))
                variants = expanded
        for k, t in variants:
            emit(c.lhs, k, t, c.origin, c.site)
    return out


def _negative_vars(system: ConstraintSystem) -> list[IntVar]:
    neg = []
    seen = set()
    for c in system.constraints:
        for coef, v in c.rhs.terms:
            if coef < 0 and v not in seen:
                seen.add(v)
                neg.append(v)
    return neg


def _relax(constraints, lo, hi):
    """Least point with negative terms frozen at box uppers; None if the
    box admits no completion."""
    frozen = []
    for c in constraints:
        if c.lhs is None:
            continue
        const = c.rhs.const
        terms = []
        for coef, v in c.rhs.terms:
            if coef < 0:
                const += coef * hi[v]
            else:
                terms.append((coef, v))
        frozen.append(LinearConstraint(c.lhs, LinExpr(const, tuple(terms)),
                                       c.origin, c.site))
    values = dict(lo)
    if _kleene(frozen, values, hi) is not None:
        return None
    for c in constraints:
        if c.lhs is None:
            best = c.rhs.const
            for coef, v in c.rhs.terms:
                best += coef * (values[v] if coef > 0 else hi[v])
            if best > 0:
                return None
    return values


def _repair(constraints, start, hi):
    """Raise the relaxed point against the true rows to a feasible point."""
    values = dict(start)
    if _kleene([c for c in constraints if c.lhs is not None], values, hi) is not None:
        return None
    for c in constraints:
        if c.lhs is None and not c.holds(values):
            return None
    return values


def solve_ilp(system: ConstraintSystem, policy: Policy | None = None,
              node_limit: int = DEFAULT_NODE_LIMIT) -> NsbAssignment:
    """Minimize the bit-sum over the integer box, branch and bound."""
    if system.xi_defs:
        if policy is None:
            raise SolverError("system has carry definitions; a policy is required")
        work = apply_policy(system, policy)
    else:
        work = system
    obj = work.objective
    neg_vars = _negative_vars(work)
    lo0 = {v: 0 for v in work.variables}
    hi0 = {v: work.pmax for v in work.variables}

    best: dict[IntVar, int] | None = None
    best_obj: int | None = None
    nodes = 0
    stack = [(lo0, hi0)]
    while stack:
        nodes += 1
        if nodes > node_limit:
            raise SolverError(f"branch and bound exceeded {node_limit} nodes")
        lo, hi = stack.pop()
        relaxed = _relax(work.constraints, lo, hi)
        if relaxed is None:
            continue
        bound = sum(relaxed[v] for v in obj)
        if best_obj is not None and bound >= best_obj:
            continue
        candidate = _repair(work.constraints, relaxed, hi)
        if candidate is not None:
            cand_obj = sum(candidate[v] for v in obj)
            if best_obj is None or cand_obj < best_obj:
                best, best_obj = candidate, cand_obj
            if cand_obj == bound:
                continue
        branch = None
        for v in neg_vars:
            if lo[v] < hi[v]:
                branch = v
                break
        if branch is None:
            # All negative occurrences fixed: the relaxation was exact, so
            # the repaired point (if any) already matched the bound.
            continue
        split = min(max(relaxed[branch], lo[branch]), hi[branch] - 1)
        left_hi = dict(hi)
        left_hi[branch] = split
        right_lo = dict(lo)
        right_lo[branch] = split + 1
        stack.append((right_lo, hi))
        stack.append((lo, left_hi))
    if best is None:
        raise SolverError("infeasible system: no integer point in the box")
    full = dict(best)
    if system.xi_defs:
        result = _finish(system, full, optimal=True, nodes=nodes)
    else:
        result = _finish(work, full, optimal=True, nodes=nodes)
    result.nodes = nodes
    return result


def policy_iterate(system: ConstraintSystem,
                   node_limit: int = DEFAULT_NODE_LIMIT,
                   max_iterations: int = DEFAULT_PI_CAP):
    """Improve carry selections until every one is minimal at the solution.

    Returns (assignment, policy, iterations).  Starts from the
    always-carry policy, whose solution matches the plain system's, and
    only ever lowers the bit-sum.
    """
    policy = Policy.const_one(system)
    assignment = None
    for iteration in range(1, max_iterations + 1):
        assignment = solve_ilp(system, policy, node_limit)
        switched = False
        for d in system.xi_defs:
            args = (max(d.arg1.evaluate(assignment.values), 0),
                    max(d.arg2.evaluate(assignment.values), 0),
                    1)
            current = policy[d]
            if args[current - 1] > min(args):
                policy.selections[d] = args.index(min(args)) + 1
                switched = True
        if not switched:
            return assignment, policy, iteration
    assignment.converged = False
    return assignment, policy, max_iterations


__all__ = [
    "NsbAssignment", "Policy", "SolverError", "apply_policy",
    "policy_iterate", "solve_ilp", "solve_monotone",
]
