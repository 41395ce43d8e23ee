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
incumbent feasible, so the bit-sum never increases.  Given the plain
system's solution, its first iteration lifts that solution instead of
branching (_lift).

Every solve reads the system's own index rows (constraints.Rows) and
never mutates them.  Values are a list of ints in the system's variable
numbering, and an NsbAssignment keeps them so; the bit-sum is the sum
of the first system.points values, the nsb widths.  A carry policy is a list
with one selection per system.xi_defs entry: 1 or 2 picks that argument
of the min, 3 the constant 1.  _Indexed holds what one call derives
beside the rows: the carry definitions by index and each row's split
into plain terms and carries.
One worklist fixpoint, with a users list of row indices per variable,
serves the monotone solve, the relaxation (negative terms frozen at the
node's upper bounds as a per-row constant offset) and the repair pass.
A carry policy is substituted into new Rows, once per policy iteration;
apply_policy wraps the always-carry policy's rows in a ConstraintSystem
for the LP export.  In the monotone solve and the repair pass the worklist starts
with every row pending in row order and pops the last one first, and
users lists are in row order: repair on mixed-sign rows, the rows named
by an infeasibility message and so the solved widths depend on that
order.  The relaxation, whose fixpoint is monotone and so independent of
order, starts in dependency order instead (_dependency_order), so that
each row off a cycle is evaluated once.

Everything is exact integer arithmetic; optimality is certified either
by monotonicity or by exhausting the branch tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ConstraintSystem, LinExpr, Rows

DEFAULT_NODE_LIMIT = 200_000
DEFAULT_PI_CAP = 100


_SHOWN_ROWS = 10


class SolverError(RuntimeError):
    pass


@dataclass
class NsbAssignment:
    values: list[int]                # in the solved system's numbering
    points: int                      # nsb(p) is variable p for p < points
    total: int                       # objective value, the sum of nsb widths
    converged: bool = True
    nodes: int = 0

    def widths(self) -> dict[int, int]:
        """Control point -> nsb width, for execution and rendering."""
        return dict(enumerate(self.values[:self.points]))


def _users(n: int, rows, terms) -> list[list[int]]:
    """Per variable, the rows (from rows, in order) whose terms read it."""
    users: list[list[int]] = [[] for _ in range(n)]
    for r in rows:
        for _, i in terms[r]:
            users[i].append(r)
    return users


def _eval(const: int, terms, values: list[int]) -> int:
    for coef, i in terms:
        const += coef * values[i]
    return const


def _combine(lhs: int, const: int, terms) -> tuple:
    """Merge repeated variables; a left variable that cancels against its
    own +1 term leaves a pure upper-bound row (left index -1)."""
    combined: dict[int, int] = {}
    for coef, i in terms:
        combined[i] = combined.get(i, 0) + coef
    if lhs >= 0 and lhs in combined:
        k = combined.pop(lhs)
        if k == 1:
            lhs = -1
        else:
            combined[lhs] = k
    return lhs, const, tuple((c, i) for i, c in combined.items() if c)


class _Indexed:
    """For one solver call, what a system's rows (read, never copied or
    changed) lack: carry definitions over indices ((var, (const, terms),
    (const, terms)) each), each variable's definition number (-1 for
    none) and each row's carry split."""

    def __init__(self, system: ConstraintSystem):
        self.system = system
        index = system.index

        def indexed(e: LinExpr) -> tuple[int, tuple]:
            return e.const, tuple((c, index[v]) for c, v in e.terms)

        self.defs = [(index[d.var], indexed(d.arg1), indexed(d.arg2))
                     for d in system.xi_defs]
        def_of = [-1] * len(system.variables)
        for k, (var, _, _) in enumerate(self.defs):
            def_of[var] = k
        self.def_of = def_of
        # Per row: None, or its terms without carries and the carries'
        # definition numbers in term order.
        self.splits = [
            (tuple(t for t in terms if def_of[t[1]] < 0),
             [def_of[i] for _, i in terms if def_of[i] >= 0])
            if any(def_of[i] >= 0 for _, i in terms) else None
            for terms in system.rows.terms] if self.defs \
            else [None] * len(system.rows.lhs)

    def substitute(self, selections: list[int]) -> Rows:
        """The rows with every carry replaced per its selection.

        Selection 3 replaces the carry with the constant 1.  Selection 1
        or 2 replaces max(e, 0) by emitting the row twice, once without
        the carry term and once with e added."""
        rows, out = self.system.rows, Rows()
        for r, split in enumerate(self.splits):
            if split is None:
                out.append(rows.lhs[r], rows.const[r], rows.terms[r],
                           rows.origin[r], rows.site[r])
                continue
            plain, carries = split
            variants = [(rows.const[r], plain)]
            for d in carries:
                sel = selections[d]
                if sel == 3:
                    variants = [(k + 1, t) for k, t in variants]
                else:
                    ac, at = self.defs[d][sel]
                    variants = [v for k, t in variants
                                for v in ((k, t), (k + ac, t + at))]
            for k, t in variants:
                out.append(*_combine(rows.lhs[r], k, t), rows.origin[r],
                           rows.site[r])
        return out


def _finish(ix: _Indexed, values: list[int], nodes: int = 0) -> NsbAssignment:
    """Fill carry values from their definitions, verify every row of the
    system, and package the values as they are numbered."""
    for var, (c1, t1), (c2, t2) in ix.defs:
        values[var] = min(max(_eval(c1, t1, values), 0),
                          max(_eval(c2, t2, values), 0), 1)
    rows = ix.system.rows
    for r, left in enumerate(rows.lhs):
        if ((values[left] if left >= 0 else 0)
                < _eval(rows.const[r], rows.terms[r], values)):
            raise SolverError(f"solver produced an infeasible point: "
                              f"{ix.system.constraints[r]}")
    points = ix.system.points
    return NsbAssignment(values, points, sum(values[:points]), nodes=nodes)


def _check_monotone(system: ConstraintSystem) -> None:
    rows = system.rows
    for r, left in enumerate(rows.lhs):
        if left < 0:
            raise SolverError(f"constraint without a left-hand variable: "
                              f"{system.constraints[r]}")
        for coef, _ in rows.terms[r]:
            if coef != 1:
                raise SolverError(
                    f"non-unit coefficient {coef} in {system.constraints[r]}; "
                    f"not a monotone-shaped system")


def _kleene(lhs, const, terms, users, pending, values, upper,
            raised_by=None) -> int:
    """Raise values to the least fixpoint of the pending rows (all with a
    left variable) and the rows users reach; returns the violated row if
    some variable must exceed its upper bound, else -1."""
    queued = bytearray(len(lhs))
    for r in pending:
        queued[r] = 1
    while pending:
        r = pending.pop()
        queued[r] = 0
        need = const[r]
        for coef, i in terms[r]:
            need += coef * values[i]
        v = lhs[r]
        if values[v] < need:
            if raised_by is not None:
                raised_by[v] = r
            if need > upper[v]:
                return r
            values[v] = need
            for dep in users[v]:
                if not queued[dep]:
                    queued[dep] = 1
                    pending.append(dep)
    return -1


def _dependency_order(lhs, kept, left, readers) -> list[int]:
    """The left rows as a _kleene worklist: every row after the rows that
    raise what its kept terms read, rows on cycles last, all reversed,
    since _kleene pops from the end.  readers is _users(n, left, kept).
    A monotone fixpoint then evaluates each acyclic row once."""
    producers: list[list[int]] = [[] for _ in readers]
    for r in left:
        producers[lhs[r]].append(r)
    waiting = [0] * len(lhs)
    for r in left:
        for _, i in kept[r]:
            waiting[r] += len(producers[i])
    order = [r for r in left if not waiting[r]]
    for r in order:
        for dep in readers[lhs[r]]:
            waiting[dep] -= 1
            if not waiting[dep]:
                order.append(dep)
    order += [r for r in left if waiting[r]]
    order.reverse()
    return order


def _raising_rows(ix: _Indexed, start: int, raised_by: list[int]) -> str:
    """Walk the rows that raised start's variables backward, until a
    variable repeats (a cycle) or nothing raised them (a chain), and
    describe the first _SHOWN_ROWS of them."""
    rows: list[int] = []
    seen: dict[int, int] = {}
    kind = "raising chain"
    r = start
    while True:
        rows.append(r)
        drivers = [i for _, i in ix.system.rows.terms[r] if raised_by[i] >= 0]
        if not drivers:
            break
        i = drivers[0]
        if i in seen:
            rows, kind = rows[seen[i]:], "tight cycle"
            break
        seen[i] = len(rows)
        r = raised_by[i]
    text = f"\n  {kind} of {len(rows)} rows:\n    " + "\n    ".join(
        str(ix.system.constraints[r]) for r in rows[:_SHOWN_ROWS])
    if len(rows) > _SHOWN_ROWS:
        text += f"\n    … and {len(rows) - _SHOWN_ROWS} more rows"
    return text


def solve_monotone(system: ConstraintSystem) -> NsbAssignment:
    """Least solution of a +1-coefficient system; minimizes the bit-sum."""
    _check_monotone(system)
    ix = _Indexed(system)
    rows, n = system.rows, len(system.variables)
    values = [0] * n
    raised_by = [-1] * n
    bad = _kleene(rows.lhs, rows.const, rows.terms,
                  _users(n, range(len(rows.lhs)), rows.terms),
                  list(range(len(rows.lhs))), values, [system.pmax] * n,
                  raised_by)
    if bad >= 0:
        raise SolverError(
            f"infeasible: {system.constraints[bad].lhs} is driven past "
            f"the cap {system.pmax}" + _raising_rows(ix, bad, raised_by))
    return _finish(ix, values)


def apply_policy(system: ConstraintSystem) -> ConstraintSystem:
    """The system with every carry variable replaced by the constant 1
    (the always-carry policy), row for row as the solver substitutes it."""
    ix = _Indexed(system)
    rows = ix.substitute([3] * len(ix.defs))
    out = ConstraintSystem(system.pmax, system.points)
    variables = system.variables
    out.declare(*(v for i, v in enumerate(variables) if ix.def_of[i] < 0))
    out.skipped_points = list(system.skipped_points)
    out.zero_ufp_points = list(system.zero_ufp_points)
    number = out.number
    for r, left in enumerate(rows.lhs):
        out.rows.append(-1 if left < 0 else number(variables[left]),
                        rows.const[r], tuple((k, number(variables[i]))
                                             for k, i in rows.terms[r]),
                        rows.origin[r], rows.site[r])
    return out


def _branch_and_bound(n: int, rows: Rows, points: int, pmax: int,
                      node_limit: int) -> tuple[list[int], int]:
    """The integer point of rows over [0, pmax]^n with the least sum of
    its first points values, and the number of nodes opened."""
    lhs, const, terms = rows.lhs, rows.const, rows.terms
    left = [r for r, v in enumerate(lhs) if v >= 0]
    bounds = [r for r, v in enumerate(lhs) if v < 0]
    # The relaxation reads negative terms at the node's upper bounds, as
    # a constant offset per row, and propagates through the rest.
    kept = [tuple(t for t in ts if t[0] >= 0) for ts in terms]
    frozen = [(r, tuple(t for t in terms[r] if t[0] < 0))
              for r in left if len(kept[r]) < len(terms[r])]
    kept_users = _users(n, left, kept)
    all_users = _users(n, left, terms)
    relax_order = _dependency_order(lhs, kept, left, kept_users)
    neg_vars = list(dict.fromkeys(i for ts in terms for coef, i in ts
                                  if coef < 0))

    best: list[int] | None = None
    best_obj: int | None = None
    nodes = 0
    stack = [([0] * n, [pmax] * n)]
    while stack:
        nodes += 1
        if nodes > node_limit:
            raise SolverError(f"branch and bound exceeded {node_limit} nodes")
        lo, hi = stack.pop()
        # Relaxation: least point with negative terms frozen at hi.
        offset = list(const)
        for r, ts in frozen:
            for coef, i in ts:
                offset[r] += coef * hi[i]
        relaxed = list(lo)
        if _kleene(lhs, offset, kept, kept_users, relax_order[:], relaxed,
                   hi) >= 0:
            continue
        if any(const[r] + sum(c * (relaxed[i] if c > 0 else hi[i])
                              for c, i in terms[r]) > 0 for r in bounds):
            continue
        bound = sum(relaxed[:points])
        if best_obj is not None and bound >= best_obj:
            continue
        # Repair: raise the relaxed point against the true rows.
        candidate = list(relaxed)
        if (_kleene(lhs, const, terms, all_users, left[:], candidate, hi) < 0
                and all(_eval(const[r], terms[r], candidate) <= 0
                        for r in bounds)):
            cand_obj = sum(candidate[:points])
            if best_obj is None or cand_obj < best_obj:
                best, best_obj = candidate, cand_obj
            if cand_obj == bound:
                continue
        branch = next((i for i in neg_vars if lo[i] < hi[i]), None)
        if branch is None:
            # All negative occurrences fixed: the relaxation was exact, so
            # the repaired point (if any) already matched the bound.
            continue
        split = min(max(relaxed[branch], lo[branch]), hi[branch] - 1)
        left_hi = list(hi)
        left_hi[branch] = split
        right_lo = list(lo)
        right_lo[branch] = split + 1
        stack.append((right_lo, hi))
        stack.append((lo, left_hi))
    if best is None:
        raise SolverError("infeasible system: no integer point in the box")
    return best, nodes


def solve_ilp(system: ConstraintSystem, policy: list[int] | None = None,
              node_limit: int = DEFAULT_NODE_LIMIT, *,
              indexed: _Indexed | None = None) -> NsbAssignment:
    """Minimize the bit-sum over the integer box, branch and bound.

    indexed is the system's indexed form, passed by policy_iterate,
    which solves one system under several policies and indexes it once."""
    ix = indexed or _Indexed(system)
    if system.xi_defs:
        if policy is None:
            raise SolverError("system has carry definitions; a policy is required")
        work = ix.substitute(policy)
    else:
        work = system.rows
    best, nodes = _branch_and_bound(len(system.variables), work,
                                    system.points, system.pmax, node_limit)
    return _finish(ix, best, nodes)


def _lift(ix: _Indexed, plain: NsbAssignment) -> NsbAssignment | None:
    """The least-sum solution of the system under the always-carry
    policy, built from plain, the least solution of the plain system
    over the same program.

    Under that policy the rows with an nsb on the left are the plain
    system's rows with every carry at 1, and read no error width; the
    other rows, with nsb fixed, are monotone.  So the nsb widths are
    plain's and the rest is the least fixpoint above them: the point
    branch and bound's root node relaxes and repairs to.  None when the
    fixpoint leaves the box or a row has no left variable, and branch
    and bound must decide."""
    rows = ix.substitute([3] * len(ix.defs))
    lhs, terms = rows.lhs, rows.terms
    if -1 in lhs:
        return None
    n = len(ix.system.variables)
    left = list(range(len(lhs)))
    kept = [tuple(t for t in ts if t[0] >= 0) for ts in terms]
    values = plain.values[:plain.points] + [0] * (n - plain.points)
    order = _dependency_order(lhs, kept, left, _users(n, left, kept))
    if _kleene(lhs, rows.const, terms, _users(n, left, terms), order,
               values, [ix.system.pmax] * n) >= 0:
        return None
    return _finish(ix, values)


def policy_iterate(system: ConstraintSystem,
                   node_limit: int = DEFAULT_NODE_LIMIT,
                   max_iterations: int = DEFAULT_PI_CAP, *,
                   plain: NsbAssignment | None = None):
    """Improve carry selections until every one is minimal at the solution.

    Returns (assignment, policy, iterations).  Starts from the
    always-carry policy, whose solution matches the plain system's, and
    only ever lowers the bit-sum.  Given plain, the plain system's
    least solution, the first iteration lifts it (_lift) and runs
    branch and bound only where the lift does not fit.
    """
    ix = _Indexed(system)
    policy = [3] * len(ix.defs)
    assignment = _lift(ix, plain) if plain is not None else None
    for iteration in range(1, max_iterations + 1):
        if assignment is None or iteration > 1:
            assignment = solve_ilp(system, policy, node_limit, indexed=ix)
        values = assignment.values
        switched = False
        for k, (_, (c1, t1), (c2, t2)) in enumerate(ix.defs):
            args = (max(_eval(c1, t1, values), 0),
                    max(_eval(c2, t2, values), 0),
                    1)
            if args[policy[k] - 1] > min(args):
                policy[k] = args.index(min(args)) + 1
                switched = True
        if not switched:
            return assignment, policy, iteration
    assignment.converged = False
    return assignment, policy, max_iterations


__all__ = [
    "NsbAssignment", "SolverError", "apply_policy",
    "policy_iterate", "solve_ilp", "solve_monotone",
]
