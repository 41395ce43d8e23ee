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
of the first system.points values, the nsb widths.  A carry policy is a
list with one selection per system.xi_defs entry: 1 or 2 picks that
argument of the min, 3 the constant 1.

A policy changes only the rows that read a defined carry, which the
generator lists beside the definitions (system.carry_rows).  _Indexed
names the rows a policy patches, and its substitute builds a policy's
rows (_PolicyRows), once per policy iteration, from list slices of the
other rows and the patched rows, with what branch and bound reads
beside them: each row's non-negative terms, the rows with a negative
term and the rows without a left variable.  Rows carry no origin or
site there.  always_carry_rows gives the LP export the rows of the
always-carry policy, which patches each row into one, so they keep the
system's row numbers, origins and sites.

One worklist fixpoint (_kleene), with a users list of row indices per
variable, serves the monotone solve, the lift, the relaxation (negative
terms frozen at the node's upper bounds as a per-row constant offset)
and the repair pass.  In the monotone solve and the repair pass the
worklist starts with every row pending in row order and pops the last
one first, and users lists are in row order: repair on mixed-sign rows,
the rows named by an infeasibility message and so the solved widths
depend on that order.  The repair passes over a row the relaxed point
already satisfies until something it reads is raised, which leaves
that order as it is.  The relaxation and the lift, whose fixpoints are
monotone and so independent of order, start in dependency order instead
(_dependency_order), so that each row off a cycle is evaluated once.

Everything is exact integer arithmetic; optimality is certified either
by monotonicity or by exhausting the branch tree.
"""

from __future__ import annotations

from typing import NamedTuple

from .constraints import ConstraintSystem

# Branch and bound nodes per solve, and policy iteration rounds per
# solve; each is read by the solve, so a change to it holds for the next.
NODE_LIMIT = 200_000
PI_CAP = 100


_SHOWN_ROWS = 10


class SolverError(RuntimeError):
    pass


class NsbAssignment(NamedTuple):
    values: list[int]                # in the solved system's numbering
    points: int                      # nsb(p) is variable p for p < points
    total: int                       # objective value, the sum of nsb widths
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


class _PolicyRows:
    """A system's rows under one carry policy, as parallel lists, with
    what branch and bound derives from them: each row's non-negative
    terms (kept), the rows with a left variable and a negative term, by
    those terms (frozen), the rows without one (bounds) and the
    negatively read variables in order of first appearance."""

    __slots__ = ("lhs", "const", "terms", "kept", "frozen", "bounds",
                 "neg_vars")

    def __init__(self, lhs: list[int], const: list[int], terms: list[tuple],
                 kept: list[tuple], frozen: list[tuple[int, tuple]],
                 bounds: list[int], neg_vars: list[int]):
        self.lhs = lhs
        self.const = const
        self.terms = terms
        self.kept = kept
        self.frozen = frozen
        self.bounds = bounds
        self.neg_vars = neg_vars


class _Indexed:
    """For one solver call, the rows of a system (read, never copied or
    changed) that a policy patches, in row order, as (row, definition,
    terms).  In a system with carry definitions these are its carry
    rows, with their terms without the carry (constraints keeps every
    other row of such a system free of negative terms and left-less
    rows); otherwise they are its rows with a negative term or no left
    variable, as (row, -1, terms).  Every row left out has only
    non-negative terms, so it is its own relaxation."""

    def __init__(self, system: ConstraintSystem):
        self.system = system
        rows = system.rows
        self.patched = system.carry_rows if system.xi_defs else [
            (r, -1, ts) for r, (left, ts) in enumerate(zip(rows.lhs,
                                                           rows.terms))
            if left < 0 or ts and min(ts)[0] < 0]

    def substitute(self, selections: list[int]) -> _PolicyRows:
        """The rows with every carry replaced per its selection.

        Selection 3 replaces the carry with the constant 1.  Selection 1
        or 2 replaces max(e, 0) by emitting the row twice, once without
        the carry term and once with e added.  Rows between patched rows
        are taken as list slices."""
        rows, defs = self.system.rows, self.system.xi_defs
        lhs, const, terms, kept = [], [], [], []
        frozen, bounds, negs = [], [], []
        start = 0
        for r, d, plain in self.patched:
            lhs += rows.lhs[start:r]
            const += rows.const[start:r]
            run = rows.terms[start:r]
            terms += run
            kept += run
            start = r + 1
            left, k = rows.lhs[r], rows.const[r]
            if d < 0:
                variants = ((left, k, plain),)
            elif selections[d] == 3:
                variants = ((left, k + 1, plain),)
            else:
                ac, at = defs[d][selections[d]]
                variants = ((left, k, plain),
                            _combine(left, k + ac, plain + at))
            for left, k, ts in variants:
                neg = tuple(t for t in ts if t[0] < 0)
                if left < 0:
                    bounds.append(len(lhs))
                elif neg:
                    frozen.append((len(lhs), neg))
                negs += neg
                lhs.append(left)
                const.append(k)
                terms.append(ts)
                kept.append(tuple(t for t in ts if t[0] >= 0) if neg else ts)
        lhs += rows.lhs[start:]
        const += rows.const[start:]
        run = rows.terms[start:]
        terms += run
        kept += run
        return _PolicyRows(lhs, const, terms, kept, frozen, bounds,
                           list(dict.fromkeys(i for _, i in negs)))


def _finish(system: ConstraintSystem, values: list[int],
            nodes: int = 0) -> NsbAssignment:
    """Fill carry values from their definitions, verify every row of the
    system, and package the values as they are numbered."""
    for var, (c1, t1), (c2, t2) in system.xi_defs:
        values[var] = min(max(_eval(c1, t1, values), 0),
                          max(_eval(c2, t2, values), 0), 1)
    rows = system.rows
    for r, (left, need, terms) in enumerate(zip(rows.lhs, rows.const,
                                                rows.terms)):
        for coef, i in terms:
            need += coef * values[i]
        if (values[left] if left >= 0 else 0) < need:
            raise SolverError(f"solver produced an infeasible point: "
                              f"{system.constraints[r]}")
    points = system.points
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
            raised_by=None, queued=None) -> int:
    """Raise values to the least fixpoint of the pending rows, which all
    have a left variable and include every row users name; returns the
    violated row if some variable must exceed its upper bound, else -1.
    queued, when given, marks each pending row 1, or 2 if it holds at
    values already: such a row is evaluated only once a variable it
    reads has been raised.  pending and queued are used up."""
    if queued is None:
        queued = bytearray(b"\1") * len(lhs)
    while pending:
        r = pending.pop()
        if queued[r] == 2:
            queued[r] = 0
            continue
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
                q = queued[dep]
                if q != 1:
                    queued[dep] = 1
                    if not q:
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


def _raising_rows(system: ConstraintSystem, start: int,
                  raised_by: list[int]) -> str:
    """Walk the rows that raised start's variables backward, until a
    variable repeats (a cycle) or nothing raised them (a chain), and
    describe the first _SHOWN_ROWS of them, each with its origin and the
    control point it is attributed to."""
    rows: list[int] = []
    seen: dict[int, int] = {}
    kind = "raising chain"
    r = start
    while True:
        rows.append(r)
        drivers = [i for _, i in system.rows.terms[r] if raised_by[i] >= 0]
        if not drivers:
            break
        i = drivers[0]
        if i in seen:
            rows, kind = rows[seen[i]:], "tight cycle"
            break
        seen[i] = len(rows)
        r = raised_by[i]
    shown = [system.constraints[r] for r in rows[:_SHOWN_ROWS]]
    text = f"\n  {kind} of {len(rows)} rows:\n    " + "\n    ".join(
        f"{c}  ({c.origin}, point {c.site})" for c in shown)
    if len(rows) > _SHOWN_ROWS:
        text += f"\n    … and {len(rows) - _SHOWN_ROWS} more rows"
    return text


def solve_monotone(system: ConstraintSystem) -> NsbAssignment:
    """Least solution of a +1-coefficient system; minimizes the bit-sum."""
    _check_monotone(system)
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
            f"the cap {system.pmax}" + _raising_rows(system, bad, raised_by))
    return _finish(system, values)


def always_carry_rows(system: ConstraintSystem) -> tuple[list, list, list]:
    """The left variables, constants and terms of system's rows with
    every defined carry at 1 (the always-carry policy), as the solver
    substitutes them: one row per row of system, in its numbering."""
    rows = _Indexed(system).substitute([3] * len(system.xi_defs))
    return rows.lhs, rows.const, rows.terms


def _branch_and_bound(n: int, rows: _PolicyRows, points: int,
                      pmax: int) -> tuple[list[int], int]:
    """The integer point of rows over [0, pmax]^n with the least sum of
    its first points values, and the number of nodes opened."""
    lhs, const, terms, kept = rows.lhs, rows.const, rows.terms, rows.kept
    frozen, bounds, neg_vars = rows.frozen, rows.bounds, rows.neg_vars
    left = [r for r, v in enumerate(lhs) if v >= 0]
    # The relaxation reads negative terms at the node's upper bounds, as
    # a constant offset per row, and propagates through the rest.
    kept_users: list[list[int]] = [[] for _ in range(n)]
    all_users: list[list[int]] = [[] for _ in range(n)]
    for r in left:
        for coef, i in terms[r]:
            all_users[i].append(r)
            if coef >= 0:
                kept_users[i].append(r)
    relax_order = _dependency_order(lhs, kept, left, kept_users)
    # The relaxed point satisfies every row without a negative term, so
    # the repair evaluates those only once something they read is raised.
    held = bytearray(b"\2") * len(lhs)
    for r, _ in frozen:
        held[r] = 1

    best: list[int] | None = None
    best_obj: int | None = None
    nodes = 0
    stack = [([0] * n, [pmax] * n)]
    while stack:
        nodes += 1
        if nodes > NODE_LIMIT:
            raise SolverError(f"branch and bound exceeded {NODE_LIMIT} nodes")
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
        if (_kleene(lhs, const, terms, all_users, left[:], candidate, hi,
                    queued=bytearray(held)) < 0
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


def solve_ilp(system: ConstraintSystem, policy: list[int] | None = None, *,
              indexed: _Indexed | None = None) -> NsbAssignment:
    """Minimize the bit-sum over the integer box, branch and bound.

    indexed is the system's indexed form, passed by policy_iterate,
    which solves one system under several policies and indexes it once."""
    if system.xi_defs and policy is None:
        raise SolverError("system has carry definitions; a policy is required")
    ix = indexed or _Indexed(system)
    best, nodes = _branch_and_bound(len(system.variables),
                                    ix.substitute(policy or []),
                                    system.points, system.pmax)
    return _finish(system, best, nodes)


def _lift(ix: _Indexed, plain: NsbAssignment) -> NsbAssignment | None:
    """The least-sum solution of the system under the always-carry
    policy, built from plain, the least solution of the plain system
    over the same program.

    Under that policy the rows with an nsb on the left are the plain
    system's rows with every carry at 1, and read no error width; plain
    satisfies them.  The other rows, with nsb fixed, are monotone.  So
    the nsb widths are plain's and the rest is the least fixpoint of
    those other rows above them: the point branch and bound's root node
    relaxes and repairs to.  None when the fixpoint leaves the box or a
    row has no left variable, and branch and bound must decide."""
    system = ix.system
    rows, points = system.rows, system.points
    lhs, const, terms = rows.lhs, list(rows.const), list(rows.terms)
    for r, d, plain_terms in ix.patched:
        if lhs[r] < 0:
            return None
        if d >= 0:
            const[r] += 1
            terms[r] = plain_terms
    n = len(system.variables)
    left = [r for r, v in enumerate(lhs) if v >= points]
    users = _users(n, left, terms)
    values = plain.values[:plain.points] + [0] * (n - plain.points)
    if _kleene(lhs, const, terms, users,
               _dependency_order(lhs, terms, left, users), values,
               [system.pmax] * n) >= 0:
        return None
    return _finish(system, values)


def policy_iterate(system: ConstraintSystem, *,
                   plain: NsbAssignment | None = None):
    """Improve carry selections until every one is minimal at the solution.

    Returns (assignment, policy, iterations).  Starts from the
    always-carry policy, whose solution matches the plain system's, and
    only ever lowers the bit-sum.  Given plain, the plain system's
    least solution, the first iteration lifts it (_lift) and runs
    branch and bound only where the lift does not fit.
    """
    ix = _Indexed(system)
    policy = [3] * len(system.xi_defs)
    assignment = _lift(ix, plain) if plain is not None else None
    cap = PI_CAP
    for iteration in range(1, cap + 1):
        if assignment is None or iteration > 1:
            assignment = solve_ilp(system, policy, indexed=ix)
        values = assignment.values
        switched = False
        for k, (_, (c1, t1), (c2, t2)) in enumerate(system.xi_defs):
            args = (max(_eval(c1, t1, values), 0),
                    max(_eval(c2, t2, values), 0),
                    1)
            if args[policy[k] - 1] > min(args):
                policy[k] = args.index(min(args)) + 1
                switched = True
        if not switched:
            return assignment, policy, iteration
    return assignment, policy, cap


__all__ = [
    "NsbAssignment", "SolverError", "always_carry_rows",
    "policy_iterate", "solve_ilp", "solve_monotone",
]
