"""Solvers: least fixed point, branch and bound, policy improvement.

Oracles are kept deliberately independent: a chaotic-iteration loop
written here in the dumbest possible style, full enumeration over small
boxes, and (when scipy is importable) an external LP/MILP solver.
"""

import contextlib
import copy
import hashlib
import itertools
import random

import pytest

from bittune.constraints import (
    ConstraintSystem, gen_ilp, gen_refined, nsb,
)
from bittune.interp import run_reference
from bittune.lpfile import export_lp
from bittune.nbody import build_nbody_program, horizon_t_max
from bittune.parse import parse_program
from bittune import solver
from bittune.solver import (
    SolverError, _dependency_order, policy_iterate, solve_ilp, solve_monotone,
)
from bittune.tuner import TuningConfig
from helpers import gen_straight_line


def make_system(rows, n_vars, pmax):
    """rows: list of (lhs_index, const, ((coef, var_index), ...))."""
    vars_ = [nsb(i) for i in range(n_vars)]
    sys_ = ConstraintSystem(pmax, n_vars, list(vars_))
    for lhs_i, const, terms in rows:
        sys_.rows.append(-1 if lhs_i is None else lhs_i, const, tuple(terms),
                         "test", 0)
    return sys_, vars_


def random_monotone_rows(rng, n_vars, n_rows, cmax):
    """DAG-shaped rows (terms only reference lower-numbered variables),
    so the system is always feasible inside a large enough box."""
    rows = []
    for _ in range(n_rows):
        lhs = rng.randrange(n_vars)
        terms = tuple((1, rng.randrange(lhs)) for _ in range(rng.randint(0, 2))
                      if lhs > 0)
        rows.append((lhs, rng.randint(0, cmax), terms))
    return rows


def random_mixed_rows(rng, n_vars, n_rows, cmax):
    rows = []
    for _ in range(n_rows):
        lhs = rng.randrange(n_vars)
        terms = []
        for _ in range(rng.randint(0, 3)):
            v = rng.randrange(n_vars)
            if v != lhs:
                terms.append((rng.choice((1, -1)), v))
        rows.append((lhs, rng.randint(-cmax, cmax), tuple(terms)))
    return rows


def chaotic_fixpoint(rows, n_vars, pmax):
    """Independent oracle: raise left sides until every row holds."""
    vals = [0] * n_vars
    for _ in range(n_vars * len(rows) * pmax + 10):
        changed = False
        for lhs, const, terms in rows:
            need = const + sum(c * vals[i] for c, i in terms)
            if lhs is not None and vals[lhs] < need:
                vals[lhs] = need
                changed = True
        if not changed:
            return vals
    raise AssertionError("oracle did not stabilize")


def enumerate_optimum(rows, n_vars, box):
    best = None
    for point in itertools.product(range(box + 1), repeat=n_vars):
        ok = all(
            (point[lhs] if lhs is not None else 0)
            >= const + sum(c * point[i] for c, i in terms)
            for lhs, const, terms in rows)
        if ok:
            total = sum(point)
            if best is None or total < best[0]:
                best = (total, point)
    return best


class TestMonotone:
    def test_kleene_matches_chaotic_oracle(self, rng):
        for _ in range(60):
            n = rng.randint(1, 20)
            rows = random_monotone_rows(rng, n, rng.randint(1, 40), 15)
            sys_, vars_ = make_system(rows, n, pmax=500)
            want = chaotic_fixpoint(rows, n, 500)
            if max(want) > 500:
                # The DAG's uncapped fixed point can compound past the
                # box; the solver must report that instead of clamping.
                with pytest.raises(SolverError):
                    solve_monotone(sys_)
                continue
            got = solve_monotone(sys_)
            assert got.values == want

    def test_least_point_decrement_breaks_feasibility(self, rng):
        # Every feasible point dominates the least fixed point, so
        # lowering any solved coordinate must violate some row.
        for _ in range(30):
            n = rng.randint(2, 10)
            rows = random_monotone_rows(rng, n, rng.randint(2, 20), 12)
            if max(chaotic_fixpoint(rows, n, 500)) > 500:
                continue
            sys_, vars_ = make_system(rows, n, pmax=500)
            sol = solve_monotone(sys_)
            assert sys_.satisfied_by(sol.values)
            for v in range(len(vars_)):
                if sol.values[v] == 0:
                    continue
                lowered = list(sol.values)
                lowered[v] -= 1
                assert not sys_.satisfied_by(lowered)

    def test_total_is_objective_sum(self):
        sys_, vars_ = make_system([(0, 7, ()), (1, 3, ((1, 0),))], 2, 100)
        sol = solve_monotone(sys_)
        assert sol.total == 7 + 10

    def test_unsatisfiable_growth_cycle(self):
        # a >= b + 1 and b >= a + 1 has no fixed point below any cap.
        rows = [(0, 1, ((1, 1),)), (1, 1, ((1, 0),))]
        sys_, _ = make_system(rows, 2, pmax=60)
        with pytest.raises(SolverError, match="tight cycle of 2 rows"):
            solve_monotone(sys_)

    def test_rejects_negative_coefficients(self):
        sys_, _ = make_system([(0, 2, ((-1, 1),))], 2, 100)
        with pytest.raises(SolverError):
            solve_monotone(sys_)


class TestBranchAndBound:
    def test_matches_enumeration_on_small_boxes(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = random_mixed_rows(rng, n, rng.randint(1, 6), 6)
            sys_, vars_ = make_system(rows, n, pmax=8)
            want = enumerate_optimum(rows, n, 8)
            if want is None:
                with pytest.raises(SolverError):
                    solve_ilp(sys_)
                continue
            got = solve_ilp(sys_)
            assert got.total == want[0]
            assert sys_.satisfied_by(got.values)

    def test_monotone_systems_agree_with_kleene(self, rng):
        for _ in range(25):
            n = rng.randint(1, 12)
            rows = random_monotone_rows(rng, n, rng.randint(1, 25), 10)
            if max(chaotic_fixpoint(rows, n, 200)) > 200:
                continue
            sys_, vars_ = make_system(rows, n, pmax=200)
            assert solve_ilp(sys_).total == solve_monotone(sys_).total

    def test_pure_upper_bound_rows(self):
        # A None left side is a standing requirement 0 >= const + terms.
        sys_, vars_ = make_system([(0, 5, ()), (None, 3, ((-1, 0),))], 1, 50)
        sol = solve_ilp(sys_)
        assert sol.values[0] == 5

    def test_infeasible_upper_bound(self):
        sys_, _ = make_system([(0, 10, ()), (None, 1, ((1, 0),))], 1, 50)
        with pytest.raises(SolverError, match="no integer point"):
            solve_ilp(sys_)

    def test_node_limit(self, rng, monkeypatch):
        rows = random_mixed_rows(random.Random(7), 8, 16, 10)
        sys_, _ = make_system(rows, 8, pmax=30)
        monkeypatch.setattr(solver, "NODE_LIMIT", 1)
        with pytest.raises(SolverError, match="exceeded 1 nodes"):
            solve_ilp(sys_)

    def test_policy_required_for_carry_definitions(self):
        src = "a = 8.0;\nb = 0.5;\nc = a + b;\nrequire_nsb(c, 12);\n"
        prog = parse_program(src)
        c2 = gen_refined(prog, run_reference(prog, 100).ranges)
        with pytest.raises(SolverError, match="policy"):
            solve_ilp(c2)


class TestPolicyIteration:
    def _refined(self, src):
        prog = parse_program(src)
        return gen_refined(prog, run_reference(prog, 100).ranges)

    def test_never_worse_than_always_carry(self, rng):
        for _ in range(20):
            c2 = self._refined(gen_straight_line(rng, max_ops=5))
            base = solve_ilp(c2, [3] * len(c2.xi_defs))
            improved, _, iterations = policy_iterate(c2)
            assert improved.total <= base.total
            assert iterations >= 1
            assert c2.satisfied_by(improved.values)

    def test_wide_gap_addition_switches_policy(self):
        # b sits ~49 binades below a while the requirement only forces
        # ~31 bits, so a's error can never reach b's carry position:
        # the carry argument goes negative, xi drops to 0, and each
        # point on a's chain sheds one bit.
        c2 = self._refined("a = 512.0;\nb = 0.000000000001;\nc = a + b;\n"
                           "require_nsb(c, 30);\n")
        improved, policy, iterations = policy_iterate(c2)
        base = solve_ilp(c2, [3] * len(c2.xi_defs))
        assert improved.total < base.total
        assert iterations == 2
        assert any(sel != 3 for sel in policy)

    def test_balanced_addition_keeps_const_one(self):
        # With comparable magnitudes both carry arguments exceed 1, so
        # the always-carry start is already optimal.
        c2 = self._refined("a = 512.0;\nb = 0.25;\nc = a + b;\n"
                           "require_nsb(c, 30);\n")
        improved, policy, iterations = policy_iterate(c2)
        assert iterations == 1
        assert all(sel == 3 for sel in policy)
        assert improved.total == solve_ilp(c2, [3] * len(c2.xi_defs)).total

    def test_policy_substitution_preserves_variables(self):
        # The LP export, every carry at 1, minimizes the first points
        # variables and declares every variable but the defined carries.
        c2 = self._refined("a = 8.0;\nb = 0.5;\nc = a + b;\n"
                           "require_nsb(c, 12);\n")
        text = export_lp(c2)
        objective = text[text.index("obj:") + 4:text.index("Subject To")]
        general = text[text.index("General") + 7:text.index("End")]
        names = [v.name for v in c2.variables]
        assert objective.replace("+", " ").split() == names[:c2.points]
        defined = [names[x] for x, _, _ in c2.xi_defs]
        assert defined
        assert general.split() == [n for n in names if n not in defined]

    def test_plain_start_changes_no_result(self, rng):
        # Lifting the plain solution replaces the first branch and bound;
        # every later iteration, and so every output, stays the same.
        lifted = 0
        for k in range(40):
            prog = parse_program(
                gen_straight_line(rng, max_ops=(4, 12)[k % 2]))
            ranges = run_reference(prog, 100).ranges
            c1 = gen_ilp(prog, ranges)
            c2 = gen_refined(prog, ranges)
            plain = solve_monotone(c1)
            with pytest.MonkeyPatch.context() as m:
                m.setattr(solver, "PI_CAP", 1)
                first = policy_iterate(c2, plain=plain)[0]
            assert first.values == \
                solve_ilp(c2, [3] * len(c2.xi_defs)).values
            lifted += first.nodes == 0
            a, policy_a, n_a = policy_iterate(c2, plain=plain)
            b, policy_b, n_b = policy_iterate(c2)
            assert (a.values, policy_a, n_a) == (b.values, policy_b, n_b)
        assert lifted == 40

    def test_converges_within_the_cap(self, rng):
        c2 = self._refined("a = 8.0;\nb = 0.5;\nc = a + b;\n"
                           "require_nsb(c, 12);\n")
        _, _, iterations = policy_iterate(c2)
        assert iterations < solver.PI_CAP


def test_relaxation_worklist_runs_in_dependency_order():
    # Rows 0-2 form the chain x0 -> x1 -> x2 listed backward; rows 3 and
    # 4 form the cycle x3 <-> x4.  _kleene pops from the end.
    lhs = [2, 1, 0, 3, 4]
    kept = [((1, 1),), ((1, 0),), (), ((1, 4),), ((1, 3),)]
    order = _dependency_order(lhs, kept, range(5),
                              [[1], [0], [], [4], [3]])
    assert order[::-1] == [2, 1, 0, 3, 4]


def _digest(system, assignment) -> str:
    """sha256 of every variable's value, in the order the digests were
    recorded in: variables without a carry definition as numbered, then
    the defined carries in definition order."""
    carries = [x for x, _, _ in system.xi_defs]
    order = sorted(set(range(len(system.variables))) - set(carries)) + carries
    text = "".join(f"{system.variables[i]}={assignment.values[i]}\n"
                   for i in order)
    return hashlib.sha256(f"{text}total={assignment.total}\n".encode()).hexdigest()


class TestPinnedOutput:
    """Exact solver output, recorded once and compared byte for byte: the
    order of the solved variables and every nsb, nsbe and xi value."""

    CFG = TuningConfig(method="pi")

    def _systems(self, src):
        prog = parse_program(src)
        ranges = run_reference(prog, self.CFG.pref).ranges
        return (gen_ilp(prog, ranges, self.CFG.pref),
                gen_refined(prog, ranges, self.CFG.pref))

    def test_five_body_policy_iteration(self):
        _, c2 = self._systems(build_nbody_program(
            dt="0.01", t_max=horizon_t_max(0.05), req=24))
        assignment, _, iterations = policy_iterate(c2)
        assert (assignment.total, iterations, len(assignment.values)) == \
            (13033, 2, 2115)
        assert _digest(c2, assignment) == (
            "5dc53f47fea5cf9a438a7b039758a740a00f3d9daee9f823606048e6cc4b8a89")

    def test_five_body_from_the_plain_solution(self, monkeypatch):
        c1, c2 = self._systems(build_nbody_program(
            dt="0.01", t_max=horizon_t_max(0.05), req=24))
        branched = []
        real = solver.solve_ilp

        def counted(*args, **kwargs):
            branched.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver, "solve_ilp", counted)
        assignment, _, iterations = policy_iterate(c2,
                                                   plain=solve_monotone(c1))
        assert (assignment.total, iterations, len(branched)) == (13033, 2, 1)
        assert _digest(c2, assignment) == (
            "5dc53f47fea5cf9a438a7b039758a740a00f3d9daee9f823606048e6cc4b8a89")

    def test_random_programs_monotone_and_policy_iteration(self):
        rng = random.Random(20211)
        monotone, iterated = hashlib.sha256(), hashlib.sha256()
        for k in range(50):
            c1, c2 = self._systems(
                gen_straight_line(rng, max_ops=(4, 12, 30)[k % 3]))
            monotone.update(_digest(c1, solve_monotone(c1)).encode())
            iterated.update(_digest(c2, policy_iterate(c2)[0]).encode())
        assert monotone.hexdigest() == (
            "9fde85902e1321c1d71d47de3238de7c087a679c0135599796059ffd288b26bc")
        assert iterated.hexdigest() == (
            "8499971a7248886fc23c542fcaf8c25b310e6499c48ceaccfec4ebf3fc521808")

    def test_random_programs_policy_iteration_from_the_plain_solution(self):
        # The path tune takes, on programs up to the corpus's 80
        # operations: the lift, then branch and bound (up to 101 nodes
        # here) where a policy switched, and four systems that PI finds
        # infeasible, pinned by their messages.
        rng = random.Random(2021)
        pinned = hashlib.sha256()
        for k in range(120):
            c1, c2 = self._systems(
                gen_straight_line(rng, max_ops=(20, 40, 80)[k % 3]))
            try:
                a, policy, iterations = policy_iterate(
                    c2, plain=solve_monotone(c1))
                got = (a.values, a.total, a.nodes, policy, iterations)
            except SolverError as e:
                got = str(e)
            pinned.update(repr(got).encode())
        assert pinned.hexdigest() == (
            "ca118493928a74cccef4ed32337eedb90c331a3977ef608334559d772b759848")


def _state(system):
    """Everything a solve or the LP export reads from a system."""
    rows = system.rows
    return (rows.lhs, rows.const, rows.terms, rows.origin, rows.site,
            system.variables, system.xi_defs, system.carry_rows)


def test_no_solver_call_changes_its_system():
    # A policy's rows share the system's lists by slicing, so a solve
    # that extended or patched one in place would change the system.
    rng = random.Random(4242)
    switched = 0
    for k in range(30):
        prog = parse_program(gen_straight_line(rng, max_ops=(8, 30)[k % 2]))
        ranges = run_reference(prog, 100).ranges
        c1, c2 = gen_ilp(prog, ranges), gen_refined(prog, ranges)
        before = copy.deepcopy((_state(c1), _state(c2)))
        plain = solve_monotone(c1)
        with contextlib.suppress(SolverError), \
                pytest.MonkeyPatch.context() as m:
            m.setattr(solver, "NODE_LIMIT", 50)
            solve_ilp(c2, [1 + k % 2] * len(c2.xi_defs))
        with contextlib.suppress(SolverError):
            _, policy, _ = policy_iterate(c2, plain=plain)
            switched += policy != [3] * len(policy)
        export_lp(c1)
        export_lp(c2)
        assert (_state(c1), _state(c2)) == before
    assert switched >= 3


class TestExternalSolverBelt:
    def test_lp_relaxation_matches_least_fixed_point(self, rng):
        # For monotone systems the feasible region's unique minimal
        # point is integral, so the LP optimum equals the Kleene total.
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np
        for _ in range(15):
            n = rng.randint(2, 12)
            rows = random_monotone_rows(rng, n, rng.randint(2, 20), 10)
            if max(chaotic_fixpoint(rows, n, 300)) > 300:
                continue
            sys_, vars_ = make_system(rows, n, pmax=300)
            sol = solve_monotone(sys_)
            index = {v: i for i, v in enumerate(vars_)}
            a_ub, b_ub = [], []
            for c in sys_.constraints:
                coeff = [0.0] * n
                if c.lhs is not None:
                    coeff[index[c.lhs]] -= 1.0
                for k, v in c.rhs.terms:
                    coeff[index[v]] += float(k)
                a_ub.append(coeff)
                b_ub.append(float(-c.rhs.const))
            res = scipy_opt.linprog(
                c=np.ones(n), A_ub=np.array(a_ub), b_ub=np.array(b_ub),
                bounds=[(0, 300)] * n, method="highs")
            assert res.status == 0
            assert round(res.fun) == sol.total

    def test_milp_matches_branch_and_bound(self, rng):
        scipy_opt = pytest.importorskip("scipy.optimize")
        import numpy as np
        for _ in range(15):
            n = rng.randint(2, 8)
            rows = random_mixed_rows(rng, n, rng.randint(2, 10), 8)
            sys_, vars_ = make_system(rows, n, pmax=25)
            index = {v: i for i, v in enumerate(vars_)}
            a_ub, b_ub = [], []
            for c in sys_.constraints:
                coeff = [0.0] * n
                if c.lhs is not None:
                    coeff[index[c.lhs]] -= 1.0
                for k, v in c.rhs.terms:
                    coeff[index[v]] += float(k)
                a_ub.append(coeff)
                b_ub.append(float(-c.rhs.const))
            res = scipy_opt.milp(
                c=np.ones(n),
                constraints=scipy_opt.LinearConstraint(
                    np.array(a_ub), ub=np.array(b_ub)),
                integrality=np.ones(n),
                bounds=scipy_opt.Bounds(0, 25))
            if res.status == 2:                      # infeasible
                with pytest.raises(SolverError):
                    solve_ilp(sys_)
                continue
            assert res.status == 0
            assert round(res.fun) == solve_ilp(sys_).total
