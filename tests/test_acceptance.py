"""Acceptance gate for the whole artifact.

Eight checks, one test each, so `pytest tests/test_acceptance.py -v`
prints one pass/fail line per check.  Together they pin down: the exact
constraint rows emitted for the distance computation (plain and
refined), solver minimality against independent oracles, the
refinement's strict win on the orbit benchmark, reproduction of the
known end-to-end error magnitudes, correct rounding of the arithmetic
layer, soundness of solved widths on random programs, and agreement of
the exported LP with an external integer solver.  Tolerances and time
budgets are asserted inside the tests.
"""

import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from bittune.constraints import gen_ilp, gen_refined
from bittune.interp import run_reference, run_tuned
from bittune.lpfile import export_lp
from bittune.mpfloat import arith, round_to, sqrt, to_fraction, ufp
from bittune.nbody import ExperimentPlan, build_nbody_program, horizon_t_max, run_experiment
from bittune.parse import parse_program
from bittune.program import BinOp, Require
from bittune.solver import SolverError, solve_ilp, solve_monotone
from bittune.tuner import TuningConfig, tune
from helpers import (
    abs_mpv, binding, fraction_ufp, gen_straight_line, random_mpv,
)
from test_solver import (
    chaotic_fixpoint, enumerate_optimum, make_system, random_mixed_rows,
    random_monotone_rows,
)

# --- check 1 and 2: the distance computation, frozen row by row -------
#
# distance = sqrt(dx*dx + dy*dy + dz*dz) with dx = 12, dy = 9, dz = 0.4.
# The 13 control points in parse order:
#   0,1 dx dx   2 dx*dx   3,4 dy dy   5 dy*dy    6 inner +
#   7,8 dz dz   9 dz*dz  10 outer +  11 sqrt    12 store
# Leading exponents: dx and dy lie in [8,16) so ufp 3, dz in [0.25,0.5)
# so ufp -2; hence dx*dx 7, dy*dy 6, dz*dz -3, both sums 7, sqrt 3.

DISTANCE_SRC = "distance = sqrt(dx*dx + dy*dy + dz*dz);\n"
DISTANCE_BINDINGS = binding(dx="12.0", dy="9.0", dz="0.4")

DISTANCE_UFP = {0: 3, 1: 3, 2: 7, 3: 3, 4: 3, 5: 6, 6: 7,
                7: -2, 8: -2, 9: -3, 10: 7, 11: 3, 12: 3}

# Every plain row as (lhs, constant, sorted terms); a variable is the
# pair (kind, point) and all coefficients are +1 here.  Addition operand
# constants are the offsets ufp(operand) - ufp(result): (+7-7), (+6-7),
# (+7-7) again for the inner sum feeding the outer one, and (-3-7);
# product constants are ufp(a) + ufp(b) - ufp(result), which is the
# "carry minus one" shape for both twelve-squarings; the square root row
# carries ufp(a) - 2 ufp(r) - 2 = -1 and no carry variable.
EXPECTED_PLAIN = {
    # dx*dx: 3 + 3 - 7 = -1 on both operands, plus its carry bound
    (("nsb", 0), -1, (("nsb", 2), ("xi", 2))),
    (("nsb", 1), -1, (("nsb", 2), ("xi", 2))),
    (("xi", 2), 1, ()),
    # dy*dy: 3 + 3 - 6 = 0
    (("nsb", 3), 0, (("nsb", 5), ("xi", 5))),
    (("nsb", 4), 0, (("nsb", 5), ("xi", 5))),
    (("xi", 5), 1, ()),
    # inner sum: offsets +7-7 and +6-7
    (("nsb", 2), 0, (("nsb", 6), ("xi", 6))),
    (("nsb", 5), -1, (("nsb", 6), ("xi", 6))),
    (("xi", 6), 1, ()),
    # dz*dz: -2 - 2 - (-3) = -1
    (("nsb", 7), -1, (("nsb", 9), ("xi", 9))),
    (("nsb", 8), -1, (("nsb", 9), ("xi", 9))),
    (("xi", 9), 1, ()),
    # outer sum: offsets +7-7 and -3-7
    (("nsb", 6), 0, (("nsb", 10), ("xi", 10))),
    (("nsb", 9), -10, (("nsb", 10), ("xi", 10))),
    (("xi", 10), 1, ()),
    # sqrt: 7 - 2*3 - 2 = -1
    (("nsb", 10), -1, (("nsb", 11),)),
    # store copy
    (("nsb", 11), 0, (("nsb", 12),)),
}


def _distance_system(refined=False):
    prog = parse_program(DISTANCE_SRC, tuple(sorted(DISTANCE_BINDINGS)))
    ranges = run_reference(prog, 100, [DISTANCE_BINDINGS]).ranges
    gen = gen_refined if refined else gen_ilp
    return prog, ranges, gen(prog, ranges, 500)


def _row_key(c):
    terms = tuple(sorted((v.kind, v.point) for k, v in c.rhs.terms))
    return ((c.lhs.kind, c.lhs.point), c.rhs.const, terms)


def test_1_plain_system_golden_on_the_distance_statement():
    t0 = time.perf_counter()
    prog, ranges, c1 = _distance_system()
    elapsed = time.perf_counter() - t0

    assert {p: ranges.ufp(p) for p in range(prog.n_points)} == DISTANCE_UFP
    assert len(c1.constraints) == 17
    assert Counter(c.origin for c in c1.constraints) == Counter(
        {"operand": 11, "carry": 5, "copy": 1})
    assert all(k == 1 for c in c1.constraints for k, _ in c.rhs.terms)
    assert {_row_key(c) for c in c1.constraints} == EXPECTED_PLAIN

    # The addition offsets, stated as (ufp operand, -ufp result) pairs;
    # the (+7,-7) pair appears once per sum.
    adds = [c for c in c1.constraints
            if c.origin == "operand"
            and isinstance(prog.points[c.site], BinOp)
            and prog.points[c.site].op == "+"]
    pairs = Counter((DISTANCE_UFP[c.lhs.point], -DISTANCE_UFP[c.site])
                    for c in adds)
    assert pairs == Counter({(7, -7): 2, (6, -7): 1, (-3, -7): 1})
    assert elapsed < 1.0


def test_2_refined_system_golden_carry_and_product_rules():
    t0 = time.perf_counter()
    prog, ranges, c2 = _distance_system(refined=True)
    elapsed = time.perf_counter() - t0

    # Only the two sums get carry definitions; products keep the plain
    # carry-at-least-one row.
    vs = c2.variables
    assert sorted(vs[x].point for x, _, _ in c2.xi_defs) == [6, 10]
    _, *inner = next(d for d in c2.xi_defs if vs[d[0]].point == 6)
    args = {(const, tuple(sorted((vs[i].kind, vs[i].point)
                                 for _, i in terms)))
            for const, terms in inner}
    # 6 - 7 + nsb + nsbe of the wider operand, 7 - 6 + nsb + nsbe of the
    # narrower one.
    assert args == {
        (-1, (("nsb", 2), ("nsbe", 2))),
        (1, (("nsb", 5), ("nsbe", 5))),
    }

    # dx*dx error rows: nsb + nsbe + nsbe - 2, one per operand order.
    prod_err = [c for c in c2.constraints
                if c.site == 2 and c.lhs.kind == "nsbe"]
    assert len(prod_err) == 2
    assert {_row_key(c) for c in prod_err} == {
        (("nsbe", 2), -2, (("nsb", 0), ("nsbe", 0), ("nsbe", 1))),
        (("nsbe", 2), -2, (("nsb", 1), ("nsbe", 0), ("nsbe", 1))),
    }

    # The inner sum contributes four error rows on top of its two plain
    # operand rows.  The refined system keeps every plain row except the
    # constant carry floors at the two sums, which the definitions above
    # replace; the three product sites keep theirs.
    assert len([c for c in c2.constraints
                if c.site == 6 and c.lhs.kind == "nsbe"]) == 4
    refined_keys = {_row_key(c) for c in c2.constraints}
    replaced = {(("xi", 6), 1, ()), (("xi", 10), 1, ())}
    assert EXPECTED_PLAIN - replaced <= refined_keys
    assert not (replaced & refined_keys)
    assert elapsed < 1.0


# --- check 3: solver minima against independent oracles ---------------

def test_3_solver_minima_match_independent_oracles():
    t0 = time.perf_counter()
    scipy_opt = pytest.importorskip("scipy.optimize")
    import numpy as np

    # Exhaustive enumeration at a size where it is actually possible,
    # to ground the two scalable oracles used below.
    rng = random.Random(0xACC3)
    for _ in range(10):
        n = rng.randint(2, 3)
        rows = random_monotone_rows(rng, n, rng.randint(2, 6), 4)
        best = enumerate_optimum(rows, n, box=12)
        fix = chaotic_fixpoint(rows, n, 12)
        assert best is not None and list(best[1]) == fix

    # 50 monotone systems, up to 20 variables in [0, 60].  Feasible
    # systems must solve to the chaotic-iteration fixed point exactly
    # (every feasible point dominates it, so it is the unique minimum);
    # systems whose fixed point escapes the box must be reported.
    solved = 0
    for _ in range(50):
        n = rng.randint(2, 20)
        rows = random_monotone_rows(rng, n, rng.randint(2, 2 * n), 6)
        sys_, vars_ = make_system(rows, n, pmax=60)
        want = chaotic_fixpoint(rows, n, 60)
        if max(want) > 60:
            with pytest.raises(SolverError):
                solve_monotone(sys_)
            continue
        sol = solve_monotone(sys_)
        assert sol.values == want
        for v in range(len(vars_)):
            if sol.values[v]:
                lowered = list(sol.values)
                lowered[v] -= 1
                assert not sys_.satisfied_by(lowered)
        solved += 1
    assert solved >= 25

    # 30 mixed-sign systems, up to 10 variables in [0, 30], against an
    # external exact integer solver.
    for _ in range(30):
        n = rng.randint(2, 10)
        rows = random_mixed_rows(rng, n, rng.randint(2, 12), 10)
        sys_, vars_ = make_system(rows, n, pmax=30)
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
            bounds=scipy_opt.Bounds(0, 30))
        if res.status == 2:
            with pytest.raises(SolverError):
                solve_ilp(sys_)
            continue
        assert res.status == 0
        sol = solve_ilp(sys_)
        assert sys_.satisfied_by(sol.values)
        assert sol.total == round(res.fun)
    assert time.perf_counter() - t0 < 60.0


# --- check 4: the refinement's strict win on the orbit benchmark ------

# Totals a reimplementation of the same analysis should land near; a
# factor of two absorbs differences in the benchmark's untabulated
# initial conditions.
KNOWN_TOTAL_PLAIN = 14636
KNOWN_TOTAL_REFINED = 14335


def test_4_refinement_beats_plain_ilp_on_the_orbit_benchmark():
    source = build_nbody_program(req=11, dt="0.01",
                                 t_max=horizon_t_max(10.0))
    t0 = time.perf_counter()
    _, report, _ = tune(parse_program(source), TuningConfig(method="pi"))
    elapsed = time.perf_counter() - t0

    plain, refined = report.total_bits["ilp"], report.total_bits["pi"]
    print(f"totals: plain {plain}, refined {refined}, "
          f"gain {plain - refined}, {elapsed:.1f} s")
    assert refined < plain
    assert KNOWN_TOTAL_PLAIN / 2 <= plain <= KNOWN_TOTAL_PLAIN * 2
    assert KNOWN_TOTAL_REFINED / 2 <= refined <= KNOWN_TOTAL_REFINED * 2
    assert elapsed < 60.0


# --- check 5: end-to-end error magnitudes of the full sweep -----------

# Known drift against the 500-bit orbit at ten years, in AU, for
# requirement widths 11, 18 and 24.  The sweep must stay within 100x of
# these and under an absolute 1e-7 at the plateau widths 34, 43, 53.
NSB_SWEEP = (11, 18, 24, 34, 43, 53)
TARGET_AU = {
    "Jupiter": (5.542e-4, 1.650e-6, 1.577e-7),
    "Saturn": (1.571e-3, 2.111e-5, 1.326e-7),
    "Uranus": (2.952e-3, 2.364e-5, 1.140e-7),
    "Neptune": (2.360e-3, 3.807e-5, 2.206e-7),
}
PLATEAU_AU = 1e-7


def test_5_orbit_sweep_reproduces_known_error_magnitudes(tmp_path):
    plan = ExperimentPlan(nsb_values=NSB_SWEEP, horizons_years=(10.0,),
                          write_series=False)
    t0 = time.perf_counter()
    rows = run_experiment(plan, out_dir=tmp_path)
    elapsed = time.perf_counter() - t0
    print(f"sweep: {len(rows)} rows in {elapsed:.1f} s")

    per_body = {body: {} for body in TARGET_AU}
    for r in rows:
        per_body[r.body][r.nsb] = r.distance_au
    for body, by_nsb in per_body.items():
        dist = [by_nsb[n] for n in NSB_SWEEP]
        assert len(dist) == len(NSB_SWEEP)
        for i, d in enumerate(dist):
            bound = 100.0 * TARGET_AU[body][i] if i < 3 else PLATEAU_AU
            assert 0.0 <= d <= bound, (body, NSB_SWEEP[i], d, bound)
        # Non-increasing until the plateau bound is first reached.
        plateau = next(i for i, d in enumerate(dist) if d <= PLATEAU_AU)
        for i in range(plateau):
            assert dist[i + 1] <= dist[i], (body, dist)
    assert elapsed < 900.0


# --- check 6: rounding laws and correct rounding ----------------------

def test_6_rounding_and_correct_rounding_battery():
    rng = random.Random(0x10AD)
    checks = 0
    for _ in range(2500):
        x = random_mpv(rng)
        fx = to_fraction(x)
        p = rng.randint(2, 60)

        # Leading-exponent law: 2^ufp <= |x| < 2^(ufp+1).
        assert ufp(x) == fraction_ufp(fx)
        checks += 1

        # Rounding moves a value by at most its last retained place.
        r = round_to(x, p)
        assert abs(to_fraction(r) - fx) <= Fraction(2) ** (ufp(x) - p)
        checks += 1
        assert round_to(r, p) == r
        checks += 1

        # Correct rounding equals rounding a double-working-precision
        # result: for p-bit operands, 2p+2 bits make the two-step
        # rounding exact for all five operations.
        a = round_to(random_mpv(rng), p)
        b = round_to(random_mpv(rng), p)
        op = rng.choice(("+", "-", "*", "/", "sqrt"))
        if op == "sqrt":
            a = abs_mpv(a)
            direct, wide = sqrt(a, p), sqrt(a, 2 * p + 2)
        else:
            direct, wide = arith(op, a, b, p), arith(op, a, b, 2 * p + 2)
        assert round_to(wide, p) == direct, (op, a, b, p)
        checks += 1
    assert checks == 10_000


# --- check 7: solved widths are sound on random programs --------------

def test_7_random_small_programs_meet_their_bit_requirement():
    """Solved widths must keep every required output within one ulp of
    the 500-bit reference, across 200 random straight-line programs.

    Known to fall short, and kept strict on purpose: the per-operation
    demands are first order, and rounding errors compound along chains,
    so a depth-two chain (a square root of a square root, say) can land
    a little past the one-ulp line.  Sampling widely puts the miss rate
    near 3% of random programs with the worst overshoot around 3.5x.
    The bound here is the one the per-operation rules aim at, and the
    failure report below measures how far the chains actually land.
    """
    rng = random.Random(0x1337)
    violations = []
    for i in range(200):
        src = gen_straight_line(rng)
        prog = parse_program(src)
        ranges = run_reference(prog, 500).ranges
        c1 = gen_ilp(prog, ranges, 500)
        sol = solve_monotone(c1)
        widths = {v.point: n for v, n in zip(c1.variables, sol.values)
                  if v.kind == "nsb"}
        ref = run_reference(prog, 500)
        tuned = run_tuned(prog, widths)
        for st in prog.stmts:
            if not isinstance(st, Require):
                continue
            rv, tv = ref.env[st.name], tuned.env[st.name]
            bound = Fraction(2) ** (ufp(rv) - st.bits + 1)
            err = abs(to_fraction(tv) - to_fraction(rv))
            if err > bound:
                violations.append(
                    f"program {i}, {st.name}: {float(err / bound):.3f}x "
                    f"over the one-ulp bound\n{src}")
    assert not violations, "\n".join(violations)


# --- check 8: LP export against an external integer solver ------------

def _parse_lp(text):
    """Objective names, constraint rows, bounds and integer names."""
    section = None
    objective, rows, integers = [], [], []
    bounds = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        if line.lower() in ("minimize", "subject to", "bounds",
                            "general", "end"):
            section = line.lower()
            continue
        if section == "minimize":
            toks = line.split(":", 1)[-1].replace("+", " ").split()
            objective.extend(toks)
        elif section == "subject to":
            if ":" in line:
                line = line.split(":", 1)[1]
                rows.append({"terms": [], "rhs": None})
            toks = line.split()
            sign, i = 1, 0
            while i < len(toks):
                t = toks[i]
                if t == "+":
                    sign = 1
                elif t == "-":
                    sign = -1
                elif t == ">=":
                    rows[-1]["rhs"] = int(toks[i + 1])
                    i += 1
                elif t.lstrip("-").isdigit():
                    rows[-1]["terms"].append((sign * int(t), toks[i + 1]))
                    sign, i = 1, i + 1
                else:
                    rows[-1]["terms"].append((sign, t))
                    sign = 1
                i += 1
        elif section == "bounds":
            lo, _, name, _, hi = line.split()
            bounds[name] = (int(lo), int(hi))
        elif section == "general":
            integers.extend(line.split())
    return objective, rows, bounds, integers


def test_8_lp_export_agrees_with_external_milp_solver():
    scipy_opt = pytest.importorskip("scipy.optimize")
    import numpy as np

    _, _, c1 = _distance_system()
    objective, rows, bounds, integers = _parse_lp(export_lp(c1))
    names = sorted(bounds, key=lambda n: (n.split("_")[0],
                                          int(n.split("_")[1])))
    assert set(integers) == set(names)
    assert all(r["rhs"] is not None for r in rows)
    index = {n: i for i, n in enumerate(names)}

    a_ub = np.zeros((len(rows), len(names)))
    b_ub = np.zeros(len(rows))
    for ri, row in enumerate(rows):
        for coef, name in row["terms"]:
            a_ub[ri, index[name]] -= coef
        b_ub[ri] = -row["rhs"]
    cost = np.array([1.0 if n in set(objective) else 0.0 for n in names])
    res = scipy_opt.milp(
        c=cost,
        constraints=scipy_opt.LinearConstraint(a_ub, ub=b_ub),
        integrality=np.ones(len(names)),
        bounds=scipy_opt.Bounds(
            np.array([bounds[n][0] for n in names], dtype=float),
            np.array([bounds[n][1] for n in names], dtype=float)))
    assert res.status == 0

    sol = solve_monotone(c1)
    ours = {f"{v.kind}_{v.point}": n for v, n in zip(c1.variables,
                                                      sol.values)}
    assert {n: round(res.x[i]) for n, i in index.items()} == ours
    assert round(res.fun) == sol.total
