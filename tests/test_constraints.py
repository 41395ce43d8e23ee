"""Constraint generation: row shapes for both systems.

The plain system demands, per operation, that each operand carry the
result's width plus the operands' leading-exponent offset and a carry
bit; the refined system adds error-width variables and turns the carry
of each addition into a min/max definition.
"""

import functools
import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bittune.constraints import (
    IntVar, gen_ilp, gen_refined, nsb, nsbe, system_stats, xi,
)
from bittune.interp import run_reference
from bittune.lpfile import export_lp
from bittune.nbody import build_nbody_program, horizon_t_max
from bittune.parse import parse_program
from bittune.program import Assign, BinOp, Num, Sqrt, Var
from bittune.solver import policy_iterate, solve_monotone
from helpers import (
    BRANCH, LOOP, dump, gen_straight_line, in_loop, keyed_defs,
)


def systems_for(src, pmax=500, inputs=(), binding_sets=None):
    prog = parse_program(src, inputs)
    ranges = run_reference(prog, 100, binding_sets).ranges
    return (prog, ranges,
            gen_ilp(prog, ranges, pmax),
            gen_refined(prog, ranges, pmax))


def by_origin(system):
    return Counter(c.origin for c in system.constraints)


def rows(system, origin=None, lhs_kind=None, site=None):
    out = []
    for c in system.constraints:
        if origin is not None and c.origin != origin:
            continue
        if lhs_kind is not None and (c.lhs is None or c.lhs.kind != lhs_kind):
            continue
        if site is not None and c.site != site:
            continue
        out.append(c)
    return out


class TestPlainSystem:
    def test_single_add_shape(self):
        _, _, c1, _ = systems_for("a = 2.0;\nb = 3.0;\nc = a + b;\n")
        assert by_origin(c1) == Counter(
            {"copy": 3, "operand": 2, "link": 2, "carry": 1})

    def test_operand_constants_are_ufp_offsets(self):
        # 8.0 + 0.5 = 8.5: ufp 3 and -1 against result ufp 3.
        prog, ranges, c1, _ = systems_for("a = 8.0;\nb = 0.5;\nc = a + b;\n")
        consts = sorted(c.rhs.const for c in rows(c1, "operand"))
        assert consts == [-4, 0]
        for c in rows(c1, "operand"):
            kinds = sorted(v.kind for _, v in c.rhs.terms)
            assert kinds == ["nsb", "xi"]

    def test_multiplication_constant(self):
        # 12.0 * 12.0 = 144: ufp(a) + ufp(b) - ufp(r) = 3 + 3 - 7 = -1.
        _, _, c1, _ = systems_for("a = 12.0;\nc = a * a;\n")
        assert sorted(c.rhs.const for c in rows(c1, "operand")) == [-1, -1]

    def test_division_constant(self):
        # 1.0 / 3.0: both operand rows carry ufp(a) - ufp(b) - ufp(r)
        # = 0 - 1 - (-2) = 1.
        _, _, c1, _ = systems_for("a = 1.0;\nb = 3.0;\nc = a / b;\n")
        assert sorted(c.rhs.const for c in rows(c1, "operand")) == [1, 1]

    def test_sqrt_constant_and_no_carry(self):
        # sqrt(225.16): ufp(a) - 2 ufp(r) - 2 = 7 - 6 - 2 = -1.
        _, _, c1, _ = systems_for("a = 225.16;\nc = sqrt(a);\n")
        assert by_origin(c1)["carry"] == 0
        assert [c.rhs.const for c in rows(c1, "operand")] == [-1]

    def test_every_operation_gets_one_carry_bound(self):
        _, _, c1, _ = systems_for(
            "a = 2.0;\nb = a + a;\nc = b * b;\nd = c - b;\ne = d / c;\n")
        carries = rows(c1, "carry")
        assert len(carries) == 4
        assert all(c.lhs.kind == "xi" and c.rhs.const == 1
                   and not c.rhs.terms for c in carries)

    def test_condition_operands_pinned_to_cond_width(self):
        # constraints.COND_NSB bits, capped at pmax like every width.
        src = "t = 0.0;\nwhile (t < 4.0) {\n    t = t + 1.0;\n}\n"
        for pmax, width in ((500, 53), (53, 53), (7, 7)):
            for system in systems_for(src, pmax=pmax)[2:]:
                assert [c.rhs.const for c in rows(system, "cond")] == \
                    [width, width]

    def test_require_row(self):
        prog, _, c1, _ = systems_for("a = 2.0;\nrequire_nsb(a, 31);\n")
        (req,) = rows(c1, "require")
        assert req.rhs.const == 31 and not req.rhs.terms

    def test_objective_counts_only_nsb_vars(self):
        # The objective sums the first points variables: nsb(p) is
        # variable p for every point p, and no other variable is nsb.
        prog, _, c1, c2 = systems_for("a = 2.0;\nb = a + a;\n")
        for system in (c1, c2):
            assert system.points == prog.n_points
            assert system.variables[:system.points] == \
                [nsb(p) for p in range(prog.n_points)]
            assert all(v.kind != "nsb"
                       for v in system.variables[system.points:])

    def test_unvisited_points_skipped_and_listed(self):
        src = ("a = 1.0;\nif (a > 2.0) {\n    b = a * a;\n} else {\n"
               "    c = a;\n}\n")
        prog, ranges, c1, _ = systems_for(src)
        dead = [n.point for n in prog.points
                if isinstance(n, Assign) and n.name == "b"]
        assert set(dead) <= set(c1.skipped_points)
        touched = {c.lhs for c in c1.constraints if c.lhs is not None}
        assert nsb(dead[0]) not in touched


class TestLinkMargins:
    LOOP = ("t = 0.0;\nx = 1.0;\nwhile (t < 16.0) {\n"
            "    x = x * 0.5;\n    t = t + 1.0;\n}\nrequire_nsb(x, 12);\n")

    def test_loop_carried_defs_get_visit_margin(self):
        # 16 visits: a def that survives the back edge re-rounds its own
        # value each trip, so its links carry ceil(log2 16) = 4 bits.
        prog, ranges, c1, _ = systems_for(self.LOOP)
        carried = [n.point for n in prog.points if isinstance(n, Assign)
                   and in_loop(prog, n.point)]
        margins = {c.rhs.const for c in rows(c1, "link")
                   if c.lhs.point in carried}
        assert margins == {4}

    def test_initial_defs_get_no_margin(self):
        prog, ranges, c1, _ = systems_for(self.LOOP)
        init = [n.point for n in prog.points if isinstance(n, Assign)
                and not in_loop(prog, n.point)]
        margins = {c.rhs.const for c in rows(c1, "link")
                   if c.lhs.point in init}
        assert margins == {0}

    def test_straight_line_links_flat(self, rng):
        for _ in range(20):
            _, _, c1, _ = systems_for(gen_straight_line(rng))
            assert all(c.rhs.const == 0 for c in rows(c1, "link"))


class TestRefinedSystem:
    def test_add_contributes_four_error_rows_and_one_xidef(self):
        _, _, _, c2 = systems_for("a = 2.0;\nb = 3.0;\nc = a + b;\n")
        assert len(rows(c2, "operand", lhs_kind="nsbe")) == 4
        assert len(c2.xi_defs) == 1

    def test_mul_contributes_two_error_rows_no_xidef(self):
        _, _, _, c2 = systems_for("a = 2.0;\nb = 3.0;\nc = a * b;\n")
        err = rows(c2, "operand", lhs_kind="nsbe")
        assert len(err) == 2
        assert all(c.rhs.const == -2 for c in err)
        assert not c2.xi_defs
        assert by_origin(c2)["carry"] == 1          # xi >= 1 kept for mul

    def test_product_rule_terms(self):
        _, _, _, c2 = systems_for("a = 2.0;\nb = 3.0;\nc = a * b;\n")
        for c in rows(c2, "operand", lhs_kind="nsbe"):
            kinds = sorted(v.kind for _, v in c.rhs.terms)
            assert kinds == ["nsb", "nsbe", "nsbe"]

    def test_xidef_arguments(self):
        # 8.0 + 0.5: leading exponents 3 and -1, so the two carry
        # arguments carry constants -4 and +4 over nsb + nsbe terms.
        _, _, _, c2 = systems_for("a = 8.0;\nb = 0.5;\nc = a + b;\n")
        ((x, arg1, arg2),) = c2.xi_defs
        assert c2.variables[x].kind == "xi"
        consts = sorted((arg1[0], arg2[0]))
        assert consts == [-4, 4]
        for _, terms in (arg1, arg2):
            assert sorted(c2.variables[i].kind for _, i in terms) == \
                ["nsb", "nsbe"]

    def test_literal_seeds_one_error_bit(self):
        _, _, _, c2 = systems_for("a = 2.0;\nb = 3.0;\nc = a + b;\n")
        seeds = rows(c2, "seed")
        assert len(seeds) == 2
        assert all(c.lhs.kind == "nsbe" and c.rhs.const == 1 for c in seeds)

    def test_zero_literal_not_seeded(self):
        _, _, _, c2 = systems_for("a = 2.0;\nz = 0.0;\nc = a + z;\n")
        assert len(rows(c2, "seed")) == 1

    def test_zero_operand_drops_its_cross_row(self):
        # The row anchored on the zero operand's error floor would turn
        # the magnitude sentinel into a huge constant; an exact operand
        # contributes no such floor.
        _, _, _, c2 = systems_for("a = 2.0;\nz = 0.0;\nc = a + z;\n")
        add_site = next(c.site for c in rows(c2, "operand", lhs_kind="nsbe"))
        err = rows(c2, "operand", lhs_kind="nsbe", site=add_site)
        assert len(err) == 3
        assert all(abs(c.rhs.const) < 200 for c in err)
        assert len(c2.xi_defs) == 1                 # the switch point stays

    def test_sqrt_of_zero_keeps_only_constant_free_rows(self):
        # The width row would carry the magnitude sentinel as a constant
        # and is dropped; the error mirror has no constant and stays.
        _, _, c1, c2 = systems_for("z = 0.0;\ns = sqrt(z);\n")
        assert not rows(c1, "operand")
        assert all(c.rhs.const == 0
                   for c in rows(c2, "operand", lhs_kind="nsbe"))

    def test_refined_keeps_plain_rows(self):
        _, _, c1, c2 = systems_for("a = 2.0;\nb = 3.0;\nc = a - b;\n"
                                   "require_nsb(c, 10);\n")
        plain2 = by_origin(c2)
        plain1 = by_origin(c1)
        assert plain2["require"] == plain1["require"] == 1
        assert plain2["copy"] >= plain1["copy"]

    def test_stats_shape(self):
        _, _, c1, c2 = systems_for("a = 2.0;\nb = a + a;\n")
        s = system_stats(c2)
        assert s["num_vars"] > system_stats(c1)["num_vars"]
        assert s["num_constraints"] == len(c2.constraints)

    @given(st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_per_op_error_row_counts(self, seed):
        # The generator never produces zero operands, so every operation
        # carries its full complement of error rows.
        src = gen_straight_line(random.Random(seed), max_ops=5)
        prog, ranges, _, c2 = systems_for(src)
        expected = {}
        for node in prog.points:
            if isinstance(node, BinOp):
                expected[node.point] = 4 if node.op in "+-" else 2
            elif isinstance(node, Sqrt):
                expected[node.point] = 1
        got = Counter(c.site for c in rows(c2, "operand", lhs_kind="nsbe"))
        for site, n in expected.items():
            assert got[site] == n, (src, site)

    @given(st.integers(0, 2**32))
    @settings(max_examples=40)
    def test_refined_solution_satisfies_system(self, seed):
        from bittune.solver import policy_iterate
        src = gen_straight_line(random.Random(seed), max_ops=4)
        _, _, _, c2 = systems_for(src)
        assignment, _, _ = policy_iterate(c2)
        assert c2.satisfied_by(assignment.values)

    def test_carry_index_matches_the_definitions_and_rows(self):
        # Each definition names its own carry and, per argument, one
        # operand's nsb and nsbe.  The solver patches only carry_rows
        # per policy, so every other row must have a left variable and
        # no negative term.
        sources = [*_pinned_sources(), "a = 2.0;\nz = 0.0;\nc = a + z;\n"]
        for src in sources:
            prog, _, c1, c2 = systems_for(src)
            assert not (c1.xi_defs or c1.carry_rows)
            vs = c2.variables
            for x, (_, terms1), (_, terms2) in c2.xi_defs:
                node = prog.points[vs[x].point]
                a, b = node.left.point, node.right.point
                assert vs[x] == xi(node.point, a, b) and node.op in "+-"
                for p, terms in ((a, terms1), (b, terms2)):
                    assert [(c, vs[i]) for c, i in terms] == \
                        [(1, nsb(p)), (1, nsbe(p))]
            defined = {var: d for d, (var, _, _) in enumerate(c2.xi_defs)}
            patched = {}
            for r, ts in enumerate(c2.rows.terms):
                read = [defined[i] for _, i in ts if i in defined]
                if read:
                    patched[r] = read
                else:
                    assert c2.rows.lhs[r] >= 0
                    assert all(c > 0 for c, _ in ts)
            assert [r for r, _, _ in c2.carry_rows] == sorted(patched)
            for r, d, plain in c2.carry_rows:
                assert patched[r] == [d]
                var = c2.xi_defs[d][0]
                assert c2.rows.terms[r] == plain + ((1, var),)
                named = [i for _, i in plain]
                assert len(set(named)) == len(named)
                assert c2.rows.lhs[r] not in named

    def test_carry_that_contradicts_its_definition_fails_the_check(self):
        # Every linear row still holds with a carry lowered from 1 to 0:
        # only the carry's own definition rules the assignment out.
        from bittune.solver import policy_iterate
        _, _, _, c2 = systems_for("a = 1.5;\nb = 2.25;\nc = a + b;\n"
                                  "d = c * c + a;\nrequire_nsb(d, 20);\n")
        assignment, _, _ = policy_iterate(c2)
        assert c2.satisfied_by(assignment.values)
        assert len(c2.xi_defs) == 2
        for x, _, _ in c2.xi_defs:
            assert assignment.values[x] == 1
            lowered = list(assignment.values)
            lowered[x] = 0
            assert _dict_keyed_check(c2.constraints, (),
                                     dict(zip(c2.variables, lowered)))
            assert not c2.satisfied_by(lowered)


def _pinned_sources():
    yield build_nbody_program(t_max=horizon_t_max(0.05))
    rng = random.Random(0xC0DE)
    for k in range(50):
        yield gen_straight_line(rng, max_ops=(4, 12, 30)[k % 3])


class TestPinnedBytes:
    """The text of both systems and of their LP export, recorded once
    and compared byte for byte over the 0.05-year five-body program and
    50 random straight-line programs."""

    PINNED = {
        "c1.dump": "64f77dd899d65a0f236243dcdefb7b9f"
                   "28f9b1b3cb3cf2796f56c7baa828aa1d",
        "c2.dump": "e659f6d8e1512438292dfd8229539f2a"
                   "13c4586fc83674a60712928e4eff35f9",
        "c1.lp": "4f8ddec55c79221ce5ee120ea2065214"
                 "8e76e5f4b950430db29a170b6f643f67",
        "c2.lp": "34331883d2e49393d56e371cebacb121"
                 "97ad0deece842c0fbc0c79c2be326898",
    }

    def test_dumps_and_lp_exports_match_the_pinned_digests(self):
        digests = {name: hashlib.sha256() for name in self.PINNED}
        for src in _pinned_sources():
            _, _, c1, c2 = systems_for(src)
            digests["c1.dump"].update(dump(c1).encode())
            digests["c2.dump"].update(dump(c2).encode())
            digests["c1.lp"].update(export_lp(c1).encode())
            digests["c2.lp"].update(export_lp(c2).encode())
        assert {name: h.hexdigest() for name, h in digests.items()} == \
            self.PINNED


FIVE_BODY = build_nbody_program(t_max=horizon_t_max(0.05))


@functools.cache
def _solved_systems(src):
    """C1 and C2 of src, each with its solved assignment and its rows as
    the constraints view yields them."""
    _, _, c1, c2 = systems_for(src)
    return [(c1, solve_monotone(c1).values, list(c1.constraints)),
            (c2, policy_iterate(c2)[0].values, list(c2.constraints))]


def _dict_keyed_check(rows, keyed_defs, values):
    """Every row and carry definition, evaluated through variable keys."""
    def value(e):
        return e.const + sum(k * values[v] for k, v in e.terms)

    return (all((values[c.lhs] if c.lhs is not None else 0) >= value(c.rhs)
                for c in rows)
            and all(values[x] == min(max(value(arg1), 0),
                                     max(value(arg2), 0), 1)
                    for x, arg1, arg2 in keyed_defs))


class TestRowForm:
    """The index rows satisfied_by reads say what the rows the
    constraints view builds say."""

    @given(st.data())
    @settings(max_examples=60)
    def test_satisfied_by_matches_a_dict_keyed_evaluation(self, data):
        src = data.draw(st.one_of(
            st.sampled_from((LOOP, BRANCH, FIVE_BODY)),
            st.integers(0, 2**32).map(
                lambda seed: gen_straight_line(random.Random(seed),
                                               max_ops=6))))
        for system, solved, rows in _solved_systems(src):
            assert len(system.constraints) == len(rows)
            lowered = list(solved)
            lowered[data.draw(st.sampled_from(range(len(solved))))] -= 1
            checked = [solved, lowered]
            carries = [i for i, v in enumerate(system.variables)
                       if v.kind == "xi"]
            if carries:
                flipped = list(solved)
                carry = data.draw(st.sampled_from(carries))
                flipped[carry] = 1 - flipped[carry]
                checked.append(flipped)
            for values in checked:
                assert system.satisfied_by(values) == _dict_keyed_check(
                    rows, keyed_defs(system),
                    dict(zip(system.variables, values)))
            assert system.satisfied_by(solved)


class TestIntVar:
    def test_hashing_is_the_tuple_hash(self):
        # A Python-level __hash__ or __eq__ would run on every dict and
        # set lookup of the generator and the solver.
        assert IntVar.__hash__ is tuple.__hash__
        assert IntVar.__eq__ is tuple.__eq__

    def test_text_forms(self):
        assert (str(nsb(3)), nsb(3).name, repr(nsb(3))) == (
            "nsb_3", "nsb_3", "IntVar(kind='nsb', point=3, operands=None)")
        assert (str(nsbe(4)), nsbe(4).name, repr(nsbe(4))) == (
            "nsbe_4", "nsbe_4", "IntVar(kind='nsbe', point=4, operands=None)")
        assert (str(xi(7, 2, 5)), xi(7, 2, 5).name, repr(xi(7, 2, 5))) == (
            "xi_7(2,5)", "xi_7",
            "IntVar(kind='xi', point=7, operands=(2, 5))")

    def test_fresh_variables_equal_the_generated_ones(self):
        _, _, c1, c2 = systems_for("a = 2.0;\nb = 3.0;\nc = a + b * a;\n"
                                   "require_nsb(c, 10);\n")
        make = {"nsb": nsb, "nsbe": nsbe}
        for system in (c1, c2):
            for v in system.variables:
                fresh = (xi(v.point, *v.operands) if v.kind == "xi"
                         else make[v.kind](v.point))
                assert fresh == v and hash(fresh) == hash(v)
                assert fresh is not v

    def test_one_object_per_variable(self):
        # The generator numbers each variable once, from its own
        # per-point lists, and every row and carry definition reads it
        # by that index: no variable is declared twice, nsb(p) is
        # variable p, and the indices read are exactly the declared ones.
        _, _, c1, c2 = systems_for(build_nbody_program(
            t_max=horizon_t_max(0.05)))
        for system in (c1, c2):
            vs = system.variables
            assert len(set(vs)) == len(vs)
            assert vs[:system.points] == [nsb(p) for p in
                                          range(system.points)]
            rows = system.rows
            read = [left for left in rows.lhs if left >= 0]
            read += [i for ts in rows.terms for _, i in ts]
            for x, (_, terms1), (_, terms2) in system.xi_defs:
                read += [x] + [i for _, i in terms1 + terms2]
            assert all(0 <= i < len(vs) for i in read)
            assert set(read) == set(range(len(vs)))
