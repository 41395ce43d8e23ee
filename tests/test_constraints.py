"""Constraint generation: row shapes for both systems.

The plain system demands, per operation, that each operand carry the
result's width plus the operands' leading-exponent offset and a carry
bit; the refined system adds error-width variables and turns the carry
of each addition into a min/max definition.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from bittune.constraints import gen_ilp, gen_refined, nsb, nsbe, system_stats
from bittune.interp import analyze_ranges
from bittune.parse import parse_program
from bittune.program import Assign, BinOp, Num, Sqrt, Var
from helpers import gen_straight_line


def systems_for(src, cond_nsb=53, pmax=500, inputs=(), binding_sets=None):
    prog = parse_program(src, inputs)
    links = prog.links
    ranges = analyze_ranges(prog, 100, binding_sets)
    return (prog, ranges,
            gen_ilp(prog, ranges, links, cond_nsb, pmax),
            gen_refined(prog, ranges, links, cond_nsb, pmax))


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
        src = "t = 0.0;\nwhile (t < 4.0) {\n    t = t + 1.0;\n}\n"
        _, _, c1, _ = systems_for(src, cond_nsb=7)
        consts = [c.rhs.const for c in rows(c1, "cond")]
        assert consts == [7, 7]

    def test_require_row(self):
        prog, _, c1, _ = systems_for("a = 2.0;\nrequire_nsb(a, 31);\n")
        (req,) = rows(c1, "require")
        assert req.rhs.const == 31 and not req.rhs.terms

    def test_objective_counts_only_nsb_vars(self):
        _, _, c1, c2 = systems_for("a = 2.0;\nb = a + a;\n")
        assert all(v.kind == "nsb" for v in c1.objective)
        assert all(v.kind == "nsb" for v in c2.objective)
        assert len(c2.objective) == len(c1.objective)

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
                   and prog.scopes[n.point]]
        margins = {c.rhs.const for c in rows(c1, "link")
                   if c.lhs.point in carried}
        assert margins == {4}

    def test_initial_defs_get_no_margin(self):
        prog, ranges, c1, _ = systems_for(self.LOOP)
        init = [n.point for n in prog.points if isinstance(n, Assign)
                and not prog.scopes[n.point]]
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
        (d,) = c2.xi_defs
        consts = sorted((d.arg1.const, d.arg2.const))
        assert consts == [-4, 4]
        for arg in (d.arg1, d.arg2):
            assert sorted(v.kind for _, v in arg.terms) == ["nsb", "nsbe"]

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
