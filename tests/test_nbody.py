"""Five-body benchmark: generated program, physics sanity, sweep output."""

import csv
import hashlib
import math
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from bittune import mpfloat, nbody as nbody_mod, tuner
from bittune.cli import main
from bittune.constraints import with_requirement
from bittune.interp import run_reference
from bittune.lpfile import export_lp
from bittune.nbody import (
    BODY_ORDER, COORDS, BenchConstants, ExperimentPlan, build_nbody_program,
    horizon_t_max, load_bodies, planet_coord_names, _distance,
    _prepare_horizon, run_experiment,
)
from bittune.parse import parse_program
from helpers import (
    dump, reference_energy_drift, to_float, total_energy,
)


class TestConstants:
    def test_five_bodies_in_order(self):
        c = load_bodies()
        assert tuple(b.name for b in c.bodies) == BODY_ORDER

    def test_sun_is_pinned_and_heavy(self):
        c = load_bodies()
        sun = c.bodies[0]
        assert sun.fixed
        assert sun.mass == "1.0"

    def test_published_spellings_survive_verbatim(self):
        c = load_bodies()
        by_name = {b.name: b for b in c.bodies}
        assert by_name["Jupiter"].x == "4.8414316"
        assert by_name["Jupiter"].vx == "0.0016600767"
        assert by_name["Jupiter"].mass == "9.5479196E-4"
        assert by_name["Saturn"].x == "8.343367"
        assert by_name["Saturn"].vx == "-0.002767425"
        assert by_name["Saturn"].mass == "2.8588597E-4"
        assert c.days_per_year == "365.24"

    def test_jupiter_dominates_planet_masses(self):
        c = load_bodies()
        masses = {b.name: float(b.mass) for b in c.planets()}
        assert max(masses, key=masses.get) == "Jupiter"
        assert all(m < 1e-3 for m in masses.values())


class TestProgramGeneration:
    def test_paper_constants_appear_verbatim(self):
        src = build_nbody_program()
        for needle in ("dt = 0.01;", "t_max = 1000.0;",
                       "days_per_year = 365.24;",
                       "xJupiter = 4.8414316;",
                       "vxJupiter = 0.0016600767 * days_per_year;",
                       "massJupiter = 9.5479196E-4 * solar_mass;",
                       "xSaturn = 8.343367;",
                       "vxSaturn = -0.002767425 * days_per_year;",
                       "massSaturn = 2.8588597E-4 * solar_mass;"):
            assert needle in src, needle

    def test_sun_needs_no_motion_state(self):
        src = build_nbody_program()
        assert "massSun = solar_mass;" in src
        assert "vxSun" not in src and "xSun = xSun" not in src

    def test_loop_and_requirements(self):
        src = build_nbody_program(req=17)
        assert "while (t < t_max)" in src
        assert "mag = dt / (distance * distance * distance);" in src
        assert src.count("require_nsb(") == 12
        assert "require_nsb(xJupiter, 17);" in src

    def test_statement_count_scale(self):
        # The original listing is ~330 lines; ours stays the same order.
        n = build_nbody_program().count(";")
        assert 100 <= n <= 700

    def test_parses_and_all_reads_resolve(self):
        prog = parse_program(build_nbody_program())
        assert len(prog.points) > 800

    def test_custom_constants_flow_through(self):
        c = load_bodies()
        trimmed = BenchConstants(c.days_per_year, c.solar_mass, c.bodies[:2])
        src = build_nbody_program(trimmed, req=9)
        assert "Saturn" not in src
        assert src.count("require_nsb(") == 3
        parse_program(src)


class TestHorizons:
    def test_t_max_sits_half_a_step_early(self):
        assert horizon_t_max(10.0) == "9.995"
        assert horizon_t_max(30.0) == "29.995"
        assert horizon_t_max(0.0) == "-0.005"
        assert horizon_t_max(1.0, dt="0.25") == "0.875"

    def test_trip_count_is_exact(self):
        src = build_nbody_program(dt="0.01", t_max=horizon_t_max(0.05))
        trace = run_reference(parse_program(src), pref=60, track=("xJupiter",))
        assert len(trace.samples["xJupiter"]) - 1 == 5

    def test_zero_horizon_runs_no_steps(self):
        src = build_nbody_program(t_max=horizon_t_max(0.0))
        trace = run_reference(parse_program(src), pref=60, track=("xJupiter",))
        assert len(trace.samples["xJupiter"]) == 1


class TestPhysics:
    def test_total_energy_is_negative(self):
        src = build_nbody_program(t_max=horizon_t_max(0.0))
        trace = run_reference(parse_program(src), pref=200)
        assert total_energy(trace.env) < 0

    def test_energy_drift_regression(self):
        # Euler-method drift at dt = 0.01 over 10 years, measured once
        # and pinned: well under the 1% sanity threshold.
        drift = reference_energy_drift(years=10.0, pref=200)
        assert drift < 0.01

    def test_planets_stay_in_the_system(self):
        src = build_nbody_program(t_max=horizon_t_max(2.0))
        trace = run_reference(parse_program(src), pref=120)
        for body in BODY_ORDER[1:]:
            r = math.sqrt(sum(
                to_float(trace.env[f"{d}{body}"]) ** 2
                for d in "xyz"))
            assert 1.0 < r < 60.0


class TestSweep:
    def test_summary_and_series_schema(self, tmp_path):
        plan = ExperimentPlan(nsb_values=(11, 24), horizons_years=(0.1,))
        rows = run_experiment(plan, tmp_path)
        assert [r.body for r in rows[:4]] == list(BODY_ORDER[1:])
        with open(tmp_path / "summary.csv") as fh:
            table = list(csv.reader(fh))
        assert table[0] == ["nsb", "horizon_years", "body", "distance_au",
                           "tune_seconds", "run_seconds"]
        assert len(table) == 1 + 2 * 4
        with open(tmp_path / "series_nsb11_h0.1y.csv") as fh:
            series = list(csv.reader(fh))
        assert series[0] == ["step", "body", "distance_au"]
        assert series[1][0] == "0"                  # initial state included
        assert len(series) == 1 + (10 + 1) * 4

    def test_more_bits_less_drift(self, tmp_path):
        plan = ExperimentPlan(nsb_values=(11, 24), horizons_years=(0.1,),
                              write_series=False)
        rows = run_experiment(plan, tmp_path)
        drift = {(r.nsb, r.body): r.distance_au for r in rows}
        for body in BODY_ORDER[1:]:
            assert drift[(24, body)] < drift[(11, body)]

    def test_zero_horizon_drift_is_literal_rounding_only(self, tmp_path):
        # With no steps the only divergence left is the rounding of the
        # initial-position literals.  Their decimal values are not
        # dyadic, so every width below the reference precision leaves a
        # residue at the width's own scale; at the full 500 bits the
        # tuned run is the reference run and the distance is exactly 0.
        plan = ExperimentPlan(nsb_values=(11, 24, 500), horizons_years=(0.0,),
                              write_series=False)
        rows = run_experiment(plan, tmp_path)
        drift = {(r.nsb, r.body): r.distance_au for r in rows}
        for body in BODY_ORDER[1:]:
            assert drift[(500, body)] == 0.0
            assert 0.0 < drift[(24, body)] < 1e-5
            assert drift[(24, body)] < drift[(11, body)] < 1e-2

    @pytest.mark.parametrize("years, dt, pref", [
        (0.0, "0.01", 500), (0.05, "0.01", 500), (0.3, "0.07", 500),
        (1.0, "0.01", 24), (0.5, "0.003", 60)])
    def test_step_count_is_the_run_s(self, years, dt, pref):
        t_max = horizon_t_max(years, dt)
        prog = parse_program(build_nbody_program(dt=dt, t_max=t_max))
        steps = run_reference(prog, pref).steps
        assert nbody_mod._run_steps(dt, t_max, pref, 10 ** 7) == steps
        assert nbody_mod._run_steps(dt, t_max, pref, steps - 1) > steps - 1

    def test_requirements_validated(self):
        with pytest.raises(ValueError, match="outside"):
            ExperimentPlan(nsb_values=(0,))
        with pytest.raises(ValueError, match="outside"):
            ExperimentPlan(nsb_values=(501,))

    def test_partial_results_flushed_on_error(self, tmp_path, monkeypatch):
        import bittune.nbody as nbody_mod
        real = nbody_mod._run_cell
        calls = []

        def flaky(plan, horizon, req):
            if len(calls) == 1:
                raise RuntimeError("cell exploded")
            calls.append(req)
            return real(plan, horizon, req)

        monkeypatch.setattr(nbody_mod, "_run_cell", flaky)
        plan = ExperimentPlan(nsb_values=(11, 24), horizons_years=(0.05,),
                              write_series=False)
        with pytest.raises(RuntimeError, match="exploded"):
            run_experiment(plan, tmp_path)
        with open(tmp_path / "summary.csv") as fh:
            table = list(csv.reader(fh))
        assert len(table) == 1 + 4                  # first cell only


def _sweep_outputs(out: Path) -> tuple[str, dict[str, bytes]]:
    """The summary's distance_au column and every series file's bytes."""
    with open(out / "summary.csv") as fh:
        column = "".join(row["distance_au"] + "\n"
                         for row in csv.DictReader(fh))
    return column, {p.name: p.read_bytes()
                    for p in sorted(out.glob("series_*.csv"))}


class TestRewrite:
    """A sweep writes each CSV over the file an earlier sweep left."""

    @staticmethod
    def _bench(monkeypatch, out, nsb, years):
        # A clock that reads 0 makes the timing columns repeatable.
        monkeypatch.setattr(nbody_mod, "time",
                            SimpleNamespace(perf_counter=lambda: 0.0))
        assert main(["bench", "--nsb", nsb, "--years", years,
                     "--out", str(out)]) == 0
        return {p.name: p.read_bytes() for p in out.iterdir()}

    def test_files_written_over_match_a_fresh_directory(self, tmp_path,
                                                        monkeypatch):
        out = tmp_path / "out"
        first = self._bench(monkeypatch, out, "11,24,53", "0.1")
        # A longer old file, so that a tail left behind would show.
        (out / "series_nsb11_h0.05y.csv").write_bytes(b"9" * 10_000)
        second = self._bench(monkeypatch, out, "11,24", "0.05")
        fresh = self._bench(monkeypatch, tmp_path / "fresh", "11,24", "0.05")
        assert sorted(fresh) == ["series_nsb11_h0.05y.csv",
                                 "series_nsb24_h0.05y.csv", "summary.csv"]
        assert {name: second[name] for name in fresh} == fresh
        assert len(first["summary.csv"]) > len(fresh["summary.csv"])
        assert {name: second[name] for name in first
                if name != "summary.csv"} == {
            name: data for name, data in first.items()
            if name != "summary.csv"}
        assert "series_nsb53_h0.1y.csv" in first

    def test_a_summary_that_is_a_directory_fails(self, tmp_path, capsys):
        (tmp_path / "summary.csv").mkdir()
        assert main(["bench", "--nsb", "11", "--years", "0.05",
                     "--out", str(tmp_path), "--no-series"]) == 1
        assert "Is a directory" in capsys.readouterr().err


class TestSharedLowering:
    """Each horizon is parsed, run and lowered once; every cell solves
    the horizon's systems with its own requirement swapped in."""

    @pytest.mark.parametrize("req", (11, 18, 24, 34, 43, 53))
    def test_swapped_systems_match_generation_at_the_requirement(self, req):
        plan = ExperimentPlan(horizons_years=(0.05,), method="pi")
        cfg = plan.tuning_config()
        c = load_bodies()
        horizon = _prepare_horizon(plan, 0.05)
        prog = parse_program(build_nbody_program(
            c, plan.dt, horizon_t_max(0.05, plan.dt), req))
        direct = tuner.systems(prog, run_reference(prog, cfg.pref).ranges, cfg)
        for shared, generated in zip((horizon.c1, horizon.c2), direct):
            swapped = with_requirement(shared, req)
            assert dump(swapped) == dump(generated)
            assert export_lp(swapped) == export_lp(generated)

    @pytest.mark.parametrize("method", ("ilp", "pi"))
    def test_cells_share_rows_and_leave_the_horizon_unchanged(
            self, method, monkeypatch):
        plan = ExperimentPlan(horizons_years=(0.05,), method=method,
                              write_series=False)
        horizon = _prepare_horizon(plan, 0.05)
        shared = [s for s in (horizon.c1, horizon.c2) if s is not None]

        def digests():
            return [hashlib.sha256((dump(s) + export_lp(s)).encode())
                    .hexdigest() for s in shared]

        before = digests()
        copies = []

        def recorded(system, bits):
            copies.append((system, with_requirement(system, bits)))
            return copies[-1][1]

        monkeypatch.setattr(nbody_mod, "with_requirement", recorded)
        for req in plan.nsb_values:
            nbody_mod._run_cell(plan, horizon, req)
        assert len(copies) == len(plan.nsb_values) * len(shared)
        for system, copy in copies:
            assert any(system is s for s in shared)
            assert copy.rows.terms is system.rows.terms
            assert copy.rows.lhs is system.rows.lhs
            assert copy.rows.const is not system.rows.const
        assert digests() == before

    def test_one_parse_and_one_generation_per_horizon(self, tmp_path,
                                                      monkeypatch):
        calls = {"parse": 0, "c1": 0, "c2": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(nbody_mod, "parse_program",
                            counted("parse", nbody_mod.parse_program))
        monkeypatch.setattr(tuner, "gen_ilp", counted("c1", tuner.gen_ilp))
        monkeypatch.setattr(tuner, "gen_refined",
                            counted("c2", tuner.gen_refined))
        plan = ExperimentPlan(nsb_values=(11, 18, 24),
                              horizons_years=(0.05, 0.1), method="pi",
                              write_series=False)
        rows = run_experiment(plan, tmp_path)
        assert len(rows) == 3 * 2 * 4
        assert calls == {"parse": 2, "c1": 2, "c2": 2}

    def test_worker_processes_share_the_parent_s_horizons(self, tmp_path,
                                                          monkeypatch):
        prepared = []
        real = nbody_mod._prepare_horizon

        def counted(plan, years):
            prepared.append(years)
            return real(plan, years)

        monkeypatch.setattr(nbody_mod, "_prepare_horizon", counted)
        plan = ExperimentPlan(nsb_values=(11, 24), horizons_years=(0.05, 0.1),
                              write_series=False)
        rows = run_experiment(plan, tmp_path, jobs=2)
        assert prepared == [0.05, 0.1]
        assert len(rows) == 2 * 2 * 4

    def test_worker_processes_write_what_one_process_writes(self, tmp_path):
        plan = ExperimentPlan(nsb_values=(11, 24), horizons_years=(0.1,))
        run_experiment(plan, tmp_path / "one")
        run_experiment(plan, tmp_path / "two", jobs=2)
        assert _sweep_outputs(tmp_path / "two") == \
            _sweep_outputs(tmp_path / "one")


def _fraction_distance(ref, tuned) -> float:
    """The drift formula on exact rationals, as a reference."""
    s = Fraction(0)
    for r, t in zip(ref, tuned):
        diff = mpfloat.to_fraction(r) - mpfloat.to_fraction(t)
        s += diff * diff
    return math.sqrt(float(s))


# Widths 1-500 with leading bits from 2^-1100 to 2^300, so the squared
# sums span underflow to zero and exponent gaps far past any width, and
# stay inside float range.
_coords = st.one_of(
    st.just(mpfloat.zero(500)),
    st.builds(lambda p, bits, top, sign: mpfloat.MPValue(
        sign, (bits % (1 << p)) | (1 << (p - 1)), top - p + 1, p),
        st.integers(1, 500), st.integers(0, 2**500), st.integers(-1100, 300),
        st.sampled_from((1, -1))),
)


@st.composite
def _coordinate_pairs(draw):
    ref = [draw(_coords) for _ in COORDS]
    # A tuned coordinate is either unrelated to the reference one or the
    # reference rounded to a narrower width, as in a tuned run.
    tuned = [draw(st.one_of(_coords, st.integers(1, 500).map(
        lambda p, r=r: mpfloat.round_to(r, p)))) for r in ref]
    return ref, tuned


class TestDistances:
    def test_distance_uses_exact_differences(self):
        # Positions differing by 1 ulp at 500 bits must yield a tiny
        # positive distance, not zero.
        a = mpfloat.parse_decimal("4.8414316", 500)
        bumped = mpfloat.arith("+", a, mpfloat.MPValue(1, 1, a.exp, 1), 500)
        d = _distance([a] * 3, [bumped] * 3)
        assert 0 < d < 1e-140

    @given(_coordinate_pairs())
    def test_matches_the_exact_rational_formula(self, pair):
        ref, tuned = pair
        assert _distance(ref, tuned) == _fraction_distance(ref, tuned)

    def test_planet_coord_names_exclude_sun(self):
        names = planet_coord_names()
        assert "xSun" not in names and len(names) == 12


class TestPinnedSweep:
    # sha256 of the series files and of the summary's distance_au
    # column, recorded with the drift taken on Fractions.
    PINNED = {
        "series": "5d3a655e05a61bceb0ed44595c2edb9e"
                  "ed0a744e3583bc030e169f83271d8658",
        "distance_au": "7253e8dc240b5b7a39c58470f33cdd12"
                       "62a04623c4a76585910ee9870dfc3017",
    }

    def test_bench_output_matches_the_pinned_digests(self, tmp_path):
        assert main(["bench", "--nsb", "11,24", "--years", "0.1",
                     "--out", str(tmp_path)]) == 0
        series = hashlib.sha256()
        for path in sorted(tmp_path.glob("series_*.csv")):
            series.update(path.name.encode() + b"\n" + path.read_bytes())
        with open(tmp_path / "summary.csv") as fh:
            column = "".join(row["distance_au"] + "\n"
                             for row in csv.DictReader(fh))
        assert {"series": series.hexdigest(),
                "distance_au": hashlib.sha256(column.encode()).hexdigest()} \
            == self.PINNED
