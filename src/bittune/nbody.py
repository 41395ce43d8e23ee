"""Five-body gravitational benchmark: program builder and precision sweep.

The generated program is the classic solar-system integrator (Sun,
Jupiter, Saturn, Uranus, Neptune) stepped with the pairwise update
scheme of the Computer Language Benchmarks Game n-body program:
velocities first from all ten body pairs, then positions, one pair
of nested statements per coordinate.  The Sun is pinned at the
origin, so its velocity variables are never declared and the Sun
side of each Sun-planet pair is dropped.

Time is measured in years: with masses scaled by solar_mass = 4*pi^2
the gravitational constant is 1 in AU/year units, and initial
velocities (given per day) are scaled by days_per_year once in the
prologue.  A sweep horizon of H years runs the loop up to
t_max = H - dt/2; the half-step guard keeps the trip count identical
between the reference run and every tuned run, however t rounds.

The sweep tunes through `tuner`: one parse, reference run
(interp.run_reference) and generation (tuner.systems) per horizon,
shared by its requirements, and one tuner.solve per cell, of the
horizon's systems with the cell's requirement swapped in, as `tune`
solves them.  A cell whose tuned run takes another number of steps
than the reference stops the sweep (tuner.divergence).  run_experiment
writes its CSVs under the directory it is given, each built as one
string and written over the old file (tuner.write_all).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from decimal import Decimal
from functools import partial
from pathlib import Path
from typing import NamedTuple

from . import interp
from .constraints import ConstraintSystem, with_requirement
from .interp import Trace, run_reference, run_tuned
from .mpfloat import DEFAULT_PRECISION, add_t, cmp_t, parse_decimal, unbox
from .parse import check_literal, parse_program
from .program import Program
from .tuner import (
    TuneError, TuningConfig, divergence, solve, systems, write_all,
)

BODY_ORDER = ("Sun", "Jupiter", "Saturn", "Uranus", "Neptune")
COORDS = ("x", "y", "z")


@dataclass(frozen=True)
class BodySpec:
    """One body's initial state, kept as the decimal literals that will
    appear in the generated source (never as floats: the program parses
    them exactly, so the strings are the ground truth)."""

    name: str
    x: str
    y: str
    z: str
    vx: str
    vy: str
    vz: str
    mass: str

    @property
    def fixed(self) -> bool:
        """The body pinned at the origin (the Sun)."""
        return self.x == self.y == self.z == "0.0"


@dataclass(frozen=True)
class BenchConstants:
    days_per_year: str
    solar_mass: str
    bodies: tuple[BodySpec, ...]

    def planets(self) -> tuple[BodySpec, ...]:
        return tuple(b for b in self.bodies if not b.fixed)


# The initial state of the classic n-body program from the Computer
# Language Benchmarks Game.  Positions are in AU, velocities in AU/day
# (the generated program scales them by days_per_year), masses in solar
# masses (scaled by solar_mass = 4*pi^2, so G = 1 with time in years).
# Each value is the shortest decimal that round-trips through binary32,
# which is exactly the precision the benchmark sources print.
_BODIES = BenchConstants("365.24", "39.478416", (
    BodySpec("Sun", "0.0", "0.0", "0.0", "0.0", "0.0", "0.0", "1.0"),
    BodySpec("Jupiter", "4.8414316", "-1.16032", "-0.10362204",
             "0.0016600767", "0.0076990114", "-6.9046E-5", "9.5479196E-4"),
    BodySpec("Saturn", "8.343367", "4.124799", "-0.40352342",
             "-0.002767425", "0.004998528", "2.304173E-5", "2.8588597E-4"),
    BodySpec("Uranus", "12.894369", "-15.111152", "-0.22330758",
             "0.0029646014", "0.0023784717", "-2.9658957E-5", "4.366244E-5"),
    BodySpec("Neptune", "15.379697", "-25.919315", "0.17925878",
             "0.0026806777", "0.0016282417", "-9.515922E-5", "5.151389E-5")))


def load_bodies() -> BenchConstants:
    """The five bodies' initial state, in BODY_ORDER (frozen)."""
    return _BODIES


def build_nbody_program(constants: BenchConstants | None = None,
                        dt: str = "0.01", t_max: str = "1000.0",
                        req: int = 24) -> str:
    """Emit the benchmark as mini-language source.

    req is the bit requirement placed on each planet coordinate after
    the loop.  The Sun contributes its (zero) position to the pair
    terms but receives no velocity or position updates.
    """
    c = constants if constants is not None else load_bodies()
    sun = c.bodies[0]
    if not sun.fixed:
        raise ValueError("first body must sit at the origin")

    out = ["# Solar-system step benchmark: pairwise gravity, velocity",
           "# updates before position updates, Sun pinned at the origin.",
           f"dt = {dt};",
           "t = 0.0;",
           f"t_max = {t_max};",
           f"days_per_year = {c.days_per_year};",
           f"solar_mass = {c.solar_mass};"]
    for b in c.bodies:
        out.append(f"x{b.name} = {b.x};")
        out.append(f"y{b.name} = {b.y};")
        out.append(f"z{b.name} = {b.z};")
        if not b.fixed:
            out.append(f"vx{b.name} = {b.vx} * days_per_year;")
            out.append(f"vy{b.name} = {b.vy} * days_per_year;")
            out.append(f"vz{b.name} = {b.vz} * days_per_year;")
        if b.mass == "1.0":
            out.append(f"mass{b.name} = solar_mass;")
        else:
            out.append(f"mass{b.name} = {b.mass} * solar_mass;")

    out.append("while (t < t_max) {")
    names = [b.name for b in c.bodies]
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            bi, bj = c.bodies[i], c.bodies[j]
            for d in COORDS:
                out.append(f"  d{d} = {d}{bi.name} - {d}{bj.name};")
            out.append("  distance = sqrt(dx * dx + dy * dy + dz * dz);")
            out.append("  mag = dt / (distance * distance * distance);")
            if not bi.fixed:
                for d in COORDS:
                    out.append(f"  v{d}{bi.name} = v{d}{bi.name}"
                               f" - d{d} * mass{bj.name} * mag;")
            for d in COORDS:
                out.append(f"  v{d}{bj.name} = v{d}{bj.name}"
                           f" + d{d} * mass{bi.name} * mag;")
    for b in c.planets():
        for d in COORDS:
            out.append(f"  {d}{b.name} = {d}{b.name} + dt * v{d}{b.name};")
    out.append("  t = t + dt;")
    out.append("}")
    for b in c.planets():
        for d in COORDS:
            out.append(f"require_nsb({d}{b.name}, {req});")
    return "\n".join(out) + "\n"


def horizon_t_max(years: float | str, dt: str = "0.01") -> str:
    """t_max for an H-year horizon: H - dt/2, exactly in decimal."""
    guard = Decimal(str(years)) - Decimal(dt) / 2
    return format(guard, "f")


def planet_coord_names() -> tuple[str, ...]:
    return tuple(f"{d}{b.name}" for b in load_bodies().planets()
                 for d in COORDS)


def _run_steps(dt: str, t_max: str, pref: int, cap: int) -> int:
    """The steps the interpreter counts for a run of the program
    build_nbody_program(dt=dt, t_max=t_max) at pref bits, or a count
    past cap once it passes cap.

    The source holds one statement per line and indents the loop body:
    each top-level statement, the loop included, is one step, and each
    trip is its body's statements and the condition after them.  The
    trips are counted by stepping t at pref bits, as the run does."""
    lines = build_nbody_program(dt=dt, t_max=t_max).splitlines()
    body = sum(line.startswith("  ") for line in lines)
    steps = sum(line.endswith((";", "{")) for line in lines) - body
    t, step, end = (unbox(parse_decimal(text, pref))
                    for text in ("0.0", dt, t_max))
    while steps <= cap and cmp_t(t, end) < 0:
        steps += body + 1
        t = add_t(t, step, pref)
    return steps


def _distance(ref, tuned) -> float:
    """Euclidean distance between two positions of one body, each given
    as its x, y and z values.

    The sum of squared differences is taken exactly on integers, every
    value aligned to the lowest exponent e among them, and rounded to a
    float once: s * 2**(2e) through correctly rounded integer division
    (or conversion when 2e >= 0), so the result is the exact sum's
    nearest float before the square root."""
    e = min(v.exp for v in (*ref, *tuned))
    s = 0
    for r, t in zip(ref, tuned):
        d = ((r.sign * r.mant) << (r.exp - e)) \
            - ((t.sign * t.mant) << (t.exp - e))
        s += d * d
    return math.sqrt(s / (1 << -2 * e) if e < 0 else float(s << 2 * e))


class ExperimentPlan:
    """One precision sweep: every requirement in nsb_values at every
    horizon, sharing the reference run and range analysis per horizon.
    Each horizon's loop bound is horizon_t_max(years, dt).  A plan that
    cannot run raises tuner.TuneError naming the field it refuses; that
    includes a horizon whose run would pass interp.MAX_STEPS, a repeated
    requirement and two horizons with one name.  A horizon of -0.0
    years is 0.0, as it runs the same program."""

    __slots__ = ("nsb_values", "horizons_years", "dt", "method", "pref",
                 "write_series")

    def __init__(self, nsb_values: tuple[int, ...] = (11, 18, 24, 34, 43, 53),
                 horizons_years: tuple[float, ...] = (10.0,),
                 dt: str = "0.01", method: str = "ilp",
                 pref: int = DEFAULT_PRECISION, write_series: bool = True):
        self.nsb_values = nsb_values
        self.horizons_years = tuple(0.0 if y == 0 else y
                                    for y in horizons_years)
        self.dt = dt
        self.method = method
        self.pref = pref
        self.write_series = write_series
        self.tuning_config()          # refuses a bad method or pref
        if not self.nsb_values or not self.horizons_years:
            raise TuneError("the list is empty", "nsb_values"
                            if not self.nsb_values else "horizons_years")
        for n in self.nsb_values:
            if not 1 <= n <= self.pref:
                raise TuneError(f"requirement {n} outside [1, {self.pref}]",
                                "nsb_values")
        for y in self.horizons_years:
            if not (math.isfinite(y) and y >= 0):
                raise TuneError(f"horizon {y} is not a finite number of "
                                f"years >= 0", "horizons_years")
        # A cell is printed and its series file named by requirement and
        # horizon name, so no two cells may share both.
        for n in self.nsb_values:
            if self.nsb_values.count(n) > 1:
                raise TuneError(f"requirement {n} is repeated", "nsb_values")
        names = [f"{y:g}" for y in self.horizons_years]
        for name in names:
            if names.count(name) > 1:
                raise TuneError(f"two horizons are named {name}",
                                "horizons_years")
        try:
            check_literal(self.dt)
            if self.dt.strip()[0] in "+-" or Decimal(self.dt) <= 0:
                raise ValueError(f"time step {self.dt} is not an unsigned "
                                 f"positive number")
        except ValueError as e:
            raise TuneError(str(e), "dt") from None
        cap = interp.MAX_STEPS
        for y in self.horizons_years:
            t_max = horizon_t_max(y, self.dt)
            if _run_steps(self.dt, t_max, self.pref, cap) > cap:
                raise TuneError(f"horizon {y:g} years at dt {self.dt} takes "
                                f"more than {cap} steps, the interpreter's "
                                f"cap", "horizons_years")

    def tuning_config(self) -> TuningConfig:
        """What every cell is tuned with."""
        return TuningConfig(self.method, self.pref)


class SummaryRow(NamedTuple):
    nsb: int
    horizon_years: float
    body: str
    distance_au: float
    tune_seconds: float
    run_seconds: float


class Horizon(NamedTuple):
    """What every requirement at one horizon shares: the parsed program
    (its require_nsb bit counts are never read by a tuned run), the
    reference trace with its ranges, and the systems generated from
    them, whose require rows each cell swaps for its own."""

    prog: Program
    ref: Trace
    c1: ConstraintSystem
    c2: ConstraintSystem | None


def _prepare_horizon(plan: ExperimentPlan, years: float) -> Horizon:
    """Parse, run the reference and generate once for this horizon."""
    cfg = plan.tuning_config()
    prog = parse_program(build_nbody_program(
        dt=plan.dt, t_max=horizon_t_max(years, plan.dt)))
    ref = run_reference(prog, cfg.pref, track=planet_coord_names())
    return Horizon(prog, ref, *systems(prog, ref.ranges, cfg))


def _run_cell(plan: ExperimentPlan, horizon: Horizon, req: int):
    """Tune and run one (requirement, horizon) cell.

    Returns (distances, series, tune_seconds, run_seconds) where
    distances is [(body, final drift)] and series the per-step rows or
    None.  tune_seconds covers the swaps and tuner.solve: C1's solve,
    under pi policy iteration, and the substitution check; the
    horizon's shared stage (parse, reference run, generation) is not
    charged to any cell.
    """
    coords = planet_coord_names()
    bodies = [b.name for b in load_bodies().planets()]
    prog, ref, c1, c2 = horizon

    t0 = time.perf_counter()
    _, assignment, _ = solve(with_requirement(c1, req),
                             None if c2 is None else with_requirement(c2, req))
    tune_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    tuned = run_tuned(prog, assignment.widths(), track=coords)
    run_s = time.perf_counter() - t0
    if note := divergence(ref.steps, tuned.steps):
        raise RuntimeError(note)

    distances = [(body, _distance([ref.env[f"{d}{body}"] for d in COORDS],
                                  [tuned.env[f"{d}{body}"] for d in COORDS]))
                 for body in bodies]
    series = _series_rows(ref, tuned, bodies) if plan.write_series else None
    return distances, series, tune_s, run_s


def run_experiment(plan: ExperimentPlan, out_dir: str | Path,
                   jobs: int = 1) -> list[SummaryRow]:
    """Run the sweep and write summary.csv (plus one series file per
    cell when write_series is set) under out_dir.

    Each horizon is prepared once, here; with jobs > 1 its cells then
    run in that many worker processes, which get the prepared horizon
    and return what the sequential run computes, in the same order.  On
    error, rows for the cells before the failing one are still flushed
    to summary.csv before the exception propagates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    rows: list[SummaryRow] = []
    pool = None
    if jobs > 1:
        # Imported here: only a parallel sweep pays for the process pool.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        pool = ProcessPoolExecutor(jobs, mp_context=get_context("spawn"))
    try:
        for years in plan.horizons_years:
            cell = partial(_run_cell, plan, _prepare_horizon(plan, years))
            results = (pool.map if pool else map)(cell, plan.nsb_values)
            for req, (distances, series, tune_s, run_s) in zip(
                    plan.nsb_values, results):
                rows += [SummaryRow(req, years, body, dist, tune_s, run_s)
                         for body, dist in distances]
                if series is not None:
                    _write_series(out / _series_name(req, years), series)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        _write_summary(out / "summary.csv", rows)
    return rows


def _write_summary(path: Path, rows: list[SummaryRow]) -> None:
    header = "nsb,horizon_years,body,distance_au,tune_seconds,run_seconds\r\n"
    write_all({path: header + "".join(
        f"{r.nsb},{r.horizon_years},{r.body},{r.distance_au!r},"
        f"{r.tune_seconds:.3f},{r.run_seconds:.3f}\r\n" for r in rows)})


def _series_name(req: int, years: float) -> str:
    return f"series_nsb{req:02d}_h{years:g}y.csv"


def _series_rows(ref: Trace, tuned: Trace, bodies) -> list[tuple[int, str, float]]:
    """Per-step drift rows (k, body, distance); k = 0 is the state
    before the first step and k = n the state after step n."""
    per_body = [
        (body,
         list(zip(*(ref.samples[f"{d}{body}"] for d in COORDS))),
         list(zip(*(tuned.samples[f"{d}{body}"] for d in COORDS))))
        for body in bodies]
    steps = len(ref.samples[f"x{bodies[0]}"])
    return [(k, body, _distance(r[k], t[k]))
            for k in range(steps) for body, r, t in per_body]


def _write_series(path: Path, rows) -> None:
    write_all({path: "step,body,distance_au\r\n" + "".join(
        f"{k},{body},{dist!r}\r\n" for k, body, dist in rows)})
