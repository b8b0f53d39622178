"""Inputs, operations and output checks of the three benchmark workloads.

A run is a sequence of passes.  A pass is a list of ops, one CLI command or
one library call each, whose inputs come from (seed, pass index) alone, so
that the median over passes averages over inputs as well as over the
machine's noise.  An op is timed by itself; its check runs after the clock
stops and returns one verdict per unit of output (a CSV row, a JSON report,
a bound query), ``None`` for a correct unit.

Why these three workloads:

* ``slice_curve`` regenerates the paper's figure with the CLI.  The
  quantum optimizer and the game do nearly all the work, so batching the
  grid into one array shows here, and the NC layer should not move.
* ``triangle`` asks single-alpha bound queries over the whole outcome-weight
  triangle, one alpha per call, so grid batching gains nothing.  It also
  runs the global NC maximum (thousands of warm LP solves) and the
  classical bound, and it holds the alpha triple on which the optimizer is
  known to raise ``InvalidPovmError``.
* ``certify`` runs the measurement certificates: no quantum optimizer, but
  a few cold LP solves on large tableaux, the opposite LP use to
  ``triangle``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from trinegame import classical_bound, cli, game, measurement_classicality, nc_bound, povm_simulation, quantum_opt

CLASSICAL = 7.0 / 12.0
RESTARTS = 50

# Outcome-weight triple on which optimize_quantum raises InvalidPovmError for
# almost every restart seed (completeness residual 6.6e-6 against the 1e-9
# POVM tolerance).  It stays in every triangle pass so that the defect shows
# as failed ops.
CRASH_TRIPLE = (0.16065200877512686, 0.9699254132161326, 0.8694225780087406)
TRIANGLE_FIXED = ((1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (1.0, 0.5, 0.5), CRASH_TRIPLE)
TRIANGLE_LABELS = ("vertex", "vertex", "vertex", "edge_midpoint", "crash_triple")
# Interior points per pass: a randomly shifted Fibonacci lattice (5 points,
# generator 3), so every point is Dirichlet-distributed and every pass
# covers the triangle evenly.
LATTICE_POINTS, LATTICE_GENERATOR = 5, 3

SLICE_GRID = "0:1:0.1"
SLICE_ALPHA0 = tuple(round(0.1 * i, 12) for i in range(11))
CSV_HALF_STEP = 5e-7  # the CLI prints six decimals

POLYGON_K = 64
NOISE_TOL = 1e-4


@dataclass
class Op:
    """One timed call and the check of its output."""

    label: str
    call: Callable[[], object]
    # check(result) -> (one verdict per unit, output bytes compared between
    # the traced and the untraced run); a verdict is None or a problem.
    check: Callable[[object], tuple[list, bytes]]
    inputs: str = ""            # what the call receives, to reproduce a failure
    units: int = 1
    command: str | None = None  # CLI subcommand, for cli.<command>.self_s


def pass_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _op_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**62))


def _cli_op(label: str, command: str, argv: list, out: Path, check_text, units: int = 1) -> Op:
    full = [*argv, "--out", str(out)]

    def check(rc):
        data = out.read_bytes()
        out.unlink()  # a later command that writes nothing must not pass on stale bytes
        verdicts = check_text(data.decode("utf-8"))
        if rc != 0:
            verdicts = [v or f"exit code {rc}" for v in verdicts]
        return verdicts, data

    return Op(label, lambda: cli.main(full), check, " ".join(argv), units, command)


def _check_report(text: str) -> list:
    payload = json.loads(text)
    failing = [r["quantity"] for r in payload["results"] if not r["pass"]]
    if not payload["all_pass"] or failing:
        return [f"failing records {failing}"]
    return [None]


# ---------------------------------------------------------------------------
# slice_curve


class SliceCurve:
    """``trinegame curve --grid 0:1:0.1``; one op per pass, one unit per row."""

    name = "slice_curve"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._trine: list[float] | None = None

    def trine_values(self) -> list[float]:
        if self._trine is None:
            self._trine = [
                quantum_opt.trine_preparation_value(quantum_opt.AlphaTriple.symmetric(a0))
                for a0 in SLICE_ALPHA0
            ]
        return self._trine

    def check_csv(self, text: str) -> list:
        lines = text.splitlines()
        if lines[:1] != ["alpha0,p_q,p_nc"]:
            return ["bad header"] * len(SLICE_ALPHA0)
        rows = lines[1:]
        verdicts = [
            self._check_row(i, rows[i]) if i < len(rows) else "missing row"
            for i in range(len(SLICE_ALPHA0))
        ]
        if len(rows) > len(SLICE_ALPHA0):
            verdicts[-1] = verdicts[-1] or f"{len(rows) - len(SLICE_ALPHA0)} extra rows"
        return verdicts

    def _check_row(self, i: int, row: str) -> str | None:
        a0 = SLICE_ALPHA0[i]
        fields = row.split(",")
        if len(fields) != 3 or fields[0] != f"{a0:.6f}":
            return f"malformed row {row!r}"
        p_q, p_nc = float(fields[1]), float(fields[2])
        nc_ref = max(CLASSICAL - a0 / 8.0, 1.0 / 3.0 + a0 / 4.0)
        if abs(p_nc - nc_ref) > CSV_HALF_STEP + 1e-9:
            return f"p_nc {p_nc} != {nc_ref} at alpha0={a0}"
        trine = self.trine_values()[i]
        if p_q < trine - 1e-6 - CSV_HALF_STEP:
            return f"p_q {p_q} below trine value {trine} at alpha0={a0}"
        return None

    def ops(self, seed: int, index: int) -> list[Op]:
        rng = pass_rng(seed, index)
        argv = ["curve", "--grid", SLICE_GRID, "--seed", str(_op_seed(rng))]
        return [
            _cli_op("curve", "curve", argv, self.out_dir / "curve.csv", self.check_csv, len(SLICE_ALPHA0))
        ]


# ---------------------------------------------------------------------------
# triangle


def interior_points(rng: np.random.Generator) -> list[tuple[float, float, float]]:
    """Alpha triples with 1 - alpha ~ Dirichlet(1, 1, 1), stratified.

    A rank-1 lattice in the unit square, shifted by one uniform vector, is
    mapped onto the simplex by (u, v) -> (1 - sqrt u, sqrt u (1 - v),
    sqrt u v), which carries the uniform square to the uniform simplex.
    """
    shift = rng.uniform(size=2)
    idx = np.arange(LATTICE_POINTS)
    lattice = np.stack([idx / LATTICE_POINTS, (idx * LATTICE_GENERATOR % LATTICE_POINTS) / LATTICE_POINTS], axis=1)
    u, v = ((lattice + shift) % 1.0).T
    root = np.sqrt(u)
    beta = np.stack([1.0 - root, root * (1.0 - v), root * v], axis=1)
    return [tuple(float(x) for x in 1.0 - b) for b in beta]


def _bound_query(alpha, seed: int):
    result = quantum_opt.optimize_quantum(alpha, restarts=RESTARTS, seed=seed)
    trine = quantum_opt.trine_preparation_value(alpha)
    nc = nc_bound.nc_value_all_assignments(alpha)
    return result, trine, nc


def _check_bound_query(out) -> tuple[list, bytes]:
    result, trine, nc = out
    problems = []
    replay = game.success_probability(result.strategy)
    if abs(replay - result.value) > 1e-12:
        problems.append(f"strategy re-evaluates to {replay}, reported {result.value}")
    if not game.check_parity_concealment(result.strategy.preps).passed:
        problems.append("parity concealment fails")
    if result.value < trine - 1e-6:
        problems.append(f"p_q {result.value} below trine value {trine}")
    # Patterns other than the default may give less off the symmetric point,
    # never more: P_NC is the default pattern's value and the pattern maximum.
    shortfall = max(nc.values()) - nc[nc_bound.DEFAULT_ASSIGNMENT]
    if shortfall > 1e-9:
        problems.append(f"default NC assignment is {shortfall} below the pattern maximum")
    digest = repr((result.value, trine, sorted(nc.items()))).encode()
    return ["; ".join(problems) or None], digest


def _check_near(target: float, tol: float):
    def check(out):
        value = out[0]
        ok = abs(value - target) <= tol
        return [None if ok else f"{value} differs from {target} by more than {tol}"], repr(out).encode()

    return check


class Triangle:
    """Single-alpha bound queries over the triangle, plus the NC global
    maximum and the classical bound once per pass."""

    name = "triangle"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def ops(self, seed: int, index: int) -> list[Op]:
        rng = pass_rng(seed, index)
        labelled = [*zip(TRIANGLE_LABELS, TRIANGLE_FIXED), *(("interior", a) for a in interior_points(rng))]
        ops = []
        for label, alpha in labelled:
            s = _op_seed(rng)
            ops.append(Op(label, lambda a=alpha, s=s: _bound_query(a, s), _check_bound_query, f"alpha={alpha!r} seed={s}"))
        ops.append(Op("nc_global_max", lambda: nc_bound.nc_global_max(), _check_near(CLASSICAL, 1e-6)))
        ops.append(Op("optimize_classical", lambda: classical_bound.optimize_classical(), _check_near(CLASSICAL, 1e-9)))
        return ops


# ---------------------------------------------------------------------------
# certify


def _noise_threshold(first: int, second: int):
    sim = povm_simulation.simulator_set(5)
    return measurement_classicality.noise_compatibility_threshold(
        sim.members[first].povm, sim.members[second].povm, polygon_k=POLYGON_K, tol=NOISE_TOL
    )


def _check_bracket(out) -> tuple[list, bytes]:
    lo, hi = out
    ok = 0.0 <= lo <= hi <= 1.0 and hi - lo <= NOISE_TOL
    return [None if ok else f"bad noise bracket ({lo}, {hi})"], repr(out).encode()


class Certify:
    """``incompat``, ``simulate 5``, ``simulate 7``, ``coherence`` and one
    noise-compatibility threshold on a pair of five-outcome simulators."""

    name = "certify"

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir

    def ops(self, seed: int, index: int) -> list[Op]:
        rng = pass_rng(seed, index)
        s = str(_op_seed(rng))
        # The threshold's cost depends on the pair, so passes walk through
        # all ten pairs in an order drawn from the seed.
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        order = np.random.default_rng(seed).permutation(len(pairs))
        first, second = pairs[order[index % len(pairs)]]
        out = self.out_dir
        return [
            _cli_op("incompat", "incompat", ["incompat", "--polygon-k", str(POLYGON_K), "--seed", s],
                    out / "incompat.json", _check_report),
            _cli_op("simulate5", "simulate", ["simulate", "5", "--seed", s], out / "simulate5.json", _check_report),
            _cli_op("simulate7", "simulate", ["simulate", "7", "--seed", s], out / "simulate7.json", _check_report),
            _cli_op("coherence", "coherence", ["coherence", "--seed", s], out / "coherence.json", _check_report),
            Op("noise_threshold", lambda: _noise_threshold(first, second), _check_bracket, f"members {first}, {second}"),
        ]


WORKLOADS = {cls.name: cls for cls in (SliceCurve, Triangle, Certify)}
