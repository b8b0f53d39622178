"""Command-line front end: curve data, bound reports, simulation and
incompatibility checks, coherence classification.

Curves go to CSV (six decimal places); scalar reports go to JSON records
{quantity, value, reference_value, tolerance, pass}.  Exit codes: 0 when
all checks pass; 1 on a failed check or an invalid value or file, such as
outcome weights that are NaN or leave [0, 1], or a ``curve`` row whose p_q
is not certified within BRACKET_TOL (no CSV is written); 2 on usage errors,
among them a ``--grid`` that is malformed, non-finite, outside [0, 1] or
longer than MAX_GRID_POINTS points, ``--polygon-k`` below 3 and
``--samples`` below 1; 3 when a linear program fails numerically (the
simplex iteration limit, or an optimal point that misses its constraints).
Codes 1 and 3 print a one-line ``error:`` message on stderr.  Identical
command, flags and seed produce byte-identical output; only ``simulate``
and ``coherence`` draw random samples from ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import classical_bound, measurement_classicality as mc, nc_bound, povm_simulation, quantum_opt
from .lp_engine import LpNumericalError
from .quantum_opt import AlphaTriple, QUANTUM_OPTIMUM
from .qubit_core import bloch_norms, povm_from_weighted_projectors, random_povms, validate_povms, xz_direction

CLASSICAL_REF = classical_bound.CLASSICAL_OPTIMUM

# known reference values (p_q, p_nc) at special outcome-weight points
_ANCHORS = {
    (2.0 / 3.0): (QUANTUM_OPTIMUM, 0.5),
    0.0: (7.0 / 12.0, 7.0 / 12.0),
    1.0: (7.0 / 12.0, 7.0 / 12.0),
}


MAX_GRID_POINTS = 10**6


def _parse_grid(spec: str) -> list[float]:
    try:
        start, stop, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must be start:stop:step, got {spec!r}") from exc
    if not all(math.isfinite(part) for part in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"grid parts must be finite, got {spec!r}")
    if step <= 0:
        raise argparse.ArgumentTypeError("grid step must be positive")
    if not (0.0 <= start <= 1.0 and 0.0 <= stop <= 1.0):
        raise argparse.ArgumentTypeError("grid must lie within [0, 1]")
    steps = (stop - start) / step + 1e-9
    if steps >= MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"grid has more than {MAX_GRID_POINTS} points")
    count = int(np.floor(steps)) + 1
    return [round(start + i * step, 12) for i in range(max(count, 0))]


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        if int(text) < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {text}")
        return int(text)

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _record(quantity: str, value: float, reference, tolerance, passed: bool) -> dict:
    return {
        "quantity": quantity,
        "value": value,
        "reference_value": reference,
        "tolerance": tolerance,
        "pass": bool(passed),
    }


def _round_up(exact) -> float:
    """The smallest float not below an exact rational."""
    value = float(exact)
    return value if value >= exact else math.nextafter(value, math.inf)


def _checked_upper(quantum: quantum_opt.QuantumValue) -> tuple[float | None, bool]:
    """``quantum.upper`` rounded up, and whether it is within BRACKET_TOL above ``lower``."""
    upper = None if quantum.upper is None else _round_up(quantum.upper)
    return upper, upper is not None and 0.0 <= upper - quantum.lower <= quantum_opt.BRACKET_TOL


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(records: list[dict], out_path: str | None) -> int:
    all_pass = all(r["pass"] for r in records)
    payload = {"all_pass": all_pass, "results": records}
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)
    return 0 if all_pass else 1


def cmd_curve(args) -> int:
    grid = args.grid if args.alpha0 is None else [args.alpha0]
    header = "alpha0,p_q,p_nc" + (",p_c" if args.include_classical else "")
    lines = [header]
    for alpha0 in grid:
        alpha = AlphaTriple.symmetric(alpha0)
        quantum = quantum_opt.quantum_value(alpha)
        if not _checked_upper(quantum)[1]:
            raise ValueError(f"p_q at alpha0 = {alpha0:g} has no certified upper bound within BRACKET_TOL")
        row = f"{alpha0:.6f},{quantum.lower:.6f},{nc_bound.nc_value(alpha):.6f}"
        if args.include_classical:
            row += f",{CLASSICAL_REF:.6f}"
        lines.append(row)
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_bounds(args) -> int:
    alpha = AlphaTriple.symmetric(args.alpha0)
    quantum = quantum_opt.quantum_value(alpha)
    p_q = quantum.lower
    p_q_upper, bracketed = _checked_upper(quantum)
    p_nc = nc_bound.nc_value(alpha)
    p_c, _ = classical_bound.optimize_classical()

    refs = None
    for anchor, values in _ANCHORS.items():
        if abs(args.alpha0 - anchor) <= 1e-12:
            refs = values
    tol_q, tol_exact = 1e-4, 1e-9
    records = [
        _record(
            "p_q", p_q, refs[0] if refs else None, tol_q if refs else None,
            abs(p_q - refs[0]) <= tol_q if refs else True,
        ),
        _record("p_q_upper", p_q_upper, p_q, quantum_opt.BRACKET_TOL, bracketed),
        _record(
            "p_nc", p_nc, refs[1] if refs else None, tol_exact if refs else None,
            abs(p_nc - refs[1]) <= tol_exact if refs else True,
        ),
        _record("p_c", p_c, CLASSICAL_REF, tol_exact, abs(p_c - CLASSICAL_REF) <= tol_exact),
    ]
    return _emit_json(records, args.out)


def cmd_simulate(args) -> int:
    n = args.n
    report = povm_simulation.verify_simulation(n, seed=args.seed)
    tol_element, tol_stat = povm_simulation.ELEMENT_TOL, povm_simulation.STATISTICAL_TOL
    sim = povm_simulation.simulator_set(n)
    target_ext = povm_simulation.is_extremal_rank_one(povm_simulation.equatorial_povm(n).povm)
    member_ext = [
        bool(povm_simulation.is_extremal_rank_one(member.povm)) for member in sim.members
    ]
    records = [
        _record("h0", sim.h0, None, None, True),
        _record("h1", sim.h1, None, None, True),
        _record("coefficient_sum", sim.h0 + 2 * sim.h1, 2.0, 1e-14, abs(sim.h0 + 2 * sim.h1 - 2) <= 1e-14),
        _record("element_residual", report.element_residual, 0.0, tol_element, report.element_residual <= tol_element),
        _record("statistical_residual", report.statistical_residual, 0.0, tol_stat, report.statistical_residual <= tol_stat),
        _record("target_extremal", float(bool(target_ext)), float(n == 3), 0.0, bool(target_ext) == (n == 3)),
        _record("members_extremal", float(all(member_ext)), 1.0, 0.0, all(member_ext)),
    ]
    return _emit_json(records, args.out)


def cmd_incompat(args) -> int:
    sim = povm_simulation.simulator_set(5)
    ensemble = mc.carmeli_ensemble()
    report = mc.guessing_report(ensemble, sim.members[0].povm, sim.members[1].povm)
    dual_margin = report.dual_feasibility_margin

    members = [member.povm for member in sim.members]
    incompatible_pairs = sum(
        mc.certified_incompatible(members[o], members[o2], args.polygon_k)
        for o in range(5)
        for o2 in range(o + 1, 5)
    )

    records = [
        _record("p_prior", report.p_prior, 2.0 / 3.0, 1e-12, abs(report.p_prior - 2.0 / 3.0) <= 1e-12),
        _record("p_post_upper", report.p_post_upper, 0.629, None, report.p_post_upper < 0.64),
        _record("p_post_lower", report.p_post_lower, None, None,
                report.p_post_lower <= report.p_post_upper + 1e-9),
        _record("dual_feasibility_margin", dual_margin, 0.0, 1e-10, dual_margin >= -1e-10),
        _record("witness_margin", report.witness_margin, None, None, report.witness_margin > 0.02),
        _record("pairs_incompatible", incompatible_pairs, 10, 0, incompatible_pairs == 10),
    ]
    return _emit_json(records, args.out)


def random_collinear_povms(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` three-outcome POVMs with all effect Bloch vectors on one
    axis per row, as a weight stack (count, 3) and a Bloch stack
    (count, 3, 3), validated by ``validate_povms``.

    Each row draws ``normal(3)`` (its axis), ``dirichlet(ones(3))`` (its
    weights) and ``uniform(-1, 1, 3)`` (its axial fractions of the radii
    min(w, 1 - w)), in that order and row after row; the last coefficient
    closes the sum to zero, and the row is shrunk when that coefficient
    leaves its radius.
    """
    draws = np.empty((3, count, 3))
    for row in range(count):
        draws[:, row] = rng.normal(size=3), rng.dirichlet(np.ones(3)), rng.uniform(-1.0, 1.0, size=3)
    axis, w, fractions = draws
    axis /= bloch_norms(axis)[:, None]
    radius = np.minimum(w, 1 - w)
    coeffs = fractions * radius
    coeffs[:, 2] = -(coeffs[:, 0] + coeffs[:, 1])
    scale = np.divide(np.abs(coeffs[:, 2]), radius[:, 2], out=np.zeros(count), where=radius[:, 2] > 1e-12)
    coeffs /= np.where(scale > 1.0, scale, 1.0)[:, None]
    v = coeffs[:, :, None] * axis[:, None, :]
    validate_povms(w, v)
    return w, v


def cmd_coherence(args) -> int:
    """Classify the trine, a degenerate sharp POVM and ``--samples`` random
    POVMs (the first half general, the rest collinear).  The samples stay
    one Bloch stack (samples, 3, 3) from draw to verdict: the pairwise
    criterion |u x v| <= tol max(|u|, |v|) and the best-axis off-axis test
    each classify the whole stack once, and ``formulations_agree`` counts
    the rows where they match."""
    trine = povm_from_weighted_projectors(
        [2.0 / 3.0] * 3, [xz_direction(2 * np.pi * b / 3) for b in range(3)]
    )
    trine_report = mc.is_free_in_any_basis(trine)
    fixed_basis = mc.is_free_povm(trine, xz_direction(0.0))

    psi0 = xz_direction(-np.pi / 6.0)
    degenerate_sharp = povm_from_weighted_projectors(
        (1.0, 0.5, 0.5), [psi0, -psi0, -psi0]
    )
    degenerate_free = mc.is_free_in_any_basis(degenerate_sharp).free

    rng = np.random.default_rng(args.seed)
    _, general = random_povms(rng, (args.samples + 1) // 2, 3)
    _, collinear = random_collinear_povms(rng, args.samples // 2)
    vecs = np.concatenate([general, collinear])
    agree = int(np.count_nonzero(mc.pairwise_collinear(vecs) == mc.best_axis_fit(vecs).free))
    records = [
        _record("trine_free_any_basis", float(trine_report.free), 0.0, 0.0,
                not trine_report.free),
        _record("trine_witness_value", fixed_basis.max_off_axis, (2.0 / 3.0) * np.sin(2 * np.pi / 3) / 2.0,
                1e-9, fixed_basis.max_off_axis > 0.28),
        _record("degenerate_sharp_free", float(degenerate_free), 1.0, 0.0, degenerate_free),
        _record("formulations_agree", agree, args.samples, 0, agree == args.samples),
    ]
    return _emit_json(records, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trinegame",
        description="Qubit communication-game bounds and measurement certificates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="random seed; only simulate and coherence read it")
        p.add_argument("--out", type=str, default=None)

    p_curve = sub.add_parser("curve", help="CSV of (alpha0, p_q, p_nc) along alpha1 = alpha2")
    common(p_curve)
    p_curve.add_argument("--grid", type=_parse_grid, default="0:1:0.01", help="alpha0 grid start:stop:step")
    p_curve.add_argument("--alpha0", type=float, default=None, help="single point instead of a grid")
    p_curve.add_argument("--include-classical", action="store_true", help="append the constant p_c column")
    p_curve.set_defaults(func=cmd_curve)

    p_bounds = sub.add_parser("bounds", help="p_q with its certified upper bound, p_nc, p_c at one alpha0")
    common(p_bounds)
    p_bounds.add_argument("--alpha0", type=float, default=2.0 / 3.0)
    p_bounds.set_defaults(func=cmd_bounds)

    p_sim = sub.add_parser("simulate", help="n-outcome equatorial POVM simulation report")
    common(p_sim)
    p_sim.add_argument("n", type=int, nargs="?", default=5)
    p_sim.set_defaults(func=cmd_simulate)

    p_inc = sub.add_parser("incompat", help="guessing-gap witness and pairwise joint-measurability")
    common(p_inc)
    p_inc.add_argument("--polygon-k", type=_int_at_least(3), default=64)
    p_inc.set_defaults(func=cmd_incompat)

    p_coh = sub.add_parser("coherence", help="coherence-detection classification checks")
    common(p_coh)
    p_coh.add_argument("--samples", type=_int_at_least(1), default=300)
    p_coh.set_defaults(func=cmd_coherence)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LpNumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
