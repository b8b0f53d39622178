"""Benchmark of the trinegame command-line tool and library.

Run from the root of a source checkout:

    python3 bench/run.py --workload triangle --seed 3 --seconds 36 --trace 0

With ``--trace 0`` the run installs no wrappers: it times passes of the
workload (see workloads.py) for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it first runs passes untraced, then installs
span wrappers on the package (spans.py), replays the same passes traced,
checks that every output is byte-identical, and reports per-layer metrics.
Either way the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable report, and a full record with per-op samples and
the environment goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# BLAS threading the benchmark fixes for its own process and its children.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_SAMPLES = 5
SETUP_PROBE = "import trinegame; trinegame.nc_value((1.0, 0.5, 0.5))"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}

LAYERS = (
    "cli",
    "quantum_opt",
    "game",
    "nc_bound",
    "classical_bound",
    "lp_engine",
    "measurement_classicality",
    "povm_simulation",
    "qubit_core",
)
SPAN_CALLS_AND_SELF = (
    "quantum_opt.optimize_quantum",
    "quantum_opt.trine_preparation_value",
    "game.project_free_blochs",
    "game.success_probability",
    "classical_bound.optimize_classical",
    "lp_engine.phase1",
    "lp_engine.phase2",
    "measurement_classicality.joint_measurability_check",
    "measurement_classicality.guessing_report",
    "measurement_classicality.noise_compatibility_threshold",
    "measurement_classicality.is_free_in_any_basis",
    "povm_simulation.verify_simulation",
    "povm_simulation.simulator_set",
)
CLI_COMMANDS = ("curve", "simulate", "incompat", "coherence")


def per_layer_units() -> dict:
    units = {}
    for name in SPAN_CALLS_AND_SELF:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(
        {
            "quantum_opt.restarts": "count",
            "quantum_opt.converged_ratio": "ratio",
            "quantum_opt.anchor_gap_min": "probability",
            "game.shrink_to_feasible.calls": "count",
            "nc_bound.nc_global_max.self_s": "s",
            "nc_bound.nc_value.calls": "count",
            "nc_bound.nc_value_all_assignments.self_s": "s",
            "nc_bound.lp_solves_per_global_max": "count",
            "lp_engine.phase1.cells": "count",
            "lp_engine.infeasible": "count",
            "measurement_classicality.lp_per_check": "count",
            "qubit_core.Povm.validations": "count",
            "qubit_core.born_probability.calls": "count",
        }
    )
    for command in CLI_COMMANDS:
        units[f"cli.{command}.self_s"] = "s"
    for layer in LAYERS:
        units[f"share.{layer}"] = "ratio"
    units.update({"process.cpu_s": "s", "trace.overhead_ratio": "ratio", "trace.coverage": "ratio"})
    return units


# ---------------------------------------------------------------------------
# running ops


@dataclass
class Outcome:
    label: str
    inputs: str
    command: str | None
    seconds: float
    cpu_s: float
    units: int
    raised: str | None = None                   # exception type when the call raised
    wrong: list = field(default_factory=list)   # check problems of completed calls
    output: bytes = b""

    @property
    def failed(self) -> int:
        return self.units if self.raised else len(self.wrong)


def execute(op, tracer=None) -> Outcome:
    """Time one op, then check its output with the clock stopped.

    A raised exception or a wrong answer is recorded on the outcome; it
    never stops the run.
    """
    cpu0, t0 = time.process_time(), time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.op(op.label):
                result = op.call()
    except Exception as exc:  # the failure is counted and the run goes on
        seconds, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        name = type(exc).__name__
        return Outcome(op.label, op.inputs, op.command, seconds, cpu, op.units, raised=name, output=name.encode())
    seconds, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    try:
        verdicts, output = op.check(result)
    except Exception as exc:  # a check that cannot read the output is a wrong answer
        verdicts, output = [f"check raised {type(exc).__name__}: {exc}"] * op.units, b""
    wrong = [v for v in verdicts if v]
    return Outcome(op.label, op.inputs, op.command, seconds, cpu, op.units, wrong=wrong, output=output)


def run_passes(workload, seed: int, seconds: float, tracer=None, count: int | None = None) -> list:
    """Passes 0, 1, ... until the next would end after ``seconds`` (at least
    one), or exactly ``count`` passes when given."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append([execute(op, tracer) for op in workload.ops(seed, len(passes))])
        if count is not None:
            if len(passes) >= count:
                return passes
            continue
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def pass_wall(outcomes) -> float:
    return sum(o.seconds for o in outcomes)


def unit_latencies(passes) -> list[float]:
    """One latency per unit of output: an op's time divided by its units."""
    return [o.seconds / o.units for outcomes in passes for o in outcomes for _ in range(o.units)]


def tally(passes) -> tuple[int, int, int, dict]:
    """(attempted, failed, wrong, failures by kind)."""
    attempted = failed = wrong = 0
    kinds: dict[str, int] = {}
    for outcomes in passes:
        for o in outcomes:
            attempted += o.units
            failed += o.failed
            wrong += len(o.wrong)
            if o.raised:
                key = f"{o.label} raised {o.raised}"
                kinds[key] = kinds.get(key, 0) + o.units
            for problem in o.wrong:
                key = f"{o.label}: {problem}"
                kinds[key] = kinds.get(key, 0) + 1
    return attempted, failed, wrong, kinds


# ---------------------------------------------------------------------------
# measurements around the ops


def setup_seconds() -> list[float]:
    """Wall time of fresh processes that import the package and build the
    lazy NC LP family on their first nc_value call."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, cwd=ROOT, check=True, timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def git_commit(root: Path) -> str | None:
    """Commit of the checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment(loadavg) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREADS},
        "loadavg_at_start": list(loadavg),
        "git_commit": git_commit(ROOT),
        "platform": platform.platform(),
    }


def percentile_note(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    note = f"p50 of n={n}"
    for q in (99.9, 99, 90):
        if n * (1 - q / 100) >= 10:
            p = statistics.quantiles(samples, n=1000, method="inclusive")[round(q * 10) - 1]
            return f"{note}; p{q:g} = {p:.6f} s"
    return note + "; no higher percentile has 10 samples beyond it"


# ---------------------------------------------------------------------------
# end-to-end and per-layer runs


def end_to_end(workload, args) -> dict:
    setup = setup_seconds()
    passes = run_passes(workload, args.seed, args.seconds)
    walls = [pass_wall(p) for p in passes]
    latencies = unit_latencies(passes)
    attempted, failed, wrong, kinds = tally(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "wall_s": f"median of {len(passes)} passes",
        "op_p50_s": percentile_note(latencies),
        "peak_rss_mb": "whole process",
    }
    return {
        "metrics": metrics,
        "units": END_TO_END_UNITS,
        "notes": notes,
        "passes": f"{len(passes)} passes",
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0,
        "failures": kinds,
        "samples": {"setup_s": setup, "pass_wall_s": walls, "ops": _op_samples(passes)},
    }


def _op_samples(passes) -> list:
    return [
        {
            "pass": k, "label": o.label, "inputs": o.inputs, "seconds": o.seconds,
            "units": o.units, "raised": o.raised, "wrong": o.wrong,
        }
        for k, outcomes in enumerate(passes)
        for o in outcomes
    ]


def per_layer(workload, args) -> dict:
    import spans
    from trinegame import quantum_opt

    plain = run_passes(workload, args.seed, args.seconds / 2.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = run_passes(workload, args.seed, 0.0, tracer=tracer, count=len(plain))
    finally:
        tracer.uninstall()
    mismatched = [
        f"pass {k} {a.label}"
        for k, (pa, pb) in enumerate(zip(plain, traced))
        for a, b in zip(pa, pb)
        if a.output != b.output
    ]
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    n_pass = len(traced)
    table = spans.span_table(tracer)
    plain_wall = sum(pass_wall(p) for p in plain)
    traced_wall = sum(pass_wall(p) for p in traced)

    def calls(name):
        return table.get(name, {}).get("calls", 0) / n_pass

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0) / n_pass

    def ratio(part, whole):
        return part / whole if whole else 0.0

    roots = [row for name, row in table.items() if name.startswith(spans.OP_PREFIX)]
    root_total = sum(row["total_s"] for row in roots)
    root_self = sum(row["self_s"] for row in roots)
    results = tracer.optimizer_results
    gaps = [value - quantum_opt.trine_preparation_value(alpha) for alpha, value, _, _ in results]

    metrics = {}
    for name in SPAN_CALLS_AND_SELF:
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    metrics.update(
        {
            "quantum_opt.restarts": sum(r[3] for r in results) / n_pass,
            "quantum_opt.converged_ratio": ratio(sum(r[2] for r in results), len(results)),
            "quantum_opt.anchor_gap_min": min(gaps, default=0.0),
            "game.shrink_to_feasible.calls": calls("game.shrink_to_feasible"),
            "nc_bound.nc_global_max.self_s": self_s("nc_bound.nc_global_max"),
            "nc_bound.nc_value.calls": calls("nc_bound.nc_value"),
            "nc_bound.nc_value_all_assignments.self_s": self_s("nc_bound.nc_value_all_assignments"),
            "nc_bound.lp_solves_per_global_max": ratio(
                spans.calls_under(tracer, "lp_engine.phase2", "nc_bound.nc_global_max"),
                table.get("nc_bound.nc_global_max", {}).get("calls", 0),
            ),
            "lp_engine.phase1.cells": tracer.lp_cells / n_pass,
            "lp_engine.infeasible": tracer.lp_infeasible / n_pass,
            "measurement_classicality.lp_per_check": ratio(
                spans.calls_under(tracer, "lp_engine.phase1", "measurement_classicality.joint_measurability_check"),
                table.get("measurement_classicality.joint_measurability_check", {}).get("calls", 0),
            ),
            "qubit_core.Povm.validations": tracer.counts["qubit_core.Povm.validations"] / n_pass,
            "qubit_core.born_probability.calls": tracer.counts["qubit_core.born_probability"] / n_pass,
        }
    )
    for command in CLI_COMMANDS:
        labels = {o.label for outcomes in traced for o in outcomes if o.command == command}
        metrics[f"cli.{command}.self_s"] = spans.self_time_under_ops(tracer, "cli", labels) / n_pass
    for layer in LAYERS:
        layer_self = sum(row["self_s"] for name, row in table.items() if name.startswith(layer + "."))
        metrics[f"share.{layer}"] = ratio(layer_self, root_total)
    metrics.update(
        {
            "process.cpu_s": statistics.median(sum(o.cpu_s for o in p) for p in plain),
            "trace.overhead_ratio": ratio(traced_wall, plain_wall),
            "trace.coverage": ratio(root_total - root_self, root_total),
        }
    )
    attempted, failed, wrong, kinds = tally(plain + traced)
    return {
        "metrics": metrics,
        "units": per_layer_units(),
        "notes": {},
        "passes": f"{n_pass} untraced and {n_pass} traced passes; counts and seconds are per pass",
        "attempted": attempted,
        "failed": failed,
        "correct": wrong == 0 and not mismatched,
        "failures": {**kinds, **({"traced output differs": mismatched} if mismatched else {})},
        "samples": {"untraced": _op_samples(plain), "traced": _op_samples(traced), "spans": table},
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("slice_curve", "triangle", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    if not (SRC / "trinegame" / "__init__.py").is_file():
        print(f"error: no trinegame sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_THREADS)  # before numpy loads
    sys.path.insert(0, str(SRC))
    import workloads
    from trinegame import nc_bound

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](OUT)
    nc_bound.nc_value((1.0, 0.5, 0.5))  # lazy LP family, as in the setup probe
    record = (end_to_end if args.trace == 0 else per_layer)(workload, args)
    record["environment"] = environment(loadavg)
    record["args"] = vars(args)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str), encoding="utf-8"
    )

    print(f"environment: {json.dumps(record['environment'])}")
    print(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds:g}, trace {args.trace}: {record['passes']}")
    for name, value in record["metrics"].items():
        note = record["notes"].get(name, "")
        print(f"  {name:<58} {value:>14.6g} {record['units'][name]:<11} {note}")
    share = record["failed"] / record["attempted"]
    print(f"  {'failed_ratio':<58} {share:>14.6g} {'ratio':<11} "
          f"{record['failed']} failed of {record['attempted']} attempted")
    for kind, count in record["failures"].items():
        print(f"    {kind}: {count}")
    summary = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": record["units"][name]} for name, value in record["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
