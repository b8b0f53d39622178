"""Span tracing of the trinegame layers, installed from outside the package.

``Tracer.install`` replaces every public function of every ``trinegame``
module with a wrapper, in each module that holds it under its own name (so
``from .lp_engine import solve`` in three modules gets wrapped three times
over one shared span name).  Three class methods are wrapped as well:
``LpFamily.__init__`` (span ``lp_engine.phase1``), ``LpFamily.maximize``
(span ``lp_engine.phase2``) and ``Povm.__post_init__`` (count only).

Functions that take microseconds are counted but get no span, because a
span would cost more than the call; their time stays in the caller's self
time.  Spans are kept in memory as four parallel lists and written out when
the run ends.  Wrappers record only while ``active`` is set, so output
checks made between traced operations leave no trace.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path

# Functions counted but not spanned: each call takes a few microseconds.
COUNT_ONLY = frozenset(
    {
        "qubit_core.born_probability",
        "qubit_core.xz_direction",
        "qubit_core.completeness_residual",
        "qubit_core.effect_eigenvalues",
        "qubit_core.Povm.validations",
        "game.derived_second_blochs",
        "game.free_blochs_from_derived",
        "game.winner",
        "quantum_opt.splitmix64",
        "quantum_opt.derive_seed",
    }
)

OP_PREFIX = "op:"


def trinegame_modules():
    """The package and its submodules, imported."""
    package = importlib.import_module("trinegame")
    subs = [
        importlib.import_module(f"trinegame.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]
    return package, subs


class Tracer:
    """In-memory spans (name, start, end, parent) plus call counters."""

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.optimizer_results: list[tuple] = []  # (alpha, value, converged, restarts)
        self.lp_cells = 0
        self.lp_infeasible = 0
        self._patches: list[tuple] = []

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def op(self, label: str):
        """Root span around one benchmark operation; records only inside."""
        self.active = True
        idx = self.open(self.name_id(OP_PREFIX + label))
        try:
            yield
        finally:
            self.close(idx)
            self.active = False

    # -- wrapping --------------------------------------------------------

    def _span_wrapper(self, fn, name: str, after=None):
        nid = self.name_id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name: str):
        counts = self.counts
        counts[name] = 0
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name: str, hooks: dict):
        if name in COUNT_ONLY:
            return self._count_wrapper(fn, name)
        return self._span_wrapper(fn, name, hooks.get(name))

    def _hooks(self) -> dict:
        def optimizer(args, kwargs, result):
            alpha = args[0] if args else kwargs["alpha"]
            self.optimizer_results.append(
                (tuple(float(a) for a in alpha), result.value, result.converged, result.restarts_used)
            )

        def phase1(args, kwargs, result):
            rows, cols = args[0].a.shape  # args[0] is the new LpFamily
            self.lp_cells += rows * cols

        def phase2(args, kwargs, result):
            self.lp_infeasible += result.status == "infeasible"

        return {
            "quantum_opt.optimize_quantum": optimizer,
            "lp_engine.phase1": phase1,
            "lp_engine.phase2": phase2,
        }

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every public function of the package, in every module that
        binds it by name, and the three traced class methods."""
        package, subs = trinegame_modules()
        holders = [package, *subs]
        hooks = self._hooks()
        for module in subs:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrapped = self._wrap(fn, f"{short}.{attr}", hooks)
                for holder in holders:
                    if holder.__dict__.get(attr) is fn:
                        self._patch(holder, attr, wrapped)
        lp_engine = importlib.import_module("trinegame.lp_engine")
        qubit_core = importlib.import_module("trinegame.qubit_core")
        family = lp_engine.LpFamily
        self._patch(family, "__init__", self._wrap(family.__init__, "lp_engine.phase1", hooks))
        self._patch(family, "maximize", self._wrap(family.maximize, "lp_engine.phase2", hooks))
        povm = qubit_core.Povm
        self._patch(povm, "__post_init__", self._wrap(povm.__post_init__, "qubit_core.Povm.validations", hooks))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as columns; times in seconds on the perf_counter clock."""
        payload = {
            "names": self.names,
            "name": self.span_name,
            "parent": self.span_parent,
            "start": self.span_start,
            "end": self.span_end,
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def _durations(tracer: Tracer) -> tuple[list[float], list[float]]:
    """(duration, self time) of every span.

    Self time is a span's duration minus the durations of its direct
    children; children nest inside their parent because the program runs on
    one thread.
    """
    n = len(tracer.span_name)
    dur = [tracer.span_end[i] - tracer.span_start[i] for i in range(n)]
    own = list(dur)
    for i in range(n):
        p = tracer.span_parent[i]
        if p >= 0:
            own[p] -= dur[i]
    return dur, own


def span_table(tracer: Tracer) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    dur, own = _durations(tracer)
    table: dict[str, dict] = {}
    for i, nid in enumerate(tracer.span_name):
        row = table.setdefault(tracer.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur[i]
        row["self_s"] += own[i]
    return table


def calls_under(tracer: Tracer, name: str, ancestor: str) -> int:
    """Number of spans called ``name`` that run inside a span ``ancestor``."""
    names = tracer.names
    if name not in names or ancestor not in names:
        return 0
    nid, aid = names.index(name), names.index(ancestor)
    found = 0
    for i, span_name in enumerate(tracer.span_name):
        if span_name != nid:
            continue
        p = tracer.span_parent[i]
        while p >= 0:
            if tracer.span_name[p] == aid:
                found += 1
                break
            p = tracer.span_parent[p]
    return found


def self_time_under_ops(tracer: Tracer, layer: str, op_labels: set[str]) -> float:
    """Self seconds of ``layer`` spans whose root op has one of the labels."""
    _, own = _durations(tracer)
    total = 0.0
    prefix = layer + "."
    for i in range(len(own)):
        if not tracer.names[tracer.span_name[i]].startswith(prefix):
            continue
        root = i
        while tracer.span_parent[root] >= 0:
            root = tracer.span_parent[root]
        if tracer.names[tracer.span_name[root]][len(OP_PREFIX):] in op_labels:
            total += own[i]
    return total
