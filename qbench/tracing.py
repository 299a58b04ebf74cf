"""Spans and counts at the layer boundaries of bcdimer, from outside.

:class:`Tracer` wraps the public functions of ``solver``, ``continuation``,
``ep`` and ``cli`` in every bcdimer module namespace that binds them, plus
the methods ``RealSystemView.residual_vector``, ``RealSystemView.jacobian``
and ``DimerSystem.residual``.  Each call inside a timed question records a
span (name, start, end, parent span, question id).  ``Bicomplex.__init__``
and ``Bicomplex.__mul__`` only count calls: a timer around a sub-microsecond
call would measure the timer.

Spans stay in memory in flat arrays and are written out at the end.  A
span's self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

import bcdimer
from bcdimer import bicomplex, cli, continuation, ep, model, solver

_MODULES = (bcdimer, bicomplex, model, solver, continuation, ep, cli)

# (home module, function name) of the wrapped public functions
_FUNCTIONS = (
    (solver, "newton_solve"),
    (solver, "find_all_states"),
    (continuation, "sweep_branch"),
    (continuation, "detect_bifurcations"),
    (continuation, "locate_fold"),
    (continuation, "locate_pitchfork_gamma"),
    (continuation, "find_tangent"),
    (ep, "encircle"),
    (cli, "run"),
)
_METHODS = (
    (solver.RealSystemView, "residual_vector", "solver"),
    (solver.RealSystemView, "jacobian", "solver"),
    (model.DimerSystem, "residual", "model"),
)


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def _encircle_value(args, kwargs, out):
    """Nominal branch steps of the loop and its match margin."""
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    steps = spec.steps * spec.turns + 1
    return len(spec.states_to_track) * steps, out.match_margin


_RESULT_VALUES = {
    "solver.find_all_states": lambda a, k, out: (len(out), 0.0),
    "continuation.sweep_branch": lambda a, k, out: (len(out.samples), 0.0),
    "ep.encircle": _encircle_value,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.name = array("h")
        self.qid = array("l")
        self.raised = array("b")
        self.values: dict[int, tuple[float, float]] = {}
        self.stack: list[int] = []
        self.current = -1
        self.bicomplex_new = 0
        self.bicomplex_mul = 0
        self.question_counts: dict[int, tuple[int, int]] = {}
        self.question_times: dict[int, float] = {}
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_question(self, qid: int):
        self.current = qid
        self._q0 = (self.bicomplex_new, self.bicomplex_mul, time.perf_counter())

    def end_question(self):
        new0, mul0, t0 = self._q0
        self.question_times[self.current] = time.perf_counter() - t0
        self.question_counts[self.current] = (self.bicomplex_new - new0,
                                              self.bicomplex_mul - mul0)
        self.current = -1

    def _span(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        on_result = _RESULT_VALUES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.start.append(time.perf_counter_ns())
            self.end.append(0)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.name.append(nid)
            self.qid.append(self.current)
            self.raised.append(1)
            self.stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                self.raised[idx] = 0
                if on_result is not None:
                    self.values[idx] = on_result(args, kwargs, out)
                return out
            finally:
                self.end[idx] = time.perf_counter_ns()
                self.stack.pop()

        return wrapper

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        for home, fname in _FUNCTIONS:
            original = getattr(home, fname)
            wrapped = self._span(f"{_short(home)}.{fname}", original)
            for mod in _MODULES:
                if getattr(mod, fname, None) is original:
                    self._replace(mod, fname, wrapped)
        for cls, meth, layer in _METHODS:
            original = cls.__dict__[meth]
            self._replace(cls, meth, self._span(f"{layer}.{meth}", original))

        B = bicomplex.Bicomplex
        init, mul = B.__dict__["__init__"], B.__dict__["__mul__"]

        def counted_init(obj, *args, **kwargs):
            self.bicomplex_new += 1
            init(obj, *args, **kwargs)

        def counted_mul(a, b):
            self.bicomplex_mul += 1
            return mul(a, b)

        self._replace(B, "__init__", counted_init)
        self._replace(B, "__mul__", counted_mul)
        self._replace(B, "__rmul__", counted_mul)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- output --------------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.dtype(f"i{self.parent.itemsize}"))
        name = np.frombuffer(self.name, dtype=np.int16)
        qid = np.frombuffer(self.qid, dtype=np.dtype(f"i{self.qid.itemsize}"))
        raised = np.frombuffer(self.raised, dtype=np.int8)
        return start, end, parent.astype(np.int64), name, qid, raised

    def write(self, path):
        start, end, parent, name, qid, raised = self._arrays()
        qids = sorted(self.question_times)
        np.savez_compressed(
            path, names=np.array(self.names), start_ns=start, end_ns=end,
            parent=parent, name=name, question=qid, raised=raised,
            question_id=np.array(qids),
            question_s=np.array([self.question_times[q] for q in qids]),
        )

    def metrics(self, result) -> dict:
        """Per-layer metrics; see README.md for their definitions.

        Counts and ratios come from the first round, which every run
        completes, so two runs with one seed give the same counts; times
        come from every question.  A layer the workload does not reach
        reads 0.
        """
        start, end, parent, name, qid, raised = self._arrays()
        dur = (end - start) / 1e9
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        n_first = result.first_round
        first = qid < n_first
        n_all = max(len(self.question_times), 1)
        ids = {n: i for i, n in enumerate(self.names)}

        def sel(n):
            return name == ids[n]

        def calls(n):
            return int(np.count_nonzero(sel(n) & first))

        def mean(values, n, scale=1.0):
            m = sel(n)
            return float(values[m].mean()) * scale if m.any() else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        names_l, parent_l = name.tolist(), parent.tolist()
        newton = sel("solver.newton_solve") & first

        def newton_under(n):
            """First-round Newton calls that descend from a span named n."""
            target = ids[n]
            under = [False] * len(names_l)
            for i, (nm, par) in enumerate(zip(names_l, parent_l)):
                under[i] = nm == target or (par >= 0 and under[par])
            return int(np.count_nonzero(newton & np.array(under, dtype=bool)))

        def values(n, k):
            """Entry k of the first-round result values of spans named n."""
            return [v[k] for i, v in self.values.items()
                    if name[i] == ids[n] and first[i]]

        def module_self(layer):
            m = np.isin(name, [i for n, i in ids.items()
                               if n.startswith(layer + ".")])
            return float(self_s[m].sum()) / n_all

        n_q = max(result.first_round, 1)
        n_newton = int(np.count_nonzero(newton))
        n_new = sum(c[0] for q, c in self.question_counts.items() if q < n_first)
        n_mul = sum(c[1] for q, c in self.question_counts.items() if q < n_first)
        margins = values("ep.encircle", 1)
        out = {
            "bicomplex.new.calls": (n_new / n_q, "count"),
            "bicomplex.mul.calls": (n_mul / n_q, "count"),
            "model.residual.calls": (calls("model.residual") / n_q, "count"),
            "model.residual.us": (mean(dur, "model.residual", 1e6), "us"),
            "solver.residual_vector.calls_per_newton": (
                ratio(calls("solver.residual_vector"), n_newton), "count"),
            "solver.jacobian.calls_per_newton": (
                ratio(calls("solver.jacobian"), n_newton), "count"),
            "solver.residual_vector.us": (
                mean(dur, "solver.residual_vector", 1e6), "us"),
            "solver.jacobian.us": (mean(dur, "solver.jacobian", 1e6), "us"),
            "solver.newton_solve.calls": (n_newton / n_q, "count"),
            "solver.newton_solve.failed": (
                int(np.count_nonzero(newton & (raised == 1))) / n_q, "count"),
            "solver.newton_solve.us": (
                mean(dur, "solver.newton_solve", 1e6), "us"),
            "solver.find_all_states.s": (
                mean(dur, "solver.find_all_states"), "s"),
            "solver.newton_per_find": (
                ratio(newton_under("solver.find_all_states"),
                      calls("solver.find_all_states")), "count"),
            "solver.states_per_newton": (
                ratio(sum(values("solver.find_all_states", 0)),
                      newton_under("solver.find_all_states")), "ratio"),
            "continuation.sweep_branch.s": (
                mean(dur, "continuation.sweep_branch"), "s"),
            "continuation.sweep_branch.newton_per_sample": (
                ratio(newton_under("continuation.sweep_branch"),
                      sum(values("continuation.sweep_branch", 0))), "count"),
            "continuation.locate_fold.s": (
                mean(dur, "continuation.locate_fold"), "s"),
            "continuation.locate_fold.newton_calls": (
                ratio(newton_under("continuation.locate_fold"),
                      calls("continuation.locate_fold")), "count"),
            "continuation.locate_pitchfork_gamma.s": (
                mean(dur, "continuation.locate_pitchfork_gamma"), "s"),
            "continuation.locate_pitchfork_gamma.newton_calls": (
                ratio(newton_under("continuation.locate_pitchfork_gamma"),
                      calls("continuation.locate_pitchfork_gamma")), "count"),
            "continuation.find_tangent.s": (
                mean(dur, "continuation.find_tangent"), "s"),
            "continuation.detect_bifurcations.s": (
                mean(dur, "continuation.detect_bifurcations"), "s"),
            "ep.encircle.s": (mean(dur, "ep.encircle"), "s"),
            "ep.encircle.self_s": (mean(self_s, "ep.encircle"), "s"),
            "ep.newton_per_branch_step": (
                ratio(newton_under("ep.encircle"),
                      sum(values("ep.encircle", 0))), "count"),
            "ep.match_margin_min": (min(margins, default=0.0), "ratio"),
            "cli.run.self_s": (mean(self_s, "cli.run"), "s"),
            "solver.self_s": (module_self("solver"), "s"),
            "model.self_s": (module_self("model"), "s"),
            "continuation.self_s": (module_self("continuation"), "s"),
            "ep.self_s": (module_self("ep"), "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}

