"""Workloads of the question benchmark: inputs, questions and answer checks.

Each workload is a list of rounds; a round is a fixed list of question
kinds whose parameters come from the seed.  Every run asks whole rounds, so
the make-up of the questions, and the share of the kept-fault question, is
the same in every run.  See README.md for the reasoning behind each choice.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracle
from bcdimer import cli, continuation, ep
from bcdimer.bicomplex import Bicomplex
from bcdimer.model import DimerParams, DimerSystem
from bcdimer.solver import SolveConfig

V = 1.0
SYSTEM = DimerSystem()
ANALYTIC = SolveConfig(jacobian="analytic")

MU_TOL = 1e-8  # mu pair against the oracle
EQ_TOL = 1e-9  # idempotent-sector equations at a returned state
LOC_TOL = 1e-6  # bifurcation locations against the closed forms
MARGIN_MIN = 2.0  # loop match margin
# states points whose closest two oracle mu pairs are nearer than this lie
# next to an exceptional point and are redrawn (see README.md)
STATE_SEPARATION = 0.05

# |g| cells for the bifurcations workload, two inside the merger |g| = 2v
# and one beyond it, on a 0.05 grid; the sign of g is drawn too.  The cost
# of locating the pitchfork grows steeply with |g|, so narrow cells keep the
# round's cost steady.  Every value was checked to give the right answer.
# |g| = 1.2 is in no cell: the scan reports a spurious pitchfork there (see
# CHANGES.md), and whether a seed drew it would decide the failed share.
G_CELLS = ((0.80, 0.85, 0.90), (1.50, 1.55, 1.60), (2.20, 2.25, 2.30))
# kept fault: the scan seeds its branches at gamma = 0.95v, below the
# pitchfork for |g| < 0.62v, and misses the pitchfork
G_KEPT_FAULT = -0.4


@dataclass
class Question:
    label: str
    ask: Callable[[Path], object]
    check: Callable[[object, Path], list]
    kept_fault: bool = False


@dataclass
class Workload:
    warmup: Question
    rounds: list  # list[list[Question]]


@dataclass
class Result:
    times: list = field(default_factory=list)
    elapsed: float = 0.0
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list = field(default_factory=list)
    first_round: int = 0  # questions in the first round


# -- idempotent views and matching -----------------------------------------


def idem(z) -> tuple[complex, complex]:
    """(plus, conj(minus)) of a bicomplex given by its four components."""
    z0, z1, z2, z3 = z
    return complex(z0 + z3, z2 - z1), complex(z0 - z3, -(z2 + z1))


def state_equations(psi1, psi2, mu, g, gamma, s) -> float:
    """Largest residual of the holomorphic system at a bcdimer state."""
    p1, f1 = idem(psi1)
    p2, f2 = idem(psi2)
    m, n = idem(mu)
    u = np.array([p2, f1, f2, m, n])
    return float(np.max(np.abs(oracle.equations(u, V, g, gamma, s, psi1=p1))))


def match(pairs, targets, tol):
    """Index map i -> j with pairs[i] within tol of targets[j], or None."""
    out = []
    for a in pairs:
        dist = [max(abs(a[0] - b[0]), abs(a[1] - b[1])) for b in targets]
        j = int(np.argmin(dist))
        if dist[j] > tol or j in out:
            return None
        out.append(j)
    return out if len(out) == len(targets) else None


def oracle_pairs(states):
    return [(u[3], u[4]) for u in states]


def cycle_type(perm):
    seen, out = set(), []
    for start in range(len(perm)):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            k = perm[k]
            length += 1
        if length:
            out.append(length)
    return sorted(out, reverse=True)


def _quiet(fn, *args):
    """Run fn with stdout captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        out = fn(*args)
    return out, buf.getvalue()


def _summary(text):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


# -- states ------------------------------------------------------------------

# The cost of a states question grows steeply with |g|, gamma and |s|,
# because more multistart seeds run to the iteration cap: from about 1 s at
# g = 0 to about 10 s at |g| = 2.5, gamma = 1.5.  A run has time for one
# round of eight questions, so uniform draws over the whole box would make
# both the round's cost and its median question swing by 15 % from seed to
# seed.  Instead each round has one point in each of eight cells spread over
# the box, drawn uniformly in the cell, with random signs of g and s.
# (g, gamma, |s|) cell centres; the cells are +-_JITTER wide
_STATE_CELLS = (
    (0.0, 0.5, 0.0),
    (0.0, 1.25, 0.15),
    (0.35, 0.9, 0.2),
    (0.9, 0.3, 0.0),
    (1.4, 1.2, 0.0),
    (1.6, 0.6, 0.1),
    (2.25, 0.45, 0.0),
    (2.25, 1.35, 0.25),
)
_JITTER = (0.1, 0.08, 0.04)


def _frac(rng):
    """Uniform on the open interval (0, 1)."""
    while True:
        u = rng.random()
        if u > 0.0:
            return u


def _between(rng, lo, hi):
    return lo + (hi - lo) * _frac(rng)


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * _between(rng, lo, hi)


def _in_cell(rng, centre, width):
    """Uniform in centre +- width; a zero centre stays zero."""
    return 0.0 if centre == 0.0 else _between(rng, centre - width,
                                              centre + width)


def _state_point(rng, cell):
    """(g, gamma, s, oracle states) in the cell, redrawn until the four
    oracle states are separated."""
    for _ in range(1000):
        g, gamma, s = (_in_cell(rng, c, w) for c, w in zip(cell, _JITTER))
        g *= rng.choice((-1.0, 1.0))
        s *= rng.choice((-1.0, 1.0))
        try:
            states = oracle.states(V, g, gamma, s)
        except oracle.OracleError:
            continue
        pairs = oracle_pairs(states)
        sep = min(max(abs(a[0] - b[0]), abs(a[1] - b[1]))
                  for i, a in enumerate(pairs) for b in pairs[i + 1:])
        if sep >= STATE_SEPARATION:
            return g, gamma, s, states
    raise RuntimeError(f"no separated point in the cell around {cell}")


def _states_round(rng, first_index):
    questions = []
    for k, cell in enumerate(_STATE_CELLS):
        g, gamma, s, states = _state_point(rng, cell)
        fmt = "csv" if (first_index + k) % 2 == 0 else "json"
        questions.append(_states_question(g, gamma, s, states, fmt))
    return questions


def _read_states(out_dir: Path, fmt: str):
    if fmt == "csv":
        with open(out_dir / "states.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [
            tuple(tuple(float(r[f"{name}_{k}"]) for k in range(4))
                  for name in ("psi1", "psi2", "mu"))
            for r in rows
        ]
    with open(out_dir / "states.json") as fh:
        rows = json.load(fh)
    return [(tuple(r["psi1"]), tuple(r["psi2"]), tuple(r["mu"])) for r in rows]


def _states_question(g, gamma, s, states, fmt) -> Question:
    args = ["solve", "--v", repr(V), "--g", repr(g), "--gamma", repr(gamma),
            "--s", repr(s), "--format", fmt]
    expected = oracle_pairs(states)

    def ask(out_dir):
        return _quiet(cli.run, args + ["--out", str(out_dir)])

    def check(out, out_dir):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        found = _read_states(out_dir, fmt)
        problems = []
        if len(found) != 4:
            problems.append(f"{len(found)} states instead of 4")
        if _summary(text).get("mu") != [list(mu) for _, _, mu in found]:
            problems.append("summary mu differs from the artifact")
        if match([idem(mu) for _, _, mu in found], expected, MU_TOL) is None:
            problems.append("mu pairs do not match the oracle")
        worst = max((state_equations(p1, p2, mu, g, gamma, s)
                     for p1, p2, mu in found), default=0.0)
        if worst > EQ_TOL:
            problems.append(f"sector equations violated by {worst:.2e}")
        return problems

    label = f"solve g={g!r} gamma={gamma!r} s={s!r} {fmt}"
    return Question(label, ask, check)


def build_states(seed, n_rounds):
    rng = random.Random(f"states-{seed}")
    warm = _states_question(0.0, 0.5, 0.0, oracle.states(V, 0.0, 0.5, 0.0),
                            "csv")
    rounds = [_states_round(rng, 8 * r) for r in range(n_rounds)]
    return Workload(warm, rounds)


# -- loops -------------------------------------------------------------------


def _seed_state(u):
    """bcdimer seed (psi, mu) from an oracle row, idempotent magnitudes
    balanced as in the solver's gauge."""
    psi2, phi1, phi2, mu, nu = u
    c = math.sqrt(abs(phi1))
    b = Bicomplex.from_idempotent
    psi = (b(c, (phi1 / c).conjugate()), b(c * psi2, (phi2 / c).conjugate()))
    return psi, b(mu, nu.conjugate())


@dataclass
class _Loop:
    center: dict
    which: str
    radius: float
    expected: list  # cycle type
    start: np.ndarray = None  # oracle states at phi = 0

    def __post_init__(self):
        c = dict(self.center)
        c[self.which] += self.radius
        self.start = oracle.states(V, c["g"], c["gamma"], c["s"])


def _loop_question(name, loop, base=None, turns=1, reverse=False):
    """One encircle call; ``base`` is the one-turn result it must power or
    invert, given as a one-element list filled in when the base is asked."""
    spec = ep.LoopSpec(
        center=DimerParams(v=V, **loop.center),
        which=loop.which,
        radius=loop.radius,
        steps=LOOP_STEPS // turns,
        states_to_track=[_seed_state(u) for u in loop.start],
        turns=turns,
        reverse=reverse,
    )
    expected_pairs = oracle_pairs(loop.start)
    record = [] if base is None else None

    def ask(out_dir):
        return ep.encircle(SYSTEM, spec)

    def check(trace, out_dir):
        problems = []
        if not trace.match_margin > MARGIN_MIN:
            problems.append(f"match margin {trace.match_margin:.3f}")
        start = [idem(st.mu.as_tuple()) for st in trace.start_states()]
        end = [idem(st.mu.as_tuple()) for st in trace.end_states()]
        if match(start, expected_pairs, MU_TOL) != list(range(len(start))):
            problems.append("start states differ from the oracle")
        perm = match(end, start, MU_TOL)
        if perm is None:
            problems.append("end set differs from the start set")
        elif perm != trace.permutation:
            problems.append(f"permutation {trace.permutation} != matched {perm}")
        if base is None:
            want_type = loop.expected
            record.append(trace.permutation)
        else:
            one = base[0] if base else None
            if one is None:
                return problems + ["base loop has no permutation"]
            if reverse:
                want = [0] * len(one)
                for i, j in enumerate(one):
                    want[j] = i
            else:
                want = list(range(len(one)))
                for _ in range(turns):
                    want = [one[j] for j in want]
            if trace.permutation != want:
                problems.append(f"permutation {trace.permutation} != {want}")
            want_type = cycle_type(want)
        if trace.cycle_type != want_type:
            problems.append(f"cycle type {trace.cycle_type} != {want_type}")
        return problems

    q = Question(f"{name} {loop.which}-loop at {loop.center} r={loop.radius!r}"
                 + (f" turns={turns}" if turns > 1 else "")
                 + (" reversed" if reverse else ""), ask, check)
    return q, record


# steps per loop, split over the turns of a 2-turn copy
LOOP_STEPS = 64
# |g| range of the loops at g != 0: well inside 0 < |g| < 2v, and narrow,
# since the cost of a loop changes with its centre
LOOP_G = (0.8, 1.2)


def _pitchfork_gamma(g):
    return math.sqrt(V * V - g * g / 4.0)


def _loops_round(rng):
    """Eight loops: tangent and pitchfork loops, one loop around no
    exceptional point, one 2-turn and one reversed copy."""
    g0_radius = _between(rng, 0.08, 0.12)
    tangent0 = _Loop({"g": 0.0, "gamma": V, "s": 0.0}, "gamma", g0_radius,
                     [2, 2])
    g_t = _signed(rng, *LOOP_G)
    # radius: half the distance to the pitchfork below the tangent
    tangent_g = _Loop({"g": g_t, "gamma": V, "s": 0.0}, "gamma",
                      min(0.1, 0.5 * (V - _pitchfork_gamma(g_t))), [2, 1, 1])
    g_p = _signed(rng, *LOOP_G)
    center_p = {"g": g_p, "gamma": _pitchfork_gamma(g_p), "s": 0.0}
    pf_gamma = _Loop(center_p, "gamma", 2e-3, [2, 1, 1])
    pf_g = _Loop(center_p, "g", 2e-3, [2, 1, 1])
    pf_s = _Loop(center_p, "s", 1e-4, [3, 1])
    g_n = _signed(rng, *LOOP_G)
    plain = _Loop({"g": g_n, "gamma": 0.5 * _pitchfork_gamma(g_n), "s": 0.0},
                  "gamma", 0.05, [1, 1, 1, 1])

    t0, t0_perm = _loop_question("tangent", tangent0)
    s1, s_perm = _loop_question("pitchfork", pf_s)
    return [
        t0,
        _loop_question("tangent", tangent0, base=t0_perm, turns=2)[0],
        _loop_question("tangent", tangent_g)[0],
        _loop_question("pitchfork", pf_gamma)[0],
        _loop_question("pitchfork", pf_g)[0],
        s1,
        _loop_question("pitchfork", pf_s, base=s_perm, reverse=True)[0],
        _loop_question("plain", plain)[0],
    ]


def build_loops(seed, n_rounds):
    rng = random.Random(f"loops-{seed}")
    warm = _loop_question(
        "plain", _Loop({"g": 0.0, "gamma": 0.5, "s": 0.0}, "gamma", 0.05,
                       [1, 1, 1, 1]))[0]
    return Workload(warm, [_loops_round(rng) for _ in range(n_rounds)])


# -- bifurcations ------------------------------------------------------------


def _expected_points(g):
    points = [("tangent", V)]
    if 0 < abs(g) < 2 * V:
        points.append(("pitchfork", _pitchfork_gamma(g)))
    return points


def _same_points(found, expected):
    if len(found) != len(expected):
        return False
    return all(
        any(k == kind and abs(loc - want) <= LOC_TOL for k, loc in found)
        for kind, want in expected
    )


def _scan_question(g, kept_fault=False) -> Question:
    args = ["bifurcations", "--v", repr(V), "--g", repr(g),
            "--jacobian", "analytic"]

    def ask(out_dir):
        return _quiet(cli.run, args + ["--out", str(out_dir)])

    def check(out, out_dir):
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        with open(out_dir / "bifurcations.json") as fh:
            artifact = [(p["kind"], p["location"]) for p in json.load(fh)]
        summary = [(p["kind"], p["location"])
                   for p in _summary(text).get("points", [])]
        problems = []
        if artifact != summary:
            problems.append("summary points differ from the artifact")
        if not _same_points(summary, _expected_points(g)):
            problems.append(f"points {summary}")
        return problems

    return Question(f"bifurcations scan g={g!r}", ask, check, kept_fault)


def _tangent_question(g) -> Question:
    def ask(out_dir):
        return continuation.find_tangent(SYSTEM, DimerParams(v=V, g=g),
                                         "gamma", ANALYTIC)

    def check(out, out_dir):
        loc = out[0]
        return [] if abs(loc - V) <= LOC_TOL else [f"tangent at {loc!r}"]

    return Question(f"find_tangent g={g!r}", ask, check)


def _pitchfork_question(g) -> Question:
    def ask(out_dir):
        return continuation.locate_pitchfork_gamma(
            SYSTEM, DimerParams(v=V, g=g), V, ANALYTIC)

    def check(out, out_dir):
        if not 0 < abs(g) < 2 * V:
            return [] if out is None else [f"pitchfork at {out[0]!r}"]
        want = _pitchfork_gamma(g)
        if out is None:
            return [f"no pitchfork, expected {want!r}"]
        return [] if abs(out[0] - want) <= LOC_TOL else [
            f"pitchfork at {out[0]!r}, expected {want!r}"]

    return Question(f"locate_pitchfork_gamma g={g!r}", ask, check)


def _bifurcations_round(rng):
    """Ten questions: the kept-fault scan, then a scan, a tangent and a
    pitchfork location in each |g| cell."""

    def draw(cell):
        return rng.choice((-1.0, 1.0)) * rng.choice(cell)

    questions = [_scan_question(G_KEPT_FAULT, kept_fault=True)]
    for ask in (_scan_question, _tangent_question, _pitchfork_question):
        questions.extend(ask(draw(cell)) for cell in G_CELLS)
    return questions


def build_bifurcations(seed, n_rounds):
    rng = random.Random(f"bifurcations-{seed}")
    warm = _tangent_question(-1.0)
    return Workload(warm, [_bifurcations_round(rng) for _ in range(n_rounds)])


# -- running a workload ------------------------------------------------------

_WORKLOADS = {
    "states": build_states,
    "loops": build_loops,
    "bifurcations": build_bifurcations,
}


def build(name, seed, seconds) -> Workload:
    """Inputs and oracle answers for enough rounds to fill ``seconds``.

    A round takes several seconds; should a fast machine still exhaust
    the rounds, they are asked again in order.
    """
    return _WORKLOADS[name](seed, 1 + math.ceil(seconds / 4.0))


def _ask(q: Question, out_dir: Path, tracer, qid):
    """Time one question; returns (seconds, problems with its answer)."""
    if tracer is not None:
        tracer.begin_question(qid)
    t = time.perf_counter()
    try:
        out, error = q.ask(out_dir), None
    except Exception as exc:  # a failed question is counted, not fatal
        out, error = None, exc
    dt = time.perf_counter() - t
    if tracer is not None:
        tracer.end_question()
    if error is None:
        try:
            return dt, q.check(out, out_dir)
        except Exception as exc:  # e.g. a missing or malformed artifact
            error = exc
    return dt, [f"{type(error).__name__}: {error}"]


def measure(work: Workload, seconds, scratch: Path, tracer) -> Result:
    """Ask the warm-up, then whole rounds until ``seconds`` have passed."""
    res = Result(first_round=len(work.rounds[0]))
    _, problems = _ask(work.warmup, scratch / "warmup", None, None)
    if problems:
        res.correct = False
        res.problems.append(f"warm-up {work.warmup.label}: {problems}")
    qid = 0
    t_run = time.perf_counter()
    for r in itertools.count():
        for q in work.rounds[r % len(work.rounds)]:
            dt, problems = _ask(q, scratch / f"q{qid}", tracer, qid)
            qid += 1
            res.times.append(dt)
            res.attempted += 1
            if problems:
                res.failed += 1
                if not q.kept_fault:
                    res.correct = False
                    res.problems.append(f"{q.label}: {problems}")
        if time.perf_counter() - t_run >= seconds:
            break
    res.elapsed = time.perf_counter() - t_run
    return res
