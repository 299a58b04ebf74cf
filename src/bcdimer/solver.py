"""Stationary-state solver for continued systems.

A bicomplex stationary problem with N amplitudes is solved as a square real
system in 4N + 4 unknowns (four real components per amplitude plus four for
the nonlinear eigenvalue mu).  The equation stack is

* 4 real components per amplitude residual,
* 2 real components of the normalization residual (its i and k components
  vanish identically by the conjugation-swap symmetry and are asserted, not
  assumed),
* 2 gauge rows removing the continued phase freedom.

The continued phase group is two-dimensional: a common phase rotation of
both idempotent components and a reciprocal magnitude scaling between them.
The gauge rows pin the phase of one amplitude's plus component and balance
the two component magnitudes.  Bicomplex-only states carry an irreducible
relative phase between their idempotent components, so demanding that both
components be real would make them unreachable; the balance row avoids that.

Solves use damped Newton with the analytic Jacobian (default) or, as a
cross-check, a forward-difference one.  Both run on the 12 packed floats
through the model's kernel, whose rows are bit-for-bit those of the
Bicomplex residual; Bicomplex values are the input and output type only.

:func:`find_all_states` needs no seeding heuristics: the system lists a
candidate for every state (the dimer from the roots of its quartic, see
:class:`~bcdimer.model.DimerSystem`), and each candidate is polished by
Newton and deduplicated up to gauge.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bicomplex import Bicomplex
from .model import (
    StationaryState,
    classify_flags,
    packed_jacobian,
    packed_residual,
)

__all__ = [
    "GaugeDegenerate",
    "NoConvergence",
    "SolveConfig",
    "RealSystemView",
    "newton_solve",
    "find_all_states",
    "canonical_gauge",
    "state_distance",
]


class GaugeDegenerate(RuntimeError):
    """Gauge amplitude too small for the phase constraint to be well posed."""


class NoConvergence(RuntimeError):
    """Newton iteration failed (iteration cap or step-size underflow)."""


MAX_ITER = 100  # Newton iterations before giving up
FD_STEP = 1e-7  # forward-difference step of the finite-difference Jacobian
DEDUP_TOL = 1e-7  # states closer than this (max-norm) are one state
CLASSIFICATION_TOL = 1e-8  # j, k components below it: a complex state
GAUGE_EPS = 1e-12  # gauge amplitude degenerate below this
GAUGE_SITE_FLOOR = 1e-6  # canonical_gauge carries the gauge above this


@dataclass
class SolveConfig:
    """Solver settings."""

    residual_tol: float = 1e-11
    jacobian: str = "analytic"  # or "finite-difference", as a cross-check

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")
        if self.jacobian not in ("finite-difference", "analytic"):
            raise ValueError(f"unknown jacobian mode {self.jacobian!r}")


class RealSystemView:
    """Square real Newton system for one continued system at fixed params.

    The residual and the analytic Jacobian run on the packed floats through
    the system's kernel (:func:`~bcdimer.model.packed_residual`); no
    Bicomplex value is built inside the Newton loop.
    """

    def __init__(self, system, params, cfg: SolveConfig, gauge_site: int = 0):
        self.system = system
        self.params = params
        self.cfg = cfg
        self.gauge_site = gauge_site
        self.n_amp = system.n_amplitudes
        self.n_unknowns = 4 * self.n_amp + 4
        self.n_equations = self.n_unknowns
        self.controls = system.packed_controls(params)

    def pack(self, psi, mu) -> np.ndarray:
        parts = [c for z in psi for c in z.as_tuple()]
        parts.extend(mu.as_tuple())
        return np.array(parts, dtype=float)

    def unpack(self, x: np.ndarray):
        n = self.n_amp
        psi = tuple(Bicomplex(*x[4 * k : 4 * k + 4]) for k in range(n))
        return psi, Bicomplex(*x[4 * n : 4 * n + 4])

    def residual_vector(self, x: np.ndarray) -> np.ndarray:
        xs = x.tolist()
        # r1, r2 and the normalization's (1, j, i, k) components; the (i, k)
        # pair vanishes identically and gives way to the two gauge rows
        out = packed_residual(xs, self.controls)
        norm_i, norm_k = out[-2], out[-1]
        scale = max(1.0, max(map(abs, xs[: 4 * self.n_amp])) ** 2)
        if abs(norm_i) > 1e-10 * scale or abs(norm_k) > 1e-10 * scale:
            raise AssertionError(
                "normalization residual left the (1, j) plane; "
                "conjugation-swap symmetry violated"
            )
        g0 = 4 * self.gauge_site
        z0, z1, z2, z3 = xs[g0 : g0 + 4]
        plus, minus = complex(z0 + z3, z2 - z1), complex(z0 - z3, z2 + z1)
        if min(abs(plus), abs(minus)) < GAUGE_EPS:
            raise GaugeDegenerate(
                f"gauge amplitude {self.gauge_site} too small: "
                f"{(z0, z1, z2, z3)}"
            )
        # gauge: plus component i-real, idempotent magnitudes balanced
        out[-2] = z2 - z1
        out[-1] = 4.0 * (z0 * z3 - z1 * z2)
        return np.array(out)

    def jacobian(self, x: np.ndarray, f0: np.ndarray | None = None) -> np.ndarray:
        if self.cfg.jacobian == "analytic":
            return self._analytic_jacobian(x)
        return self._fd_jacobian(x, f0)

    def _fd_jacobian(self, x: np.ndarray, f0: np.ndarray | None) -> np.ndarray:
        if f0 is None:
            f0 = self.residual_vector(x)
        h = FD_STEP
        n = self.n_unknowns
        jac = np.empty((n, n))
        for col in range(n):
            xp = x.copy()
            xp[col] += h
            jac[:, col] = (self.residual_vector(xp) - f0) / h
        return jac

    def _analytic_jacobian(self, x: np.ndarray) -> np.ndarray:
        xs = x.tolist()
        rows = packed_jacobian(xs, self.controls)
        g0 = 4 * self.gauge_site
        z0, z1, z2, z3 = xs[g0 : g0 + 4]
        phase = [0.0] * self.n_unknowns
        phase[g0 + 1 : g0 + 3] = [-1.0, 1.0]
        balance = [0.0] * self.n_unknowns
        balance[g0 : g0 + 4] = [4.0 * z3, -4.0 * z2, -4.0 * z1, 4.0 * z0]
        rows += [phase, balance]
        return np.array(rows)


# -- gauge alignment and distances ---------------------------------------


def _gauge_transform(psi, factor_plus: complex):
    """Apply the continued phase/boost factor (u+, u-) = (c, 1/conj(c))."""
    u_minus = 1.0 / factor_plus.conjugate()
    out = []
    for z in psi:
        pair = z.to_idempotent()
        out.append(
            Bicomplex.from_idempotent(pair.plus * factor_plus, pair.minus * u_minus)
        )
    return tuple(out)


def canonical_gauge(psi, mu):
    """Unique gauge representative: one amplitude's plus component real and
    positive, idempotent magnitudes balanced.

    The first amplitude above the floor is the gauge carrier, so the choice
    does not flicker between sites for states with comparable magnitudes.
    """
    best = None
    for k, z in enumerate(psi):
        pair = z.to_idempotent()
        if min(abs(pair.plus), abs(pair.minus)) >= GAUGE_SITE_FLOOR:
            best = k
            break
    if best is None:
        best_val = -1.0
        for k, z in enumerate(psi):
            pair = z.to_idempotent()
            val = min(abs(pair.plus), abs(pair.minus))
            if val > best_val:
                best, best_val = k, val
        if best is None or best_val < GAUGE_EPS:
            return tuple(psi), mu
    pair = psi[best].to_idempotent()
    t = math.sqrt(abs(pair.minus) / abs(pair.plus))
    c = t * cmath.exp(-1j * cmath.phase(pair.plus))
    return _gauge_transform(psi, c), mu


def state_distance(a: StationaryState, b: StationaryState) -> float:
    """Max-norm distance between gauge-canonical states."""
    d = 0.0
    for za, zb in ((a.psi1, b.psi1), (a.psi2, b.psi2), (a.mu, b.mu)):
        d = max(d, (za - zb).max_abs())
    return d


def _sort_key(state: StationaryState):
    return (
        state.mu.z0,
        state.mu.z1,
        state.mu.z2,
        state.mu.z3,
        state.psi1.z0,
        state.psi1.z1,
        state.psi1.z2,
        state.psi1.z3,
        state.psi2.z0,
    )


def dedup_states(states: list[StationaryState], tol: float) -> list[StationaryState]:
    """Drop near-duplicates, keeping the lowest-residual representative."""
    kept: list[StationaryState] = []
    for st in sorted(states, key=lambda s: s.residual_norm):
        if all(state_distance(st, other) > tol for other in kept):
            kept.append(st)
    kept.sort(key=_sort_key)
    return kept


# -- Newton iteration -----------------------------------------------------

_MAX_HALVINGS = 30
_POLISH_ITERS = 8


def _make_state(view: RealSystemView, x: np.ndarray, rnorm: float) -> StationaryState:
    psi, mu = view.unpack(x)
    psi, mu = canonical_gauge(psi, mu)
    is_c, is_pt = classify_flags(psi[0], psi[1], mu, CLASSIFICATION_TOL)
    return StationaryState(
        psi1=psi[0],
        psi2=psi[1],
        mu=mu,
        residual_norm=rnorm,
        is_complex_state=is_c,
        is_pt_symmetric=is_pt,
    )


def newton_solve(system, params, seed, cfg: SolveConfig | None = None,
                 gauge_site: int = 0) -> StationaryState:
    """Damped Newton from one seed; returns a converged stationary state.

    ``seed`` is a (psi1, psi2, mu) triple of Bicomplex values (or a
    StationaryState).  Raises :class:`NoConvergence` on iteration cap or
    after 30 halvings of a damped step, :class:`GaugeDegenerate` when the
    gauge amplitude vanishes at the current iterate.
    """
    if cfg is None:
        cfg = SolveConfig()
    if isinstance(seed, StationaryState):
        seed = ((seed.psi1, seed.psi2), seed.mu)
    psi, mu = seed
    view = RealSystemView(system, params, cfg, gauge_site)
    x = view.pack(psi, mu)
    if not np.all(np.isfinite(x)):
        raise NoConvergence("seed has non-finite entries")
    f = view.residual_vector(x)
    fnorm = float(np.max(np.abs(f)))
    for _ in range(MAX_ITER):
        if fnorm < cfg.residual_tol:
            x, f, fnorm = _polish(view, x, f, fnorm)
            return _make_state(view, x, fnorm)
        try:
            jac = view.jacobian(x, f)
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"singular jacobian: {exc}") from exc
        if not np.all(np.isfinite(step)):
            raise NoConvergence("non-finite Newton step")
        t = 1.0
        for _halving in range(_MAX_HALVINGS + 1):
            try:
                f_new = view.residual_vector(x + t * step)
                fn_new = float(np.max(np.abs(f_new)))
            except GaugeDegenerate:
                fn_new = math.inf
            if fn_new < fnorm:
                break
            t *= 0.5
        else:
            raise NoConvergence("step-size underflow in damped Newton")
        x = x + t * step
        f, fnorm = f_new, fn_new
    if fnorm < cfg.residual_tol:
        return _make_state(view, x, fnorm)
    raise NoConvergence(f"no convergence after {MAX_ITER} iterations "
                        f"(residual {fnorm:.3e})")


def _polish(view: RealSystemView, x, f, fnorm):
    """Extra full Newton steps past the tolerance.

    Near-degenerate roots (close to exceptional points) leave a cloud of
    approximate solutions at distance ~sqrt(tol); polishing pulls every
    seed down to the roundoff floor so deduplication can merge them.
    """
    for _ in range(_POLISH_ITERS):
        try:
            jac = view.jacobian(x, f)
            step = np.linalg.solve(jac, -f)
            f_new = view.residual_vector(x + step)
        except (np.linalg.LinAlgError, GaugeDegenerate):
            break
        fn_new = float(np.max(np.abs(f_new)))
        if not fn_new < fnorm:
            break
        x, f, fnorm = x + step, f_new, fn_new
    return x, f, fnorm


# -- all states -----------------------------------------------------------


def find_all_states(system, params, cfg: SolveConfig | None = None) -> list[StationaryState]:
    """All stationary states: the system's candidates, Newton-polished,
    deduplicated and sorted.

    ``system.candidate_states(params)`` lists a seed for every state (for
    the dimer, from the roots of its quartic).  Seeds that fail to converge
    are dropped and duplicates merged, so at an exceptional point, where
    states coalesce, the list is shorter.  Returned states are
    gauge-canonical and sorted by mu.
    """
    if cfg is None:
        cfg = SolveConfig()
    found: list[StationaryState] = []
    for seed in system.candidate_states(params):
        try:
            found.append(newton_solve(system, params, seed, cfg))
        except GaugeDegenerate:
            try:
                found.append(newton_solve(system, params, seed, cfg, gauge_site=1))
            except (GaugeDegenerate, NoConvergence):
                continue
        except NoConvergence:
            continue
    return dedup_states(found, DEDUP_TOL)
