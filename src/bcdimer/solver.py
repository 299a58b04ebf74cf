"""Stationary-state solver for continued systems.

A bicomplex stationary problem with two amplitudes is solved as a square
real system in 12 unknowns (four real components per amplitude plus four
for the nonlinear eigenvalue mu).  The equation stack is

* 4 real components of each amplitude's residual,
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

Solves use damped Newton with the analytic Jacobian.  Residual and
Jacobian run on the 12 packed floats through the model's kernel, whose rows
are bit-for-bit those of the Bicomplex residual; Bicomplex values are the
input and output type only.

There is one Newton loop, and the polish runs it too.  It runs on lanes:
an (N, 12) batch of seeds, each at its own point and on its own gauge site,
with a status per lane (converged, :class:`NoConvergence`, or
:class:`GaugeDegenerate`).  The kernel evaluates a batch lane by lane on
Python floats below 16 lanes and once on numpy arrays from there, with the
same bits; the linear solves are one batched ``np.linalg.solve``.
:func:`newton_solve` is the one-lane call.  Points enter as rows of their
control components (:func:`~bcdimer.model.control_rows`), at which a
system gives the seeds (``packed_candidates``) and the kernel's controls
(``lane_controls``) of a whole block in one call each.
The loop steps of :func:`~bcdimer.ep.encircle` solve every candidate seed
of a block of loop points in one Newton pass (:func:`_candidate_solves`),
which yields solved rows, and match the tracked states to those rows.

:func:`find_states_along` finds all states at every point of a grid in one
batched pass per block of points; :func:`find_all_states` is its one-point
call.  It needs no seeding heuristics: the system lists a candidate for
every state (the dimer one per root of its quartic Q, for a whole grid at
once, see :meth:`~bcdimer.model.DimerSystem.packed_candidates`).  Each is
solved by Newton, polished down to the roundoff floor (a few eps times the
residual's scale, not just past the tolerance) so that duplicates merge
(nowhere else), and deduplicated up to gauge: only the points where one
array pass finds two close rows run the dedup rule, and only kept rows
become states.

States are made from the solved rows, not from Bicomplex values, and only
where a function returns them: the canonical gauge and the two flags of
every row of a block come from one :func:`_solved` call, which, like the
kernel, runs row by row on Python floats below 16 rows and once on numpy
lanes from there, with the bits of the Bicomplex arithmetic it replaces.
The distances that match and deduplicate states are max-norms over those
rows (:func:`_distances`), with :func:`state_distance`'s bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bicomplex import Bicomplex
from .model import (
    StationaryState,
    _CROSSOVER,
    _ComplexLanes,
    _any,
    _flags,
    _sqrt,
    control_rows,
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
    "find_states_along",
    "canonical_gauge",
    "state_distance",
]


class GaugeDegenerate(RuntimeError):
    """Gauge amplitude too small for the phase constraint to be well posed."""


class NoConvergence(RuntimeError):
    """Newton iteration failed (iteration cap or step-size underflow)."""


MAX_ITER = 100  # Newton iterations before giving up
DEDUP_TOL = 1e-7  # states closer than this (max-norm) are one state
CLASSIFICATION_TOL = 1e-8  # j, k components below it: a complex state
GAUGE_EPS = 1e-12  # gauge amplitude degenerate below this
GAUGE_SITE_FLOOR = 1e-6  # canonical_gauge carries the gauge above this


@dataclass
class SolveConfig:
    """Solver settings."""

    residual_tol: float = 1e-11
    jacobian: str = "analytic"  # the only mode: the exact Jacobian

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")
        if self.jacobian != "analytic":
            raise ValueError(f"unknown jacobian mode {self.jacobian!r}")


class RealSystemView:
    """Square real Newton system for one continued system at fixed params.

    The residual and the analytic Jacobian run on the packed floats through
    the system's kernel (:func:`~bcdimer.model.packed_residual`); no
    Bicomplex value is built inside the Newton loop.  ``controls``, where
    given, replace the system's ``lane_controls`` at ``params``.
    """

    def __init__(self, system, params, *, gauge_site: int = 0,
                 controls=None):
        self.system = system
        self.gauge_site = gauge_site
        self.controls = (_kernel_controls(system.lane_controls(
            control_rows([params])[0].tolist())) if controls is None
            else controls)

    def scale(self, xs: list[float]) -> float:
        """Size of the cubic terms: max(1, largest amplitude component)^2,
        squared as numpy squares lanes (float ``**`` can round otherwise)."""
        m = max(map(abs, xs[:8]))
        return max(1.0, m * m)

    def residual_vector(self, x: np.ndarray) -> np.ndarray:
        xs = x.tolist()
        out = packed_residual(xs, self.controls)
        g0 = 4 * self.gauge_site
        if _close(out, xs[g0 : g0 + 4], self.scale(xs)):
            raise _gauge_error(self.gauge_site, xs)
        return np.array(out)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        xs = x.tolist()
        rows = packed_jacobian(xs, self.controls)
        g0 = 4 * self.gauge_site
        phase, balance = [0.0] * 12, [0.0] * 12
        phase[g0 : g0 + 4], balance[g0 : g0 + 4] = _gauge_derivatives(
            xs[g0 : g0 + 4])
        rows += [phase, balance]
        return np.array(rows)


# -- closing the kernel into the square system, on floats or on lanes ------
#
# Each of these runs unchanged on Python floats (one seed) and on numpy
# arrays of lanes (one entry per seed), like the kernel itself.


def _kernel_controls(c):
    """The kernel's controls (v, g, i*gamma, s) from the 13 values of a
    system's ``lane_controls``, floats or lanes."""
    return c[0], tuple(c[1:5]), tuple(c[5:9]), tuple(c[9:13])


def _close(out, gauge, scale):
    """Close the kernel's residual ``out`` into the square system, in place.

    The kernel's last two rows, the normalization's (i, k) components,
    vanish identically; they are checked against ``scale`` (see
    :meth:`RealSystemView.scale`) and give way to the two gauge rows of the
    gauge amplitude ``gauge`` = (z0, z1, z2, z3): its plus component
    i-real, its idempotent magnitudes balanced.  Returns whether the gauge
    amplitude is degenerate, where those rows are not well posed.
    """
    norm_i, norm_k = out[-2], out[-1]
    if _any((abs(norm_i) > 1e-10 * scale) | (abs(norm_k) > 1e-10 * scale)):
        raise AssertionError(
            "normalization residual left the (1, j) plane; "
            "conjugation-swap symmetry violated"
        )
    z0, z1, z2, z3 = gauge
    plus, minus = (z0 + z3) + 1j * (z2 - z1), (z0 - z3) + 1j * (z2 + z1)
    out[-2] = z2 - z1
    out[-1] = 4.0 * (z0 * z3 - z1 * z2)
    return (abs(plus) < GAUGE_EPS) | (abs(minus) < GAUGE_EPS)


def _gauge_derivatives(gauge):
    """The derivatives of the two gauge rows of :func:`_close` by the gauge
    amplitude's components (z0, z1, z2, z3)."""
    z0, z1, z2, z3 = gauge
    return (0.0, -1.0, 1.0, 0.0), (4.0 * z3, -4.0 * z2, -4.0 * z1, 4.0 * z0)


# -- gauge alignment and distances ---------------------------------------
#
# The canonical gauge runs unchanged on the 12 floats of one state and on
# numpy lanes, like _close, with the bits of Python's complex arithmetic:
# on lanes its complex numbers are model._ComplexLanes; atan2, cos and sin
# come from math on every lane (numpy's may be SIMD versions that round
# otherwise).


def _where(mask, a, b):
    """a where ``mask`` holds, else b: a branch on floats, np.where on
    lanes."""
    if isinstance(mask, np.ndarray):
        return np.where(mask, a, b)
    return a if mask else b


def _math(fn, *args):
    """A function of the math module on floats, or mapped over lanes."""
    if isinstance(args[0], np.ndarray):
        return np.array(list(map(fn, *(a.tolist() for a in args))))
    return fn(*args)


def _gauge(x):
    """:func:`canonical_gauge` on the 12 packed floats of a state, or with
    each an array of lanes; returns the 12 canonical floats (or arrays).

    The gauge site is the first amplitude whose smaller idempotent
    magnitude reaches GAUGE_SITE_FLOOR, else the one where it is largest
    (site 0 on a tie); where that is below GAUGE_EPS the state is left as
    it is.  The factor (c, 1/conj c) with c = t*exp(-i*theta) makes the
    site's plus component real and positive and balances its magnitudes.
    On lanes the kept ones run through the arithmetic too, and are put
    back at the end.
    """
    lanes = isinstance(x[0], np.ndarray)
    Z = _ComplexLanes if lanes else complex
    sites = []
    for z0, z1, z2, z3 in (x[0:4], x[4:8]):
        # the idempotent components (plus, minus), their magnitudes and
        # the smaller of those, as min() takes it
        pr, pi, mr, mi = z0 + z3, z2 - z1, z0 - z3, z2 + z1
        a_plus, a_minus = abs(Z(pr, pi)), abs(Z(mr, mi))
        sites.append((pr, pi, mr, mi, a_plus, a_minus,
                      _where(a_minus < a_plus, a_minus, a_plus)))
    low0, low1 = sites[0][-1], sites[1][-1]
    on1 = (low0 < GAUGE_SITE_FLOOR) & (low1 > low0)
    pr, pi, _, _, a_plus, a_minus, low = _where(on1, sites[1], sites[0])
    keep = low < GAUGE_EPS
    if not lanes and keep:
        return list(x)
    theta = _math(math.atan2, pi, pr)
    # c = t * cmath.exp(-1j*theta) and u = 1/conj(c)
    c = _sqrt(a_minus / a_plus) * Z(_math(math.cos, -theta),
                                    _math(math.sin, -theta))
    u = 1.0 / c.conjugate()
    out = []
    for pr, pi, mr, mi, *_ in sites:
        # (plus * c, minus * u), back from the idempotent basis
        q, n = Z(pr, pi) * c, Z(mr, mi) * u
        out += [0.5 * (q.real + n.real), 0.5 * (n.imag - q.imag),
                0.5 * (q.imag + n.imag), 0.5 * (q.real - n.real)]
    return [*_where(keep, x[0:8], out), *x[8:12]]


def _solved(x, fnorm) -> np.ndarray:
    """The solved rows x (N, 12) with residuals ``fnorm`` as states in an
    (N, 15) array: the 12 floats in the canonical gauge (:func:`_gauge`),
    the residual, and the flags is_complex_state and is_pt_symmetric
    (:func:`~bcdimer.model.classify_flags` at CLASSIFICATION_TOL, 1.0 or
    0.0) of each.  Below _CROSSOVER rows row by row on Python floats,
    from it on once on numpy lanes, with the same bits."""
    if len(x) < _CROSSOVER:
        rows = [_gauge(row) for row in x.tolist()]
        flags = [_flags(row, CLASSIFICATION_TOL) for row in rows]
        return np.column_stack([np.reshape(rows, (-1, 12)), fnorm,
                                np.reshape(flags, (-1, 2))])
    # kept lanes (a degenerate gauge site) run through the arithmetic too
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cols = _gauge(list(np.ascontiguousarray(x.T)))
    return np.column_stack([*cols, fnorm, *_flags(cols, CLASSIFICATION_TOL)])


def _states(solved) -> list[StationaryState]:
    """The states of a list of :func:`_solved` rows."""
    return [StationaryState(Bicomplex(*r[0:4]), Bicomplex(*r[4:8]),
                            Bicomplex(*r[8:12]), r[12], bool(r[13]),
                            bool(r[14])) for r in solved]


class _Lazy:
    """A sequence of ``make(k)``, each item made when first read."""

    def __init__(self, n: int, make):
        self._make, self._items = make, [None] * n

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        if self._items[k] is None:
            self._items[k] = self._make(k)
        return self._items[k]


def canonical_gauge(psi, mu):
    """Unique gauge representative of a dimer state (psi1, psi2), mu: one
    amplitude's plus component real and positive, idempotent magnitudes
    balanced.

    The first amplitude above the floor is the gauge carrier, so the choice
    does not flicker between sites for states with comparable magnitudes.
    The one-row call of the gauge that :func:`_solved` gives solved
    states on lanes.
    """
    psi1, psi2 = psi
    row = _gauge([*psi1.as_tuple(), *psi2.as_tuple(), *mu.as_tuple()])
    return (Bicomplex(*row[0:4]), Bicomplex(*row[4:8])), mu


def state_distance(a: StationaryState, b: StationaryState) -> float:
    """Max-norm distance between gauge-canonical states, taken on their 12
    floats without building Bicomplex differences."""
    d = 0.0
    for za, zb in ((a.psi1, b.psi1), (a.psi2, b.psi2), (a.mu, b.mu)):
        d = max(d, abs(za.z0 - zb.z0), abs(za.z1 - zb.z1),
                abs(za.z2 - zb.z2), abs(za.z3 - zb.z3))
    return d


def _rows(states) -> np.ndarray:
    """The 12 packed floats of each state, or of each (psi, mu) seed, an
    (n, 12) array."""
    seeds = [((st.psi1, st.psi2), st.mu) if isinstance(st, StationaryState)
             else st for st in states]
    return np.array([(*psi[0].as_tuple(), *psi[1].as_tuple(), *mu.as_tuple())
                     for psi, mu in seeds]).reshape(-1, 12)


def _distances(rows, others) -> np.ndarray:
    """:func:`state_distance` from a row (12,) or from each of rows (n, 12)
    to each of ``others`` (m, 12), as an (m,) or (n, m) array: the same
    subtractions and an exact max, so every entry has its bits."""
    return np.abs(rows[..., None, :] - others).max(-1)


def _sort_key(row: list[float]):
    """mu, then psi1 and psi2, rounded to 9 decimals, so that roundoff in a
    vanishing component does not decide the order."""
    return tuple(round(c, 9) for c in row[8:12] + row[0:8])


def _ordered(rows: list[list[float]], kept) -> list[int]:
    """``kept`` (indices into ``rows``) sorted by :func:`_sort_key`, stably,
    rounding only mu unless two rounded mu tie.  (Rows whose whole keys tie
    are within DEDUP_TOL, so only a deduplicated point can hold a tie.)"""
    keys = [tuple(round(c, 9) for c in rows[k][8:12]) for k in kept]
    if len(set(keys)) < len(keys):
        keys = [_sort_key(rows[k]) for k in kept]
    return [kept[i] for i in sorted(range(len(keys)), key=keys.__getitem__)]


def _block_order(rows: np.ndarray, first):
    """The indices of the :func:`_solved` rows (n, 15) of a block that
    :func:`_dedup` keeps and :func:`_ordered` sorts at each point, point k
    at first[k]:first[k + 1], and each point's count.

    Only points with two rows within DEDUP_TOL (a nan distance counts)
    need the dedup.  round(c, 9) takes a mu component c to the bin
    rint(c * 1e9) unless c lies within that product's roundoff of a bin's
    edge, so one lexsort on (point, bins) gives _ordered's order at every
    other point where no two rows share all four bins.  The rest, and a
    one-point block, run _dedup and _ordered."""
    counts = np.diff(first).tolist()
    slow, order = {0}, np.arange(len(rows))
    if len(counts) > 1:
        owner, mu = np.repeat(np.arange(len(counts)), counts), rows[:, 8:12]
        with np.errstate(invalid="ignore"):  # inf - inf: slow anyway
            bins = np.rint(mu * 1e9)
            off = (np.abs(np.abs(mu * 1e9 - bins) - 0.5)
                   > 1e-6 * np.maximum(1.0, np.abs(mu))).all(1)
            slow = set(owner[~off].tolist())
            for d in range(1, max(counts)):  # row k against row k + d
                near = (~(np.abs(rows[d:, :12] - rows[:-d, :12]).max(1)
                          > DEDUP_TOL) | (bins[d:] == bins[:-d]).all(1))
                slow.update(owner[d:][near & (owner[d:] == owner[:-d])])
        order = np.lexsort((*bins.T[::-1], owner))
    pieces, at = [], 0
    for k in sorted(map(int, slow)):
        lo, hi = first[k], first[k + 1]
        local = _ordered(rows[lo:hi].tolist(), _dedup(
            rows[lo:hi, :12], rows[lo:hi, 12].tolist(), DEDUP_TOL))
        pieces += [order[at:lo], np.array(local, dtype=int) + lo]
        counts[k], at = len(local), hi
    return np.concatenate([*pieces, order[at:]]), counts


def _dedup(rows: np.ndarray, fnorm: list[float], tol: float) -> list[int]:
    """The rows (an (n, 12) array) not within ``tol`` of a row kept before
    them, in order of residual ``fnorm``."""
    far = (_distances(rows, rows) > tol).tolist()
    kept: list[int] = []
    for k in sorted(range(len(rows)), key=fnorm.__getitem__):
        if all(far[k][j] for j in kept):
            kept.append(k)
    return kept


# -- Newton iteration on lanes ---------------------------------------------

_MAX_HALVINGS = 30
_POLISH_ITERS = 8
# the roundoff floor of the residual, in units of RealSystemView.scale
_POLISH_FLOOR = 4.0 * float(np.finfo(float).eps)
# grid points per batched pass: 256 points of 8 lanes bound the Jacobians
# to 2.4 MB, and the default `bifurcations` and `sweep` grids take one pass
_BLOCK = 256


class _Lanes:
    """The seeds of one batched solve: lane k is a row of packed floats at
    the point ``controls[owner[k]]`` (a row of
    :func:`~bcdimer.model.control_rows`), solved on gauge site ``site[k]``.

    The kernel's controls come from ``system.lane_controls``, at one row
    for a :meth:`view`, at every row's columns at once for the arrays.
    :meth:`residuals` and
    :meth:`jacobians` evaluate the kernel on a subset of lanes: below
    _CROSSOVER lanes through each lane's :class:`RealSystemView` on Python
    floats, from it on once with each of the 12 floats and each control
    component an array of lanes.  Both give the same bits;
    :meth:`residuals` also flags the lanes whose gauge amplitude vanishes.
    """

    def __init__(self, system, controls, owner):
        self.system, self.controls = system, controls
        self.owner = np.asarray(owner, dtype=int)
        self.site = np.zeros(len(self.owner), dtype=int)
        self._views = {}
        self._kernel = None

    def view(self, lane) -> RealSystemView:
        key = (int(self.owner[lane]), int(self.site[lane]))
        if key not in self._views:
            self._views[key] = RealSystemView(
                self.system, None, gauge_site=key[1],
                controls=_kernel_controls(self.system.lane_controls(
                    self.controls[key[0]].tolist())))
        return self._views[key]

    def residuals(self, lanes, x):
        """Residual rows at the rows of x, and the positions (in
        ``lanes``) of the lanes whose gauge amplitude vanishes there."""
        if len(lanes) >= _CROSSOVER:
            f, bad = self._on_arrays(lanes, x)
            return f, np.flatnonzero(bad).tolist()
        rows, bad = [], []
        for k, lane in enumerate(lanes.tolist()):
            try:
                rows.append(self.view(lane).residual_vector(x[k]))
            except GaugeDegenerate:
                rows.append(np.full(x.shape[1], np.nan))
                bad.append(k)
        return np.array(rows).reshape(x.shape), bad

    def jacobians(self, lanes, x):
        """:meth:`RealSystemView.jacobian` at every row of x, an (n, 12, 12)
        array."""
        n, width = x.shape
        if n < _CROSSOVER:
            out = np.empty((n, width, width))
            for k, lane in enumerate(lanes.tolist()):
                out[k] = self.view(lane).jacobian(x[k])
            return out
        xs, controls, gauge = self._columns(lanes, x)
        jac = np.zeros((width, width, n))
        with np.errstate(over="ignore", invalid="ignore"):  # as on floats
            rows = packed_jacobian(xs, controls)
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                jac[r, c] = entry
        first, every = 4 * self.site[lanes], np.arange(n)
        for k, (phase, balance) in enumerate(zip(*_gauge_derivatives(gauge))):
            jac[-2, first + k, every] = phase
            jac[-1, first + k, every] = balance
        return jac.transpose(2, 0, 1)

    def scale(self, x):
        """:meth:`RealSystemView.scale` of every row of x at once."""
        m = np.abs(x[:, :8]).max(1)
        return np.maximum(1.0, m * m)

    def _columns(self, lanes, x):
        """The packed floats and the kernel's controls, each an array of
        lanes, and each lane's gauge amplitude (z0, z1, z2, z3)."""
        if self._kernel is None:  # every point's, once
            self._kernel = np.stack(np.broadcast_arrays(
                *self.system.lane_controls(list(self.controls.T))), 1)
        controls = _kernel_controls(self._kernel[self.owner[lanes]].T)
        xs = list(np.ascontiguousarray(x.T))
        first = 4 * self.site[lanes]
        gauge = tuple(x[np.arange(len(x)), first + k] for k in range(4))
        return xs, controls, gauge

    def _on_arrays(self, lanes, x):
        """RealSystemView.residual_vector on every lane at once, and where
        the gauge amplitude is degenerate."""
        xs, controls, gauge = self._columns(lanes, x)
        with np.errstate(over="ignore", invalid="ignore"):  # as on floats
            out = packed_residual(xs, controls)
            bad = _close(out, gauge, self.scale(x))
        return np.stack(out, axis=1), bad


def _solve(jac, rhs):
    """np.linalg.solve on each lane's system, in one batched call; a lane
    whose matrix is singular gets a nan step and its error."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0], {}
    except np.linalg.LinAlgError:
        out = np.full_like(rhs, np.nan)
        errors = {}
        for k in range(len(rhs)):
            try:
                out[k] = np.linalg.solve(jac[k], rhs[k])
            except np.linalg.LinAlgError as exc:
                errors[k] = NoConvergence(f"singular jacobian: {exc}")
        return out, errors


def _gauge_error(site, x) -> GaugeDegenerate:
    return GaugeDegenerate(f"gauge amplitude {site} too small: "
                           f"{tuple(map(float, x[4 * site: 4 * site + 4]))}")


def _newton(lanes: _Lanes, idx, x, tol, iterations=MAX_ITER,
            halvings=_MAX_HALVINGS, f=None):
    """Damped Newton on the lanes ``idx`` from the rows of x, all at once;
    ``f``, if given, holds the residual rows at x.

    Returns the rows, their residual rows, their residuals (max-norm) and
    the error of each failed lane by its position: :class:`NoConvergence`
    for a non-finite seed or step, a singular Jacobian, ``halvings``
    halvings of a damped step without descent, or ``iterations`` iterations;
    :class:`GaugeDegenerate` when the gauge amplitude vanishes at an
    iterate.  Every other lane stops at its first iterate with a residual
    below ``tol``, a number or one per lane.
    """
    x = np.array(x, dtype=float)
    failed = np.zeros(len(x), dtype=bool)
    errors = {}

    def fail(new: dict):
        if new:
            errors.update(new)
            failed[list(new)] = True

    if not np.isfinite(x).all():
        fail({k: NoConvergence("seed has non-finite entries")
              for k in np.flatnonzero(~np.isfinite(x).all(1)).tolist()})
    f, bad = lanes.residuals(idx, x) if f is None else (f.copy(), [])
    fail({k: _gauge_error(lanes.site[idx[k]], x[k]) for k in bad
          if not failed[k]})
    fnorm = np.abs(f).max(1)
    for _ in range(iterations):
        todo = np.flatnonzero(~((fnorm < tol) | failed))
        if not len(todo):
            break
        step, singular = _solve(lanes.jacobians(idx[todo], x[todo]), -f[todo])
        finite = np.isfinite(step).all(1)
        fail({todo[k]: singular.get(k, NoConvergence("non-finite Newton step"))
              for k in np.flatnonzero(~finite).tolist()})
        todo, step = todo[finite], step[finite]
        t = 1.0  # the lanes left halve together
        for _halving in range(halvings + 1):
            trial = x[todo] + t * step
            f_new, bad = lanes.residuals(idx[todo], trial)
            fn_new = np.abs(f_new).max(1)
            fn_new[bad] = math.inf
            down = fn_new < fnorm[todo]
            moved = todo[down]
            x[moved], f[moved], fnorm[moved] = trial[down], f_new[down], fn_new[down]
            todo, step, t = todo[~down], step[~down], 0.5 * t
            if not len(todo):
                break
        fail({k: NoConvergence("step-size underflow in damped Newton")
              for k in todo.tolist()})
    else:
        fail({k: NoConvergence(f"no convergence after {iterations} "
                               f"iterations (residual {fnorm[k]:.3e})")
              for k in np.flatnonzero(~(fnorm < tol) & ~failed).tolist()})
    return x, f, fnorm, errors


def _polish(lanes: _Lanes, idx, x, f):
    """Full Newton steps down to the roundoff floor, and no further, on the
    lanes ``idx`` at once, from the rows x and their residual rows f;
    returns the rows and their residuals.

    Near-degenerate roots (close to exceptional points) leave a cloud of
    approximate solutions at distance ~sqrt(tol); polishing pulls every
    seed down to the floor, 4 eps times :meth:`RealSystemView.scale`, so
    deduplication can merge them.  It is :func:`_newton` down to the floor
    (a lane at it is done) in 8 iterations without halving; a lane that
    fails keeps the row it has.
    """
    tol = np.nextafter(_POLISH_FLOOR * lanes.scale(x), np.inf)
    x, _, fnorm, _ = _newton(lanes, idx, x, tol, _POLISH_ITERS, halvings=0,
                             f=f)
    return x, fnorm


def newton_solve(system, params, seed,
                 cfg: SolveConfig | None = None) -> StationaryState:
    """Damped Newton from one seed; returns a converged stationary state.

    ``seed`` is a ((psi1, psi2), mu) pair of Bicomplex values, or a
    StationaryState.  Returns the first iterate with a residual below
    ``cfg.residual_tol``.  Raises :class:`NoConvergence` on iteration cap or
    after 30 halvings of a damped step, :class:`GaugeDegenerate` when the
    gauge amplitude (site 0) vanishes at the current iterate.  The one-lane
    call of the batched Newton loop.
    """
    if cfg is None:
        cfg = SolveConfig()
    row = _solve_at(system, control_rows([params]), _rows([seed]), cfg)
    return _states(row.tolist())[0]


def _solve_at(system, controls, seeds, cfg: SolveConfig) -> np.ndarray:
    """:func:`newton_solve` from each of the packed seeds (n, 12) at the
    point ``controls`` (one row of :func:`~bcdimer.model.control_rows`), in
    one pass; returns their :func:`_solved` rows, or raises the error of
    the first seed that fails.  Lanes stop independently, so each has the
    bits it has alone."""
    lanes = _Lanes(system, controls, np.zeros(len(seeds), dtype=int))
    x, _, fnorm, errors = _newton(lanes, np.arange(len(seeds)), seeds,
                                  cfg.residual_tol)
    if errors:
        raise errors[min(errors)]
    return _solved(x, fnorm)


def _candidate_solves(system, controls, cfg: SolveConfig):
    """Newton from every candidate seed at each point of ``controls``
    (rows of :func:`~bcdimer.model.control_rows`), as lanes of one batched
    pass per block of _BLOCK points, on gauge site 0 with no retry and no
    polish; a block is solved when the iteration reaches it.

    Yields, block by block, the :func:`_solved` rows Newton reaches from
    its seeds, point after point in seed order, and each point's offset
    in them; a seed from which :func:`newton_solve` would raise yields no
    row.  No state is built.
    """
    for start in range(0, len(controls), _BLOCK):
        block = controls[start:start + _BLOCK]
        seeds, owner = system.packed_candidates(block)
        lanes = _Lanes(system, block, owner)
        x, _, fnorm, errors = _newton(lanes, np.arange(len(seeds)), seeds,
                                      cfg.residual_tol)
        ok = np.array([k for k in range(len(seeds)) if k not in errors],
                      dtype=int)
        yield (_solved(x[ok], fnorm[ok]),
               np.searchsorted(owner[ok], np.arange(len(block) + 1)))


# -- all states -----------------------------------------------------------


def find_states_along(system, points, cfg: SolveConfig | None = None
                      ) -> list[list[StationaryState]]:
    """All stationary states at each of ``points``, as
    :func:`find_all_states` finds them: the rows of :func:`_find_rows`,
    made states point by point."""
    rows, counts = _find_rows(system, control_rows(points),
                              cfg or SolveConfig())
    states = iter(_states(rows.tolist()))
    return [[next(states) for _ in range(n)] for n in counts]


def _find_rows(system, controls, cfg: SolveConfig):
    """All stationary states at each point of ``controls`` (rows of
    :func:`~bcdimer.model.control_rows`) as :func:`_solved` rows, in one
    batched pass per block of _BLOCK (256) points: an (n, 15) array, point
    after point, and each point's count.

    Every seed of the block is a lane: the seeds come from one call of the
    system's ``packed_candidates`` (one batched root finding and
    back-solve, for the dimer), and Newton, the retry of a lane whose
    gauge amplitude vanishes on gauge site 1, and the polish run on all
    lanes at once.  The rows are made gauge-canonical and flagged in one
    call, and deduplicated and sorted by :func:`_block_order`.
    """
    blocks = [_find_block(system, controls[start:start + _BLOCK], cfg)
              for start in range(0, len(controls), _BLOCK)]
    return (np.concatenate([np.empty((0, 15)), *(b for b, _ in blocks)]),
            [n for _, counts in blocks for n in counts])


def _find_block(system, controls, cfg: SolveConfig):
    seeds, owner = system.packed_candidates(controls)
    lanes = _Lanes(system, controls, owner)
    idx = np.arange(len(seeds))
    x, f, fnorm, errors = _newton(lanes, idx, seeds, cfg.residual_tol)
    retry = np.array([k for k, exc in errors.items()
                      if isinstance(exc, GaugeDegenerate)], dtype=int)
    if len(retry):
        lanes.site[retry] = 1
        x[retry], f[retry], fnorm[retry], again = _newton(
            lanes, retry, seeds[retry], cfg.residual_tol)
        for k in retry.tolist():
            del errors[k]
        errors.update({int(retry[k]): exc for k, exc in again.items()})
    ok = np.array([k for k in idx.tolist() if k not in errors], dtype=int)
    x, fnorm = _polish(lanes, ok, x[ok], f[ok])
    solved = _solved(x, fnorm)
    order, counts = _block_order(solved, np.searchsorted(
        lanes.owner[ok], np.arange(len(controls) + 1)).tolist())
    return solved[order], counts


def find_all_states(system, params, cfg: SolveConfig | None = None) -> list[StationaryState]:
    """All stationary states: the system's candidates, solved by Newton,
    polished, deduplicated and sorted.

    The system lists a seed for every state (``packed_candidates``; for
    the dimer, one per root of its quartic Q).  Seeds that fail to converge
    are dropped, the others polished and duplicates merged, so at an
    exceptional point, where states coalesce, the list is shorter.  Returned
    states are gauge-canonical and sorted by mu.  The one-point call of
    :func:`find_states_along`: its few lanes run on Python floats.
    """
    return find_states_along(system, [params], cfg)[0]
