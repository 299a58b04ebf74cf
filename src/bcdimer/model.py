"""Analytically continued two-mode PT-symmetric condensate model.

The physical model is a two-site matrix equation with on-site nonlinearity
``-g |psi_n|^2``, gain ``-i*gamma`` on site 1, loss ``+i*gamma`` on site 2
and coupling ``v``.  Continuation replaces ``|psi_n|^2`` by
``conj(psi_n)*psi_n`` with bicomplex amplitudes, which makes solution
branches behind the non-analytic modulus accessible.  An optional asymmetry
``s`` enters the diagonal as ``(+s, -s)`` and breaks the remaining site
symmetry; it is the probe parameter for exceptional-point loops.

Two systems implement the small continued-system interface used by the
solver: :class:`DimerSystem` (the full nonlinear model) and
:class:`LinearTwoMode` (the g = 0 model with closed-form eigenpairs, kept as
an independent oracle).  Each lists candidate seeds for all of its
stationary states, so the solver needs no multistart, and gives the controls
of the one packed residual kernel that Newton runs on; the linear model is
its g = 0 case.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bicomplex import I as I_UNIT
from .bicomplex import Bicomplex

CONTROL_NAMES = ("gamma", "g", "s")


def _as_bicomplex(value) -> Bicomplex:
    if isinstance(value, Bicomplex):
        return value
    if isinstance(value, (int, float)):
        return Bicomplex(float(value))
    raise TypeError(f"expected real or Bicomplex, got {type(value).__name__}")


@dataclass(frozen=True, slots=True)
class DimerParams:
    """Model controls.

    ``gamma``, ``g`` and ``s`` may carry a j-component during continuation
    loops; physical configurations keep only the real component.  ``v`` sets
    the scale and stays real and positive.
    """

    v: float = 1.0
    g: Bicomplex = Bicomplex()
    gamma: Bicomplex = Bicomplex()
    s: Bicomplex = Bicomplex()

    def __post_init__(self):
        object.__setattr__(self, "g", _as_bicomplex(self.g))
        object.__setattr__(self, "gamma", _as_bicomplex(self.gamma))
        object.__setattr__(self, "s", _as_bicomplex(self.s))
        if not (self.v > 0 and math.isfinite(self.v)):
            raise ValueError(f"coupling v must be positive and finite, "
                             f"got {self.v}")
        for name in CONTROL_NAMES:
            c = getattr(self, name)
            if not (math.isfinite(c.z0) and math.isfinite(c.z1)):
                raise ValueError(f"control {name} must be finite, got {c}")
            if c.z2 != 0.0 or c.z3 != 0.0:
                raise ValueError(
                    f"control {name} may only have real and j components, got {c}"
                )

    def control(self, name: str) -> Bicomplex:
        if name not in CONTROL_NAMES:
            raise ValueError(f"unknown control {name!r}, expected one of {CONTROL_NAMES}")
        return getattr(self, name)

    def with_control(self, name: str, real: float, jpart: float = 0.0) -> "DimerParams":
        if name not in CONTROL_NAMES:
            raise ValueError(f"unknown control {name!r}, expected one of {CONTROL_NAMES}")
        return replace(self, **{name: Bicomplex(float(real), float(jpart), 0.0, 0.0)})

    def is_physical(self, tol: float = 0.0) -> bool:
        """True when no control carries a continuation (j) component."""
        return all(abs(getattr(self, name).z1) <= tol for name in CONTROL_NAMES)


@dataclass(frozen=True, slots=True)
class StationaryState:
    """A converged stationary solution of the continued system.

    ``is_complex_state`` marks states that exist without the continuation
    (all j and k components below the classification tolerance, equivalently
    equal idempotent components of mu).  ``is_pt_symmetric`` marks equal site
    populations and is only meaningful for complex states.
    """

    psi1: Bicomplex
    psi2: Bicomplex
    mu: Bicomplex
    residual_norm: float
    is_complex_state: bool
    is_pt_symmetric: bool


@dataclass
class BifurcationPoint:
    kind: str  # "tangent" | "pitchfork"
    location: float
    branch_ids: tuple[int, ...]
    coalesced_state: StationaryState
    detection_residual: float
    continuing_branch_id: int | None = None


@dataclass(frozen=True, slots=True)
class Observables:
    mu: Bicomplex
    e_mf: Bicomplex
    re_part: complex
    im_part: complex


def residual(
    psi1: Bicomplex, psi2: Bicomplex, mu: Bicomplex, p: DimerParams
) -> tuple[Bicomplex, Bicomplex]:
    """Stationary-equation residual of the continued dimer.

    r1 = (-g*conj(psi1)*psi1 - i*gamma + s - mu)*psi1 + v*psi2
    r2 = v*psi1 + (-g*conj(psi2)*psi2 + i*gamma - s - mu)*psi2
    """
    m1 = psi1.conj() * psi1
    m2 = psi2.conj() * psi2
    igamma = I_UNIT * p.gamma
    r1 = (-(p.g * m1) - igamma + p.s - mu) * psi1 + p.v * psi2
    r2 = p.v * psi1 + (-(p.g * m2) + igamma - p.s - mu) * psi2
    return r1, r2


def normalization_residual(psi1: Bicomplex, psi2: Bicomplex) -> Bicomplex:
    """conj(psi1)*psi1 + conj(psi2)*psi2 - 1, a bicomplex-valued constraint."""
    return psi1.modulus_squared() + psi2.modulus_squared() - 1


# -- packed kernel -----------------------------------------------------------
#
# The Newton solver works on 12 floats: the (z0, z1, z2, z3) components of
# psi1, psi2 and mu.  The kernel below is residual() and
# normalization_residual() on those floats, with Bicomplex.__mul__ and
# __add__ written out term by term in their own order, so its rows are
# bit-for-bit those of the Bicomplex functions.  That exactness is load-
# bearing: at complex-in-i points (z1 = z3 = 0) with real controls the j and
# k rows and the Jacobian couplings between (z0, z2) and (z1, z3) are exactly
# 0.0, so Newton never leaves the complex-in-i subspace and a symmetric
# branch stops at its fold instead of riding on to its bicomplex partner.


def packed_controls(p: DimerParams, g: Bicomplex | None = None):
    """(v, g, i*gamma, s) as component tuples for the packed kernel.

    ``g`` overrides ``p.g``; the linear model passes zero.
    """
    g = p.g if g is None else g
    return float(p.v), g.as_tuple(), (I_UNIT * p.gamma).as_tuple(), p.s.as_tuple()


def _mul(a, b):
    """Bicomplex.__mul__ on component tuples."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 + a3 * b3,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
    )


def _modulus_squared(a):
    """conj(a)*a on a component tuple."""
    a0, a1, a2, a3 = a
    return _mul((a0, a1, -a2, -a3), a)


def _diagonals(psi1, psi2, mu, controls):
    """m_k = conj(psi_k)*psi_k and the diagonal factors d_k of residual()."""
    _v, g, (h0, h1, h2, h3), (s0, s1, s2, s3) = controls
    mu0, mu1, mu2, mu3 = mu
    m1, m2 = _modulus_squared(psi1), _modulus_squared(psi2)
    a0, a1, a2, a3 = _mul(g, m1)
    b0, b1, b2, b3 = _mul(g, m2)
    d1 = (-a0 - h0 + s0 - mu0, -a1 - h1 + s1 - mu1,
          -a2 - h2 + s2 - mu2, -a3 - h3 + s3 - mu3)
    d2 = (-b0 + h0 - s0 - mu0, -b1 + h1 - s1 - mu1,
          -b2 + h2 - s2 - mu2, -b3 + h3 - s3 - mu3)
    return m1, m2, d1, d2


def packed_residual(x, controls) -> list[float]:
    """residual() and normalization_residual() on the 12 packed floats.

    ``x`` is a sequence of 12 floats and ``controls`` comes from
    :func:`packed_controls`.  Returns the components of r1, r2 and the
    normalization residual, 12 floats in all.
    """
    psi1, psi2, mu = x[0:4], x[4:8], x[8:12]
    v = (controls[0], 0.0, 0.0, 0.0)
    m1, m2, d1, d2 = _diagonals(psi1, psi2, mu, controls)
    r1 = [p + q for p, q in zip(_mul(d1, psi1), _mul(psi2, v))]
    r2 = [p + q for p, q in zip(_mul(psi1, v), _mul(d2, psi2))]
    norm = [m1[0] + m2[0] - 1.0, m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3]]
    return r1 + r2 + norm


def _mult_rows(b, sign=1.0):
    """Rows of the real 4x4 matrix of z -> sign*b*z."""
    b0, b1, b2, b3 = (sign * c for c in b)
    return ([b0, -b1, -b2, b3], [b1, b0, -b3, -b2],
            [b2, -b3, b0, -b1], [b3, b2, b1, b0])


def _amplitude_block(d, n, a):
    """Derivative of d*a by the components of a, where d = -g*conj(a)*a +
    terms free of a, and n = -g*a.

    The product rule gives M(d) + M(n) D(a), with M(b) the matrix of
    z -> b*z.  D(a), the derivative of conj(a)*a, has the rows e and f below
    as its (1, j) components and zero rows as its (i, k) components.
    """
    a0, a1, a2, a3 = a
    e = (2 * a0, -2 * a1, 2 * a2, -2 * a3)
    f = (2 * a1, 2 * a0, 2 * a3, 2 * a2)
    n0, n1, n2, n3 = n
    rows = _mult_rows(d)
    for c in range(4):
        ec, fc = e[c], f[c]
        rows[0][c] += n0 * ec - n1 * fc
        rows[1][c] += n0 * fc + n1 * ec
        rows[2][c] += n2 * ec - n3 * fc
        rows[3][c] += n3 * ec + n2 * fc
    return rows, e, f


def packed_jacobian(x, controls) -> list[list[float]]:
    """Rows 0-9 of the Jacobian of :func:`packed_residual` by x.

    Rows 0-7 are r1 and r2; rows 8 and 9 are the (1, j) components of the
    normalization residual, whose (i, k) components vanish identically.
    """
    psi1, psi2, mu = x[0:4], x[4:8], x[8:12]
    v = controls[0]
    neg_g = tuple(-c for c in controls[1])
    _m1, _m2, d1, d2 = _diagonals(psi1, psi2, mu, controls)
    block1, e1, f1 = _amplitude_block(d1, _mul(neg_g, psi1), psi1)
    block2, e2, f2 = _amplitude_block(d2, _mul(neg_g, psi2), psi2)
    coupling = ([v, 0.0, 0.0, 0.0], [0.0, v, 0.0, 0.0],
                [0.0, 0.0, v, 0.0], [0.0, 0.0, 0.0, v])
    mu1, mu2 = _mult_rows(psi1, -1.0), _mult_rows(psi2, -1.0)
    rows = [b + c + m for b, c, m in zip(block1, coupling, mu1)]
    rows += [c + b + m for c, b, m in zip(coupling, block2, mu2)]
    rows.append([*e1, *e2, 0.0, 0.0, 0.0, 0.0])
    rows.append([*f1, *f2, 0.0, 0.0, 0.0, 0.0])
    return rows


def populations(psi1: Bicomplex, psi2: Bicomplex) -> tuple[Bicomplex, Bicomplex]:
    return psi1.modulus_squared(), psi2.modulus_squared()


def mean_field_energy(state: StationaryState, p: DimerParams) -> Bicomplex:
    """mu plus the double-counting correction of the -g*|psi|^2 nonlinearity."""
    m1, m2 = populations(state.psi1, state.psi2)
    return state.mu + 0.5 * (p.g * (m1 * m1 + m2 * m2))


def observables(state: StationaryState, p: DimerParams) -> Observables:
    """Mean-field energy and its reconstruction from the idempotent components.

    The two returned coefficients satisfy ``re = (E+ + E-)/2`` and
    ``im = (unit/2)(E+ - E-)`` in the j-unit representation of the idempotent
    coefficients; for complex states both are real numbers.
    """
    e = mean_field_energy(state, p)
    pair = e.to_idempotent()
    plus_j = pair.plus.conjugate()  # coefficient in the j-unit representation
    minus_j = pair.minus
    re = 0.5 * (plus_j + minus_j)
    im = 0.5j * (plus_j - minus_j)
    return Observables(mu=state.mu, e_mf=e, re_part=re, im_part=im)


def pt_classify(state: StationaryState, tol: float = 1e-8) -> bool | None:
    """Equal-population test; None when the state needs the continuation.

    PT classification is only meaningful for states of the original complex
    model, so bicomplex-only states return the not-applicable marker.
    """
    if not state.is_complex_state:
        return None
    m1, m2 = populations(state.psi1, state.psi2)
    return (m1 - m2).max_abs() < tol


def pt_reflected(
    psi1: Bicomplex, psi2: Bicomplex, mu: Bicomplex
) -> tuple[Bicomplex, Bicomplex, Bicomplex]:
    """Site swap combined with conjugation; a symmetry at s = 0."""
    return psi2.conj(), psi1.conj(), mu.conj()


def classify_flags(
    psi1: Bicomplex, psi2: Bicomplex, mu: Bicomplex, tol: float
) -> tuple[bool, bool]:
    is_complex = all(
        abs(z.z1) < tol and abs(z.z3) < tol for z in (psi1, psi2, mu)
    )
    if not is_complex:
        return False, False
    m1, m2 = populations(psi1, psi2)
    return True, (m1 - m2).max_abs() < tol


# the second root X at a root of P is seeded too when it fits the Y
# equation this well: at a multiple root of P, never at a simple one
_X_CONSISTENT = 1e-3
# m roots within this many eps**(1/m) of their mean form one m-fold root
_MULTIPLE_ROOT_SPREAD = 10.0


def _quartic(v: float, g: complex, gamma: complex, s: complex) -> np.ndarray:
    """Coefficients of P(a), highest power first (see DimerSystem)."""
    g2 = g * g + 4 * gamma * gamma
    return np.array([
        4 * g2,
        -8 * (g2 + g * s),
        5 * g * g + 12 * g * s + 20 * gamma * gamma + 4 * s * s + 4 * v * v,
        -(g2 + 4 * g * s + 4 * s * s + 4 * v * v),
        v * v,
    ], dtype=complex)


def _roots(coeffs) -> np.ndarray:
    """Polynomial roots with each numerically multiple root made exact.

    Rounding splits an m-fold root into m roots evenly spread on a circle of
    radius ~eps**(1/m) (1e-4 for the quadruple root of P at the pitchfork
    EP3), from which Newton converges only linearly.  Such a group is
    replaced by its mean, which rounding moves by O(eps); genuinely distinct
    roots near a multiple one are not evenly spread and stay apart.
    """
    roots = np.roots(coeffs)
    free = set(range(len(roots)))
    for m in range(len(roots), 1, -1):
        bound = _MULTIPLE_ROOT_SPREAD * np.finfo(float).eps ** (1.0 / m)
        for group in itertools.combinations(sorted(free), m):
            idx = list(group)
            centre = roots[idx].mean()
            dist = np.abs(roots[idx] - centre)
            if (free.issuperset(idx) and dist.min() >= 0.5 * dist.max()
                    and dist.max() <= bound * max(1.0, abs(centre))):
                roots[idx] = centre
                free.difference_update(idx)
    return roots


def _idempotent_seed(psi_plus, phi, mu_plus, nu):
    """Bicomplex (psi, mu) from psi+, phi = conj(psi-), mu+ and nu = conj(mu-),
    in the gauge psi+ -> c*psi+, phi -> phi/c that balances site 1."""
    c = math.sqrt(abs(phi[0]) / abs(psi_plus[0]))
    psi = tuple(Bicomplex.from_idempotent(c * p, (f / c).conjugate())
                for p, f in zip(psi_plus, phi))
    return psi, Bicomplex.from_idempotent(mu_plus, nu.conjugate())


# -- bifurcation set -----------------------------------------------------------
#
# States coalesce where Q(X) (see DimerSystem) has a multiple root, that is
# where disc_X Q = 0.  With v = 1 the discriminant is a polynomial of degree
# 10 in gamma and 8 in s; in g it is g^4 times one of degree 8, and g^4
# marks the linear model (Q a perfect square), not a coalescence.  At
# s = 0 it factors as 4 g^4 (gamma^2-1)(4 gamma^2+g^2)(4 gamma^2+g^2-4)^3.
_DISC_DEGREE = {"gamma": 10, "g": 8, "s": 8}
_DISC_SAMPLES = 16  # circle points of the interpolation, above every degree
_REFINE_STEPS = 20  # the tangent at |g| = 0.01 needs 16
# a refined root is accepted when its last Newton step in the control, and
# its imaginary part, are below these (v-scaled); refined roots closer than
# _SAME_POINT are one point.  Near-degenerate cases (|g| ~ 0.01) stall at a
# step of ~1e-11, and two distinct points lie >= 1e-5 apart there.
_STEP_TOL = 1e-10
_IMAG_TOL = 1e-9
_SAME_POINT = 1e-8
# the quartic vanishes identically (gamma = g = 0) below this coefficient size
_VANISHING = 1e-8
# Newton's Jacobian is singular at a coalescence, so the polish of a
# back-solved coalesced state accepts it at this residual and improves it
# where it can
_COALESCED_TOL = 1e-8
_KINDS = ("tangent", "pitchfork")  # a double and a triple root of Q
# n!/(n-a)! and n-a: the a-th X derivative of X**n, for a <= 3
_FALLING = np.array([[math.perm(n, a) for n in range(5)] for a in range(4)],
                    dtype=float)[..., None]
_SHIFT = np.maximum(np.arange(5) - np.arange(4)[:, None], 0)
_DP = np.arange(1, 4)[:, None]  # d/dp of p**k, k = 1..3


def _q_coefficients(g, gamma, s) -> np.ndarray:
    """Coefficients of Q(X) at v = 1, lowest power first; the controls
    broadcast, and each row has their shape."""
    g, gamma, s = np.broadcast_arrays(
        *(np.asarray(c) + 0j for c in (g, gamma, s)))
    gg, g2 = gamma * gamma, g * g
    return np.array([
        2 * gamma + 1j * g,
        8j * gg - 2 * gamma * g - 8 * gamma * s + 1j * g2 - 2j * g * s,
        (-8 * gg * gamma - 16j * gg * s - 2 * gamma * g2 + 8 * gamma * s * s
         - 4 * gamma),
        -8j * gg - 2 * gamma * g + 8 * gamma * s - 1j * g2 - 2j * g * s,
        2 * gamma - 1j * g,
    ])


def _discriminant(c) -> np.ndarray:
    """disc_X of the quartics whose coefficient rows are c (lowest first).

    The 7x7 Sylvester determinants of (Q, Q') run in one batched call;
    disc = Res(Q, Q') / a4 for a quartic.
    """
    top = c[::-1].T  # highest power first, one row per quartic
    sylvester = np.zeros((top.shape[0], 7, 7), dtype=complex)
    for r in range(3):
        sylvester[:, r, r:r + 5] = top
    for r in range(4):
        sylvester[:, 3 + r, r:r + 4] = top[:, :4] * (4, 3, 2, 1)
    return np.linalg.det(sylvester) / top[:, 0]


def _discriminant_roots(coeffs, parameter: str, lo: float, hi: float):
    """Roots of disc_X Q in the control near [lo, hi] (v-scaled), where Q
    does not vanish identically, and Q's coefficient rows there."""
    centre = 0.5 * (lo + hi)
    # half a step off the real axis, so that no sample lands on g = 0
    radius = (0.5 * (hi - lo) + 1e-3 * max(1.0, abs(centre))) * np.exp(
        1j * np.pi / _DISC_SAMPLES)
    z = centre + radius * np.exp(
        2j * np.pi * np.arange(_DISC_SAMPLES) / _DISC_SAMPLES)
    disc = _discriminant(_at(coeffs, z))
    if parameter == "g":
        disc /= z ** 4
    interpolant = np.fft.fft(disc)[:_DISC_DEGREE[parameter] + 1]
    roots = centre + radius * np.roots(interpolant[::-1])
    roots = roots[(np.abs(roots - centre) <= 1.1 * abs(radius))
                  & (np.abs(roots.imag) <= 0.1 * abs(radius))]
    c = _at(coeffs, roots)
    live = np.abs(c).max(0) > _VANISHING * np.abs(coeffs).max()
    return roots[live], c[:, live]


def _powers(z, count: int) -> np.ndarray:
    """Rows z**0 .. z**(count-1), by products (complex ** is slow)."""
    out = np.ones((count, len(z)), dtype=z.dtype)
    for k in range(1, count):
        out[k] = out[k - 1] * z
    return out


def _at(coeffs, p) -> np.ndarray:
    """Q's coefficient rows at control values p, from ``coeffs[k, n]``, the
    coefficient of X**n p**k."""
    return coeffs.T @ _powers(p, len(coeffs))


def _x_derivatives(c, x) -> np.ndarray:
    """Rows Q, Q', Q'', Q''' at x of the quartics with coefficient rows c."""
    return (_FALLING * _powers(x, 5)[_SHIFT] * c).sum(1)


def _newton_step(coeffs, x, p, order, f1=None, f2=None):
    """The Newton step (dx, dp) on (d^j Q, d^(j+1) Q), j = order, and their
    values; f1 and f2 replace those values where given."""
    lanes = np.arange(len(x))
    weights = _FALLING * _powers(x, 5)[_SHIFT]  # d^a X**n / dX^a
    p_powers = _powers(p, 4)
    q = (weights * (coeffs.T @ p_powers)).sum(1)
    qp = (weights * ((coeffs[1:] * _DP).T @ p_powers[:3])).sum(1)
    if f1 is None:
        f1, f2 = q[order, lanes], q[order + 1, lanes]
    a, b = q[order + 1, lanes], qp[order, lanes]
    c, d = q[order + 2, lanes], qp[order + 1, lanes]
    with np.errstate(divide="ignore", invalid="ignore"):
        det = a * d - b * c
        return (f1 * d - b * f2) / det, (a * f2 - c * f1) / det, f1, f2


def _refine(coeffs, x, p, order):
    """Newton in (X, p) on (d^j Q, d^(j+1) Q), j = order, for all lanes.

    j = 0 finds a double root of Q, j = 1 a double root of Q', which is a
    triple root of Q where Q vanishes too.  Returns x, p, the size of the
    last step in p, the residual of the system and |Q| relative to the size
    of its terms.
    """
    for _ in range(_REFINE_STEPS):
        dx, dp, f1, f2 = _newton_step(coeffs, x, p, order)
        ok = np.isfinite(dx) & np.isfinite(dp)
        x, p = np.where(ok, x - dx, x), np.where(ok, p - dp, p)
        step = np.where(ok, np.abs(dp), np.inf)
    residual = np.maximum(np.abs(f1), np.abs(f2))
    c = _at(coeffs, p)
    terms = c * _powers(x, 5)
    return x, p, step, residual, np.abs(terms.sum(0)) / np.abs(terms).sum(0)


def _polish(coeffs, controls, parameter, x, p, order):
    """Two last Newton steps with the residual from Q's closed-form
    coefficients in long double, so that a location is rounded once, at
    the end (exactly where long double is wider than double)."""
    lanes = np.arange(len(x))
    controls = {name: np.clongdouble(c) for name, c in controls.items()}
    x, p = x.astype(np.clongdouble), p.astype(np.clongdouble)
    for _ in range(2):
        controls[parameter] = p
        q = _x_derivatives(_q_coefficients(
            controls["g"], controls["gamma"], controls["s"]), x)
        dx, dp, _, _ = _newton_step(
            coeffs, x.astype(complex), p.astype(complex), order,
            q[order, lanes].astype(complex), q[order + 1, lanes].astype(complex))
        x, p = x - dx, p - dp
    return x.astype(complex), p.real


class DimerSystem:
    """The continued nonlinear dimer behind the generic system interface.

    In psi+ and phi = conj(psi-) the dimer is a holomorphic polynomial
    system in the plus components g, gamma, s of the controls (conj(c-) =
    c+ for every control c0 + j*c1), with mu+ and nu = conj(mu-):

        (-g*n1 - i*gamma + s - mu+) psi1+ + v psi2+ = 0,  n_k = phi_k psi_k+
        (-g*n1 + i*gamma + s - nu) phi1 + v phi2 = 0,     n1 + n2 = 1

    and the same two rows for site 2 with the signs of gamma and s flipped.
    With a = n1, X = v psi2+/psi1+ and Y = v phi2/phi1 the states are the
    roots of the quartic

        P(a) = 4(g^2+4gamma^2) a^4 - 8(g^2+gs+4gamma^2) a^3
               + (5g^2+12gs+20gamma^2+4s^2+4v^2) a^2
               - (g^2+4gs+4gamma^2+4s^2+4v^2) a + v^2,

    back-solved through X^2 - (g(2a-1) + 2i gamma - 2s) X - v^2 = 0,
    Y = v^2 (1-a)/(aX), mu+ = X - ga - i gamma + s, nu = Y - ga + i gamma + s.
    So there are four states, counted with multiplicity.

    Eliminating a instead leaves g X^2 Q(X) with, for v = 1 (every control
    and mu scale with v, and X with it),

        Q(X) = (2gamma - ig) X^4
               + (-8i gamma^2 - 2gamma g + 8gamma s - ig^2 - 2igs) X^3
               + (-8gamma^3 - 16i gamma^2 s - 2gamma g^2 + 8gamma s^2
                  - 4gamma) X^2
               + (8i gamma^2 - 2gamma g - 8gamma s + ig^2 - 2igs) X
               + (2gamma + ig),

    whose roots separate all four states when g != 0, back-solved through
    a = ((X^2 - 1)/X - 2i gamma + 2s + g)/(2g) and the Y and mu relations
    above.  States coalesce where Q has a multiple root, so the bifurcation
    set is disc_X Q = 0 (see :meth:`bifurcation_set`).  At g = 0, Q =
    2gamma (X^2 - 2i gamma X - 1)^2 is a perfect square and the X roots no
    longer separate the states: there the dimer is the linear model, whose
    states coalesce where v^2 + (i gamma - s)^2 = 0.
    """

    n_amplitudes = 2

    def candidate_states(self, p: DimerParams):
        """Seeds (psi, mu) for every stationary state, from the roots of P.

        Each root of P gets the root X that fits the Y equation; at a
        multiple root of P (the symmetric pair's a = 1/2 at s = 0) both
        roots X fit and both are seeded.
        """
        v = p.v
        g, gamma, s = (c.to_idempotent().plus for c in (p.g, p.gamma, p.s))
        seeds = []
        for a in _roots(_quartic(v, g, gamma, s)):
            b = g * (2 * a - 1) + 2j * gamma - 2 * s
            c = g * (2 * a - 1) - 2j * gamma - 2 * s
            ranked = []
            for x in _roots([1.0, -b, -v * v]):
                y = v * v * (1 - a) / (a * x)
                miss = abs(y * y - c * y - v * v) / (abs(y) ** 2 + v * v)
                ranked.append((miss, x, y))
            ranked.sort(key=lambda item: item[0])
            for k, (miss, x, y) in enumerate(ranked):
                if k == 0 or miss <= _X_CONSISTENT:
                    seeds.append(_idempotent_seed(
                        (1.0, x / v), (a, a * y / v),
                        x - g * a - 1j * gamma + s, y - g * a + 1j * gamma + s))
        return seeds

    def bifurcation_set(self, p: DimerParams, parameter: str, lo: float,
                        hi: float, cfg=None) -> list[BifurcationPoint]:
        """Every point in [lo, hi] of the real control ``parameter`` where
        states coalesce, sorted by location.

        disc_X Q is sampled on a circle around the range (batched Sylvester
        determinants), interpolated by an FFT into a polynomial in the
        control, and each of its roots near the range is refined by Newton
        in (X, control).  Rounding splits the multiple roots of the
        discriminant and, at small |g|, smears them together, so the
        refinement, not the raw root, gives the location.  A double root of
        Q is a ``tangent`` and a triple root (the EP3) a ``pitchfork``.
        ``coalesced_state`` is the back-solve of the multiple root, polished
        by Newton with ``cfg``; ``detection_residual`` is the residual of
        the (X, control) system in v-scaled units; ``branch_ids`` is empty.
        At g = 0 the points are those of the linear model.
        """
        from .solver import SolveConfig, canonical_gauge, newton_solve

        cfg = cfg or SolveConfig()
        cfg = replace(cfg, residual_tol=max(cfg.residual_tol, _COALESCED_TOL))
        v = p.v
        plus = {name: p.control(name).to_idempotent().plus / v
                for name in CONTROL_NAMES}
        points = []
        if parameter != "g" and plus["g"] == 0:
            # the linear model coalesces where 1 + (i gamma - s)^2 = 0
            if parameter == "gamma":
                roots = (-1j * plus["s"] + 1, -1j * plus["s"] - 1)
            else:
                roots = (1j * plus["gamma"] - 1j, 1j * plus["gamma"] + 1j)
            for root in roots:
                location = v * root.real
                if abs(root.imag) <= _IMAG_TOL and lo <= location <= hi:
                    at = p.with_control(parameter, location)
                    seed = canonical_gauge(
                        *LinearTwoMode().candidate_states(at)[0])
                    points.append(BifurcationPoint(
                        "tangent", location, (),
                        newton_solve(self, at, seed, cfg), 0.0))
            return sorted(points, key=lambda pt: pt.location)

        # Q's coefficients as polynomials in the control, of degree <= 3:
        # coeffs[k, n] multiplies X**n p**k
        swept = dict(plus, **{parameter: np.exp(0.5j * np.pi * np.arange(4))})
        coeffs = np.fft.fft(_q_coefficients(swept["g"], swept["gamma"],
                                            swept["s"]), axis=1).T / 4
        roots, c = _discriminant_roots(coeffs, parameter, lo / v, hi / v)
        if not len(roots):
            return points
        # the four roots of Q at each control seed seed both systems
        companion = np.zeros((len(roots), 4, 4), dtype=complex)
        companion[:, 1:, :3] = np.eye(3)
        companion[:, :, 3] = -(c[:4] / c[4]).T
        x0 = np.tile(np.linalg.eigvals(companion).ravel(), 2)
        p0 = np.tile(np.repeat(roots, 4), 2)
        order = np.repeat([0, 1], len(x0) // 2)
        x, pv, step, residual, q_size = _refine(coeffs, x0, p0, order)

        scale = np.maximum(1.0, np.abs(pv))
        live = np.abs(_at(coeffs, pv)).max(0)
        ok = ((step <= _STEP_TOL * scale)
              & (np.abs(pv.imag) <= _IMAG_TOL * scale)
              & (lo <= v * pv.real) & (v * pv.real <= hi)
              & (live > _VANISHING * np.abs(coeffs).max())
              & ((order == 0) | (q_size <= _VANISHING)))
        kept = []  # triple roots first, then the best refined
        for k in sorted(np.flatnonzero(ok),
                        key=lambda k: (-order[k], residual[k])):
            if all(abs(pv[k].real - pv[j].real) > _SAME_POINT * scale[k]
                   for j in kept):
                kept.append(k)
        xs, values = _polish(coeffs, plus, parameter, x[kept], pv[kept],
                             order[kept])
        for k, xk, value in zip(kept, xs, values):
            at = dict(plus, **{parameter: complex(value)})
            g, gamma, s = at["g"], at["gamma"], at["s"]
            a = ((xk * xk - 1) / xk - 2j * gamma + 2 * s + g) / (2 * g)
            y = (1 - a) / (a * xk)
            seed = _idempotent_seed(
                (1.0, xk), (a, a * y), v * (xk - g * a - 1j * gamma + s),
                v * (y - g * a + 1j * gamma + s))
            location = float(v * value)
            points.append(BifurcationPoint(
                _KINDS[order[k]], location, (),
                newton_solve(self, p.with_control(parameter, location), seed,
                             cfg),
                float(residual[k])))
        return sorted(points, key=lambda pt: pt.location)

    def residual(self, psi, mu: Bicomplex, p: DimerParams):
        return residual(psi[0], psi[1], mu, p)

    def normalization_residual(self, psi) -> Bicomplex:
        return normalization_residual(psi[0], psi[1])

    def packed_controls(self, p: DimerParams):
        """Controls for the packed kernel that the Newton solver calls."""
        return packed_controls(p)


class LinearTwoMode:
    """Two-level model without nonlinearity, with closed-form eigenpairs.

    Used as an independent oracle: the residual is written out directly and
    the eigenpairs come from the 2x2 characteristic equation, sector by
    sector in the idempotent basis.
    """

    n_amplitudes = 2

    def residual(self, psi, mu: Bicomplex, p: DimerParams):
        igamma = I_UNIT * p.gamma
        r1 = (-igamma + p.s - mu) * psi[0] + p.v * psi[1]
        r2 = p.v * psi[0] + (igamma - p.s - mu) * psi[1]
        return r1, r2

    def normalization_residual(self, psi) -> Bicomplex:
        return psi[0].modulus_squared() + psi[1].modulus_squared() - 1

    def packed_controls(self, p: DimerParams):
        """The dimer's packed-kernel controls at g = 0."""
        return packed_controls(p, Bicomplex())

    @staticmethod
    def sector_eigenvalues(v: float, gamma_sector: complex, s_sector: complex = 0j):
        """Eigenvalues of [[-i*g + s, v], [v, i*g - s]] in one sector."""
        disc = cmath.sqrt(v * v + (1j * gamma_sector - s_sector) ** 2)
        return disc, -disc

    def eigenpairs(self, p: DimerParams):
        """All stationary states as idempotent-sector eigenpair combinations.

        Returns a list of (psi1, psi2, mu) triples, normalized so that the
        continued norm equals one.  Combinations whose normalization is
        singular (at exceptional points) are skipped.
        """
        gp = p.gamma.to_idempotent()
        sp = p.s.to_idempotent()
        lam_plus = self.sector_eigenvalues(p.v, gp.plus, sp.plus)
        lam_minus = self.sector_eigenvalues(p.v, gp.minus, sp.minus)
        states = []
        for lp in lam_plus:
            for lm in lam_minus:
                # row-1 eigenvector (1, (mu + i*gamma - s)/v) per sector
                rp = (lp + 1j * gp.plus - sp.plus) / p.v
                rm = (lm + 1j * gp.minus - sp.minus) / p.v
                norm = 1 + rm.conjugate() * rp
                if abs(norm) < 1e-12:
                    continue
                scale = 1.0 / norm
                psi1 = Bicomplex.from_idempotent(scale, 1.0)
                psi2 = Bicomplex.from_idempotent(scale * rp, rm)
                mu = Bicomplex.from_idempotent(lp, lm)
                states.append((psi1, psi2, mu))
        return states

    def candidate_states(self, p: DimerParams):
        """Seeds (psi, mu) for every stationary state: the eigenpairs."""
        return [((psi1, psi2), mu) for psi1, psi2, mu in self.eigenpairs(p)]
