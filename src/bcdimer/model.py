"""Analytically continued two-mode PT-symmetric condensate model.

The physical model is a two-site matrix equation with on-site nonlinearity
``-g |psi_n|^2``, gain ``-i*gamma`` on site 1, loss ``+i*gamma`` on site 2
and coupling ``v``.  Continuation replaces ``|psi_n|^2`` by
``conj(psi_n)*psi_n`` with bicomplex amplitudes, which makes solution
branches behind the non-analytic modulus accessible.  An optional asymmetry
``s`` enters the diagonal as ``(+s, -s)`` and breaks the remaining site
symmetry; it is the probe parameter for exceptional-point loops.

One system, :class:`DimerSystem`, implements the small continued-system
interface used by the solver; at g = 0 it is the linear model.  At rows of
control components (:func:`control_rows`) it gives ``packed_candidates``,
a seed for every stationary state, so the solver needs no multistart, and
``lane_controls``, the controls of the one packed residual kernel that
Newton runs on.  Every seed is one back-solve (:func:`_seed`) of the
state's X = psi2+/psi1+, Y = phi2/phi1 and a = n1: from the roots of the
quartic Q, or near g = 0 from the roots of two quadratics
(:func:`_linear_seeds`).  :class:`LinearTwoMode` is not a system: its
closed-form eigenpairs share no code with the seeds and are kept as an
independent oracle of the g = 0 states.
"""

from __future__ import annotations

import cmath
import functools
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

    def parts(self, part: str = "z0") -> dict:
        """One component of each control by name: the real part, or with
        ``part="z1"`` the j part."""
        return {name: getattr(self.control(name), part) for name in CONTROL_NAMES}

    def with_control(self, name: str, real: float, jpart: float = 0.0) -> "DimerParams":
        if name not in CONTROL_NAMES:
            raise ValueError(f"unknown control {name!r}, expected one of {CONTROL_NAMES}")
        return replace(self, **{name: Bicomplex(float(real), float(jpart), 0.0, 0.0)})


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


class _SolvedOnRead:
    """The ``coalesced_state`` field of :class:`BifurcationPoint`: it holds
    a StationaryState, or a ``functools.partial`` that solves one, called
    when the field is first read and replaced by what it returns (an error
    it raises leaves it in place)."""

    def __get__(self, point, owner=None):
        if point is None:
            raise AttributeError("coalesced_state")  # the field has no default
        state = point._state
        if isinstance(state, functools.partial):
            state = point._state = state()
        return state

    def __set__(self, point, state):
        point._state = state


@dataclass
class BifurcationPoint:
    """A point where states coalesce.

    ``coalesced_state`` is a StationaryState, or a ``functools.partial``
    that solves it, as :meth:`DimerSystem.bifurcation_set` gives it: the
    state is then solved when the field is first read, and kept.  Equality,
    ``repr`` and ``dataclasses.replace`` read it.  A Newton failure
    (:class:`~bcdimer.solver.NoConvergence` or
    :class:`~bcdimer.solver.GaugeDegenerate`) is raised by the read, and
    the next read tries again.
    """

    kind: str  # "tangent" | "pitchfork"
    location: float
    branch_ids: tuple[int, ...]
    coalesced_state: StationaryState = _SolvedOnRead()
    detection_residual: float
    continuing_branch_id: int | None = None


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
#
# The kernel runs unchanged on numpy lanes: with each of the 12 floats, and
# each control component, an (N,) array, it gives N residuals (or Jacobians)
# at once, each bit-for-bit the one it gives on that lane's floats.


def control_rows(points) -> np.ndarray:
    """v and the components of g, gamma and s of each of ``points``, one
    row of 13 floats a point: the form the solver takes points in."""
    return np.array([(p.v, *p.g.as_tuple(), *p.gamma.as_tuple(),
                      *p.s.as_tuple()) for p in points],
                    dtype=float).reshape(-1, 13)


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

    ``x`` is a sequence of 12 floats and ``controls`` (v, g, i*gamma, s)
    come from a system's ``lane_controls``.  Returns the components of r1,
    r2 and the normalization residual, 12 floats in all.
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
    as its (1, j) components and zero rows as its (i, k) components.  The
    sums are new values, not in-place additions: on numpy lanes one array
    sits on all four diagonal entries of M(d).
    """
    a0, a1, a2, a3 = a
    e = (2 * a0, -2 * a1, 2 * a2, -2 * a3)
    f = (2 * a1, 2 * a0, 2 * a3, 2 * a2)
    n0, n1, n2, n3 = n
    r0, r1, r2, r3 = _mult_rows(d)
    for c in range(4):
        ec, fc = e[c], f[c]
        r0[c] = r0[c] + (n0 * ec - n1 * fc)
        r1[c] = r1[c] + (n0 * fc + n1 * ec)
        r2[c] = r2[c] + (n2 * ec - n3 * fc)
        r3[c] = r3[c] + (n3 * ec + n2 * fc)
    return (r0, r1, r2, r3), e, f


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


def pt_reflected(
    psi1: Bicomplex, psi2: Bicomplex, mu: Bicomplex
) -> tuple[Bicomplex, Bicomplex, Bicomplex]:
    """Site swap combined with conjugation; a symmetry at s = 0."""
    return psi2.conj(), psi1.conj(), mu.conj()


def classify_flags(
    psi1: Bicomplex, psi2: Bicomplex, mu: Bicomplex, tol: float
) -> tuple[bool, bool]:
    """(is_complex_state, is_pt_symmetric) of a state, as
    :class:`StationaryState` defines them: every j and k component below
    ``tol``, and then equal populations within ``tol`` in every component.
    The one-row call of :func:`_flags`."""
    return _flags([*psi1.as_tuple(), *psi2.as_tuple(), *mu.as_tuple()], tol)


def _any(mask) -> bool:
    """Whether a check holds: a bool on floats, any lane's on lanes."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def _flags(x, tol):
    """:func:`classify_flags` on the 12 packed floats of a state, or with
    each an array of lanes: ``&`` of comparisons is a bool on floats and a
    mask on lanes.  A max-norm of finite values is below ``tol`` when every
    component is."""
    is_complex = True
    for c in x[1::2]:  # the j and k components of psi1, psi2 and mu
        is_complex = is_complex & (abs(c) < tol)
    if not _any(is_complex):
        return is_complex, is_complex
    is_pt = is_complex
    for a, b in zip(_modulus_squared(x[0:4]), _modulus_squared(x[4:8])):
        is_pt = is_pt & (abs(a - b) < tol)
    return is_complex, is_pt


# below this many lanes (Newton's seeds, rows or roots) a batch runs lane
# by lane on Python numbers, from it on once on numpy lanes, with the same
# bits.  Measured (numpy 2.4, one thread of a shared 2-vCPU Xeon): a
# residual costs 13-18 us a lane on floats against 250 us + 0.5 us a lane
# on arrays, an analytic Jacobian 25-40 us against 530 us + 0.7 us; both
# cross at 16 to 20 lanes.  Gauge and flags (solver._solved) cost
# 13-16 us a row on floats against 240 us + 1 us a lane on arrays, and
# cross at 18 rows
_CROSSOVER = 16
# below this many seeds (Q's roots, or the linear model's root pairs) the
# back-solve, and below this many points the controls' plus components,
# run on Python complex numbers, from there on once on _ComplexLanes.
# Measured as above: 8 us a seed against 400 us
_COMPLEX_LANES = 48
# m roots within this many rounding radii (see _roots) of their mean form
# one m-fold root; the exact multiple roots of Q measure up to 1.2
_MULTIPLE_ROOT_SPREAD = 2.0
# below this |g|/v the linear model's eigenpairs seed too: the back-solve
# from Q divides by g, and the linear states are the g -> 0 limit
_LINEAR_SEEDS = 1e-3


def _roots(coeffs) -> list[complex]:
    """Polynomial roots with each numerically multiple root made exact.

    Rounding splits an m-fold root r into m roots evenly spread on a circle
    of radius (eps sum_k |c_k r^k| / |h|)**(1/m), h the leading coefficient
    times the distances from r to the other roots (1.5e-5 for the triple
    root of Q at the pitchfork EP3 at g = -v, 1.5e-4 at g = -1e-3 v, where
    the fourth root is near), from which Newton converges only linearly.
    Such a group is replaced by its mean, which rounding moves by O(eps);
    genuinely distinct roots near a multiple one are not evenly spread and
    stay apart.  :func:`_q_roots` gives Q's roots with these bits, and
    runs the merge only where :func:`_close_pair` says it may act.
    """
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=complex), "f")
    return _merged([complex(r) for r in np.roots(coeffs)], coeffs)


def _power(x: float, n: int) -> float:
    """x ** n, and inf where Python raises that it overflows."""
    try:
        return x ** n
    except OverflowError:
        return math.inf


def _merged(roots: list[complex], coeffs) -> list[complex]:
    """The roots of the polynomial ``coeffs`` (highest power first, no
    leading zero) with each group that :func:`_roots` merges merged."""
    sizes = [abs(c) for c in coeffs]
    eps = np.finfo(float).eps
    free = set(range(len(roots)))
    for m in range(len(roots), 1, -1):
        for group in itertools.combinations(sorted(free), m):
            centre = roots[group[0]]  # the mean, as a plain running sum
            for k in group[1:]:
                centre += roots[k]
            centre /= m
            dist = [abs(roots[k] - centre) for k in group]
            rest = [abs(r - centre) for k, r in enumerate(roots)
                    if k not in group]
            # the spread against the radius above, without dividing by h
            size = sum(c * _power(abs(centre), n)
                       for n, c in enumerate(sizes[::-1]))
            h = sizes[0] * math.prod(rest)
            # a root near the centre makes h vanish however far apart the
            # group's roots are, so only an isolated group merges
            if (free.issuperset(group) and min(dist) >= 0.5 * max(dist)
                    and h * _power(max(dist) / _MULTIPLE_ROOT_SPREAD, m)
                    <= eps * size and all(d > 2 * max(dist) for d in rest)):
                for k in group:
                    roots[k] = centre
                free.difference_update(group)
    return roots


_PAIRS = np.triu_indices(4, 1)  # the six pairs of a quartic's four roots


def _close_pair(roots, top) -> np.ndarray:
    """Where the closest pair of the quartics' roots is close enough for
    :func:`_merged` to merge a group of them.  ``roots`` holds four roots
    per row, ``top`` the coefficients, highest power first.

    An isolated group G of m roots with spread D = max |r - c| has h >=
    |lead| (2D)^(4-m), so it merges only if D^4 <= 2^(2m-4) eps size(c) /
    |lead| <= 16 eps size(c) / |lead|.  Two of its roots lie within 2D, so
    the closest pair d of the row has d^4 <= 256 eps size(c) / |lead|, and
    |c| <= R = max |r|.  This flags the rows with |lead| d^4 <= 2 * 256 eps
    size(R), a factor 2 of slack for rounding: a superset of _merged's
    rows, and a False row is proven unmerged.  A size that overflows is
    inf, which flags its row.
    """
    eps = np.finfo(float).eps
    sizes = np.abs(top)
    closest = np.abs(roots[:, _PAIRS[0]] - roots[:, _PAIRS[1]]).min(-1)
    radius = np.abs(roots).max(-1)
    size, power = sizes[:, -1].copy(), np.ones_like(radius)
    for n in range(1, 5):
        power = power * radius
        size = size + sizes[:, 4 - n] * power
    return sizes[:, 0] * closest ** 4 <= 512 * eps * size


def _q_roots(g, gamma, s) -> tuple[np.ndarray, np.ndarray]:
    """The roots of Q at each point, as :func:`_roots` gives them, and none
    where g = 0 or Q's coefficients are not finite.  ``g``, ``gamma`` and
    ``s`` are arrays of the controls' plus components in units of v.
    Returns the roots, point after point, and the index of each root's point.

    Where Q is a quartic with Q(0) != 0 the roots come from one batched
    ``eigvals`` of the companion matrices that ``np.roots`` builds, which
    gives its roots bit for bit, and stay an (N, 4) array; a companion
    that overflows gives none.  _roots' merge then runs only on the rows
    that :func:`_close_pair` flags, a superset of the rows that _merged
    changes.  Elsewhere _roots runs.  One point is a block of one: its
    coefficients come from the same array loops as a block's, so a point
    has the same roots alone as in any block.
    """
    if not g.any():  # Q seeds no state at g = 0
        return np.zeros(0, dtype=complex), np.zeros(0, dtype=int)
    with np.errstate(all="ignore"):  # rows that overflow get no roots
        top = _q_coefficients(g, gamma, s)[::-1].T
        first = -top[:, 1:] / top[:, :1]  # the companions' first rows
        solvable = (g != 0) & np.isfinite(top).all(-1)
        quartic = (top[:, 0] != 0) & (top[:, -1] != 0)
        k = np.flatnonzero(solvable & quartic & np.isfinite(first).all(-1))
        companion = np.zeros((len(k), 4, 4), dtype=complex)
        companion[:, 1:, :3], companion[:, 0] = np.eye(3), first[k]
        roots = np.zeros((len(top), 4), dtype=complex)
        live = np.zeros(roots.shape, dtype=bool)
        roots[k], live[k] = np.linalg.eigvals(companion), True
        for kk in k[_close_pair(roots[k], top[k])].tolist():
            roots[kk] = _merged(roots[kk].tolist(), top[kk])
    for kk in np.flatnonzero(solvable & ~quartic).tolist():
        found = _roots(top[kk])
        roots[kk, :len(found)], live[kk, :len(found)] = found, True
    return roots[live], np.nonzero(live)[0]


class _ComplexLanes:
    """Complex numbers on numpy lanes (``real`` and ``imag`` float arrays)
    with CPython 3.11's complex arithmetic, which numpy's complex ``*``,
    ``/`` and ``abs`` do not round alike: a real operand becomes (x, 0.0),
    products are _Py_c_prod, quotients Smith's _Py_c_quot, abs is hypot.
    So a formula gives each lane the bits it gives on Python numbers; a
    division by zero gives a non-finite lane where Python raises."""

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # an ndarray operand defers to the reflected op

    def __init__(self, real, imag):
        self.real, self.imag = real, imag

    @staticmethod
    def _parts(z):
        if isinstance(z, np.ndarray):
            return z, 0.0
        z = z if isinstance(z, _ComplexLanes) else complex(z)
        return z.real, z.imag

    def complex(self) -> np.ndarray:
        out = np.empty(self.real.shape, dtype=complex)
        out.real, out.imag = self.real, self.imag
        return out

    def conjugate(self):
        return _ComplexLanes(self.real, -self.imag)

    def __abs__(self):
        return np.hypot(self.real, self.imag)

    def __add__(self, other):
        br, bi = self._parts(other)
        return _ComplexLanes(self.real + br, self.imag + bi)

    __radd__ = __add__

    def __sub__(self, other):
        br, bi = self._parts(other)
        return _ComplexLanes(self.real - br, self.imag - bi)

    def __rsub__(self, other):
        ar, ai = self._parts(other)
        return _ComplexLanes(ar - self.real, ai - self.imag)

    def __mul__(self, other):
        (ar, ai), (br, bi) = (self.real, self.imag), self._parts(other)
        return _ComplexLanes(ar * br - ai * bi, ar * bi + ai * br)

    __rmul__ = __mul__

    @staticmethod
    def _quotient(ar, ai, br, bi):
        wide = np.abs(br) >= np.abs(bi)
        ratio = np.where(wide, bi / br, br / bi)
        denom = np.where(wide, br + bi * ratio, br * ratio + bi)
        return _ComplexLanes(
            np.where(wide, ar + ai * ratio, ar * ratio + ai) / denom,
            np.where(wide, ai - ar * ratio, ai * ratio - ar) / denom)

    def __truediv__(self, other):
        return self._quotient(self.real, self.imag, *self._parts(other))

    def __rtruediv__(self, other):
        return self._quotient(*self._parts(other), self.real, self.imag)


def _seed(x, y, a, g, gamma, s, v):
    """The packed seed (12 components of psi1, psi2 and mu) of the state
    with X = x, Y = y and a = n1 (see DimerSystem), at the plus components
    g, gamma, s of the controls in units of v; all Python numbers, or on
    :class:`_ComplexLanes` (and v an array).

    The seed is psi+ = c (1, x), phi = conj(psi-) = (a, a y)/c, mu+ and
    nu = conj(mu-), in the gauge c = sqrt|a| that balances site 1.
    """
    c = _sqrt(abs(a))
    return _packed([(c * 1.0, (a / c).conjugate()),
                    (c * x, (a * y / c).conjugate()),
                    (v * (x - g * a - 1j * gamma + s),
                     (v * (y - g * a + 1j * gamma + s)).conjugate())])


def _back_solve(x, g, gamma, s, v):
    """The :func:`_seed` of the state at the root x of Q, with a and Y
    from x by the relations in DimerSystem's docstring."""
    a = ((x * x - 1) / x - 2j * gamma + 2 * s + g) / (2 * g)
    return _seed(x, (1 - a) / (a * x), a, g, gamma, s, v)


def _quadratic_roots(b) -> tuple[complex, complex]:
    """The roots b + sqrt(b^2 + 1), b - sqrt(b^2 + 1) of z^2 - 2bz - 1 = 0
    (cmath's principal root); the one that does not cancel is formed as it
    reads, the other as -1 over it."""
    r = cmath.sqrt(b * b + 1)
    if abs(b + r) >= abs(b - r):
        return b + r, -1 / (b + r)
    return -1 / (b - r), b - r


def _linear_seeds(plus, v):
    """The seeds of the linear model's states (g = 0) at each row of
    ``plus`` (the controls' plus components in units of v, as :func:`_plus`
    gives them; g is not read) and of v, as
    :meth:`DimerSystem.packed_candidates` gives them: the :func:`_seed`
    of the roots X and Y of X^2 - 2(i gamma - s) X - 1 = 0 and Y^2 + 2(i
    gamma + s) Y - 1 = 0, paired (+, +), (+, -), (-, +), (-, -), with a =
    1/(1 + XY).  A pair with |1 + XY| < 1e-12 has no normalized state."""
    found = []  # the seed's arguments but v, and the point's index
    for k, (_g, gamma, s) in enumerate(plus.tolist()):
        for x in _quadratic_roots(1j * gamma - s):
            for y in _quadratic_roots(-(1j * gamma + s)):
                if abs(norm := 1 + x * y) >= 1e-12:
                    found.append((x, y, 1 / norm, 0j, gamma, s, k))
    *columns, at = np.array(found, dtype=complex).reshape(-1, 7).T
    at = at.real.astype(int)
    return _back_solved(_seed, columns, v[at]), at


def _packed(pairs) -> list[float]:
    """The packed floats of the Bicomplex values whose idempotent
    components are the (plus, minus) ``pairs``, rounded as
    :meth:`~bcdimer.bicomplex.IdempotentPair.to_bicomplex` rounds them."""
    out = []
    for plus, minus in pairs:
        pr, pi, mr, mi = plus.real, plus.imag, minus.real, minus.imag
        out += [0.5 * (pr + mr), 0.5 * (mi - pi), 0.5 * (pi + mi),
                0.5 * (pr - mr)]
    return out


def _idempotent_plus(z0, z1, z2, z3):
    """Bicomplex.to_idempotent().plus of the components z, floats or lanes."""
    kind = _ComplexLanes if isinstance(z0, np.ndarray) else complex
    return kind(z0 + z3, z2 - z1)


def _plus(controls) -> np.ndarray:
    """The plus components of g, gamma and s in units of v at every row of
    :func:`control_rows`, an (N, 3) complex array with the bits of
    ``to_idempotent().plus / v``: on Python numbers below _COMPLEX_LANES
    rows, from it on once on lanes."""
    if len(controls) < _COMPLEX_LANES:
        return np.array([[_idempotent_plus(*row[k:k + 4]) / row[0]
                          for k in (1, 5, 9)] for row in controls.tolist()],
                        dtype=complex).reshape(-1, 3)
    with np.errstate(all="ignore"):  # _ComplexLanes divides by (v, 0)
        return np.stack([(_idempotent_plus(*controls[:, k:k + 4].T)
                          / controls[:, 0]).complex() for k in (1, 5, 9)], 1)


def _sqrt(x):
    """math.sqrt, or np.sqrt (which rounds alike) on lanes."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def _back_solved(seed, columns, v) -> np.ndarray:
    """Rows of ``seed`` (:func:`_back_solve` or :func:`_seed`) with its
    arguments but v from the complex arrays ``columns``, and v from v: below
    _COMPLEX_LANES rows on Python numbers, from it on once on lanes, with
    the same bits.  A row where the seed divides by zero is nan, or on
    lanes not finite; Newton drops either."""
    if len(v) >= _COMPLEX_LANES:
        with np.errstate(all="ignore"):
            return np.stack(seed(*(_ComplexLanes(z.real, z.imag)
                                   for z in columns), v), 1)
    rows = np.empty((len(v), 12))
    for k, args in enumerate(zip(*(z.tolist() for z in columns), v.tolist())):
        try:
            rows[k] = seed(*args)
        except ZeroDivisionError:
            rows[k] = math.nan
    return rows


def _as_seed(row):
    """(psi, mu) Bicomplex seed from a packed row of 12 floats."""
    return ((Bicomplex(*row[0:4]), Bicomplex(*row[4:8])), Bicomplex(*row[8:12]))


# -- bifurcation set -----------------------------------------------------------
#
# States coalesce where Q(X) (see DimerSystem) has a multiple root, that is
# where disc_X Q = 0.  With v = 1 the discriminant is a polynomial of degree
# 10 in gamma and 8 in s; in g it is g^4 times one of degree 8, and g^4
# marks the linear model (Q a perfect square), not a coalescence.  At
# s = 0 it factors as 4 g^4 (gamma^2-1)(4 gamma^2+g^2)(4 gamma^2+g^2-4)^3.
_DISC_DEGREE = {"gamma": 10, "g": 8, "s": 8}
_DISC_SAMPLES = 16  # circle points of the interpolation, above every degree
_CIRCLE = np.exp(2j * np.pi * np.arange(_DISC_SAMPLES) / _DISC_SAMPLES)
_HALF_STEP = np.exp(1j * np.pi / _DISC_SAMPLES)
_QUARTER_TURNS = np.exp(0.5j * np.pi * np.arange(4))  # Q's samples in a control
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
# Newton's Jacobian is singular at a coalescence, so a back-solved
# coalesced state is accepted at this residual
_COALESCED_TOL = 1e-8
_KINDS = ("tangent", "pitchfork")  # a double and a triple root of Q
# n!/(n-a)! and n-a: the a-th X derivative of X**n, for a <= 3
_FALLING = np.array([[math.perm(n, a) for n in range(5)] for a in range(4)],
                    dtype=float)[..., None]
_SHIFT = np.maximum(np.arange(5) - np.arange(4)[:, None], 0)
_DP = np.arange(1, 4)[:, None]  # d/dp of p**k, k = 1..3
_SHIFT_DOWN = np.eye(4, k=-1, dtype=complex)[None]  # a companion's ones


def _q_coefficients(g, gamma, s) -> np.ndarray:
    """Coefficients of Q(X) at v = 1, lowest power first; the controls
    broadcast, and each row has their shape."""
    g, gamma, s = np.broadcast_arrays(
        *(np.asarray(c) + 0j for c in (g, gamma, s)))
    gg, g2 = gamma * gamma, g * g
    # the terms that recur, each formed as where it first appears
    gamma2, ig, ig2 = 2 * gamma, 1j * g, 1j * g2
    gamma_g, gamma_s, gs = gamma2 * g, 8 * gamma * s, 2j * g * s
    return np.array([
        gamma2 + ig,
        8j * gg - gamma_g - gamma_s + ig2 - gs,
        -8 * gg * gamma - 16j * gg * s - gamma2 * g2 + gamma_s * s - 4 * gamma,
        -8j * gg - gamma_g + gamma_s - ig2 - gs,
        gamma2 - ig,
    ])


# the Sylvester matrix's places of Q's coefficients, shifted along rows 0-2,
# then of Q''s along rows 3-6
_SYLVESTER_ROWS = np.repeat(np.arange(7), [5] * 3 + [4] * 4)
_SYLVESTER_COLUMNS = np.concatenate([np.arange(r, r + 5) for r in range(3)]
                                    + [np.arange(r, r + 4) for r in range(4)])


def _discriminant(c) -> np.ndarray:
    """disc_X of the quartics whose coefficient rows are c (lowest first).

    The 7x7 Sylvester determinants of (Q, Q') run in one batched call;
    disc = Res(Q, Q') / a4 for a quartic.
    """
    top = c[::-1].T  # highest power first, one row per quartic
    sylvester = np.zeros((top.shape[0], 7, 7), dtype=complex)
    sylvester[:, _SYLVESTER_ROWS, _SYLVESTER_COLUMNS] = np.concatenate(
        [top] * 3 + [top[:, :4] * (4, 3, 2, 1)] * 4, axis=1)
    return np.linalg.det(sylvester) / top[:, 0]


def _discriminant_roots(coeffs, parameter: str, lo: float, hi: float):
    """Roots of disc_X Q in the control near [lo, hi] (v-scaled), where Q
    does not vanish identically, and Q's coefficient rows there.  Raises
    :class:`~bcdimer.solver.NoConvergence` where the controls overflow the
    interpolant or a root's row.  The caller ignores numpy's warnings."""
    centre = 0.5 * (lo + hi)
    # half a step off the real axis, so that no sample lands on g = 0
    radius = (0.5 * (hi - lo) + 1e-3 * max(1.0, abs(centre))) * _HALF_STEP
    z = centre + radius * _CIRCLE
    disc = _discriminant(_at(coeffs, z))
    if parameter == "g":
        disc /= z ** 4
    interpolant = np.fft.fft(disc)[:_DISC_DEGREE[parameter] + 1]
    if np.isfinite(interpolant).all():
        roots = centre + radius * np.roots(interpolant[::-1])
        roots = roots[(np.abs(roots - centre) <= 1.1 * abs(radius))
                      & (np.abs(roots.imag) <= 0.1 * abs(radius))]
        c = _at(coeffs, roots)
        if np.isfinite(c).all():
            live = np.abs(c).max(0) > _VANISHING * np.abs(coeffs).max()
            return roots[live], c[:, live]
    from .solver import NoConvergence  # solver imports this module

    raise NoConvergence(f"the controls overflow disc_X Q over {parameter}/v "
                        f"in [{lo:.3g}, {hi:.3g}]")


def _powers(z, count: int) -> np.ndarray:
    """Rows z**0 .. z**(count-1), by products (complex ** is slow)."""
    return _powers_into(np.empty((count, len(z)), dtype=z.dtype), z)


def _powers_into(out, z) -> np.ndarray:
    """:func:`_powers` of z written into the rows of ``out``."""
    out[0] = 1
    for k in range(1, len(out)):
        np.multiply(out[k - 1], z, out=out[k])
    return out


def _at(coeffs, p) -> np.ndarray:
    """Q's coefficient rows at control values p, from ``coeffs[k, n]``, the
    coefficient of X**n p**k."""
    return coeffs.T @ _powers(p, len(coeffs))


def _x_derivatives(c, x) -> np.ndarray:
    """Rows Q, Q', Q'', Q''' at x of the quartics with coefficient rows c."""
    return (_FALLING * _powers(x, 5)[_SHIFT] * c).sum(1)


def _newton_steps(coeffs, order):
    """The Newton step in (X, p) on (d^j Q, d^(j+1) Q), j = order, for all
    lanes, as a function of x and p, and of the two values f1, f2 where
    given in place of those of Q.  It returns the step (dx, dp) and the
    values; Q^(j+1) is also the Jacobian's (X, X) entry, so it is f2 too.
    The lanes' rows, d coeffs/dp and the rows the powers go into are taken
    once, for every step; the caller ignores the division's warnings (a
    singular step is not finite)."""
    n = len(order)
    row = order * n + np.arange(n)  # the lane's row j in Q's and dQ/dp's
    # Q^(j+1), dQ^(j)/dp, Q^(j+2), dQ^(j+1)/dp and Q^(j) in the flat
    # stacked (Q, dQ/dp) derivatives
    at = row + np.array([[n], [4 * n], [2 * n], [5 * n], [0]])
    slopes = (coeffs[1:] * _DP).T
    x_powers = np.empty((5, n), dtype=complex)
    p_powers = np.empty((4, n), dtype=complex)
    weights = np.empty((4, 5, n), dtype=complex)
    values = np.empty((2, 5, n), dtype=complex)  # Q's and dQ/dp's coefficients

    def step(x, p, f1=None, f2=None):
        _powers_into(x_powers, x)
        np.multiply(_FALLING, x_powers[_SHIFT], out=weights)  # d^a X**n / dX^a
        _powers_into(p_powers, p)
        np.matmul(coeffs.T, p_powers, out=values[0])
        np.matmul(slopes, p_powers[:3], out=values[1])
        # summed along a non-last axis: the terms add in order (with one
        # lane, in numpy's pairwise order); another form of the sum moves bits
        a, b, c, d, q = (weights * values[:, None]).sum(2).ravel()[at]
        if f1 is None:
            f1, f2 = q, a
        det = a * d - b * c
        return (f1 * d - b * f2) / det, (a * f2 - c * f1) / det, f1, f2

    return step


def _refine(coeffs, x, p, order):
    """Newton in (X, p) on (d^j Q, d^(j+1) Q), j = order, for all lanes.

    j = 0 finds a double root of Q, j = 1 a double root of Q', which is a
    triple root of Q where Q vanishes too.  Returns x, p, the size of the
    last step in p, the residual of the system and |Q| relative to the size
    of its terms.  Each of the _REFINE_STEPS steps is one call of the
    :func:`_newton_steps` that :func:`_polish` takes its steps from.
    """
    newton = _newton_steps(coeffs, order)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_REFINE_STEPS):
            dx, dp, f1, f2 = newton(x, p)
            ok = np.isfinite(dx) & np.isfinite(dp)
            x, p = np.where(ok, x - dx, x), np.where(ok, p - dp, p)
    step = np.where(ok, np.abs(dp), np.inf)
    residual = np.maximum(np.abs(f1), np.abs(f2))
    c = _at(coeffs, p)
    terms = c * _powers(x, 5)
    return x, p, step, residual, np.abs(terms.sum(0)) / np.abs(terms).sum(0)


def _polish(coeffs, controls, parameter, x, p, order):
    """Two last Newton steps, :func:`_refine`'s step with the residual
    from Q's closed-form coefficients in long double, so that a location
    is rounded once, at the end (exactly where long double is wider than
    double)."""
    lanes = np.arange(len(x))
    newton = _newton_steps(coeffs, order)
    controls = {name: np.clongdouble(c) for name, c in controls.items()}
    x, p = x.astype(np.clongdouble), p.astype(np.clongdouble)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(2):
            controls[parameter] = p
            q = _x_derivatives(_q_coefficients(
                controls["g"], controls["gamma"], controls["s"]), x)
            dx, dp, _, _ = newton(x.astype(complex), p.astype(complex),
                                  *q[[order, order + 1], lanes].astype(complex))
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
    Every control and mu scale with v; take v = 1.  With a = n1, X =
    psi2+/psi1+ and Y = phi2/phi1 the rows give

        X^2 - (g(2a-1) + 2i gamma - 2s) X - 1 = 0,   aXY = 1 - a,
        mu+ = X - ga - i gamma + s,   nu = Y - ga + i gamma + s,

    and the X equation for Y with -gamma.  Eliminating Y and a leaves
    g X^2 Q(X) with

        Q(X) = (2gamma - ig) X^4
               + (-8i gamma^2 - 2gamma g + 8gamma s - ig^2 - 2igs) X^3
               + (-8gamma^3 - 16i gamma^2 s - 2gamma g^2 + 8gamma s^2
                  - 4gamma) X^2
               + (8i gamma^2 - 2gamma g - 8gamma s + ig^2 - 2igs) X
               + (2gamma + ig),

    so there are four states, counted with multiplicity.  For g != 0 each
    root of Q is one state, back-solved through a = ((X^2 - 1)/X - 2i gamma
    + 2s + g)/(2g) and the relations above (:func:`_back_solve`).  States
    coalesce where Q has a multiple root, so the bifurcation set is disc_X Q
    = 0 (see :meth:`bifurcation_set`).  At g = 0, Q = 2gamma (X^2 - 2i gamma
    X - 1)^2 no longer separates the states: the dimer is the linear model.
    There the relations above are two quadratics, X^2 - 2(i gamma - s) X
    - 1 = 0 and Y^2 + 2(i gamma + s) Y - 1 = 0, with a = 1/(1 + XY)
    (:func:`_linear_seeds`; Graefe, J. Phys. A 45, 444015 (2012)), and the
    states coalesce where 1 + (i gamma - s)^2 = 0.
    """

    def packed_candidates(self, controls):
        """Seeds for every stationary state at every point: one per root
        of Q, and below |g| = 1e-3 v, where the back-solve loses the digits
        of g, the linear model's states too; the solver merges duplicates.
        Packed as an (n, 12) array with one seed (psi1, psi2 and mu
        components) per row, grouped by point in the order of ``controls``
        (the rows of :func:`control_rows`), and the index of each row's
        point.

        The plus components of the controls are taken on lanes, Q's roots
        come from one batched eigenvalue call (see :func:`_q_roots`), and
        they are back-solved straight into rows (:func:`_back_solved`);
        the exact root X = 0, which is no state (X^2 - bX - 1 = 0 rules it
        out), is skipped.  The linear seeds take X and Y from the two
        quadratics that the relations above reduce to at g = 0
        (:func:`_linear_seeds`), and go through the same back-solve.
        """
        plus = _plus(controls)
        x, at = _q_roots(*plus.T)
        keep = x != 0
        x, at = x[keep], at[keep]
        rows = _back_solved(_back_solve, (x, *plus[at].T), controls[at, 0])
        linear = np.flatnonzero(
            np.hypot(plus[:, 0].real, plus[:, 0].imag) < _LINEAR_SEEDS)
        if not len(linear):
            return rows, at
        seeds, owner = _linear_seeds(plus[linear], controls[linear, 0])
        at = np.concatenate([at, linear[owner]])
        order = np.argsort(at, kind="stable")
        return np.concatenate([rows, seeds])[order], at[order]

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
        At g = 0 the points are those of the linear model, and the seed
        is the first of :meth:`packed_candidates` there.  Raises
        :class:`~bcdimer.solver.NoConvergence` where the controls overflow
        the discriminant, which then proves nothing.

        No state is solved here: each point holds ``newton_solve`` from its
        seed as a ``functools.partial``, called when ``coalesced_state`` is
        first read (see :class:`BifurcationPoint`).  A Newton failure is
        raised by that read, so a caller pays for, and can fail on, only
        the states it reads.
        """
        from .solver import SolveConfig, newton_solve

        cfg = cfg or SolveConfig()
        cfg = replace(cfg, residual_tol=max(cfg.residual_tol, _COALESCED_TOL))
        v = p.v
        plus = dict(zip(("g", "gamma", "s"),
                        _plus(control_rows([p])).tolist()[0]))
        points = []

        def add(kind, location, seed, residual):
            points.append(BifurcationPoint(
                kind, location, (), functools.partial(
                    newton_solve, self, p.with_control(parameter, location),
                    _as_seed(seed), cfg), residual))

        if parameter != "g" and plus["g"] == 0:
            # the linear model coalesces where 1 + (i gamma - s)^2 = 0
            if parameter == "gamma":
                roots = (-1j * plus["s"] + 1, -1j * plus["s"] - 1)
            else:
                roots = (1j * plus["gamma"] - 1j, 1j * plus["gamma"] + 1j)
            for root in roots:
                location = v * root.real
                if abs(root.imag) <= _IMAG_TOL and lo <= location <= hi:
                    seeds, _ = self.packed_candidates(control_rows(
                        [p.with_control(parameter, location)]))
                    add("tangent", location, seeds[0].tolist(), 0.0)
            return sorted(points, key=lambda pt: pt.location)

        # Q's coefficients as polynomials in the control, of degree <= 3:
        # coeffs[k, n] multiplies X**n p**k
        with np.errstate(all="ignore"):
            swept = dict(plus, **{parameter: _QUARTER_TURNS})
            coeffs = np.fft.fft(_q_coefficients(swept["g"], swept["gamma"],
                                                swept["s"]), axis=1).T / 4
            roots, c = _discriminant_roots(coeffs, parameter, lo / v,
                                           hi / v)
        if not len(roots):
            return points
        # the four roots of Q at each control seed seed both systems
        companion = np.repeat(_SHIFT_DOWN, len(roots), axis=0)
        companion[:, :, 3] = -(c[:4] / c[4]).T
        x0, p0 = np.linalg.eigvals(companion).ravel(), np.repeat(roots, 4)
        x0, p0 = np.concatenate([x0, x0]), np.concatenate([p0, p0])
        order = np.repeat([0, 1], len(x0) // 2)
        x, pv, step, residual, q_size = _refine(coeffs, x0, p0, order)

        scale = np.maximum(1.0, np.abs(pv))
        live = np.abs(_at(coeffs, pv)).max(0)
        # X = 0 is no state (X^2 - bX - 1 = 0 rules it out), so a multiple
        # root there is no coalescence
        ok = ((step <= _STEP_TOL * scale) & (np.abs(x) > _STEP_TOL)
              & (np.abs(pv.imag) <= _IMAG_TOL * scale)
              & (lo <= v * pv.real) & (v * pv.real <= hi)
              & (live > _VANISHING * np.abs(coeffs).max())
              & ((order == 0) | (q_size <= _VANISHING)))
        kinds, res = order.tolist(), residual.tolist()
        real, size = pv.real.tolist(), scale.tolist()
        kept = []  # triple roots first, then the best refined
        for k in sorted(np.flatnonzero(ok).tolist(),
                        key=lambda k: (-kinds[k], res[k])):
            if all(abs(real[k] - real[j]) > _SAME_POINT * size[k]
                   for j in kept):
                kept.append(k)
        xs, values = _polish(coeffs, plus, parameter, x[kept], pv[kept],
                             order[kept])
        for k, xk, value in zip(kept, xs, values):
            at = dict(plus, **{parameter: complex(value)})
            add(_KINDS[kinds[k]], float(v * value),
                _back_solve(xk, at["g"], at["gamma"], at["s"], v), res[k])
        return sorted(points, key=lambda pt: pt.location)

    def residual(self, psi, mu: Bicomplex, p: DimerParams):
        return residual(psi[0], psi[1], mu, p)

    def lane_controls(self, c):
        """The kernel's controls at the point of a row c of
        :func:`control_rows` (a list), or on lanes of its 13 columns: the
        13 values v, g, i*gamma and s, with the Bicomplex product's bits."""
        return [*c[0:5], *_mul(I_UNIT.as_tuple(), c[5:9]), *c[9:13]]


class LinearTwoMode:
    """Two-level model without nonlinearity, with closed-form eigenpairs:
    the oracle of the dimer at g = 0, which the solver runs as
    ``DimerSystem`` (its seeds are :func:`_linear_seeds`).  The residual,
    written out directly, and :meth:`eigenpairs`, from the 2x2
    characteristic equation sector by sector in the idempotent basis,
    share no code with the seeds.
    """

    def residual(self, psi, mu: Bicomplex, p: DimerParams):
        igamma = I_UNIT * p.gamma
        r1 = (-igamma + p.s - mu) * psi[0] + p.v * psi[1]
        r2 = p.v * psi[0] + (igamma - p.s - mu) * psi[1]
        return r1, r2

    @staticmethod
    def sector_eigenvalues(v: float, gamma_sector: complex, s_sector: complex = 0j):
        """Eigenvalues of [[-i*g + s, v], [v, i*g - s]] in one sector."""
        w = 1j * gamma_sector - s_sector
        disc = cmath.sqrt(v * v + w * w)
        return disc, -disc

    @staticmethod
    def _pairs(v, gp, sp, lp, lm):
        """psi1, psi2 and mu of the eigenpair combination of lp and lm as
        idempotent (plus, minus) pairs, the continued norm equal to one, at
        v and the idempotent pairs gp, sp of gamma and s; None where its
        normalization is singular (at exceptional points)."""
        # row-1 eigenvector (1, (mu + i*gamma - s)/v) per sector
        rp = (lp + 1j * gp.plus - sp.plus) / v
        rm = (lm + 1j * gp.minus - sp.minus) / v
        norm = 1 + rm.conjugate() * rp
        if abs(norm) < 1e-12:
            return None
        scale = 1.0 / norm
        return (scale, 1.0), (scale * rp, rm), (lp, lm)

    def eigenpairs(self, p: DimerParams):
        """All stationary states as idempotent-sector eigenpair combinations.

        Returns a list of (psi1, psi2, mu) triples, normalized so that the
        continued norm equals one, in the order (+, +), (+, -), (-, +),
        (-, -) of the two sectors' eigenvalues.  Combinations whose
        normalization is singular (at exceptional points) are skipped.
        """
        gp, sp = p.gamma.to_idempotent(), p.s.to_idempotent()
        return [tuple(Bicomplex.from_idempotent(*pair) for pair in pairs)
                for lp in self.sector_eigenvalues(p.v, gp.plus, sp.plus)
                for lm in self.sector_eigenvalues(p.v, gp.minus, sp.minus)
                if (pairs := self._pairs(p.v, gp, sp, lp, lm)) is not None]
