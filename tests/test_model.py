import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

from bcdimer import model, solver
from bcdimer.bicomplex import I, Bicomplex, J, K
from bcdimer.model import (
    DimerParams,
    DimerSystem,
    LinearTwoMode,
    StationaryState,
    classify_flags,
    control_rows,
    normalization_residual,
    packed_jacobian,
    packed_residual,
    pt_reflected,
    residual,
    _back_solve,
    _back_solved,
    _close_pair,
    _discriminant,
    _plus,
    _q_coefficients,
    _merged,
    _q_roots,
    _quadratic_roots,
    _roots,
)
from bcdimer.solver import canonical_gauge

R2 = 1.0 / math.sqrt(2.0)


def bc_complex(c: complex) -> Bicomplex:
    return Bicomplex.from_complex(c)


def make_state(psi1, psi2, mu, tol=1e-8) -> StationaryState:
    is_c, is_pt = classify_flags(psi1, psi2, mu, tol)
    return StationaryState(psi1, psi2, mu, 0.0, is_c, is_pt)


def residual_norm(psi1, psi2, mu, p) -> float:
    r1, r2 = residual(psi1, psi2, mu, p)
    return max(r1.max_abs(), r2.max_abs())


class TestParams:
    def test_defaults_and_coercion(self):
        p = DimerParams(v=1.0, g=-1, gamma=0.5)
        assert p.g == Bicomplex(-1.0)
        assert p.gamma == Bicomplex(0.5)
        assert p.g.z1 == p.gamma.z1 == p.s.z1 == 0.0

    def test_with_control(self):
        p = DimerParams().with_control("gamma", 1.0, 0.25)
        assert p.gamma == Bicomplex(1.0, 0.25, 0.0, 0.0)
        assert p.gamma.z1 != 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            DimerParams(v=0.0)
        with pytest.raises(ValueError):
            DimerParams(gamma=Bicomplex(0, 0, 1, 0))
        with pytest.raises(ValueError):
            DimerParams().with_control("nope", 1.0)
        for bad in ({"g": math.nan}, {"gamma": math.inf}, {"s": -math.inf},
                    {"gamma": Bicomplex(0.5, math.nan)}, {"v": math.inf}):
            with pytest.raises(ValueError):
                DimerParams(**bad)


class TestResidual:
    def test_symmetric_eigenstate(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        mu = Bicomplex(-(-1.0) / 2 + 1.0)
        assert residual_norm(Bicomplex(R2), Bicomplex(R2), mu, p) < 1e-15

    def test_antisymmetric_eigenstate(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        mu = Bicomplex(-(-1.0) / 2 - 1.0)
        assert residual_norm(Bicomplex(R2), Bicomplex(-R2), mu, p) < 1e-15

    def test_linear_pt_state(self):
        # closed-form oracle: sin(delta) = gamma/v, mu = sqrt(v^2 - gamma^2)
        v, gam = 1.0, 0.5
        p = DimerParams(v=v, g=0.0, gamma=gam)
        delta = math.asin(gam / v)
        psi2 = bc_complex(cmath.exp(1j * delta) * R2)
        mu = Bicomplex(math.sqrt(v * v - gam * gam))
        assert residual_norm(Bicomplex(R2), psi2, mu, p) < 1e-15

    def test_symmetric_branch_closed_form_grid(self):
        # residual of mu = -g/2 +/- sqrt(v^2 - gamma^2) states vanishes
        v = 1.0
        for g in (-1.5, -1.0, 1.0, 1.5):
            for gam in np.linspace(0.0, 0.95, 8):
                p = DimerParams(v=v, g=g, gamma=gam)
                delta = math.asin(gam / v)
                for cosd in (math.cos(delta), -math.cos(delta)):
                    sind = gam / v
                    psi2 = bc_complex(complex(cosd, sind) * R2)
                    mu = Bicomplex(-g / 2 + v * cosd)
                    assert residual_norm(Bicomplex(R2), psi2, mu, p) < 1e-12

    def test_continued_branch_beyond_tangent(self):
        # equal-population continuation: mu = -g/2 -+ j*sqrt(gamma^2 - v^2),
        # psi2 = (i*gamma -+ j*s)/ (v*sqrt(2)); verified by direct residual
        v, g = 1.0, -1.0
        for gam in (1.1, 1.3):
            p = DimerParams(v=v, g=g, gamma=gam)
            w = math.sqrt(gam * gam - v * v)
            for sign in (+1.0, -1.0):
                mu = Bicomplex(-g / 2) - sign * w * J
                psi2 = (1.0 / (v * math.sqrt(2))) * (
                    Bicomplex(0, 0, gam, 0) - sign * w * J
                )
                assert residual_norm(Bicomplex(R2), psi2, mu, p) < 1e-12
                n = normalization_residual(Bicomplex(R2), psi2)
                assert n.max_abs() < 1e-12

    def test_continuation_consistency(self):
        # complex-in-i inputs at physical parameters leave j,k rows at zero
        rng = np.random.default_rng(42)
        p = DimerParams(v=1.0, g=-0.7, gamma=0.3, s=0.1)
        for _ in range(50):
            psi1 = bc_complex(complex(*rng.uniform(-1, 1, 2)))
            psi2 = bc_complex(complex(*rng.uniform(-1, 1, 2)))
            mu = bc_complex(complex(*rng.uniform(-2, 2, 2)))
            r1, r2 = residual(psi1, psi2, mu, p)
            for r in (r1, r2):
                assert abs(r.z1) < 1e-14
                assert abs(r.z3) < 1e-14

    def test_asymmetry_enters_with_opposite_signs(self):
        p = DimerParams(v=1.0, g=0.0, gamma=0.0, s=0.25)
        psi1, psi2 = Bicomplex(1.0), Bicomplex(0.0)
        mu = Bicomplex(0.0)
        r1, r2 = residual(psi1, psi2, mu, p)
        assert (r1 - Bicomplex(0.25)).max_abs() < 1e-15
        assert (r2 - Bicomplex(1.0)).max_abs() < 1e-15


class TestNormalization:
    def test_examples(self):
        assert normalization_residual(Bicomplex(1.0), Bicomplex()).max_abs() == 0.0
        assert normalization_residual(Bicomplex(R2), Bicomplex(R2)).max_abs() < 1e-15
        # modulus_squared(e+) = 0 by the conjugation swap rule
        eplus = Bicomplex(0.5, 0, 0, 0.5)
        n = normalization_residual(eplus, Bicomplex())
        assert (n + 1).max_abs() == 0.0


class TestPTClassification:
    def test_symmetric(self):
        st = make_state(Bicomplex(R2), Bicomplex(R2), Bicomplex(1.0))
        assert st.is_pt_symmetric

    def test_unequal_populations(self):
        st = make_state(
            Bicomplex(0.9), Bicomplex(math.sqrt(0.19)), Bicomplex(0.5)
        )
        assert not st.is_pt_symmetric

    def test_not_applicable_for_continued_states(self):
        st = make_state(Bicomplex(R2), Bicomplex(R2) + 0.2 * K, Bicomplex(1.0) + 0.3 * J)
        assert not st.is_complex_state
        assert st.is_pt_symmetric is False


class TestPTReflection:
    def test_reflection_solves_at_physical_gamma(self):
        # exact broken state at g=-1, gamma=0.9 from the closed form
        v, g, gam = 1.0, -1.0, 0.9
        ab = v * v / (g * g + 4 * gam * gam)
        a = (1 + math.sqrt(1 - 4 * ab)) / 2
        b = 1 - a
        cosd = -g * math.sqrt(ab) / v
        sind = 2 * gam * math.sqrt(ab) / v
        delta = math.atan2(sind, cosd)
        psi1 = Bicomplex(math.sqrt(a))
        psi2 = bc_complex(math.sqrt(b) * cmath.exp(1j * delta))
        mu = bc_complex(-g * a - 1j * gam + v * math.sqrt(b / a) * cmath.exp(1j * delta))
        p = DimerParams(v=v, g=g, gamma=gam)
        assert residual_norm(psi1, psi2, mu, p) < 1e-12
        q1, q2, qmu = pt_reflected(psi1, psi2, mu)
        assert residual_norm(q1, q2, qmu, p) < 1e-12


class TestSystems:
    def test_dimer_system_delegates(self):
        sys_ = DimerSystem()
        p = DimerParams(v=1.0, g=-1.0, gamma=0.2)
        psi = (Bicomplex(R2), Bicomplex(R2))
        mu = Bicomplex(1.0)
        r_direct = residual(psi[0], psi[1], mu, p)
        r_sys = sys_.residual(psi, mu, p)
        assert (r_direct[0] - r_sys[0]).max_abs() == 0.0
        assert (r_direct[1] - r_sys[1]).max_abs() == 0.0

    def test_linear_eigenpairs_solve_linear_system(self):
        lin = LinearTwoMode()
        for gam in (0.3, 0.8, 1.5):
            p = DimerParams(v=1.0, g=0.0, gamma=gam)
            states = lin.eigenpairs(p)
            assert len(states) == 4
            for psi1, psi2, mu in states:
                r1, r2 = lin.residual((psi1, psi2), mu, p)
                assert max(r1.max_abs(), r2.max_abs()) < 1e-12
                assert normalization_residual(psi1, psi2).max_abs() < 1e-12

    def test_linear_eigenpairs_match_dimer_at_g0(self):
        lin = LinearTwoMode()
        dim = DimerSystem()
        p = DimerParams(v=1.0, g=0.0, gamma=0.5)
        for psi1, psi2, mu in lin.eigenpairs(p):
            r1, r2 = dim.residual((psi1, psi2), mu, p)
            assert max(r1.max_abs(), r2.max_abs()) < 1e-12

    def test_linear_eigenvalues_closed_form(self):
        lam = LinearTwoMode.sector_eigenvalues(1.0, 0.5 + 0j)
        m = cmath.sqrt(1 - 0.25)
        assert abs(lam[0] - m) < 1e-15 and abs(lam[1] + m) < 1e-15
        lam = LinearTwoMode.sector_eigenvalues(1.0, 1.5 + 0j)
        assert abs(lam[0].real) < 1e-15 and abs(abs(lam[0].imag) - math.sqrt(1.25)) < 1e-15


class TestBifurcationSet:
    @pytest.mark.parametrize("seed", range(8))
    def test_discriminant_matches_its_factorization(self, seed):
        # s = 0, v = 1: disc_X Q = 4g^4 (gamma^2-1)(4gamma^2+g^2)(4gamma^2+g^2-4)^3
        rng = random.Random(seed)
        g, gamma = rng.uniform(-2.5, 2.5), rng.uniform(0.0, 2.0)
        disc = _discriminant(_q_coefficients(np.array([g]), np.array([gamma]),
                                             np.array([0.0])))[0]
        want = (4 * g**4 * (gamma**2 - 1) * (4 * gamma**2 + g**2)
                * (4 * gamma**2 + g**2 - 4) ** 3)
        assert abs(disc - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("v", [1.0, 2.0])
    @pytest.mark.parametrize("g_over_v", [
        -2.5, -2.0, -1.99, -1.2, -0.4, -0.05, -0.03, -0.01, 0.0,
        0.01, 0.05, 0.3, 1.0, 1.5, 1.99, 2.0, 2.3,
    ])
    def test_gamma_points_match_the_closed_forms(self, v, g_over_v):
        g = g_over_v * v
        points = DimerSystem().bifurcation_set(DimerParams(v=v, g=g), "gamma",
                                               0.01 * v, 1.5 * v)
        tangents = [pt.location for pt in points if pt.kind == "tangent"]
        pitchforks = [pt.location for pt in points if pt.kind == "pitchfork"]
        assert len(tangents) + len(pitchforks) == len(points)
        assert len(tangents) == 1
        assert abs(tangents[0] - v) <= 1e-10
        if 0 < abs(g_over_v) < 2:
            tol = 1e-10 if abs(g_over_v) >= 0.05 else 1e-8
            assert len(pitchforks) == 1
            assert abs(pitchforks[0] - math.sqrt(v * v - g * g / 4)) <= tol
        else:
            assert pitchforks == []

    @pytest.mark.parametrize("v", [1.0, 2.0])
    def test_merger_in_g(self, v):
        # at gamma = 0 the quartic vanishes identically at g = 0: no point
        points = DimerSystem().bifurcation_set(DimerParams(v=v), "g",
                                               -3 * v, 3 * v)
        assert [pt.kind for pt in points] == ["pitchfork", "pitchfork"]
        assert abs(points[0].location + 2 * v) <= 1e-10
        assert abs(points[1].location - 2 * v) <= 1e-10

    @pytest.mark.parametrize("v", [1.0, 2.0])
    def test_no_point_at_the_root_x_zero(self, v):
        # at gamma = 0.2j v, Q = X^2 (0.8i + 0.32i X - 0.8i X^2) at g = 0.4 v
        # has the double root X = 0, which is no state
        points = DimerSystem().bifurcation_set(
            DimerParams(v=v, gamma=Bicomplex(0.0, 0.2 * v)), "g",
            -2.5 * v, 2.5 * v)
        assert [pt.kind for pt in points] == ["pitchfork", "pitchfork"]
        want = 2 * v * math.sqrt(1.04)
        assert abs(points[0].location + want) <= 1e-12 * v
        assert abs(points[1].location - want) <= 1e-12 * v

    @pytest.mark.parametrize("v", [1.0, 2.0])
    def test_linear_points_in_s(self, v):
        # at g = 0 the linear model coalesces where 1 + (i gamma - s)^2 = 0:
        # at gamma = 1 + 0.3j only at s = 0.3, at gamma = 0.5 + 0.3j nowhere
        system = DimerSystem()
        p = DimerParams(v=v, gamma=Bicomplex(v, 0.3 * v))
        (point,) = system.bifurcation_set(p, "s", -2 * v, 2 * v)
        assert point.kind == "tangent"
        assert abs(point.location - 0.3 * v) <= 1e-15 * v
        st = point.coalesced_state
        assert residual_norm(st.psi1, st.psi2, st.mu,
                             p.with_control("s", point.location)) < 1e-10
        assert system.bifurcation_set(DimerParams(
            v=v, gamma=Bicomplex(0.5 * v, 0.3 * v)), "s", -2 * v, 2 * v) == []

    def test_coalesced_states_solve(self):
        p = DimerParams(g=-1.0)
        for pt in DimerSystem().bifurcation_set(p, "gamma", 0.05, 1.4):
            st = pt.coalesced_state
            assert st.is_complex_state and st.is_pt_symmetric
            assert residual_norm(st.psi1, st.psi2, st.mu,
                                 p.with_control("gamma", pt.location)) < 1e-10


def _reference_powers(z, count: int) -> np.ndarray:
    out = np.ones((count, len(z)), dtype=z.dtype)
    for k in range(1, count):
        out[k] = out[k - 1] * z
    return out


def _reference_newton_steps(coeffs, order):
    """model._newton_steps written on temporaries, one numpy call per
    product, sum and gather, with _reference_powers for model._powers."""
    n = len(order)
    at = [(order + k) * n + np.arange(n) for k in range(3)]  # q.flat
    slopes = (coeffs[1:] * model._DP).T

    def step(x, p, f1=None, f2=None):
        weights = model._FALLING * _reference_powers(x, 5)[model._SHIFT]
        p_powers = _reference_powers(p, 4)
        q = (weights * (coeffs.T @ p_powers)).sum(1).ravel()
        qp = (weights * (slopes @ p_powers[:3])).sum(1).ravel()
        a, b, c, d = q[at[1]], qp[at[0]], q[at[2]], qp[at[1]]
        if f1 is None:
            f1, f2 = q[at[0]], a
        det = a * d - b * c
        return (f1 * d - b * f2) / det, (a * f2 - c * f1) / det, f1, f2

    return step


def _same_bits(a, b) -> bool:
    """Bit for bit; a long double's unused padding bytes are skipped (its
    value and sign are compared, with every nan alike)."""
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.real.dtype.itemsize <= 8:
        return a.tobytes() == b.tobytes()
    return all(np.array_equal(x, y, equal_nan=True)
               and np.array_equal(np.signbit(x), np.signbit(y))
               for x, y in ((a.real, b.real), (a.imag, b.imag)))


def _steps_keep_their_bits(calls):
    """Each (function, args) of _refine and _polish gives, with the model's
    step, the outputs it gives with the reference step."""
    for fn, args in calls:
        got = fn(*args)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(model, "_newton_steps", _reference_newton_steps)
            m.setattr(model, "_powers", _reference_powers)
            want = fn(*args)
        assert len(got) == len(want) == (5 if fn is model._refine else 2)
        for g, w in zip(got, want):
            assert _same_bits(g, w), (fn.__name__, g, w)


_C = st_.floats(-2.5, 2.5, allow_nan=False, allow_infinity=False)


@st_.composite
def _scans(draw):
    """A bifurcation_set call: any control swept over a range at v = 1 or
    2, the controls with j parts or without."""
    v = draw(st_.sampled_from([1.0, 2.0]))
    j = draw(st_.booleans())
    p = DimerParams(v=v, **{name: Bicomplex(
        v * draw(_C), v * draw(_C) / 5 if j else 0.0) for name in (
            "g", "gamma", "s")})
    lo, hi = sorted((v * draw(_C), v * draw(_C)))
    return p, draw(st_.sampled_from(["gamma", "g", "s"])), lo, hi + 0.1 * v


# exact values, so that products cancel exactly: a lane on a multiple root
# of Q, or with Q vanishing in X, has det = 0; and lanes that are not finite
_EXACT = st_.sampled_from([0j, 0j, 0j, 1 + 0j, -1 + 0j, 2 + 0j, 1j, -2j,
                           1 + 1j])
_LANE = st_.one_of(_EXACT, st_.sampled_from(
    [complex(math.inf, 0.0), complex(0.0, -math.inf), complex(math.nan, 1.0),
     1e300 + 1e300j]))


@st_.composite
def _exact_calls(draw):
    """_refine and _polish on coefficients coeffs[k, n] of X**n p**k and
    lanes drawn from exact values: in the Fortran layout that
    bifurcation_set builds them in, or in C layout."""
    coeffs = np.array(draw(st_.lists(_EXACT, min_size=20, max_size=20)))
    coeffs = coeffs.reshape(4, 5)
    if draw(st_.booleans()):
        coeffs = np.asfortranarray(coeffs)
    n = draw(st_.integers(1, 6))
    x, p = (np.array(draw(st_.lists(_LANE, min_size=n, max_size=n)))
            for _ in range(2))
    order = np.array(draw(st_.lists(st_.integers(0, 1), min_size=n,
                                    max_size=n)))
    controls = {name: draw(_EXACT) for name in ("g", "gamma", "s")}
    parameter = draw(st_.sampled_from(["gamma", "g", "s"]))
    return [(model._refine, (coeffs, x, p, order)),
            (model._polish, (coeffs, controls, parameter, x, p, order))]


class TestNewtonStepBits:
    """_refine and _polish give the bits of the Newton step written on
    temporaries (_reference_newton_steps)."""

    @settings(max_examples=40, deadline=None)
    @given(_scans())
    def test_scans(self, scan):
        calls = []

        def spy(fn):
            def recorded(*args):
                calls.append((fn, args))
                return fn(*args)
            return recorded

        with pytest.MonkeyPatch.context() as m:
            m.setattr(model, "_refine", spy(model._refine))
            m.setattr(model, "_polish", spy(model._polish))
            DimerSystem().bifurcation_set(*scan)
        _steps_keep_their_bits(calls)

    @settings(max_examples=150, deadline=None)
    @given(_exact_calls())
    def test_exact_and_non_finite_lanes(self, calls):
        with np.errstate(all="ignore"):
            _steps_keep_their_bits(calls)

    def test_a_lane_with_det_zero(self):
        # Q = X**2 at p = 0, and dQ/dp = X: at X = p = 0, Q' = dQ/dp = 0
        coeffs = np.zeros((4, 5), dtype=complex)
        coeffs[0, 2] = coeffs[1, 1] = 1
        zero = np.zeros(1, dtype=complex)
        step = model._newton_steps(coeffs, np.zeros(1, dtype=int))
        with np.errstate(all="ignore"):
            dx, dp, _, _ = step(zero, zero)
            assert not np.isfinite(dx).any() and not np.isfinite(dp).any()
            _steps_keep_their_bits([(model._refine, (
                coeffs, zero, zero, np.zeros(1, dtype=int)))])


def _bits(values) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


_UNIT = st_.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


def _reference_controls(p):
    """The kernel's controls (v, g, i*gamma, s) at p through Bicomplex
    values, the last three as component tuples: the formula whose bits a
    system's ``lane_controls`` gives."""
    return float(p.v), p.g.as_tuple(), (I * p.gamma).as_tuple(), p.s.as_tuple()


@st_.composite
def _lanes(draw):
    """1 to 6 lanes of packed floats with their kernel controls; in a lane
    that is complex in i the amplitudes and mu have no j or k part and the
    controls are real."""
    n = draw(st_.integers(1, 6))
    rows, controls, complex_in_i = [], [], []
    for _ in range(n):
        real = draw(st_.booleans())
        jpart = (lambda: 0.0) if real else (lambda: draw(_UNIT))
        p = DimerParams(v=draw(st_.floats(0.5, 2.0)),
                        g=Bicomplex(draw(_UNIT), jpart()),
                        gamma=Bicomplex(draw(_UNIT), jpart()),
                        s=Bicomplex(draw(_UNIT), jpart()))
        x = draw(st_.lists(_UNIT, min_size=12, max_size=12))
        if real:
            x[1::2] = [0.0] * 6
        rows.append(x)
        controls.append(_reference_controls(p))
        complex_in_i.append(real)
    return rows, controls, complex_in_i


def _columns(rows, controls):
    """The lanes as the kernel takes them: each of the 12 floats and each
    control component an array over the lanes."""
    xs = [np.array(col) for col in zip(*rows)]
    v = np.array([c[0] for c in controls])
    parts = [tuple(np.array(col) for col in zip(*(c[k] for c in controls)))
             for k in (1, 2, 3)]
    return xs, (v, *parts)


class TestLaneKernel:
    """packed_residual and packed_jacobian on numpy lanes give, lane by
    lane, the bits they give on that lane's floats."""

    @settings(max_examples=150, deadline=None)
    @given(_lanes())
    def test_lanes_match_floats_bit_for_bit(self, case):
        rows, controls, complex_in_i = case
        xs, lane_controls = _columns(rows, controls)
        res = packed_residual(xs, lane_controls)
        jac = packed_jacobian(xs, lane_controls)
        n = len(rows)
        for k, (x, c, real) in enumerate(zip(rows, controls, complex_in_i)):
            want_res = packed_residual(x, c)
            got_res = [r[k] for r in res]
            assert np.array_equal(_bits(got_res), _bits(want_res))
            want_jac = np.array(packed_jacobian(x, c))
            got_jac = np.array([[np.broadcast_to(e, n)[k] for e in row]
                                for row in jac])
            assert np.array_equal(_bits(got_jac), _bits(want_jac))
            if real:
                # the j and k rows, and the couplings between (z0, z2) and
                # (z1, z3), are exactly zero
                odd = np.arange(12) % 2 == 1
                assert np.all(np.array(got_res)[odd] == 0.0)
                assert np.all(got_jac[np.ix_(odd[:10], ~odd)] == 0.0)
                assert np.all(got_jac[np.ix_(~odd[:10], odd)] == 0.0)


def _idempotent_seed(psi_plus, phi, mu_plus, nu):
    """Bicomplex (psi, mu) from psi+, phi = conj(psi-), mu+ and nu =
    conj(mu-), in the gauge psi+ -> c*psi+, phi -> phi/c that balances site
    1: the seed construction through Bicomplex values that the packed rows
    replace."""
    c = math.sqrt(abs(phi[0]) / abs(psi_plus[0]))
    psi = tuple(Bicomplex.from_idempotent(c * p, (f / c).conjugate())
                for p, f in zip(psi_plus, phi))
    return psi, Bicomplex.from_idempotent(mu_plus, nu.conjugate())


def _reference_seed(x, y, a, g, gamma, s, v):
    """The seed of the state with X = x, Y = y and a = n1 through Bicomplex
    values, as seeds were built before they were packed."""
    psi, mu = _idempotent_seed((1.0, x), (a, a * y),
                               v * (x - g * a - 1j * gamma + s),
                               v * (y - g * a + 1j * gamma + s))
    return [c for z in (*psi, mu) for c in z.as_tuple()]


def _reference_back_solve(x, g, gamma, s, v):
    """The seed at the root x of Q through Bicomplex values."""
    a = ((x * x - 1) / x - 2j * gamma + 2 * s + g) / (2 * g)
    return _reference_seed(x, (1 - a) / (a * x), a, g, gamma, s, v)


class TestBackSolve:
    """The packed back-solve gives the Bicomplex seeds' bits."""

    @staticmethod
    def roots(n, seed):
        rng = np.random.default_rng(seed)
        out = []
        while len(out) < n:
            jpart = rng.uniform(-0.3, 0.3, 3) * (rng.random() < 0.5)
            g, gamma, s = (complex(rng.uniform(lo, hi), j) for (lo, hi), j in
                           zip([(-2.5, 2.5), (0.0, 1.5), (-0.3, 0.3)], jpart))
            v = rng.uniform(0.5, 2.0)
            for x in _roots(_q_coefficients(g, gamma, s)[::-1]):
                out.append((x, (g, gamma, s), v))
        return out[:n]

    def test_floats_match_bicomplex_seeds(self):
        for x, c, v in self.roots(400, 3):
            assert np.array_equal(_bits(_back_solve(x, *c, v)),
                                  _bits(_reference_back_solve(x, *c, v)))

    def test_one_point_seeds_are_the_packed_rows(self):
        system = DimerSystem()
        points = [DimerParams(v=1.0, g=g, gamma=gamma)
                  for g in (-0.85, 5e-4, 0.0) for gamma in (0.3, 1.2)]
        controls = control_rows(points)
        rows, owner = system.packed_candidates(controls)
        for k in range(len(points)):
            seeds, _ = system.packed_candidates(controls[k:k + 1])
            assert np.array_equal(_bits(rows[owner == k]), _bits(seeds))
        # 4 seeds from Q, 4 more from the linear model below |g| = 1e-3
        assert np.bincount(owner).tolist() == [4, 4, 8, 8, 4, 4]


def _linear_plus(p):
    """The plus components of gamma and s at p in units of v."""
    return [p.control(name).to_idempotent().plus / p.v
            for name in ("gamma", "s")]


def _reference_linear_seeds(p):
    """The linear model's seeds through Bicomplex values: the back-solve at
    g = 0 fed with the roots X and Y of the two quadratics, in the order
    (+, +), (+, -), (-, +), (-, -), and a = 1/(1 + XY), skipping the pairs
    whose continued norm 1 + XY vanishes."""
    gamma, s = _linear_plus(p)
    seeds = []
    for x in _quadratic_roots(1j * gamma - s):
        for y in _quadratic_roots(-(1j * gamma + s)):
            if abs(1 + x * y) >= 1e-12:
                seeds.append(_reference_seed(x, y, 1 / (1 + x * y), 0j,
                                             gamma, s, p.v))
    return seeds


_CONTROL = st_.floats(-2.5, 2.5, allow_nan=False, allow_infinity=False)


@st_.composite
def _linear_points(draw):
    """A point of the linear model (g = 0), real or j-continued."""
    real = draw(st_.booleans())
    jpart = (lambda: 0.0) if real else (lambda: draw(_CONTROL))
    return DimerParams(v=draw(st_.floats(0.25, 4.0)),
                       g=Bicomplex(0.0, 0.0),
                       gamma=Bicomplex(draw(_CONTROL), jpart()),
                       s=Bicomplex(draw(_CONTROL), jpart()))


def _hex(values) -> list[str]:
    return [float(c).hex() for c in values]


class TestArrayForms:
    """The block forms of the controls and of the back-solve give, lane by
    lane, the bits of the point-by-point forms they stand for."""

    @staticmethod
    def points(n=60, seed=11):
        """Real and j-continued points at several v, with signed zeros in
        every component."""
        rng = np.random.default_rng(seed)
        out = []
        for k in range(n):
            j = (0.0, -0.0, 0.2, -0.3)[k % 4]
            zero = (0.0, -0.0)[k % 2]
            out.append(DimerParams(
                v=(1.0, 2.0, 0.7)[k % 3],
                g=Bicomplex(rng.uniform(-2.5, 2.5), j, zero, zero),
                gamma=Bicomplex((rng.uniform(0, 1.5), -0.0)[k % 5 == 0],
                                -j, 0.0, zero),
                s=Bicomplex(rng.uniform(-0.3, 0.3) if k % 3 else zero, j)))
        return out

    def test_controls_and_plus_components(self):
        points = self.points()
        controls = control_rows(points)
        # the dimer's controls, and at g = 0 the linear model's
        for block in (points, [p.with_control("g", 0.0) for p in points]):
            rows = control_rows(block)
            lanes = np.stack(np.broadcast_arrays(
                *DimerSystem().lane_controls(list(rows.T))), 1)
            for k, p in enumerate(block):
                v, gk, ih, s = _reference_controls(p)
                want = _hex([v, *gk, *ih, *s])
                assert _hex(lanes[k]) == want
                assert _hex(DimerSystem().lane_controls(
                    rows[k].tolist())) == want
        # on Python numbers below _COMPLEX_LANES points, on lanes from it
        assert len(points) >= model._COMPLEX_LANES
        for plus in (_plus(controls), np.concatenate(
                [_plus(controls[k:k + 1]) for k in range(len(points))])):
            for k, p in enumerate(points):
                want = [p.control(name).to_idempotent().plus / p.v
                        for name in ("g", "gamma", "s")]
                assert _hex(plus[k].view(float)) == _hex(
                    np.array(want).view(float))

    def test_back_solve_on_lanes(self):
        roots = TestBackSolve.roots(10_000, 7)
        roots += [(x, c, 2.0) for x, c, _ in roots[:500]]
        # signed zeros, and three roots where the back-solve divides by
        # zero: at a = 0 (x = 1, g + 2 s = 0) and at g = 0
        roots += [(complex(x, zero), (complex(g, zero), complex(0.5, -zero),
                                      complex(-0.0, zero)), 1.0)
                  for x in (0.5, -1.5) for g in (0.3, -0.7)
                  for zero in (0.0, -0.0)]
        roots += [(complex(1.0, zero), (complex(1.0, zero), complex(zero, 0.0),
                                        complex(-0.5, zero)), 1.0)
                  for zero in (0.0, -0.0)]
        roots += [(1.5 + 0.5j, (0j, 0.5 + 0j, 0j), 1.0)]
        x, controls, v = zip(*roots)
        got = _back_solved(_back_solve, (np.array(x), *np.array(controls).T),
                           np.array(v))
        assert len(roots) > 10_000 >= model._COMPLEX_LANES
        raised = []
        for k, (xk, c, vk) in enumerate(roots):
            try:
                want = _back_solve(xk, *c, vk)
            except ZeroDivisionError:
                raised.append(k)
                assert not np.isfinite(got[k]).all()
                continue
            assert _hex(got[k]) == _hex(want)
        assert raised == [len(roots) - 3, len(roots) - 2, len(roots) - 1]
        # Newton drops those rows
        lanes = solver._Lanes(DimerSystem(), control_rows([DimerParams()]),
                              np.zeros(len(raised), dtype=int))
        *_, errors = solver._newton(lanes, np.arange(len(raised)), got[raised],
                                    1e-11)
        assert sorted(errors) == list(range(len(raised)))
        assert all("non-finite" in str(exc) for exc in errors.values())


class TestLinearSeedRows:
    """The dimer's seeds at g = 0 are the back-solve of the roots of the
    linear model's two quadratics, with the bits the Bicomplex
    construction gives, and they solve the linear model: each is one of
    its closed-form eigenpairs."""

    @settings(max_examples=300, deadline=None)
    @given(_linear_points())
    def test_rows_match_bicomplex_seeds(self, p):
        rows, _ = DimerSystem().packed_candidates(control_rows([p]))
        assert np.array_equal(_bits(rows).reshape(-1, 12),
                              _bits(_reference_linear_seeds(p)).reshape(-1, 12))

    @settings(max_examples=60, deadline=None)
    @given(st_.lists(_linear_points(), min_size=24, max_size=32))
    def test_rows_on_lanes_match_bicomplex_seeds(self, points):
        self.check_lanes(points)

    def test_rows_on_lanes_skip_singular_combinations(self):
        # at gamma = 0 two of the four root pairs have a vanishing
        # continued norm 1 + XY and are skipped; the linear EP is at
        # gamma = v
        owner = self.check_lanes([DimerParams(v=v, gamma=gamma * v, s=s)
                                  for v in (1.0, 2.0)
                                  for gamma in (0.0, -0.0, 0.5, 1.0)
                                  for s in (0.0, 0.1)])
        assert np.bincount(owner).tolist() == [2, 2, 2, 2, 4, 4, 4, 4] * 2

    @staticmethod
    def check_lanes(points):
        rows, owner = DimerSystem().packed_candidates(control_rows(points))
        assert len(rows) >= model._COMPLEX_LANES  # the block runs on lanes
        for k, p in enumerate(points):
            assert np.array_equal(
                _bits(rows[owner == k]).reshape(-1, 12),
                _bits(_reference_linear_seeds(p)).reshape(-1, 12))
        return owner

    @settings(max_examples=300, deadline=None)
    @given(_linear_points())
    def test_seeds_are_the_eigenpairs(self, p):
        # a residual of rounding size everywhere; away from the linear EP
        # (b^2 + 1 = 0) and from vanishing norms, where the states are
        # well conditioned, each seed in the solver's gauge is an eigenpair
        lin = LinearTwoMode()
        rows, _ = DimerSystem().packed_candidates(control_rows([p]))
        eps = np.finfo(float).eps
        size = max(p.v, *map(abs, p.gamma.as_tuple() + p.s.as_tuple()))
        for row in rows.tolist():
            (psi1, psi2), mu = model._as_seed(row)
            scale = max(map(abs, row[:8])) * (size + max(map(abs, row[8:])))
            r1, r2 = lin.residual((psi1, psi2), mu, p)
            assert max(r1.max_abs(), r2.max_abs()) <= 16 * eps * scale
        gamma, s = _linear_plus(p)
        bs = (1j * gamma - s, -(1j * gamma + s))
        norms = [abs(1 + x * y) for x in _quadratic_roots(bs[0])
                 for y in _quadratic_roots(bs[1])]
        if (min(abs(b * b + 1) for b in bs) < 1e-2
                or any(1e-12 <= n < 1e-2 for n in norms)):
            return
        eigen = [(*canonical_gauge((psi1, psi2), mu)[0], mu)
                 for psi1, psi2, mu in lin.eigenpairs(p)]
        assert len(eigen) == len(rows)
        for row in rows.tolist():
            (psi1, psi2), mu = canonical_gauge(*model._as_seed(row))
            assert min(max((psi1 - e1).max_abs(), (psi2 - e2).max_abs(),
                           (mu - em).max_abs()) for e1, e2, em in eigen
                       ) <= 1e-12 * max(1.0, *map(abs, row))

    def test_dimer_takes_them_below_the_linear_threshold(self):
        points = [DimerParams(v=1.0, g=g, gamma=Bicomplex(1.0, 0.01))
                  for g in (0.0, 5e-4)]
        rows, owner = DimerSystem().packed_candidates(control_rows(points))
        assert np.array_equal(_bits(rows[owner == 0]),
                              _bits(_reference_linear_seeds(points[0])))
        # Q's four roots first, then the linear model's four seeds
        assert np.array_equal(_bits(rows[owner == 1][4:]),
                              _bits(_reference_linear_seeds(points[1])))


def _grid_controls():
    """(g, gamma, s) rows of the scan grids the merge prefilter must
    reproduce _roots on: fifteen gamma grids of `bifurcations` (0.05 to
    1.4, step 0.01), the two `sweep` grids and the s = 0.05 scan, a
    delta-sweep around six coalescences, and the exact tangent (gamma = v)
    and pitchfork (g^2 + 4 gamma^2 = 4 v^2) lines for 1e-4 <= |g| <= 2."""
    gammas = 0.05 + 0.01 * np.arange(136)
    grids = {f"g={g}": [(g, gamma, 0.0) for gamma in gammas]
             for g in (-2.5, -2.0, -1.5, -1.2, -1.0, -0.85, -0.4, -0.1,
                       0.01, 5e-4, 0.1, 0.5, 1.2, 1.5, 2.3)}
    grids["sweep --g -1"] = [(-1.0, 0.01 * k, 0.0) for k in range(141)]
    grids["sweep --gamma 0.5"] = [(-2.5 + 0.05 * k, 0.5, 0.0)
                                  for k in range(101)]
    grids["bifurcations --g -1.5 --s 0.05"] = [(-1.5, gamma, 0.05)
                                               for gamma in gammas]
    centres = [(-1.0, math.sqrt(3.0) / 2.0, 0.0), (-2.0, 0.0, 0.0),
               (-1.0, 1.0, 0.0), (1.5, 1.0, 0.0), (0.1, 1.0, 0.0),
               (0.0, 1.0, 0.0)]
    deltas = [sign * 10.0 ** -k for k in range(2, 15) for sign in (1, -1)]
    grids["delta-sweep"] = [
        tuple(c + (delta if axis == k else 0.0) for k, c in enumerate(centre))
        for centre in centres for axis in range(3) for delta in deltas]
    sizes = np.geomspace(1e-4, 2.0, 60)
    grids["tangent line"] = [(sign * g, 1.0, 0.0) for g in sizes
                             for sign in (1, -1)]
    grids["pitchfork line"] = [(sign * g, math.sqrt(4.0 - g * g) / 2.0, 0.0)
                               for g in sizes for sign in (1, -1)]
    return grids


class TestMergePrefilter:
    """Q's roots from one batched eigenvalue call, merged only where
    _close_pair flags a point, equal _roots point by point, bit for bit."""

    GRIDS = _grid_controls()

    @pytest.mark.parametrize("grid", GRIDS)
    def test_batched_roots_equal_roots(self, grid):
        g, gamma, s = (np.array(col, dtype=complex)
                       for col in zip(*self.GRIDS[grid]))
        top = _q_coefficients(g, gamma, s)[::-1].T
        roots, at = _q_roots(g, gamma, s)
        for k in range(len(top)):
            want = _roots(top[k]) if g[k] != 0 else []
            assert np.array_equal(roots[at == k].view(float),
                                  np.array(want, dtype=complex).view(float))

    def quartics(self):
        """The coefficients (highest power first) and unmerged roots of
        each grid's quartics, and where _roots merges them."""
        for grid in self.GRIDS.values():
            g, gamma, s = (np.array(col, dtype=complex) for col in zip(*grid))
            top = _q_coefficients(g, gamma, s)[::-1].T
            live = (g != 0) & (top[:, 0] != 0) & (top[:, -1] != 0)
            top = top[live]
            raw = np.array([np.roots(row) for row in top])
            yield top, raw, np.array([_roots(row) != roots.tolist()
                                      for row, roots in zip(top, raw)])

    def test_closest_pair_flags_every_merge(self):
        merged = flagged = 0
        for top, raw, moved in self.quartics():
            flags = _close_pair(raw, top)
            assert (flags | ~moved).all()
            merged += int(moved.sum())
            flagged += int(flags.sum())
        # 689 flagged rows for 466 merges
        assert merged >= 300
        assert flagged <= 2 * merged


def _root_bits(roots) -> np.ndarray:
    return np.array(roots, dtype=complex).view(np.int64)


def _one_point_roots(g, gamma, s) -> np.ndarray:
    x, at = _q_roots(np.array([g]), np.array([gamma]), np.array([s]))
    assert (at == 0).all()
    return x


def _block_coefficients(g, gamma, s) -> np.ndarray:
    """Q's coefficients at one point, formed on numpy's array loops."""
    return _q_coefficients(np.array([g]), np.array([gamma]),
                           np.array([s]))[:, 0]


_J_PART = st_.floats(0.01, 1.0) | st_.floats(-1.0, -0.01)


class TestOneRootPath:
    """One point takes the block's path to Q's roots (coefficients on array
    loops, companions, one eigvals call, _close_pair, _merged): it is a
    block of one, and keeps the bits of _roots."""

    GRIDS = TestMergePrefilter.GRIDS

    @pytest.mark.parametrize("grid", GRIDS)
    def test_one_point_equals_roots_and_the_block(self, grid):
        g, gamma, s = (np.array(col, dtype=complex)
                       for col in zip(*self.GRIDS[grid]))
        roots, at = _q_roots(g, gamma, s)
        for k in range(len(g)):
            point = (g[k].item(), gamma[k].item(), s[k].item())
            one = _root_bits(_one_point_roots(*point))
            want = _roots(_q_coefficients(*point)[::-1]) if g[k] else []
            assert np.array_equal(one, _root_bits(want))
            assert np.array_equal(one, _root_bits(roots[at == k]))

    @settings(max_examples=200, deadline=None)
    @given(st_.floats(-3.0, 3.0), _J_PART, st_.floats(-1.5, 1.5), _J_PART,
           st_.floats(-0.5, 0.5), st_.floats(-0.5, 0.5))
    def test_one_point_equals_roots_at_j_parts_of_g_and_gamma(
            self, g, g_j, gamma, gamma_j, s, s_j):
        g, gamma, s = complex(g, g_j), complex(gamma, gamma_j), complex(s, s_j)
        assert np.array_equal(
            _root_bits(_one_point_roots(g, gamma, s)),
            _root_bits(_roots(_block_coefficients(g, gamma, s)[::-1])))

    def test_one_point_takes_the_block_coefficients(self):
        # numpy's scalar complex arithmetic rounds Q's coefficients
        # differently from its array loops where g and gamma carry j parts;
        # one point forms them on array loops, as a block does
        g, gamma, s = -1 + 0.2j, 0.3 + 0.1j, 0j
        scalar = _q_coefficients(g, gamma, s)
        array = _block_coefficients(g, gamma, s)
        assert not np.array_equal(scalar, array)
        x = _root_bits(_one_point_roots(g, gamma, s))
        assert np.array_equal(x, _root_bits(_roots(array[::-1])))
        assert not np.array_equal(x, _root_bits(_roots(scalar[::-1])))
        roots, at = _q_roots(*(np.array([c, 0.5 + c]) for c in (g, gamma, s)))
        assert np.array_equal(x, _root_bits(roots[at == 0]))


class TestOverflowingControls:
    """Controls whose Q overflows give no roots, or roots that _merged
    takes with an infinite size, on one point and in a block alike."""

    @pytest.mark.parametrize("g,gamma,s", [
        (1e155, 1.0, 0.0),  # coefficients not finite
        (1e-200, 1e-200, 1e160),  # finite coefficients, companion not
    ])
    def test_no_roots(self, g, gamma, s):
        point = (complex(g), complex(gamma), complex(s))
        assert len(_one_point_roots(*point)) == 0
        roots, at = _q_roots(np.array([g, -1.0], dtype=complex),
                             np.array([gamma, 0.5], dtype=complex),
                             np.array([s, 0.0], dtype=complex))
        assert (at == 1).all()
        assert np.array_equal(_root_bits(roots),
                              _root_bits(_one_point_roots(-1.0, 0.5, 0j)))

    @pytest.mark.parametrize("g,gamma,s", [(1e100, 0.5, 0.0),
                                           (1.0, 0.0, 1e100)])
    def test_merged_takes_an_overflowing_size_as_inf(self, g, gamma, s):
        top = _q_coefficients(complex(g), complex(gamma), complex(s))[::-1]
        raw = np.roots(top).tolist()
        with pytest.raises(OverflowError):
            max(abs(r) for r in raw) ** 4
        with np.errstate(over="ignore"):
            assert len(_merged(raw, top)) == 4
        assert len(_one_point_roots(complex(g), complex(gamma),
                                    complex(s))) == 4

    def test_linear_seeds_at_large_gamma_match_their_lanes(self):
        # the roots that do not cancel keep every seed finite, on Python
        # numbers and on lanes alike
        one = control_rows([DimerParams(v=1.0, g=0.0, gamma=1e10)])
        rows, _ = DimerSystem().packed_candidates(one)
        lanes, at = DimerSystem().packed_candidates(np.repeat(one, 12, 0))
        assert len(rows) == 4 and np.isfinite(rows).all()
        assert len(lanes) >= model._COMPLEX_LANES
        for k in range(12):
            assert np.array_equal(_bits(lanes[at == k]), _bits(rows))


def _planted(m, centre, lead, factor, theta, others):
    """A quartic (highest power first) with an m-fold root at ``centre``
    split evenly on a circle of ``factor`` times its rounding radius (see
    _roots), its other roots at the ``others`` offsets from the centre,
    and its roots as np.roots gives them."""
    eps = np.finfo(float).eps
    rest = [centre + d for d in others[:4 - m]]
    exact = lead * np.poly([centre] * m + rest)
    size = sum(abs(c) * abs(centre) ** n for n, c in enumerate(exact[::-1]))
    h = abs(lead) * math.prod(abs(r - centre) for r in rest)
    radius = factor * (eps * size / h) ** (1.0 / m)
    split = [centre + radius * cmath.exp(1j * (theta + 2 * math.pi * k / m))
             for k in range(m)]
    top = lead * np.poly(split + rest)
    return top, np.roots(top)


def _complex(units, lo, hi):
    """The complex number of magnitude 10**(lo + (hi - lo) a) at the angle
    2 pi b, for the pair ``units`` = (a, b) in [0, 1]."""
    a, b = units
    return 10.0 ** (lo + (hi - lo) * a) * cmath.exp(2j * math.pi * b)


_UNIT = st_.floats(0.0, 1.0)


class TestClosePair:
    """_close_pair flags every quartic whose roots _merged changes, on
    planted double, triple and quadruple roots split at the radius of
    rounding, where _merged decides either way."""

    @staticmethod
    def moved_and_flagged(m, centre, lead, factor, theta, others):
        top, raw = _planted(m, centre, lead, factor, theta, others)
        moved = _merged(raw.tolist(), top) != raw.tolist()
        return moved, bool(_close_pair(raw[None], top[None])[0])

    @settings(max_examples=300, deadline=None)
    @given(st_.sampled_from([2, 3, 4]), st_.tuples(_UNIT, _UNIT),
           st_.tuples(_UNIT, _UNIT), st_.floats(-2.0, 2.0), _UNIT,
           st_.lists(st_.tuples(_UNIT, _UNIT), min_size=2, max_size=2))
    def test_flags_every_merge(self, m, centre, lead, log2_factor, theta,
                               others):
        moved, flagged = self.moved_and_flagged(
            m, _complex(centre, -1, 1), _complex(lead, -1, 1),
            2.0 ** log2_factor, 2 * math.pi * theta,
            [_complex(d, -6, 1) for d in others])
        assert flagged or not moved

    def test_planted_roots_merge_on_both_sides(self):
        rng = np.random.default_rng(7)
        merged = {m: 0 for m in (2, 3, 4)}
        for k in range(600):
            m = 2 + k % 3
            moved, flagged = self.moved_and_flagged(
                m, _complex(rng.uniform(size=2), -1, 1),
                _complex(rng.uniform(size=2), -1, 1),
                2.0 ** rng.uniform(-2.0, 2.0), rng.uniform(0, 2 * math.pi),
                [_complex(rng.uniform(size=2), -6, 1) for _ in range(2)])
            assert flagged or not moved
            merged[m] += moved
        assert all(0 < n < 200 for n in merged.values())
