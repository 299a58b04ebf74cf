import cmath
import math
import random

import numpy as np
import pytest

from bcdimer.bicomplex import Bicomplex, J, K
from bcdimer.model import (
    DimerParams,
    DimerSystem,
    LinearTwoMode,
    StationaryState,
    classify_flags,
    mean_field_energy,
    normalization_residual,
    observables,
    populations,
    pt_classify,
    pt_reflected,
    residual,
    _discriminant,
    _q_coefficients,
)

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
        assert p.is_physical()

    def test_with_control(self):
        p = DimerParams().with_control("gamma", 1.0, 0.25)
        assert p.gamma == Bicomplex(1.0, 0.25, 0.0, 0.0)
        assert not p.is_physical()

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


class TestObservables:
    def test_linear_symmetric(self):
        p = DimerParams(v=1.0, g=0.0, gamma=0.0)
        st = make_state(Bicomplex(R2), Bicomplex(R2), Bicomplex(1.0))
        obs = observables(st, p)
        assert (obs.e_mf - Bicomplex(1.0)).max_abs() < 1e-15
        assert abs(obs.re_part - 1.0) < 1e-15
        assert abs(obs.im_part) < 1e-15

    def test_nonlinear_symmetric(self):
        # mu = -g/2 + v = 1.5 and E = mu + (g/2)(1/4 + 1/4) = 1.25
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        st = make_state(Bicomplex(R2), Bicomplex(R2), Bicomplex(1.5))
        obs = observables(st, p)
        assert (obs.e_mf - Bicomplex(1.25)).max_abs() < 1e-15
        assert abs(obs.re_part - 1.25) < 1e-15

    def test_reconstruction_matches_components(self):
        rng = np.random.default_rng(9)
        p = DimerParams(v=1.0, g=-1.0, gamma=0.4)
        for _ in range(100):
            z = Bicomplex(*rng.uniform(-2, 2, 4))
            st = make_state(Bicomplex(R2), Bicomplex(R2), z)
            obs = observables(st, p)
            e = obs.e_mf
            assert abs(obs.re_part - complex(e.z0, e.z1)) < 1e-13
            assert abs(obs.im_part - complex(e.z2, e.z3)) < 1e-13

    def test_complex_state_has_i_free_parts(self):
        # a PT-broken complex state: re/im parts must still be real numbers
        psi1 = bc_complex(0.9)
        psi2 = bc_complex(cmath.exp(0.7j) * math.sqrt(0.19))
        mu = bc_complex(0.3 - 0.2j)
        p = DimerParams(v=1.0, g=-1.0, gamma=0.9)
        st = make_state(psi1, psi2, mu)
        assert st.is_complex_state
        obs = observables(st, p)
        assert abs(obs.re_part.imag) < 1e-10
        assert abs(obs.im_part.imag) < 1e-10


class TestPTClassification:
    def test_symmetric(self):
        st = make_state(Bicomplex(R2), Bicomplex(R2), Bicomplex(1.0))
        assert pt_classify(st) is True
        assert st.is_pt_symmetric

    def test_unequal_populations(self):
        st = make_state(
            Bicomplex(0.9), Bicomplex(math.sqrt(0.19)), Bicomplex(0.5)
        )
        assert pt_classify(st) is False

    def test_not_applicable_for_continued_states(self):
        st = make_state(Bicomplex(R2), Bicomplex(R2) + 0.2 * K, Bicomplex(1.0) + 0.3 * J)
        assert not st.is_complex_state
        assert pt_classify(st) is None
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
                assert lin.normalization_residual((psi1, psi2)).max_abs() < 1e-12

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


def test_mean_field_energy_complex_criterion():
    # continued state: unequal idempotent mu components show up in the parts
    st = make_state(Bicomplex(R2), Bicomplex(R2), Bicomplex(1.0, 0.3, 0.0, 0.1))
    p = DimerParams(v=1.0, g=0.0, gamma=0.0)
    assert not st.is_complex_state
    obs = observables(st, p)
    pair = obs.e_mf.to_idempotent()
    assert abs(pair.plus - pair.minus) > 1e-3
    assert abs(obs.re_part.imag) > 1e-3 or abs(obs.im_part.imag) > 1e-3


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

    def test_coalesced_states_solve(self):
        p = DimerParams(g=-1.0)
        for pt in DimerSystem().bifurcation_set(p, "gamma", 0.05, 1.4):
            st = pt.coalesced_state
            assert st.is_complex_state and st.is_pt_symmetric
            assert residual_norm(st.psi1, st.psi2, st.mu,
                                 p.with_control("gamma", pt.location)) < 1e-10
