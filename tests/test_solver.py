import cmath
import importlib.util
import itertools
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st_

from bcdimer import solver
from bcdimer.bicomplex import Bicomplex, J
from bcdimer.model import (
    DimerParams,
    DimerSystem,
    LinearTwoMode,
    StationaryState,
    _as_seed,
    control_rows,
    normalization_residual,
    pt_reflected,
    residual,
)
from bcdimer.solver import (
    DEDUP_TOL,
    GAUGE_EPS,
    GaugeDegenerate,
    NoConvergence,
    RealSystemView,
    SolveConfig,
    canonical_gauge,
    find_all_states,
    find_states_along,
    newton_solve,
    state_distance,
)

R2 = 1.0 / math.sqrt(2.0)
SQRT3_2 = math.sqrt(3.0) / 2.0
SYSTEM = DimerSystem()
CFG = SolveConfig(jacobian="analytic")


def _load_oracle():
    """The question benchmark's state oracle, loaded by path: it enumerates
    the states from the quartic P(a) in the population a = n1, not from the
    quartic Q(X) that the solver is seeded from."""
    path = Path(__file__).resolve().parents[1] / "qbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("_qbench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = _load_oracle()


def closed_form_mu(v: float, gamma: float) -> complex:
    return cmath.sqrt(complex(v * v - gamma * gamma, 0.0))


class TestRealView:
    def test_counts(self):
        view = RealSystemView(SYSTEM, DimerParams(v=1.0))
        x = solver._rows([((Bicomplex(R2), Bicomplex(R2)), Bicomplex(1.0))])[0]
        assert view.residual_vector(x).shape == (12,)
        assert view.jacobian(x).shape == (12, 12)

    def test_complex_seed_has_zero_jk_rows(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.3)
        view = RealSystemView(SYSTEM, p)
        x = solver._rows([(
            (Bicomplex.from_complex(0.6 + 0.1j),
             Bicomplex.from_complex(0.7 - 0.2j)),
            Bicomplex.from_complex(0.5 + 0.05j),
        )])[0]
        f = view.residual_vector(x)
        # j and k components of both residual rows
        for base in (0, 4):
            assert f[base + 1] == 0.0
            assert f[base + 3] == 0.0

    def test_dropped_normalization_components_vanish(self):
        # the i and k parts of the normalization residual are identical zeros
        rng = np.random.default_rng(21)
        for _ in range(200):
            psi = tuple(Bicomplex(*rng.uniform(-1, 1, 4)) for _ in range(2))
            (psi1, psi2), _mu = canonical_gauge(psi, Bicomplex())
            n = normalization_residual(psi1, psi2)
            assert abs(n.z2) < 1e-14
            assert abs(n.z3) < 1e-14

    def test_gauge_degenerate(self):
        p = DimerParams(v=1.0)
        view = RealSystemView(SYSTEM, p)
        x = solver._rows([((Bicomplex(0.0), Bicomplex(1.0)),
                            Bicomplex(0.0))])[0]
        with pytest.raises(GaugeDegenerate):
            view.residual_vector(x)

    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(3)
        p = DimerParams(v=1.0, g=-1.3, gamma=0.4, s=0.05)
        view = RealSystemView(SYSTEM, p)
        for _ in range(10):
            x = rng.uniform(-1, 1, 12)
            x[0] += 2.0  # keep the gauge amplitude healthy
            ja = view.jacobian(x)
            h = 1e-6
            jc = np.empty((12, 12))
            for col in range(12):
                xp, xm = x.copy(), x.copy()
                xp[col] += h
                xm[col] -= h
                jc[:, col] = (
                    view.residual_vector(xp) - view.residual_vector(xm)
                ) / (2 * h)
            scale = max(1.0, np.max(np.abs(jc)))
            assert np.max(np.abs(ja - jc)) / scale < 1e-5

    @pytest.mark.parametrize("jpart", [0.0, 0.2])
    @pytest.mark.parametrize("site", [0, 1])
    def test_central_differences_on_each_site(self, site, jpart):
        # the exact Jacobian is Newton's only one: check it, gauge rows
        # included, on either gauge site and at j-continued controls
        rng = np.random.default_rng(11 + site)
        p = DimerParams(v=1.2, g=Bicomplex(0.9, jpart),
                        gamma=Bicomplex(0.7, -jpart), s=Bicomplex(-0.1, jpart))
        view = RealSystemView(SYSTEM, p, gauge_site=site)
        h = 1e-6
        for _ in range(5):
            x = rng.uniform(-1, 1, 12)
            x[4 * site] += 2.0
            jc = np.empty((12, 12))
            for col in range(12):
                xp, xm = x.copy(), x.copy()
                xp[col] += h
                xm[col] -= h
                jc[:, col] = (
                    view.residual_vector(xp) - view.residual_vector(xm)
                ) / (2 * h)
            scale = max(1.0, np.max(np.abs(jc)))
            assert np.max(np.abs(view.jacobian(x) - jc)) / scale < 1e-5

    @pytest.mark.parametrize("site", [0, 1])
    def test_jacobian_at_a_degenerate_gauge_amplitude(self, site):
        # the residual refuses a vanishing gauge amplitude; the exact
        # Jacobian needs no residual and is defined there
        view = RealSystemView(SYSTEM, DimerParams(v=1.0, g=-0.5, gamma=0.3),
                              gauge_site=site)
        x = np.random.default_rng(5).uniform(-1, 1, 12)
        x[4 * site:4 * site + 4] = 0.0
        with pytest.raises(GaugeDegenerate):
            view.residual_vector(x)
        jac = view.jacobian(x)
        assert jac.shape == (12, 12) and np.isfinite(jac).all()
        cols = slice(4 * site, 4 * site + 4)
        assert jac[-2, cols].tolist() == [0.0, -1.0, 1.0, 0.0]
        assert np.all(jac[-1] == 0.0) and np.all(np.delete(jac[-2], [
            4 * site + 1, 4 * site + 2]) == 0.0)

    def test_complex_in_i_subspace_is_invariant(self):
        # at complex-in-i points with real controls the analytic Jacobian
        # does not couple (z0, z2) with (z1, z3), and the j and k rows are
        # exactly zero, so a Newton step from a complex state keeps its j
        # and k components exactly zero.  The one exception is the gauge
        # phase row z2 - z1, an even row with a -1 on z1: no odd row sees an
        # even column, so the odd part of the step still solves a
        # homogeneous system and is zero.
        rng = np.random.default_rng(17)
        odd = np.arange(12) % 2 == 1
        for k in range(50):
            p = DimerParams(v=1.0, g=rng.uniform(-2.5, 2.5),
                            gamma=rng.uniform(0, 1.5), s=rng.uniform(-0.5, 0.5))
            site = k % 2
            view = RealSystemView(SYSTEM, p, gauge_site=site)
            x = rng.uniform(-1, 1, 12)
            x[odd] = 0.0
            x[4 * site] += 2.0
            jac = view.jacobian(x)
            even_rows = np.flatnonzero(~odd)
            even_rows = even_rows[even_rows != 10]  # the gauge phase row
            assert np.all(jac[np.ix_(even_rows, odd)] == 0.0)
            assert np.all(jac[np.ix_(odd, ~odd)] == 0.0)
            assert np.all(view.residual_vector(x)[odd] == 0.0)


def _reference_mult_matrix(b: Bicomplex) -> np.ndarray:
    """Real 4x4 matrix of x -> b*x acting on (z0, z1, z2, z3)."""
    b0, b1, b2, b3 = b.z0, b.z1, b.z2, b.z3
    return np.array(
        [
            [b0, -b1, -b2, b3],
            [b1, b0, -b3, -b2],
            [b2, -b3, b0, -b1],
            [b3, b2, b1, b0],
        ]
    )


def _reference_modulus_derivative(z: Bicomplex) -> np.ndarray:
    """Derivative of conj(z)*z with respect to the components of z."""
    conj = np.diag([1.0, 1.0, -1.0, -1.0])
    return _reference_mult_matrix(z) @ conj + _reference_mult_matrix(z.conj())


def reference_residual_vector(view: RealSystemView, p: DimerParams,
                              x: np.ndarray) -> np.ndarray:
    """The Newton residual at p computed with Bicomplex values."""
    psi, mu = _as_seed(x)
    res = view.system.residual(psi, mu, p)
    norm = normalization_residual(*psi)
    scale = max(1.0, max(z.max_abs() for z in psi) ** 2)
    assert abs(norm.z2) <= 1e-10 * scale and abs(norm.z3) <= 1e-10 * scale
    zg = psi[view.gauge_site]
    pair = zg.to_idempotent()
    if min(abs(pair.plus), abs(pair.minus)) < GAUGE_EPS:
        raise GaugeDegenerate(f"gauge amplitude {view.gauge_site} too small")
    out = np.empty(12)
    for k, r in enumerate(res):
        out[4 * k : 4 * k + 4] = r.as_tuple()
    base = 8
    out[base] = norm.z0
    out[base + 1] = norm.z1
    out[base + 2] = zg.z2 - zg.z1
    out[base + 3] = 4.0 * (zg.z0 * zg.z3 - zg.z1 * zg.z2)
    return out


def reference_analytic_jacobian(view: RealSystemView, p: DimerParams,
                                x: np.ndarray) -> np.ndarray:
    """The dimer's analytic Jacobian at p assembled from Bicomplex 4x4
    blocks."""
    psi, mu = _as_seed(x)
    igamma = Bicomplex(0.0, 0.0, 1.0, 0.0) * p.gamma
    diag = (
        -(p.g * psi[0].modulus_squared()) - igamma + p.s - mu,
        -(p.g * psi[1].modulus_squared()) + igamma - p.s - mu,
    )
    nonlin = (-p.g * psi[0], -p.g * psi[1])
    base = 8
    jac = np.zeros((12, 12))
    mod_der = [_reference_modulus_derivative(z) for z in psi]
    for row in range(2):
        r0 = 4 * row
        for col in range(2):
            c0 = 4 * col
            if row == col:
                jac[r0 : r0 + 4, c0 : c0 + 4] = (
                    _reference_mult_matrix(diag[row])
                    + _reference_mult_matrix(nonlin[row]) @ mod_der[row]
                )
            else:
                jac[r0 : r0 + 4, c0 : c0 + 4] = p.v * np.eye(4)
        jac[r0 : r0 + 4, base : base + 4] = -_reference_mult_matrix(psi[row])
    for col in range(2):
        c0 = 4 * col
        jac[base : base + 2, c0 : c0 + 4] = mod_der[col][0:2, :]
    g0 = 4 * view.gauge_site
    zg = psi[view.gauge_site]
    jac[base + 2, g0 : g0 + 4] = [0.0, -1.0, 1.0, 0.0]
    jac[base + 3, g0 : g0 + 4] = [4.0 * zg.z3, -4.0 * zg.z2, -4.0 * zg.z1,
                                  4.0 * zg.z0]
    return jac


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


class TestKernelParity:
    """The packed kernel against the Bicomplex-object reference above."""

    @staticmethod
    def cases(n, seed):
        rng = np.random.default_rng(seed)
        for k in range(n):
            jpart = (lambda: rng.uniform(-0.3, 0.3)) if k % 2 else (lambda: 0.0)
            p = DimerParams(
                v=rng.uniform(0.5, 1.5),
                g=Bicomplex(rng.uniform(-2.5, 2.5), jpart()),
                gamma=Bicomplex(rng.uniform(0.0, 1.5), jpart()),
                s=Bicomplex(rng.uniform(-0.5, 0.5), jpart()),
            )
            site = (k // 2) % 2
            x = rng.uniform(-1, 1, 12)
            if k % 4 == 3:
                x[1::2] = 0.0  # complex-in-i amplitudes and mu
            x[4 * site] += 2.0
            yield RealSystemView(SYSTEM, p, gauge_site=site), p, x

    def test_residual_is_bit_identical(self):
        for view, p, x in self.cases(400, 5):
            got = view.residual_vector(x)
            ref = reference_residual_vector(view, p, x)
            assert np.array_equal(got, ref)
            assert np.array_equal(_bits(got), _bits(ref))

    def test_analytic_jacobian_matches_reference(self):
        for view, p, x in self.cases(400, 7):
            got = view.jacobian(x)
            ref = reference_analytic_jacobian(view, p, x)
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) / scale < 1e-13


class TestNewton:
    def test_linear_symmetric_pair(self):
        p = DimerParams(v=1.0, g=0.0, gamma=0.5)
        target = closed_form_mu(1.0, 0.5).real
        seed = (
            (Bicomplex(R2), Bicomplex.from_complex(R2 * cmath.exp(0.5j))),
            Bicomplex(0.8),
        )
        st = newton_solve(SYSTEM, p, seed, CFG)
        assert abs(st.mu.z0 - target) < 1e-10
        assert st.residual_norm < CFG.residual_tol
        assert st.is_complex_state and st.is_pt_symmetric

    @pytest.mark.parametrize("p", [
        DimerParams(v=1.0, g=-1.3, gamma=0.4, s=0.05),
        DimerParams(v=2.0, g=Bicomplex(0.9, 0.1), gamma=Bicomplex(0.7, -0.2)),
    ])
    def test_seed_forms_give_the_same_state(self, p):
        # a ((psi1, psi2), mu) pair and a StationaryState with its floats
        rows, _ = SYSTEM.packed_candidates(control_rows([p]))
        for (psi1, psi2), mu in map(_as_seed, rows.tolist()):
            pair = newton_solve(SYSTEM, p, ((psi1, psi2), mu), CFG)
            state = newton_solve(SYSTEM, p, StationaryState(
                psi1, psi2, mu, math.inf, False, False), CFG)
            assert _bits(solver._rows([state])).tolist() == (
                _bits(solver._rows([pair])).tolist())
            assert (pair.residual_norm.hex(), pair.is_complex_state,
                    pair.is_pt_symmetric) == (state.residual_norm.hex(),
                                              state.is_complex_state,
                                              state.is_pt_symmetric)

    @pytest.mark.parametrize("mode", ["finite-difference", "fd", "Analytic",
                                      " analytic", ""])
    def test_exact_jacobian_is_the_only_mode(self, mode):
        with pytest.raises(ValueError, match="unknown jacobian mode"):
            SolveConfig(jacobian=mode)

    def test_seed_must_be_finite(self):
        p = DimerParams(v=1.0)
        seed = ((Bicomplex(math.nan), Bicomplex(R2)), Bicomplex(0.0))
        with pytest.raises(NoConvergence):
            newton_solve(SYSTEM, p, seed, CFG)

    def test_result_reverifies_through_model(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.4)
        for st in find_all_states(SYSTEM, p, CFG):
            r1, r2 = residual(st.psi1, st.psi2, st.mu, p)
            assert max(r1.max_abs(), r2.max_abs()) < CFG.residual_tol

    def test_bicomplex_state_beyond_tangent(self):
        # continued partner with distinct idempotent components of mu
        g, gam = -1.0, 1.2
        p = DimerParams(v=1.0, g=g, gamma=gam)
        w = math.sqrt(gam * gam - 1.0)
        seed_mu = Bicomplex(-g / 2) - w * J
        seed_psi2 = (1 / math.sqrt(2)) * (Bicomplex(0, 0, gam, 0) - w * J)
        st = newton_solve(SYSTEM, p, ((Bicomplex(R2), seed_psi2), seed_mu), CFG)
        pair = st.mu.to_idempotent()
        assert abs(pair.plus - pair.minus) > 1e-4
        assert not st.is_complex_state
        # matches the closed-form continuation
        assert abs(st.mu.z0 - (-g / 2)) < 1e-10
        assert abs(abs(st.mu.z1) - w) < 1e-10


class TestFindAllStates:
    @pytest.mark.xfail(strict=True, reason="one state found twice, 1.13e-7 "
                       "apart, above the absolute DEDUP_TOL (ROADMAP "
                       "direction 4)")
    def test_no_duplicate_at_tiny_g(self):
        # two seeds reach the state with |psi| ~ 354 on either side of the
        # dedup tolerance, so it is listed twice among 5 states
        p = DimerParams(v=1.0, g=-1e-9, gamma=1e-6)
        assert len(find_all_states(SYSTEM, p, CFG)) <= 4

    @pytest.mark.xfail(strict=True, reason="a state is missed at small |g| "
                       "on the symmetry line: 3 states, not 4 (ROADMAP "
                       "direction 5)")
    @pytest.mark.parametrize("g", [-1e-5, -1e-6, 1e-7])
    def test_four_states_at_small_g(self, g):
        p = DimerParams(v=1.0, g=g)
        assert len(find_all_states(SYSTEM, p, CFG)) == 4

    def test_linear_below_tangent(self):
        p = DimerParams(v=1.0, g=0.0, gamma=0.5)
        states = find_all_states(SYSTEM, p, CFG)
        target = closed_form_mu(1.0, 0.5).real
        cx = [s for s in states if s.is_complex_state]
        assert len(cx) == 2
        assert sorted(abs(s.mu.z0) for s in cx) == pytest.approx(
            [target, target], abs=1e-10
        )
        # the continued picture carries the two k-offset partner states too
        bicx = [s for s in states if not s.is_complex_state]
        assert len(bicx) == 2
        for s in bicx:
            assert abs(abs(s.mu.z3) - target) < 1e-10
            assert abs(s.mu.z0) < 1e-10

    def test_linear_above_tangent(self):
        p = DimerParams(v=1.0, g=0.0, gamma=1.5)
        states = find_all_states(SYSTEM, p, CFG)
        cx = [s for s in states if s.is_complex_state]
        assert len(cx) == 2
        w = math.sqrt(1.5 ** 2 - 1.0)
        for s in cx:
            assert s.is_pt_symmetric is False
            assert abs(s.mu.z0) < 1e-10
            assert abs(abs(s.mu.z2) - w) < 1e-10

    def test_matches_linear_oracle_across_tangent(self):
        lin = LinearTwoMode()
        for gam in (0.25, 0.75, 1.25):
            p = DimerParams(v=1.0, g=0.0, gamma=gam)
            states = find_all_states(SYSTEM, p, CFG)
            oracle = lin.eigenpairs(p)
            assert len(states) == len(oracle) == 4
            for psi1, psi2, mu in oracle:
                best = min(
                    (max((mu - s.mu).max_abs(), 0.0) for s in states)
                )
                assert best < 1e-9

    def test_nonlinear_count_at_gamma_zero(self):
        # two equal-population states mu = -g/2 +- v plus the continued
        # self-trapped pair: four states in the continued picture
        p = DimerParams(v=1.0, g=-1.0, gamma=0.0)
        states = find_all_states(SYSTEM, p, CFG)
        assert len(states) == 4
        cx = sorted(s.mu.z0 for s in states if s.is_complex_state)
        assert cx == pytest.approx([-0.5, 1.5], abs=1e-10)

    def test_nonlinear_count_small_gamma(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.1)
        states = find_all_states(SYSTEM, p, CFG)
        assert len(states) == 4
        assert sum(1 for s in states if s.is_complex_state) == 2
        assert sum(1 for s in states if not s.is_complex_state) == 2

    def test_gauge_invariance_of_dedup(self):
        # the same physical state reached through different seeds and gauges
        # collapses to one list entry
        p = DimerParams(v=1.0, g=-1.0, gamma=0.3)
        base = find_all_states(SYSTEM, p, CFG)
        seeds = []
        for st in base:
            for phase in (0.3, 1.2):
                c = cmath.exp(1j * phase) * 1.1
                pair1 = st.psi1.to_idempotent()
                pair2 = st.psi2.to_idempotent()
                um = 1.0 / c.conjugate()
                psi1 = Bicomplex.from_idempotent(pair1.plus * c, pair1.minus * um)
                psi2 = Bicomplex.from_idempotent(pair2.plus * c, pair2.minus * um)
                seeds.append(((psi1, psi2), st.mu))
        states = [newton_solve(SYSTEM, p, s, CFG) for s in seeds] + base
        rows = solver._rows(states)
        kept = solver._dedup(rows, [st.residual_norm for st in states],
                             DEDUP_TOL)
        assert len(solver._ordered(rows.tolist(), kept)) == len(base)

    def test_sorted_by_re_mu(self):
        # by mu, psi1 and psi2 rounded to 9 decimals: roundoff in a
        # vanishing component does not decide the order
        p = DimerParams(v=1.0, g=-1.0, gamma=0.4)
        states = find_all_states(SYSTEM, p, CFG)
        keys = [tuple(round(c, 9) for z in (s.mu, s.psi1, s.psi2)
                      for c in z.as_tuple()) for s in states]
        assert keys == sorted(keys)


def mu_pair(state: StationaryState) -> tuple[complex, complex]:
    """(mu+, conj(mu-)) of a state's nonlinear eigenvalue."""
    pair = state.mu.to_idempotent()
    return pair.plus, pair.minus.conjugate()


def closed_form_pairs(v: float, g: float, gamma: float):
    """(mu+, conj(mu-)) of the four states at s = 0.

    The symmetric pair has mu+ = conj(mu-) = -g/2 +- sqrt(v^2 - gamma^2);
    the broken pair has (-g + i*sigma*gamma*w, -g - i*sigma*gamma*w) with
    w = sqrt(1 - 4v^2/(g^2 + 4gamma^2)) and sigma = +-1.
    """
    root = cmath.sqrt(v * v - gamma * gamma)
    w = cmath.sqrt(1 - 4 * v * v / (g * g + 4 * gamma * gamma))
    out = [(-g / 2 + sign * root,) * 2 for sign in (1, -1)]
    out += [(-g + 1j * sign * gamma * w, -g - 1j * sign * gamma * w)
            for sign in (1, -1)]
    return out


class TestExceptionalPoints:
    """Defined behaviour where states coalesce: at most four states, all
    converged, and every closed-form mu cluster present."""

    POINTS = [
        # (g, gamma, closed-form mu values)
        (-1.0, SQRT3_2, (0.0, 1.0)),  # pitchfork EP3
        (1.0, SQRT3_2, (0.0, -1.0)),
        (2.0, 0.0, (0.0, -2.0)),  # merger: P = (2a - 1)^4
        (-2.0, 0.0, (0.0, 2.0)),
        (0.0, 1.0, (0.0,)),  # linear tangent: all four states coalesce
    ]

    @pytest.mark.parametrize("g,gamma,clusters", POINTS)
    def test_states_at_exceptional_point(self, g, gamma, clusters):
        p = DimerParams(v=1.0, g=g, gamma=gamma)
        states = find_all_states(SYSTEM, p, CFG)
        assert 1 <= len(states) <= 4
        for st in states:
            assert st.residual_norm < CFG.residual_tol
        for mu in clusters:
            assert min((st.mu - mu).max_abs() for st in states) < 1e-3

    @pytest.mark.parametrize("g", [-0.01, -5e-3, -1e-3, -5e-4,
                                   5e-4, 1e-3, 5e-3, 0.01])
    def test_pitchfork_next_to_the_linear_ep(self, g):
        # on the exact pitchfork Q has a triple root; the nearer its fourth
        # root (|g| -> 0), the wider rounding splits it, and the unmerged
        # triple gives 4 or 5 states where the EP3 and its partner are 2
        p = DimerParams(v=1.0, g=g, gamma=math.sqrt(1.0 - g * g / 4.0))
        states = find_all_states(SYSTEM, p, CFG)
        assert len(states) <= 4
        if abs(g) >= 1e-3:
            assert len(states) == 2


class TestClosedFormOracle:
    """find_all_states against the s = 0 closed forms, independent of the
    quartic the solver is seeded from."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(g=st_.floats(-2.5, 2.5), gamma=st_.floats(0.01, 1.5))
    @example(g=1e-9, gamma=1.5)  # the back-solve from Q divides by g
    def test_four_states_match_closed_form(self, g, gamma):
        v = 1.0
        assume(abs(gamma - v) > 0.02)
        assume(abs(g * g + 4 * gamma * gamma - 4 * v * v) > 0.02)
        p = DimerParams(v=v, g=g, gamma=gamma)
        states = find_all_states(SYSTEM, p, CFG)
        assert len(states) == 4
        expected = closed_form_pairs(v, g, gamma)
        matched = set()
        for st in states:
            got = mu_pair(st)
            dist = [max(abs(got[0] - e[0]), abs(got[1] - e[1]))
                    for e in expected]
            k = int(np.argmin(dist))
            assert dist[k] < 1e-9
            matched.add(k)
        assert len(matched) == 4
        # PT reflection maps the set onto itself
        for st in states:
            psi1, psi2, mu = pt_reflected(st.psi1, st.psi2, st.mu)
            (r1, r2), rmu = canonical_gauge((psi1, psi2), mu)
            image = StationaryState(r1, r2, rmu, st.residual_norm,
                                    st.is_complex_state, st.is_pt_symmetric)
            assert min(state_distance(image, other) for other in states) < 1e-9


# (g, gamma, s) where states coalesce
NEAR_EP_CENTRES = {
    "ep3": (-1.0, SQRT3_2, 0.0),
    "merger": (-2.0, 0.0, 0.0),
    "tangent-g-1": (-1.0, 1.0, 0.0),
    "tangent-g1.5": (1.5, 1.0, 0.0),
    "tangent-g0.1": (0.1, 1.0, 0.0),
    "linear-ep": (0.0, 1.0, 0.0),
}
NEAR_EP_DELTAS = [sign * 10.0 ** -k for k in range(2, 15) for sign in (1, -1)]


class TestNearExceptionalPoints:
    """Small offsets from a coalescence along one control: never more than
    four converged states, and all four once the offset is 1e-3 or more,
    except on the tangent line gamma = v, where two of them coincide."""

    @pytest.mark.parametrize("axis", ["g", "gamma", "s"])
    @pytest.mark.parametrize("centre", NEAR_EP_CENTRES.values(),
                             ids=NEAR_EP_CENTRES.keys())
    def test_state_count(self, centre, axis):
        wrong = []
        for delta in NEAR_EP_DELTAS:
            point = dict(zip(("g", "gamma", "s"), centre))
            point[axis] += delta
            states = find_all_states(SYSTEM, DimerParams(v=1.0, **point), CFG)
            assert all(st.residual_norm < CFG.residual_tol for st in states)
            exact = abs(delta) >= 1e-3 and point["gamma"] != 1.0
            if len(states) > 4 or (exact and len(states) != 4):
                wrong.append((delta, len(states)))
        assert not wrong


def q_root_count(g, gamma, s=0.0):
    """The number of distinct roots of Q at real controls (v = 1), from
    the quartic of DimerSystem's docstring in 50-digit arithmetic: at
    g != 0 each root is one state."""
    with mpmath.workdps(50):
        g, gamma, s = (mpmath.mpf(c) for c in (g, gamma, s))
        i, gg, g2 = mpmath.mpc(0, 1), gamma * gamma, g * g
        roots = mpmath.polyroots([
            2 * gamma - i * g,
            -8 * i * gg - 2 * gamma * g + 8 * gamma * s - i * g2
            - 2 * i * g * s,
            (-8 * gg * gamma - 16 * i * gg * s - 2 * gamma * g2
             + 8 * gamma * s * s - 4 * gamma),
            8 * i * gg - 2 * gamma * g - 8 * gamma * s + i * g2
            - 2 * i * g * s,
            2 * gamma + i * g,
        ], maxsteps=200, extraprec=200)
        return sum(all(abs(r - q) > mpmath.mpf(10) ** -30 for q in roots[:k])
                   for k, r in enumerate(roots))


def _pitchfork_offsets():
    """Points at offsets 1e-7 ... 1e-2 on both sides of the pitchfork line
    gamma_P = sqrt(v^2 - g^2/4), for g from -2 to -1.9 and at g = 2, where
    it meets the merger; at |g| = 2 and |gamma| <= 1e-5 the true states lie
    within the error of float roots of a near-triple cluster."""
    for g in [*np.linspace(-2.0, -1.9, 8).tolist(), 2.0]:
        gamma_p = math.sqrt(max(1.0 - g * g / 4, 0.0))
        for offset in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2):
            for gamma in (gamma_p - offset, gamma_p + offset):
                marks = (pytest.mark.xfail(
                    strict=True, reason="float roots of Q too coarse to "
                    "separate the cluster (ROADMAP direction 5)")
                    if abs(g) == 2.0 and abs(gamma) <= 1e-5 else ())
                yield pytest.param(g, gamma, marks=marks)


class TestRootGroupsNearTheMerger:
    """As many states as Q has distinct roots next to the pitchfork line:
    a group of roots merges only when no other root lies near its centre,
    so a third root between two does not swallow them."""

    @pytest.mark.parametrize("g, gamma", _pitchfork_offsets())
    def test_one_state_per_root(self, g, gamma):
        p = DimerParams(v=1.0, g=g, gamma=gamma)
        assert len(find_all_states(SYSTEM, p, CFG)) == q_root_count(g, gamma)


def oracle_invariants(state: StationaryState):
    """The oracle's row (psi2, phi1, phi2, mu, nu) in its gauge psi1+ = 1,
    from a state in any gauge."""
    q1, q2, qm = (z.to_idempotent() for z in (state.psi1, state.psi2, state.mu))
    return np.array([q2.plus / q1.plus, q1.minus.conjugate() * q1.plus,
                     q2.minus.conjugate() * q1.plus, qm.plus,
                     qm.minus.conjugate()])


def roundoff_floor(state: StationaryState) -> float:
    """4 eps times max(1, largest amplitude component)^2: the residual
    below which a Newton step changes nothing."""
    x = solver._rows([state])[0]
    return 4.0 * float(np.finfo(float).eps) * max(1.0, np.max(np.abs(x[:8])) ** 2)


class TestQuarticOracle:
    """find_all_states against the benchmark oracle, which seeds from P(a)
    and polishes on its own holomorphic system, over a box with s != 0.
    Every state also ends at the roundoff floor."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(g=st_.floats(-2.5, 2.5).filter(lambda g: abs(g) >= 1e-3),
           gamma=st_.floats(0.0, 1.5), s=st_.floats(-0.3, 0.3))
    def test_states_match_oracle(self, g, gamma, s):
        try:
            rows = ORACLE.states(1.0, g, gamma, s)
        except ORACLE.OracleError:
            assume(False)
        pairs = rows[:, 3:]
        assume(min(np.max(np.abs(a - b))
                   for k, a in enumerate(pairs) for b in pairs[k + 1:]) >= 0.05)
        p = DimerParams(v=1.0, g=g, gamma=gamma, s=s)
        states = find_all_states(SYSTEM, p, CFG)
        assert len(states) == 4
        matched = set()
        for st in states:
            assert st.residual_norm <= roundoff_floor(st)
            dist = np.max(np.abs(rows - oracle_invariants(st)), axis=1)
            k = int(np.argmin(dist))
            assert dist[k] < 1e-8
            matched.add(k)
        assert len(matched) == 4


def _reference_polish(lanes, idx, x, f, fnorm):
    """The polish as its own loop, before it ran through ``_newton``."""
    x, f, fnorm = x.copy(), f.copy(), fnorm.copy()
    floor = solver._POLISH_FLOOR * lanes.scale(x)
    active = np.flatnonzero(~(fnorm <= floor))
    for _ in range(solver._POLISH_ITERS):
        if not len(active):
            break
        step, _ = solver._solve(lanes.jacobians(idx[active], x[active]),
                                -f[active])
        finite = np.isfinite(step).all(1)
        active, step = active[finite], step[finite]
        trial = x[active] + step
        f_new, bad = lanes.residuals(idx[active], trial)
        fn_new = np.abs(f_new).max(1)
        fn_new[bad] = math.inf
        down = fn_new < fnorm[active]
        active = active[down]
        x[active], f[active], fnorm[active] = (trial[down], f_new[down],
                                               fn_new[down])
        active = active[~(fnorm[active] <= floor[active])]
    return x, fnorm


def _newton_lanes(system, points, cfg):
    """The lanes of one batched pass after Newton and the retry on gauge
    site 1, as ``_find_block`` takes them to the polish: the lanes, and
    the positions, rows, residual rows and residuals of the converged
    ones."""
    controls = control_rows(points)
    seeds, owner = system.packed_candidates(controls)
    lanes = solver._Lanes(system, controls, owner)
    idx = np.arange(len(seeds))
    x, f, fnorm, errors = solver._newton(lanes, idx, seeds, cfg.residual_tol)
    retry = np.array([k for k, exc in errors.items()
                      if isinstance(exc, GaugeDegenerate)], dtype=int)
    if len(retry):
        lanes.site[retry] = 1
        x[retry], f[retry], fnorm[retry], again = solver._newton(
            lanes, retry, seeds[retry], cfg.residual_tol)
        for k in retry.tolist():
            del errors[k]
        errors.update({int(retry[k]): exc for k, exc in again.items()})
    ok = np.array([k for k in idx.tolist() if k not in errors], dtype=int)
    return lanes, ok, x[ok], f[ok], fnorm[ok]


class TestPolish:
    """find_all_states polishes each seed to the roundoff floor and stops
    there (that states reach it: TestQuarticOracle)."""

    # the gamma grid of `bcdimer bifurcations` (0.05:1.4:0.01)
    GRID = [0.05 + 0.01 * k for k in range(136)]

    def test_at_most_one_jacobian_per_seed(self, monkeypatch):
        counts = {"jacobians": 0, "seeds": 0}
        jacobians = solver._Lanes.jacobians
        candidates = DimerSystem.packed_candidates

        def counting_jacobians(lanes, idx, *args):
            counts["jacobians"] += len(idx)
            return jacobians(lanes, idx, *args)

        def counting_candidates(system, points):
            seeds, owner = candidates(system, points)
            counts["seeds"] += len(seeds)
            return seeds, owner

        monkeypatch.setattr(solver._Lanes, "jacobians", counting_jacobians)
        monkeypatch.setattr(DimerSystem, "packed_candidates",
                            counting_candidates)
        # at g = 0 the seeds are the linear model's eigenpairs, which must
        # come in the solver's phase gauge; point by point the lanes run on
        # floats, along the grid on arrays
        for g in (-0.8, 0.0):
            points = [DimerParams(v=1.0, g=g, gamma=gamma)
                      for gamma in self.GRID]
            for solve in (lambda: [find_all_states(SYSTEM, p, CFG)
                                   for p in points],
                          lambda: find_states_along(SYSTEM, points, CFG)):
                counts.update(jacobians=0, seeds=0)
                solve()
                assert counts["seeds"] == 4 * len(self.GRID)
                assert counts["jacobians"] <= counts["seeds"]

    def test_seed_at_the_floor_takes_no_step(self, monkeypatch):
        p = DimerParams(v=1.0, g=-0.8, gamma=0.5)
        view = RealSystemView(SYSTEM, p)
        states = find_all_states(SYSTEM, p, CFG)
        seeds = [((st.psi1, st.psi2), st.mu) for st in states]
        for (psi, mu), st in zip(seeds, states):
            x = solver._rows([(psi, mu)])[0]
            assert np.max(np.abs(view.residual_vector(x))) <= (
                roundoff_floor(st))

        def no_jacobian(*_args):
            raise AssertionError("a Newton step from a seed at the floor")

        packed = solver._rows(seeds)
        monkeypatch.setattr(solver._Lanes, "jacobians", no_jacobian)
        monkeypatch.setattr(
            DimerSystem, "packed_candidates",
            lambda _system, points: (np.tile(packed, (len(points), 1)),
                                     np.repeat(np.arange(len(points)),
                                               len(packed))))
        again = find_all_states(SYSTEM, p, CFG)
        assert [st.mu for st in again] == [st.mu for st in states]
        # and on numpy lanes
        along = find_states_along(SYSTEM, [p] * 8, CFG)
        assert all([st.mu for st in row] == [st.mu for st in states]
                   for row in along)

    # the polish is the Newton loop with the floor as tolerance, 8
    # iterations and no halving: it takes the old loop's steps, to the bit

    @staticmethod
    def same_as_the_old_loop(lanes, idx, x, f, fnorm):
        want_x, want_norm = _reference_polish(lanes, idx, x, f, fnorm)
        got_x, got_norm = solver._polish(lanes, idx, x, f)
        assert np.array_equal(_bits(got_x), _bits(want_x))
        assert np.array_equal(_bits(got_norm), _bits(want_norm))
        return got_x, got_norm

    @pytest.mark.parametrize("noise", [1e-2, 0.3])
    @pytest.mark.parametrize("n_points", [2, 4, 8])
    def test_perturbed_lanes_match_the_old_loop(self, n_points, noise):
        # 8, 16 and 32 lanes, below, at and above _CROSSOVER, from Newton's
        # rows and from the perturbed seeds themselves, where at the larger
        # noise steps fail to descend and lanes run out of iterations
        rng = np.random.default_rng(43)
        points = [DimerParams(v=rng.uniform(0.5, 2.0),
                              g=Bicomplex(rng.uniform(-2.5, 2.5), j),
                              gamma=Bicomplex(rng.uniform(0.0, 1.5), -j),
                              s=Bicomplex(rng.uniform(-0.3, 0.3), j))
                  for j in (0.0, 0.2, 0.0, -0.1, 0.0, 0.0, 0.1, 0.0)[:n_points]]
        seeds, owner = SYSTEM.packed_candidates(control_rows(points))
        seeds = seeds + rng.normal(0.0, noise, seeds.shape)
        idx = np.arange(len(seeds))
        lanes = solver._Lanes(SYSTEM, control_rows(points), owner)
        x, f, fnorm, errors = solver._newton(lanes, idx, seeds,
                                             CFG.residual_tol)
        ok = np.array([k for k in idx.tolist() if k not in errors], dtype=int)
        self.same_as_the_old_loop(lanes, ok, x[ok], f[ok], fnorm[ok])
        f, bad = lanes.residuals(idx, seeds)
        ok = np.setdiff1d(idx, bad)
        _, pnorm = self.same_as_the_old_loop(lanes, ok, seeds[ok], f[ok],
                                             np.abs(f[ok]).max(1))
        floor = solver._POLISH_FLOOR * lanes.scale(seeds[ok])
        if noise > 0.1:  # lanes that stopped above the floor
            assert (pnorm > floor).any()

    def test_exceptional_points_match_the_old_loop(self):
        points = [DimerParams(v=1.0, g=g, gamma=gamma)
                  for g, gamma in TestBlockDedup.EPS]
        self.same_as_the_old_loop(*_newton_lanes(SYSTEM, points, CFG))
        for p in points:  # one point at a time, on Python floats
            self.same_as_the_old_loop(*_newton_lanes(SYSTEM, [p], CFG))

    def test_residual_on_its_floor_and_a_float_above(self, monkeypatch):
        # the floor is a power of two times the scale, so a scale can put
        # it exactly on a lane's residual (lane 0), or a float below it
        # (lane 1); lanes 2 and 3 keep their own scale.  Below _CROSSOVER
        # lanes only the polish asks for _Lanes.scale
        assert solver._POLISH_FLOOR == 2.0 ** -50
        p = DimerParams(v=1.0, g=-0.8, gamma=0.5)
        lanes, ok, x, f, fnorm = _newton_lanes(SYSTEM, [p], CFG)
        assert len(ok) == 4 < solver._CROSSOVER
        scale = solver._Lanes.scale(lanes, x)
        scale[0] = fnorm[0] / solver._POLISH_FLOOR
        scale[1] = np.nextafter(fnorm[1], 0.0) / solver._POLISH_FLOOR
        assert solver._POLISH_FLOOR * scale[0] == fnorm[0]
        assert np.nextafter(solver._POLISH_FLOOR * scale[1], 1.0) == fnorm[1]
        monkeypatch.setattr(solver._Lanes, "scale", lambda _lanes, _x: scale)
        px, pnorm = self.same_as_the_old_loop(lanes, ok, x, f, fnorm)
        assert np.array_equal(_bits(px[0]), _bits(x[0]))
        assert pnorm[0] == fnorm[0] and pnorm[1] < fnorm[1]


class _DegenerateSite0(DimerSystem):
    """The dimer with psi1 of every seed set to zero, so that every lane
    is degenerate on gauge site 0 and is retried on site 1."""

    def packed_candidates(self, points):
        rows, owner = super().packed_candidates(points)
        rows = rows.copy()
        rows[:, 0:4] = 0.0
        return rows, owner


class TestFindStatesAlong:
    """The batched pass over many points against find_all_states point by
    point, whose few lanes run on floats."""

    @staticmethod
    def same(along, each):
        assert [len(states) for states in along] == [len(s) for s in each]
        for states, others in zip(along, each):
            for a, b in zip(states, others):
                assert state_distance(a, b) <= 1e-12
                assert (a.is_complex_state, a.is_pt_symmetric) == (
                    b.is_complex_state, b.is_pt_symmetric)

    def test_random_points_with_continued_controls(self):
        rng = np.random.default_rng(23)
        points = []
        for k in range(40):
            jpart = rng.uniform(-0.3, 0.3, 3) * (k % 2)
            points.append(DimerParams(
                v=rng.uniform(0.5, 2.0),
                g=Bicomplex(rng.uniform(-2.5, 2.5), jpart[0]),
                gamma=Bicomplex(rng.uniform(0.0, 1.5), jpart[1]),
                s=Bicomplex(rng.uniform(-0.3, 0.3), jpart[2])))
        self.same(find_states_along(SYSTEM, points, CFG),
                  [find_all_states(SYSTEM, p, CFG) for p in points])

    def test_degenerate_lanes_retry_on_site_1(self):
        system = _DegenerateSite0()
        points = [DimerParams(v=1.0, g=-0.85, gamma=0.05 + 0.05 * k)
                  for k in range(20)]
        along = find_states_along(system, points, CFG)
        self.same(along, [find_all_states(system, p, CFG) for p in points])
        assert sum(map(len, along)) >= 40
        with pytest.raises(GaugeDegenerate):
            newton_solve(system, points[0],
                         _seed_of(system.packed_candidates(
                             control_rows(points[:1]))[0][0]),
                         CFG)

    def test_no_points(self):
        assert find_states_along(SYSTEM, [], CFG) == []


def _reference_find_block(system, points, cfg):
    """The batched pass as it was before the block-level dedup: states made
    for every solved lane, then deduplicated and sorted point by point by
    the old ``dedup_states``, which rounds all 12 floats of every state."""

    def sort_key(row):
        return tuple(round(c, 9) for c in row[8:12] + row[0:8])

    def dedup(states, tol, rows):
        far = (np.abs(rows[:, None, :] - rows).max(-1) > tol).tolist()
        kept = []
        for k in sorted(range(len(states)),
                        key=lambda k: states[k].residual_norm):
            if all(far[k][j] for j in kept):
                kept.append(k)
        listed = rows.tolist()
        kept.sort(key=lambda k: sort_key(listed[k]))
        return [states[k] for k in kept]

    lanes, ok, x, f, fnorm = _newton_lanes(system, points, cfg)
    x, fnorm = solver._polish(lanes, ok, x, f)
    solved = solver._solved(x, fnorm)
    states, rows = solver._states(solved.tolist()), solved[:, :12]
    first = np.searchsorted(lanes.owner[ok], np.arange(len(points) + 1))
    return [dedup(states[lo:hi], DEDUP_TOL, rows[lo:hi])
            for lo, hi in zip(first.tolist(), first[1:].tolist())]


class TestBlockDedup:
    """Dedup and order on the block's arrays give, point by point, the
    states, order, residuals and flags of the old per-point dedup_states."""

    GAMMAS = [0.05 + k * 0.01 for k in range(136)]  # `bifurcations`' grid
    # exceptional points on and off the grid: the tangent, pitchforks that
    # fall on a grid point, the EP3s, the merger and the linear EP, and the
    # point where one state is found twice (the strict xfail above)
    EPS = [(g, gamma) for g, gamma, _ in TestExceptionalPoints.POINTS] + [
        (-0.85, 1.0), (1.2, 0.8), (-1.2, 0.8), (1.6, 0.6000000000000001),
        (5e-4, 1.0), (-1e-9, 1e-6)]

    @staticmethod
    def same(got, want):
        assert [len(states) for states in got] == [len(s) for s in want]
        for states, others in zip(got, want):
            assert np.array_equal(_bits(solver._rows(states)),
                                  _bits(solver._rows(others)))
            assert [(st.residual_norm, st.is_complex_state, st.is_pt_symmetric)
                    for st in states] == [
                (st.residual_norm, st.is_complex_state, st.is_pt_symmetric)
                for st in others]

    def test_every_point_deduplicates_at_g_5e_4(self):
        points = [DimerParams(v=1.0, g=5e-4, gamma=gamma)
                  for gamma in self.GAMMAS]
        got = find_states_along(SYSTEM, points, CFG)
        self.same(got, _reference_find_block(SYSTEM, points, CFG))
        _, owner = SYSTEM.packed_candidates(control_rows(points))
        seeds = np.bincount(owner, minlength=len(points))
        assert all(len(states) < n for states, n in zip(got, seeds))

    @pytest.mark.parametrize("offset", [1.05e-7, 1.2e-7, 1.5e-7, 1.7e-7])
    def test_duplicates_near_the_tolerance(self, monkeypatch, offset):
        # lane k's mu.z0 (which the gauge leaves as it is) moved by
        # offset * (k % 8) / 7, so the two seeds of a state at g = 5e-4 end
        # up from 0.15 to 1.7 times 1e-7 apart, on both sides of DEDUP_TOL
        polish = solver._polish

        def nudged(lanes, idx, x, f):
            x, fnorm = polish(lanes, idx, x, f)
            x[:, 8] += offset * (np.arange(len(x)) % 8) / 7
            return x, fnorm

        monkeypatch.setattr(solver, "_polish", nudged)
        points = [DimerParams(v=1.0, g=5e-4, gamma=gamma)
                  for gamma in self.GAMMAS[::3]]
        self.same(find_states_along(SYSTEM, points, CFG),
                  _reference_find_block(SYSTEM, points, CFG))

    def test_exceptional_points(self):
        points = [DimerParams(v=1.0, g=g, gamma=gamma) for g, gamma in self.EPS]
        want = _reference_find_block(SYSTEM, points, CFG)
        self.same(find_states_along(SYSTEM, points, CFG), want)
        # one point at a time, on Python floats
        self.same([find_all_states(SYSTEM, p, CFG) for p in points],
                  [_reference_find_block(SYSTEM, [p], CFG)[0]
                   for p in points])
        assert len(want[-1]) == 5  # the strict xfail's duplicate stays

    def test_grid_without_duplicates(self):
        # from gamma = 0, where the mirror pair shares mu
        points = [DimerParams(v=1.0, g=-0.85, gamma=0.01 * k)
                  for k in range(141)]
        self.same(find_states_along(SYSTEM, points, CFG),
                  _reference_find_block(SYSTEM, points, CFG))

    def test_mirror_pair_is_ordered_by_the_full_key(self):
        p = DimerParams(v=1.0, g=-0.85, gamma=0.0)
        rows = solver._rows(find_all_states(SYSTEM, p, CFG)).tolist()
        mu_keys = [tuple(round(c, 9) for c in row[8:12]) for row in rows]
        assert len(set(mu_keys)) < len(mu_keys)
        for kept in itertools.permutations(range(len(rows))):
            assert solver._ordered(rows, list(kept)) == sorted(
                kept, key=lambda k: solver._sort_key(rows[k]))
        assert solver._ordered(rows, list(range(len(rows)))) == list(
            range(len(rows)))


def _nudged_ulps(x: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# a point's rows share a base for each mu component and add offsets to it,
# so that their components tie exactly, differ by 1e-9 +- a few ulp, by 2e-9,
# by half a rounding unit or less, by roundoff, or only by -0.0 against 0.0;
# the bases lie on a boundary of round(c, 9) and off one
_BASES = st_.lists(st_.sampled_from([0.0, -0.0, 1.0, -0.5, 0.1234567885,
                                     1.5e-9, -2.5e-9]),
                   min_size=4, max_size=4)
_OFFSET = st_.sampled_from([0.0] * 6 + [-0.0, 1e-9, -1e-9, 2e-9, 5e-10,
                                        1e-10, -3e-10, 1e-17, 0.25])
_ULPS = st_.sampled_from([0] * 4 + [-1, 1, -3, 3])
# psi components from a few values, so that whole rows repeat
_PSI = st_.sampled_from([0.0, -0.0, 0.5, -0.25])
_ROW = st_.tuples(st_.lists(_PSI, min_size=8, max_size=8),
                  st_.lists(st_.tuples(_OFFSET, _ULPS), min_size=4,
                            max_size=4),
                  st_.one_of(*[st_.none()] * 4, st_.tuples(
                      st_.integers(0, 11),
                      st_.sampled_from([math.nan, math.inf, -math.inf]))))
_POINT = st_.tuples(_BASES, st_.lists(_ROW, max_size=6))


def _block_rows(point) -> list[list[float]]:
    """The 15 values of each row of a drawn point; a drawn non-finite
    value replaces one of the 12 floats."""
    bases, rows = point
    out = []
    for psi, mu, bad in rows:
        row = [*psi, *(_nudged_ulps(base + offset, ulps)
                       for base, (offset, ulps) in zip(bases, mu)),
               1e-16, 1.0, 0.0]
        if bad is not None:
            row[bad[0]] = bad[1]
        out.append(row)
    return out


def _mu_row(psi0: float, *mu: float) -> list[float]:
    return [psi0, *[0.5] * 7, *mu, 1e-16, 1.0, 0.0]


def _mu_row(psi0: float, *mu: float) -> list[float]:
    return [psi0, *[0.5] * 7, *mu, 1e-16, 1.0, 0.0]


class TestBlockOrder:
    """One lexsort on (point, mu) sorts a block's rows, point by point, as
    _ordered sorts the rows that _dedup keeps, where it needs them."""

    # the second point of each holds the trap; round(c, 9) puts both
    # first components of the first trap in one bin, 1e-9 - 3 ulp apart
    @example(points=[[_mu_row(0.5, 1.0, 0, 0, 0)],
                     [_mu_row(0.5, 1.5000000000000002e-09, 1.0, 0, 0),
                      _mu_row(0.5, 2.4999999999999996e-09, 0.5, 0, 0)]],
             repeats=[])
    @example(points=[[], [_mu_row(0.5, 1.0, 0, 0, 0),
                          _mu_row(-0.25, 1.0, 0, 0, 0)]], repeats=[])
    @example(points=[[], [_mu_row(0.5, math.nan, 0, 0, 0),
                          _mu_row(0.5, 1.0, 0, 0, 0)]], repeats=[])
    @example(points=[[], [_mu_row(0.5, 0.0, 1.0, 0, 0),
                          _mu_row(0.5, -0.0, 0.5, 0, 0)]], repeats=[])
    @example(points=[[], [_mu_row(0.5, 1.0, 0, 0, 0),
                          _mu_row(0.5, 1.0 + 5e-8, 0, 0, 0),
                          _mu_row(0.5, 2.0, 0, 0, 0)]], repeats=[])
    # one bin, off its edges: the next component decides
    @example(points=[[], [_mu_row(0.5, 1.0 + 1e-10, 0.5, 0, 0),
                          _mu_row(0.5, 1.0, 1.0, 1e-17, 0)]], repeats=[])
    @settings(max_examples=150, deadline=None)
    @given(points=st_.lists(_POINT.map(_block_rows), min_size=1,
                            max_size=6),
           repeats=st_.lists(st_.tuples(st_.integers(0, 40),
                                        st_.integers(0, 40)), max_size=4))
    def test_block_order_is_ordered_at_every_point(self, points, repeats):
        for a, b in repeats:  # duplicate rows within a point
            at = points[a % len(points)]
            if at:
                at.insert(b % (len(at) + 1), list(at[b % len(at)]))
        rows = np.array([r for p in points for r in p]).reshape(-1, 15)
        first = np.cumsum([0, *map(len, points)]).tolist()
        with np.errstate(invalid="ignore"):  # inf - inf in the dedup
            order, counts = solver._block_order(rows, first)
        lists, at = rows.tolist(), 0
        for k, (lo, hi) in enumerate(zip(first, first[1:])):
            # the dedup's rows where two rows lie within DEDUP_TOL (or at
            # a nan distance), else every row
            with np.errstate(invalid="ignore"):
                far = solver._distances(rows[lo:hi, :12], rows[lo:hi, :12])
                kept = range(hi - lo)
                if not (far[~np.eye(hi - lo, dtype=bool)] > DEDUP_TOL).all():
                    kept = solver._dedup(rows[lo:hi, :12],
                                         rows[lo:hi, 12].tolist(), DEDUP_TOL)
            want = solver._ordered(lists, [lo + j for j in kept])
            assert order[at:at + counts[k]].tolist() == want
            at += counts[k]
        assert at == len(order)

    def test_one_point_keeps_the_python_path(self, monkeypatch):
        rows = np.array([_mu_row(0.5, 1.0, 0, 0, 0),
                         _mu_row(0.5, -1.0, 0, 0, 0)])
        monkeypatch.setattr(np, "lexsort", None)
        order, counts = solver._block_order(rows, [0, 2])
        assert order.tolist() == [1, 0] and counts == [2]


class TestCandidateSolves:
    """The loop pass yields, block by block, the states that
    :func:`newton_solve` reaches from each seed, in seed order, with their
    rows, and nothing for a seed from which it raises; the block's offsets
    split them point by point."""

    @staticmethod
    def each_seed(system, p):
        seeds, _ = system.packed_candidates(control_rows([p]))
        out = []
        for row in seeds:
            try:
                out.append(newton_solve(system, p, _seed_of(row), CFG))
            except (NoConvergence, GaugeDegenerate):
                pass
        return out

    @pytest.mark.parametrize("case", ["generic", "exceptional",
                                      "degenerate", "across blocks"])
    def test_states_are_newton_solve_per_seed(self, case, monkeypatch):
        system = SYSTEM
        if case == "generic":
            points = [DimerParams(v=1.0, g=-0.8, gamma=0.05 + 0.07 * k)
                      for k in range(20)]
        elif case == "exceptional":
            points = [DimerParams(v=1.0, g=g, gamma=gamma)
                      for g, gamma, _ in TestExceptionalPoints.POINTS]
        elif case == "degenerate":
            system = _DegenerateSite0()
            points = [DimerParams(v=1.0, g=-0.85, gamma=0.1 * k)
                      for k in range(1, 6)]
        else:
            monkeypatch.setattr(solver, "_BLOCK", 3)
            points = [DimerParams(v=1.0, g=0.6, gamma=0.2 * k, s=0.05)
                      for k in range(8)]
        got = [(solver._states(solved[lo:hi].tolist()), solved[lo:hi, :12])
               for solved, first in solver._candidate_solves(
                   system, control_rows(points), CFG)
               for lo, hi in zip(first.tolist(), first[1:].tolist())]
        assert len(got) == len(points)
        for p, (states, rows) in zip(points, got):
            want = self.each_seed(system, p)
            assert len(states) == len(rows) == len(want)
            assert np.isfinite(rows).all()
            assert np.array_equal(_bits(rows), _bits(solver._rows(states)))
            assert np.array_equal(_bits(solver._rows(states)),
                                  _bits(solver._rows(want)))
            assert [st.residual_norm for st in states] == [
                st.residual_norm for st in want]
            assert all(st.residual_norm < CFG.residual_tol for st in states)
        if case == "degenerate":
            assert all(len(states) == 0 for states, _ in got)


class TestLaneContainers:
    """The square system closed on numpy lanes equals the one closed lane
    by lane on floats, bit for bit: residual rows with their gauge rows,
    the lanes flagged for a degenerate gauge amplitude, and the
    Jacobians."""

    def test_arrays_match_floats(self):
        rng = np.random.default_rng(31)
        points = [DimerParams(v=rng.uniform(0.5, 2.0),
                              g=Bicomplex(rng.uniform(-2.5, 2.5), j),
                              gamma=Bicomplex(rng.uniform(0.0, 1.5), j),
                              s=Bicomplex(rng.uniform(-0.3, 0.3), j))
                  for j in (0.0, 0.2, 0.0, -0.1, 0.0)]
        n = 3 * solver._CROSSOVER
        lanes = solver._Lanes(SYSTEM, control_rows(points),
                              rng.integers(0, 5, n))
        lanes.site[:] = rng.integers(0, 2, n)
        x = rng.uniform(-1, 1, (n, 12))
        x[1::2, 1::2] = 0.0  # complex-in-i lanes
        degenerate = [3, 10, 29]
        for k in degenerate:
            x[k, 4 * lanes.site[k]: 4 * lanes.site[k] + 4] = 0.0
        idx = np.arange(n)
        f, bad = lanes.residuals(idx, x)
        assert bad == degenerate
        good = np.setdiff1d(idx, degenerate)
        for k in good.tolist():
            fk, bad_k = lanes.residuals(idx[k:k + 1], x[k:k + 1])
            assert bad_k == [] and np.array_equal(_bits(fk[0]), _bits(f[k]))
        for k in degenerate:
            assert lanes.residuals(idx[k:k + 1], x[k:k + 1])[1] == [0]
        # the exact Jacobian takes no residual, so it is defined on the
        # degenerate lanes too
        jac = lanes.jacobians(idx, x)
        assert jac.shape == (n, 12, 12)
        for k in idx.tolist():
            one = lanes.jacobians(idx[k:k + 1], x[k:k + 1])
            assert np.array_equal(_bits(one[0]), _bits(jac[k]))


    @pytest.mark.parametrize("n_points", [2, 4, 8])
    def test_newton_and_polish_on_lanes_match_one_lane(self, n_points):
        # 8, 16 and 32 lanes, below, at and above _CROSSOVER: every lane
        # takes the steps it takes alone, to the bit
        rng = np.random.default_rng(41)
        points = [DimerParams(v=rng.uniform(0.5, 2.0),
                              g=Bicomplex(rng.uniform(-2.5, 2.5), j),
                              gamma=Bicomplex(rng.uniform(0.0, 1.5), -j),
                              s=Bicomplex(rng.uniform(-0.3, 0.3), j))
                  for j in (0.0, 0.2, 0.0, -0.1, 0.0, 0.0, 0.1, 0.0)[:n_points]]
        seeds, owner = SYSTEM.packed_candidates(control_rows(points))
        seeds = seeds + rng.normal(0.0, 1e-2, seeds.shape)
        idx = np.arange(len(seeds))
        lanes = solver._Lanes(SYSTEM, control_rows(points), owner)
        x, f, fnorm, errors = solver._newton(lanes, idx, seeds,
                                             CFG.residual_tol)
        assert errors == {} and np.all(np.abs(x - seeds).max(1) > 0)
        px, pnorm = solver._polish(lanes, idx, x, f)
        for k in idx.tolist():
            one = idx[k:k + 1]
            x1, f1, fnorm1, errors1 = solver._newton(lanes, one, seeds[one],
                                                     CFG.residual_tol)
            assert errors1 == {}
            assert np.array_equal(_bits(x1[0]), _bits(x[k]))
            assert fnorm1[0] == fnorm[k]
            px1, pnorm1 = solver._polish(lanes, one, x1, f1)
            assert np.array_equal(_bits(px1[0]), _bits(px[k]))
            assert pnorm1[0] == pnorm[k]


def _seed_of(row):
    return ((Bicomplex(*row[0:4]), Bicomplex(*row[4:8])), Bicomplex(*row[8:12]))


class TestScaling:
    """Every control and mu scale with v, and psi does not change."""

    @pytest.mark.parametrize("v", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("g,gamma,s", [
        (-1.0, 0.5, 0.0), (1.2, 0.97, 0.05), (-1.3, 1.2, 0.1),
        (2.25, 1.35, -0.25), (5e-4, 0.6, 0.1),
    ])
    def test_states_scale_with_v(self, v, g, gamma, s):
        unit = find_all_states(
            SYSTEM, DimerParams(v=1.0, g=g, gamma=gamma, s=s), CFG)
        scaled = find_all_states(
            SYSTEM, DimerParams(v=v, g=v * g, gamma=v * gamma, s=v * s), CFG)
        assert len(scaled) == len(unit) == 4
        for a, b in zip(unit, scaled):
            assert (b.mu - v * a.mu).max_abs() < 1e-12 * v
            assert (b.psi1 - a.psi1).max_abs() < 1e-12
            assert (b.psi2 - a.psi2).max_abs() < 1e-12


class TestCandidates:
    def test_linear_model_enumerates_its_eigenpairs(self):
        lin = LinearTwoMode()
        p = DimerParams(v=1.0, gamma=0.6, s=0.1)
        states = find_all_states(lin, p, CFG)
        assert len(states) == 4
        for _psi1, _psi2, mu in lin.eigenpairs(p):
            assert min((mu - st.mu).max_abs() for st in states) < 1e-10

    def test_dimer_seeds_are_states_at_a_generic_point(self):
        p = DimerParams(v=1.0, g=-1.3, gamma=0.4, s=0.05)
        rows, _ = SYSTEM.packed_candidates(control_rows([p]))
        assert len(rows) == 4
        for psi, mu in map(_as_seed, rows.tolist()):
            r1, r2 = residual(psi[0], psi[1], mu, p)
            assert max(r1.max_abs(), r2.max_abs()) < 1e-12

    @pytest.mark.parametrize("v,g,gamma,s,count", [
        (1.0, -1.0, 0.5, 0.0, 4),  # s = 0: one seed per root of Q
        (2.0, 0.0, 2.2, 0.0, 4),  # g = 0: the linear eigenpairs
        (1.0, 1e-3, 0.7, 0.1, 4),  # the linear seeds start below |g| = 1e-3 v
        (2.0, -1e-3, 0.7, 0.1, 8),
    ])
    def test_dimer_seed_count(self, v, g, gamma, s, count):
        p = DimerParams(v=v, g=g, gamma=gamma, s=s)
        assert len(SYSTEM.packed_candidates(control_rows([p]))[0]) == count
        assert len(find_all_states(SYSTEM, p, CFG)) == 4

    @pytest.mark.parametrize("gamma_j", [0.5, -0.5])
    def test_degenerate_quartic(self, gamma_j):
        # at gamma_j = g/2 the two lowest coefficients of Q vanish, and its
        # double root X = 0 is no state; at gamma_j = -g/2 the two highest
        # vanish, and Q is the quadratic X^2 + X - 1.  Two states remain
        p = DimerParams(v=1.0, g=1.0, gamma=Bicomplex(0.0, gamma_j))
        states = find_all_states(SYSTEM, p, CFG)
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        assert len(states) == 2
        for st, mu in zip(states, (-golden, golden - 1.0)):
            assert (st.mu - mu).max_abs() < 1e-12
            r1, r2 = residual(st.psi1, st.psi2, st.mu, p)
            assert max(r1.max_abs(), r2.max_abs()) < CFG.residual_tol

    @pytest.mark.parametrize("gamma_j", [0.5, -0.5])
    def test_degenerate_quartic_off_s_zero(self, gamma_j):
        # with s != 0 only one root of Q is at X = 0 or at infinity
        p = DimerParams(v=1.0, g=1.0, gamma=Bicomplex(0.0, gamma_j), s=0.1)
        assert len(find_all_states(SYSTEM, p, CFG)) == 3

    @pytest.mark.parametrize("g,gamma,s", [
        (Bicomplex(-1.0), Bicomplex(1.0, 0.05), Bicomplex()),
        (Bicomplex(-1.4, 0.1), Bicomplex(0.6, -0.1), Bicomplex(0.2, 0.15)),
    ])
    def test_j_continued_controls(self, g, gamma, s):
        # loop controls c0 + j*c1 keep conj(c-) = c+, so the quartic in the
        # plus components still lists every state
        p = DimerParams(v=1.0, g=g, gamma=gamma, s=s)
        states = find_all_states(SYSTEM, p, CFG)
        assert len(states) == 4
        for st in states:
            r1, r2 = residual(st.psi1, st.psi2, st.mu, p)
            assert max(r1.max_abs(), r2.max_abs()) < CFG.residual_tol


class TestCanonicalGauge:
    def test_idempotent_on_canonical_states(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=1.2)
        for st in find_all_states(SYSTEM, p, CFG):
            psi, mu = canonical_gauge((st.psi1, st.psi2), st.mu)
            assert (psi[0] - st.psi1).max_abs() < 1e-12
            assert (psi[1] - st.psi2).max_abs() < 1e-12
            pair = psi[0].to_idempotent()
            assert abs(pair.plus.imag) < 1e-12
            assert pair.plus.real > 0
            assert abs(abs(pair.plus) - abs(pair.minus)) < 1e-10

    FLOATS = st_.tuples(*[st_.floats(allow_nan=False,
                                     allow_infinity=False)] * 12)

    @given(a=FLOATS, b=FLOATS)
    def test_distance_is_the_bicomplex_max_norm(self, a, b):
        def state(c):
            return StationaryState(Bicomplex(*c[:4]), Bicomplex(*c[4:8]),
                                   Bicomplex(*c[8:]), 0.0, True, True)

        sa, sb = state(a), state(b)
        # the formula on Bicomplex differences that the float one replaces
        d = 0.0
        for za, zb in ((sa.psi1, sb.psi1), (sa.psi2, sb.psi2), (sa.mu, sb.mu)):
            d = max(d, (za - zb).max_abs())
        assert state_distance(sa, sb).hex() == d.hex()

    def test_distance_zero_iff_same_state(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.7)
        states = find_all_states(SYSTEM, p, CFG)
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                d = state_distance(a, b)
                if i == j:
                    assert d == 0.0
                else:
                    assert d > DEDUP_TOL


# -- the canonical gauge and the flags on rows -------------------------------


def _reference_canonical(row):
    """The canonical gauge and the flags of a row of 12 floats as
    ``canonical_gauge`` and ``classify_flags`` computed them on Bicomplex
    values and idempotent pairs before they ran on rows: the reference
    that the row spelling matches bit for bit."""
    psi = (Bicomplex(*row[0:4]), Bicomplex(*row[4:8]))
    mu = Bicomplex(*row[8:12])

    def gauge(psi):
        best = None
        for k, z in enumerate(psi):
            pair = z.to_idempotent()
            if min(abs(pair.plus), abs(pair.minus)) >= solver.GAUGE_SITE_FLOOR:
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
                return psi
        pair = psi[best].to_idempotent()
        t = math.sqrt(abs(pair.minus) / abs(pair.plus))
        c = t * cmath.exp(-1j * cmath.phase(pair.plus))
        u_minus = 1.0 / c.conjugate()
        out = []
        for z in psi:
            pair = z.to_idempotent()
            out.append(Bicomplex.from_idempotent(pair.plus * c,
                                                 pair.minus * u_minus))
        return out

    psi1, psi2 = gauge(psi)
    tol = solver.CLASSIFICATION_TOL
    flags = False, False
    if all(abs(z.z1) < tol and abs(z.z3) < tol for z in (psi1, psi2, mu)):
        m1, m2 = psi1.modulus_squared(), psi2.modulus_squared()
        flags = True, (m1 - m2).max_abs() < tol
    return [float(c) for z in (psi1, psi2, mu) for c in z.as_tuple()], flags


def _boosted(psi, c: complex):
    """psi under the continued phase/boost (c, 1/conj(c)) of its idempotent
    components."""
    u = 1.0 / c.conjugate()
    return tuple(Bicomplex.from_idempotent(z.to_idempotent().plus * c,
                                           z.to_idempotent().minus * u)
                 for z in psi)


class _BoostedSeeds(DimerSystem):
    """The dimer with every candidate seed of ``packed_candidates`` moved by
    one continued phase/boost c."""

    def __init__(self, c: complex):
        self.c = c

    def packed_candidates(self, points):
        rows, owner = super().packed_candidates(points)
        for row in rows:
            psi = _boosted((Bicomplex(*row[0:4]), Bicomplex(*row[4:8])),
                           self.c)
            row[0:8] = [c for z in psi for c in z.as_tuple()]
        return rows, owner


def _row_of(state) -> list[float]:
    return [c for z in (state.psi1, state.psi2, state.mu) for c in z.as_tuple()]


# the row on which math.hypot, in place of abs(complex), rounds otherwise
HYPOT_ROW = [0.6332345645750606, -1.5145042565022473, 1.2691107335055054,
             1.2344077117831422, 1.8036022120207436, 0.16141893568940394,
             2.342079531496904, 1.0902388599897685, 1.3804389988207624,
             1.0684943535862146, 0.24721890270677185, -0.6029185744979203]


class TestCanonicalRows:
    """The canonical gauge and the flags of solver._solved against the
    Bicomplex reference, bit for bit, on floats (fewer than _CROSSOVER
    rows) and on lanes (more)."""

    @staticmethod
    def check(rows):
        x = np.array(rows, dtype=float).reshape(-1, 12)
        lanes = np.resize(x, (max(len(x), 2 * solver._CROSSOVER), 12))
        for batch in (x[:1], x[:solver._CROSSOVER - 1], lanes):
            fnorm = np.arange(len(batch)) * 1e-16
            got = solver._solved(batch, fnorm)
            assert got.shape == (len(batch), 15)
            assert np.array_equal(_bits(got[:, 12]), _bits(fnorm))
            for row, seed in zip(got.tolist(), batch.tolist()):
                want, flags = _reference_canonical(seed)
                assert [v.hex() for v in row[:12]] == [v.hex() for v in want]
                assert tuple(row[13:]) == flags
                assert set(row[13:]) <= {0.0, 1.0}

    COMPONENT = st_.floats(-1e3, 1e3, allow_nan=False)

    @settings(max_examples=200, deadline=None)
    @given(rows=st_.lists(st_.tuples(st_.tuples(*[COMPONENT] * 12),
                                     st_.integers(-14, 0), st_.booleans()),
                          min_size=1, max_size=24))
    def test_random_rows(self, rows):
        out = []
        for row, exponent, complex_in_i in rows:
            row = [c * 10.0 ** exponent for c in row]
            if complex_in_i:
                row[1::2] = [0.0] * 6
            out.append(row)
        self.check(out)

    def test_gauge_on_site_1(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(-1, 1, (60, 12))
        x[:20, 0:4] *= 1e-8  # psi1's idempotent parts below the floor
        # psi1's minus part exactly zero: z0 = z3, z2 = -z1
        x[20:40, 3], x[20:40, 2] = x[20:40, 0], -x[20:40, 1]
        # a tie: psi2 = conj(psi1), whose idempotent magnitudes are psi1's
        # swapped, goes to site 0
        x[40:, 4:8] = x[40:, 0:4] * [1.0, 1.0, -1.0, -1.0]
        x[40:, 0:8] *= 1e-8
        self.check(x)

    def test_both_sites_degenerate_leave_the_row(self):
        rng = np.random.default_rng(43)
        x = rng.uniform(-1, 1, (40, 12))
        x[:, 0:8] *= 1e-13
        x[::3, 0:8] = 0.0
        self.check(x)
        got = solver._solved(x, np.zeros(len(x)))[:, :12]
        assert np.array_equal(_bits(got), _bits(x))
        # the larger smaller idempotent magnitude on either side of GAUGE_EPS
        x[:, 0:8] *= rng.uniform(5.0, 30.0, (40, 1))
        self.check(x)

    def test_complex_in_i_rows_with_signed_zeros(self):
        rng = np.random.default_rng(47)
        x = rng.uniform(-1, 1, (40, 12))
        x[:, 1::2] = rng.choice([0.0, -0.0], (40, 6))
        x[::4, 2] = -0.0  # an exactly real plus component of psi1
        x[1::4, 0] = -0.0
        # psi1's plus component real and positive, with a +0.0 or -0.0
        # imaginary part, as on canonical rows
        x[2::4, 0] = np.abs(x[2::4, 0]) + 1.0
        x[2::4, 1:3] = rng.choice([0.0, -0.0], (10, 2))
        self.check(x)

    def test_pt_symmetric_and_j_continued_states(self):
        # solved states under random phases (PT-symmetric ones stay complex
        # in i) and random boosts (bicomplex ones)
        rng = np.random.default_rng(53)
        rows = []
        for p in (DimerParams(v=1.0, g=-1.0, gamma=0.3),
                  DimerParams(v=1.0, g=0.5, gamma=0.9),
                  DimerParams(v=1.0, g=Bicomplex(-1.3, 0.1),
                              gamma=Bicomplex(0.6, -0.1), s=Bicomplex(0.2, 0.15))):
            for st in find_all_states(SYSTEM, p, CFG):
                for k in range(6):
                    c = cmath.rect(1.0 if k % 2 else rng.uniform(0.5, 2.0),
                                   rng.uniform(-math.pi, math.pi))
                    psi = _boosted((st.psi1, st.psi2), c)
                    rows.append([c for z in (*psi, st.mu) for c in z.as_tuple()])
        self.check(rows)
        flags = [_reference_canonical(row)[1] for row in rows]
        assert (True, True) in flags and (False, False) in flags

    def test_the_row_math_hypot_rounds_otherwise(self):
        self.check([HYPOT_ROW])

    FLOATS = st_.tuples(*[st_.floats(allow_nan=False,
                                     allow_infinity=False)] * 12)

    @given(a=FLOATS, b=st_.lists(FLOATS, min_size=1, max_size=5))
    def test_row_distances_are_state_distance(self, a, b):
        def state(c):
            return StationaryState(Bicomplex(*c[:4]), Bicomplex(*c[4:8]),
                                   Bicomplex(*c[8:]), 0.0, True, True)

        others = np.array(b)
        with np.errstate(over="ignore", invalid="ignore"):
            one = solver._distances(np.array(a), others).tolist()
            many = solver._distances(np.array([a, *b]), others).tolist()
        want = [state_distance(state(a), state(c)).hex() for c in b]
        assert [d.hex() for d in one] == want
        assert [d.hex() for d in many[0]] == want
        for row, c in zip(many[1:], b):
            assert [d.hex() for d in row] == [
                state_distance(state(c), state(o)).hex() for o in b]


class TestGaugeInvariance:
    """A continued phase/boost (c, 1/conj c) of a state's idempotent parts
    is a gauge: canonicalising undoes it, and Newton from the boosted state
    returns the state."""

    POINTS = [DimerParams(v=1.0, g=-1.0, gamma=0.3),
              DimerParams(v=1.0, g=-1.0, gamma=1.2),
              DimerParams(v=1.0, g=0.5, gamma=0.9, s=0.1),
              DimerParams(v=1.0, g=Bicomplex(-1.3, 0.1),
                          gamma=Bicomplex(0.6, -0.1), s=Bicomplex(0.2, 0.15))]
    _states: dict = {}

    def states(self, k):
        if k not in self._states:
            self._states[k] = find_all_states(SYSTEM, self.POINTS[k], CFG)
        return self._states[k]

    @settings(max_examples=40, deadline=None)
    @given(point=st_.integers(0, len(POINTS) - 1), which=st_.integers(0, 3),
           log_t=st_.floats(-1.0, 1.0), phase=st_.floats(-math.pi, math.pi))
    def test_boost_is_undone(self, point, which, log_t, phase):
        states = self.states(point)
        st = states[which % len(states)]
        psi = _boosted((st.psi1, st.psi2), cmath.rect(math.exp(log_t), phase))
        row = _row_of(st)
        scale = max(1.0, max(map(abs, row)))
        canonical, mu = canonical_gauge(psi, st.mu)
        back = [c for z in (*canonical, mu) for c in z.as_tuple()]
        assert max(abs(a - b) for a, b in zip(back, row)) <= 1e-12 * scale
        solved = newton_solve(SYSTEM, self.POINTS[point], (psi, st.mu), CFG)
        assert state_distance(solved, st) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(point=st_.integers(0, len(POINTS) - 1),
           log_t=st_.floats(-1.0, 1.0), phase=st_.floats(-math.pi, math.pi))
    def test_boosted_seeds_give_the_same_states(self, point, log_t, phase):
        boosted = _BoostedSeeds(cmath.rect(math.exp(log_t), phase))
        got = find_all_states(boosted, self.POINTS[point], CFG)
        expected = self.states(point)
        assert len(got) == len(expected)
        for st in got:
            assert min(state_distance(st, e) for e in expected) < 1e-9
