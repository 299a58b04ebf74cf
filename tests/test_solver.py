import cmath
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st_

from bcdimer.bicomplex import Bicomplex, J
from bcdimer.model import (
    DimerParams,
    DimerSystem,
    LinearTwoMode,
    StationaryState,
    pt_reflected,
    residual,
)
from bcdimer.solver import (
    DEDUP_TOL,
    FD_STEP,
    GAUGE_EPS,
    GaugeDegenerate,
    NoConvergence,
    RealSystemView,
    SolveConfig,
    canonical_gauge,
    dedup_states,
    find_all_states,
    newton_solve,
    state_distance,
)

R2 = 1.0 / math.sqrt(2.0)
SYSTEM = DimerSystem()
CFG = SolveConfig(jacobian="analytic")


def closed_form_mu(v: float, gamma: float) -> complex:
    return cmath.sqrt(complex(v * v - gamma * gamma, 0.0))


class TestRealView:
    def test_counts(self):
        view = RealSystemView(SYSTEM, DimerParams(v=1.0), CFG)
        assert view.n_unknowns == 12
        assert view.n_equations == 12
        x = view.pack((Bicomplex(R2), Bicomplex(R2)), Bicomplex(1.0))
        assert view.residual_vector(x).shape == (12,)

    def test_complex_seed_has_zero_jk_rows(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.3)
        view = RealSystemView(SYSTEM, p, CFG)
        x = view.pack(
            (Bicomplex.from_complex(0.6 + 0.1j), Bicomplex.from_complex(0.7 - 0.2j)),
            Bicomplex.from_complex(0.5 + 0.05j),
        )
        f = view.residual_vector(x)
        # j and k components of both residual rows
        for base in (0, 4):
            assert f[base + 1] == 0.0
            assert f[base + 3] == 0.0

    def test_dropped_normalization_components_vanish(self):
        # the i and k parts of the normalization residual are identical zeros
        rng = np.random.default_rng(21)
        from bcdimer.model import normalization_residual

        for _ in range(200):
            psi = tuple(Bicomplex(*rng.uniform(-1, 1, 4)) for _ in range(2))
            (psi1, psi2), _mu = canonical_gauge(psi, Bicomplex())
            n = normalization_residual(psi1, psi2)
            assert abs(n.z2) < 1e-14
            assert abs(n.z3) < 1e-14

    def test_gauge_degenerate(self):
        p = DimerParams(v=1.0)
        view = RealSystemView(SYSTEM, p, CFG)
        x = view.pack((Bicomplex(0.0), Bicomplex(1.0)), Bicomplex(0.0))
        with pytest.raises(GaugeDegenerate):
            view.residual_vector(x)

    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(3)
        p = DimerParams(v=1.0, g=-1.3, gamma=0.4, s=0.05)
        view = RealSystemView(SYSTEM, p, CFG)
        for _ in range(10):
            x = rng.uniform(-1, 1, 12)
            x[0] += 2.0  # keep the gauge amplitude healthy
            ja = view._analytic_jacobian(x)
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
            view = RealSystemView(SYSTEM, p, CFG, gauge_site=site)
            x = rng.uniform(-1, 1, 12)
            x[odd] = 0.0
            x[4 * site] += 2.0
            jac = view._analytic_jacobian(x)
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


def reference_residual_vector(view: RealSystemView, x: np.ndarray) -> np.ndarray:
    """The Newton residual computed with Bicomplex values."""
    psi, mu = view.unpack(x)
    res = view.system.residual(psi, mu, view.params)
    norm = view.system.normalization_residual(psi)
    scale = max(1.0, max(z.max_abs() for z in psi) ** 2)
    assert abs(norm.z2) <= 1e-10 * scale and abs(norm.z3) <= 1e-10 * scale
    zg = psi[view.gauge_site]
    pair = zg.to_idempotent()
    if min(abs(pair.plus), abs(pair.minus)) < GAUGE_EPS:
        raise GaugeDegenerate(f"gauge amplitude {view.gauge_site} too small")
    out = np.empty(view.n_unknowns)
    for k, r in enumerate(res):
        out[4 * k : 4 * k + 4] = r.as_tuple()
    base = 4 * view.n_amp
    out[base] = norm.z0
    out[base + 1] = norm.z1
    out[base + 2] = zg.z2 - zg.z1
    out[base + 3] = 4.0 * (zg.z0 * zg.z3 - zg.z1 * zg.z2)
    return out


def reference_fd_jacobian(view: RealSystemView, x: np.ndarray) -> np.ndarray:
    """Forward differences of :func:`reference_residual_vector`."""
    f0 = reference_residual_vector(view, x)
    h = FD_STEP
    jac = np.empty((view.n_unknowns, view.n_unknowns))
    for col in range(view.n_unknowns):
        xp = x.copy()
        xp[col] += h
        jac[:, col] = (reference_residual_vector(view, xp) - f0) / h
    return jac


def reference_analytic_jacobian(view: RealSystemView, x: np.ndarray) -> np.ndarray:
    """The dimer's analytic Jacobian assembled from Bicomplex 4x4 blocks."""
    psi, mu = view.unpack(x)
    p = view.params
    igamma = Bicomplex(0.0, 0.0, 1.0, 0.0) * p.gamma
    diag = (
        -(p.g * psi[0].modulus_squared()) - igamma + p.s - mu,
        -(p.g * psi[1].modulus_squared()) + igamma - p.s - mu,
    )
    nonlin = (-p.g * psi[0], -p.g * psi[1])
    n = view.n_unknowns
    base = 4 * view.n_amp
    jac = np.zeros((n, n))
    mod_der = [_reference_modulus_derivative(z) for z in psi]
    for row in range(view.n_amp):
        r0 = 4 * row
        for col in range(view.n_amp):
            c0 = 4 * col
            if row == col:
                jac[r0 : r0 + 4, c0 : c0 + 4] = (
                    _reference_mult_matrix(diag[row])
                    + _reference_mult_matrix(nonlin[row]) @ mod_der[row]
                )
            else:
                jac[r0 : r0 + 4, c0 : c0 + 4] = p.v * np.eye(4)
        jac[r0 : r0 + 4, base : base + 4] = -_reference_mult_matrix(psi[row])
    for col in range(view.n_amp):
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
            yield RealSystemView(SYSTEM, p, CFG, gauge_site=site), x

    def test_residual_is_bit_identical(self):
        for view, x in self.cases(400, 5):
            got = view.residual_vector(x)
            ref = reference_residual_vector(view, x)
            assert np.array_equal(got, ref)
            assert np.array_equal(_bits(got), _bits(ref))

    def test_finite_difference_jacobian_is_bit_identical(self):
        for view, x in self.cases(200, 6):
            got = view._fd_jacobian(x, None)
            ref = reference_fd_jacobian(view, x)
            assert np.array_equal(got, ref)
            assert np.array_equal(_bits(got), _bits(ref))

    def test_analytic_jacobian_matches_reference(self):
        for view, x in self.cases(400, 7):
            got = view._analytic_jacobian(x)
            ref = reference_analytic_jacobian(view, x)
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
        found = [newton_solve(SYSTEM, p, s, CFG) for s in seeds]
        merged = dedup_states(list(found) + list(base), DEDUP_TOL)
        assert len(merged) == len(base)

    def test_sorted_by_re_mu(self):
        p = DimerParams(v=1.0, g=-1.0, gamma=0.4)
        states = find_all_states(SYSTEM, p, CFG)
        keys = [(s.mu.z0, s.mu.z1) for s in states]
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

    SQRT3_2 = math.sqrt(3.0) / 2.0
    POINTS = [
        # (g, gamma, closed-form mu values)
        (-1.0, SQRT3_2, (0.0, 1.0)),  # pitchfork EP3
        (1.0, SQRT3_2, (0.0, -1.0)),
        (2.0, 0.0, (0.0, -2.0)),  # merger: P = (2a - 1)^4
        (-2.0, 0.0, (0.0, 2.0)),
        (0.0, 1.0, (0.0,)),  # linear tangent: all four states coalesce
    ]

    @pytest.mark.parametrize("jacobian", ["analytic", "finite-difference"])
    @pytest.mark.parametrize("g,gamma,clusters", POINTS)
    def test_states_at_exceptional_point(self, jacobian, g, gamma, clusters):
        cfg = SolveConfig(jacobian=jacobian)
        p = DimerParams(v=1.0, g=g, gamma=gamma)
        states = find_all_states(SYSTEM, p, cfg)
        assert 1 <= len(states) <= 4
        for st in states:
            assert st.residual_norm < cfg.residual_tol
        for mu in clusters:
            assert min((st.mu - mu).max_abs() for st in states) < 1e-3


class TestClosedFormOracle:
    """find_all_states against the s = 0 closed forms, independent of the
    quartic the solver is seeded from."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.filter_too_much])
    @given(g=st_.floats(-2.5, 2.5), gamma=st_.floats(0.01, 1.5))
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
        seeds = SYSTEM.candidate_states(p)
        assert len(seeds) == 4
        for psi, mu in seeds:
            r1, r2 = residual(psi[0], psi[1], mu, p)
            assert max(r1.max_abs(), r2.max_abs()) < 1e-12


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
