"""Tests of the benchmark's oracle; run with ``python3 -m pytest qbench``."""

import cmath
import itertools

import numpy as np
import pytest

import oracle

# (gamma, s) at g = 0: below and beyond the tangent, with and without s,
# and a j-continued gamma as used on the loops
POINTS = [(0.5, 0.0), (1.3, 0.0), (0.7, 0.2), (1.2, -0.25), (1.0 + 0.05j, 0.0),
          (0.3, 0.1 - 0.02j)]


def closed_form_pairs(v, gamma, s):
    """(mu, nu) of the four g = 0 states: one eigenvalue from each sector."""
    plus = cmath.sqrt(v * v + (s - 1j * gamma) ** 2)
    minus = cmath.sqrt(v * v + (s + 1j * gamma) ** 2)
    return [(sp * plus, sm * minus)
            for sp, sm in itertools.product((1, -1), repeat=2)]


@pytest.mark.parametrize("gamma,s", POINTS)
def test_linear_limit_matches_closed_form(gamma, s):
    got = [(u[3], u[4]) for u in oracle.states(1.0, 0.0, gamma, s)]
    for mu0, nu0 in closed_form_pairs(1.0, gamma, s):
        assert min(max(abs(mu - mu0), abs(nu - nu0)) for mu, nu in got) < 1e-12


@pytest.mark.parametrize("g,gamma,s", [(-1.0, 0.5, 0.0), (1.5, 1.2, 0.1),
                                       (-2.2, 0.3, -0.2), (0.8, 1.4, 0.3)])
def test_states_solve_the_system_and_the_quartic(g, gamma, s):
    states = oracle.states(1.0, g, gamma, s)
    assert len(states) == 4
    p = oracle.quartic(1.0, g, gamma, s)
    for u in states:
        assert np.max(np.abs(oracle.equations(u, 1.0, g, gamma, s))) < 1e-12
        assert abs(np.polyval(p, u[1])) < 1e-10  # a = phi1 * psi1, psi1 = 1


def test_double_roots_are_polished():
    # a = 1/2 is a double root of P at s = 0; X is double at g=-1, gamma=1/2
    for g, gamma in ((0.0, 0.5), (-1.0, 0.5), (-1.3, 0.4)):
        assert len(oracle.states(1.0, g, gamma, 0.0)) == 4


def test_next_to_the_pitchfork():
    gamma_p = (1.0 - 0.25) ** 0.5
    states = oracle.states(1.0, -1.0, gamma_p, 1e-4)
    assert len(states) == 4
