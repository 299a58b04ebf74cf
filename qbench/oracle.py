"""Independent stationary-state oracle for the continued dimer.

Works in the idempotent components of the bicomplex amplitudes: psi+ (the
plus component) and phi = conj(psi-) (the complex-conjugated minus
component).  For controls of the form c0 + j*c1 the conjugated minus
component of every control equals its plus component, so the continued
stationary problem is the holomorphic system (controls g, gamma, s below
are the plus components)

    (-g*n1 - i*gamma + s - mu) psi1 + v psi2 = 0
    v psi1 + (-g*n2 + i*gamma - s - mu) psi2 = 0
    (-g*n1 + i*gamma + s - nu) phi1 + v phi2 = 0
    v phi1 + (-g*n2 - i*gamma - s - nu) phi2 = 0
    n1 + n2 = 1,        n_k = phi_k * psi_k,

with mu the plus component of the bicomplex mu and nu = conj(mu-).  The
gauge psi -> c*psi, phi -> phi/c is fixed by psi1 = 1.  With a = n1 the
states are the roots of a quartic P(a) (see README.md), back-solved for
X = v*psi2/psi1 and Y = v*phi2/phi1, then polished by Newton on the
system above.  Nothing here calls the bcdimer solver.
"""

from __future__ import annotations

import numpy as np

RESIDUAL_TOL = 1e-10
DEDUP_TOL = 1e-6
_POLISH_STEPS = 8


class OracleError(RuntimeError):
    """The oracle did not find exactly four distinct states."""


def quartic(v: float, g: complex, gamma: complex, s: complex) -> np.ndarray:
    """Coefficients of P(a), highest power first."""
    g2 = g * g + 4 * gamma * gamma
    return np.array([
        4 * g2,
        -8 * (g2 + g * s),
        5 * g * g + 12 * g * s + 20 * gamma * gamma + 4 * s * s + 4 * v * v,
        -(g2 + 4 * g * s + 4 * s * s + 4 * v * v),
        v * v,
    ], dtype=complex)


def equations(u, v, g, gamma, s, psi1=1.0):
    """Residuals of the holomorphic system at u = (psi2, phi1, phi2, mu, nu)."""
    psi2, phi1, phi2, mu, nu = u
    n1, n2 = phi1 * psi1, phi2 * psi2
    ig = 1j * gamma
    return np.array([
        (-g * n1 - ig + s - mu) * psi1 + v * psi2,
        v * psi1 + (-g * n2 + ig - s - mu) * psi2,
        (-g * n1 + ig + s - nu) * phi1 + v * phi2,
        v * phi1 + (-g * n2 - ig - s - nu) * phi2,
        n1 + n2 - 1.0,
    ])


def _jacobian(u, v, g, gamma, s):
    psi2, phi1, phi2, mu, nu = u
    ig = 1j * gamma
    n2 = phi2 * psi2
    return np.array([
        [v, -g, 0, -1, 0],
        [-2 * g * n2 + ig - s - mu, 0, -g * psi2 * psi2, -psi2, 0],
        [0, -2 * g * phi1 + ig + s - nu, v, 0, -phi1],
        [-g * phi2 * phi2, v, -2 * g * n2 - ig - s - nu, 0, -phi2],
        [phi2, 1, psi2, 0, 0],
    ], dtype=complex)


def _polish(u, v, g, gamma, s):
    f = equations(u, v, g, gamma, s)
    fn = np.max(np.abs(f))
    for _ in range(_POLISH_STEPS):
        try:
            step = np.linalg.solve(_jacobian(u, v, g, gamma, s), -f)
        except np.linalg.LinAlgError:
            break
        trial = u + step
        f_new = equations(trial, v, g, gamma, s)
        fn_new = np.max(np.abs(f_new))
        if not fn_new < fn:
            break
        u, f, fn = trial, f_new, fn_new
    return u, fn


def states(v: float, g: complex, gamma: complex, s: complex) -> np.ndarray:
    """The four stationary states as rows u = (psi2, phi1, phi2, mu, nu).

    Rows are sorted by (Re mu, Im mu, Re nu, Im nu).  Raises
    :class:`OracleError` when the polished, filtered and deduplicated
    candidates are not exactly four.
    """
    kept = []
    for a in np.roots(quartic(v, g, gamma, s)):
        b = g * (2 * a - 1) + 2j * gamma - 2 * s
        for x in np.roots([1.0, -b, -v * v]):
            y = v * v * (1 - a) / (a * x)
            u0 = np.array([x / v, a, a * y / v,
                           x - g * a - 1j * gamma + s,
                           y - g * a + 1j * gamma + s])
            u, fn = _polish(u0, v, g, gamma, s)
            if fn > RESIDUAL_TOL:
                continue
            if all(np.max(np.abs(u - k)) > DEDUP_TOL for k in kept):
                kept.append(u)
    if len(kept) != 4:
        raise OracleError(
            f"{len(kept)} states at v={v}, g={g}, gamma={gamma}, s={s}")
    kept.sort(key=lambda u: (u[3].real, u[3].imag, u[4].real, u[4].imag))
    return np.array(kept)
