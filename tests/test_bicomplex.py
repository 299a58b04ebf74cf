import numpy as np
import pytest

from bcdimer.bicomplex import (
    E_MINUS,
    E_PLUS,
    I,
    J,
    K,
    ONE,
    Bicomplex,
    IdempotentPair,
    ZeroDivisor,
    lift_real_control,
)


def ref_mul(a, b):
    """Independent 4-component multiplication table, used as oracle."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 + a3 * b3,
        a0 * b1 + a1 * b0 - a2 * b3 - a3 * b2,
        a0 * b2 + a2 * b0 - a1 * b3 - a3 * b1,
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
    )


def ref_conj(a):
    a0, a1, a2, a3 = a
    return (a0, a1, -a2, -a3)


def bc(t):
    return Bicomplex(*t)


def max_err(x: Bicomplex, expected) -> float:
    return max(abs(u - v) for u, v in zip(x.as_tuple(), expected))


def random_bicomplex(rng, scale=10.0):
    return Bicomplex(*(rng.uniform(-scale, scale, size=4)))


class TestExamples:
    def test_i_times_j_is_k(self):
        assert (I * J).as_tuple() == (0.0, 0.0, 0.0, 1.0)

    def test_one_plus_j_squared(self):
        z = ONE + J
        assert (z * z).as_tuple() == (0.0, 2.0, 0.0, 0.0)

    def test_idempotent_product_vanishes(self):
        assert (E_PLUS * E_MINUS).max_abs() == 0.0

    def test_idempotents_are_idempotent(self):
        assert (E_PLUS * E_PLUS - E_PLUS).max_abs() == 0.0
        assert (E_MINUS * E_MINUS - E_MINUS).max_abs() == 0.0

    def test_k_over_k(self):
        assert ((K / K) - ONE).max_abs() == 0.0

    def test_divide_by_idempotent_raises(self):
        with pytest.raises(ZeroDivisor):
            ONE / E_PLUS

    def test_componentwise_division(self):
        a = 2 * E_PLUS + 4 * E_MINUS
        b = E_PLUS + 2 * E_MINUS
        assert ((a / b) - 2).max_abs() < 1e-15

    def test_conj_of_units(self):
        assert I.conj().as_tuple() == (0.0, 0.0, -1.0, 0.0)
        assert J.conj().as_tuple() == (0.0, 1.0, 0.0, 0.0)

    def test_conj_of_plus_idempotent(self):
        # oracle: the component rule applied to (1/2, 0, 0, 1/2)
        expected = ref_conj((0.5, 0.0, 0.0, 0.5))
        assert E_PLUS.conj().as_tuple() == expected
        assert (E_PLUS.conj() - E_MINUS).max_abs() == 0.0

    def test_modulus_squared_of_i(self):
        assert (I.modulus_squared() - ONE).max_abs() == 0.0

    def test_modulus_squared_of_plus_idempotent(self):
        # oracle: direct component multiplication conj(e+)*e+
        prod = ref_mul(ref_conj((0.5, 0, 0, 0.5)), (0.5, 0, 0, 0.5))
        assert prod == (0.0, 0.0, 0.0, 0.0)
        assert E_PLUS.modulus_squared().max_abs() == 0.0

    def test_modulus_squared_one_plus_i(self):
        z = ONE + I
        assert (z.modulus_squared() - 2).max_abs() < 1e-15

    def test_lift_real_control(self):
        p = lift_real_control(1.0, 0.0)
        assert p.plus == 1 and p.minus == 1
        p = lift_real_control(0.0, 1.0)
        assert p.plus == -1j and p.minus == 1j
        p = lift_real_control(2.0, 3.0)
        assert p.plus == 2 - 3j and p.minus == 2 + 3j
        # conjugate relation between the two coefficients
        assert p.plus.conjugate() == p.minus
        # reconstruction stores the j-component
        assert p.to_bicomplex().as_tuple() == (2.0, 3.0, 0.0, 0.0)


class TestProperties:
    N = 2000

    def test_ring_axioms(self):
        rng = np.random.default_rng(2024)
        for _ in range(self.N):
            a = random_bicomplex(rng)
            b = random_bicomplex(rng)
            c = random_bicomplex(rng)
            scale = max(a.max_abs(), 1.0) * max(b.max_abs(), 1.0) * max(c.max_abs(), 1.0)
            assert ((a * b) * c - a * (b * c)).max_abs() / scale < 1e-12
            assert (a * b - b * a).max_abs() / scale < 1e-12
            assert (a * (b + c) - (a * b + a * c)).max_abs() / scale < 1e-12

    def test_idempotent_homomorphism(self):
        rng = np.random.default_rng(7)
        for _ in range(self.N):
            a = random_bicomplex(rng)
            b = random_bicomplex(rng)
            pa, pb = a.to_idempotent(), b.to_idempotent()
            scale = max(a.max_abs(), 1.0) * max(b.max_abs(), 1.0)
            for op, cop in (
                (a + b, (pa.plus + pb.plus, pa.minus + pb.minus)),
                (a - b, (pa.plus - pb.plus, pa.minus - pb.minus)),
                (a * b, (pa.plus * pb.plus, pa.minus * pb.minus)),
            ):
                got = op.to_idempotent()
                err = max(abs(got.plus - cop[0]), abs(got.minus - cop[1]))
                assert err / scale < 1e-13

    def test_conjugation_rules(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N):
            a = random_bicomplex(rng)
            b = random_bicomplex(rng)
            assert a.conj().conj() == a
            scale = max(a.max_abs(), 1.0) * max(b.max_abs(), 1.0)
            assert ((a * b).conj() - a.conj() * b.conj()).max_abs() / scale < 1e-13
            # idempotent swap rule holds exactly
            pa = a.to_idempotent()
            pc = a.conj().to_idempotent()
            assert pc.plus == pa.minus.conjugate()
            assert pc.minus == pa.plus.conjugate()

    def test_modulus_squared_of_complex_in_i_values(self):
        rng = np.random.default_rng(3)
        for _ in range(self.N):
            a = Bicomplex(rng.uniform(-10, 10), 0.0, rng.uniform(-10, 10), 0.0)
            m = a.modulus_squared()
            assert m.z1 == 0.0 and m.z2 == 0.0 and m.z3 == 0.0
            assert m.z0 >= 0.0

    def test_modulus_squared_has_no_i_or_k_component(self):
        # conj(z)*z always lands in the (1, j) plane
        rng = np.random.default_rng(4)
        for _ in range(self.N):
            a = random_bicomplex(rng)
            m = a.modulus_squared()
            scale = max(a.max_abs(), 1.0) ** 2
            assert abs(m.z2) / scale < 1e-14
            assert abs(m.z3) / scale < 1e-14

    def test_div_mul_roundtrip(self):
        rng = np.random.default_rng(5)
        checked = 0
        while checked < self.N:
            a = random_bicomplex(rng)
            b = random_bicomplex(rng)
            pb = b.to_idempotent()
            if min(abs(pb.plus), abs(pb.minus)) < 1e-3:
                continue
            checked += 1
            q = a / b
            scale = max(a.max_abs(), 1.0)
            assert (q * b - a).max_abs() / scale < 1e-12

    def test_zero_divisor_iff_idempotent_component_zero(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            w = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            for zd in (Bicomplex.from_idempotent(w, 0), Bicomplex.from_idempotent(0, w)):
                with pytest.raises(ZeroDivisor):
                    ONE / zd
            ok = Bicomplex.from_idempotent(w + 7, w - 7j + 5)
            ONE / ok  # must not raise

    def test_idempotent_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(self.N):
            a = random_bicomplex(rng)
            back = a.to_idempotent().to_bicomplex()
            # one rounding per add and per halving
            assert (back - a).max_abs() <= 4 * np.finfo(float).eps * max(a.max_abs(), 1.0)

    def test_idempotent_pair_reconstruction(self):
        pair = IdempotentPair(1 + 2j, 3 - 4j)
        z = pair.to_bicomplex()
        got = z.to_idempotent()
        assert abs(got.plus - pair.plus) < 1e-15
        assert abs(got.minus - pair.minus) < 1e-15


def test_scalar_mixing():
    z = Bicomplex(1.0, 2.0, 3.0, 4.0)
    assert (2 * z - Bicomplex(2, 4, 6, 8)).max_abs() == 0.0
    assert ((1 + 1j) * ONE - Bicomplex(1, 0, 1, 0)).max_abs() == 0.0
    assert (z / 2 - Bicomplex(0.5, 1, 1.5, 2)).max_abs() == 0.0
    assert (1 - ONE).max_abs() == 0.0
