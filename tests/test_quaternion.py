import numpy as np
import pytest

from coadjoint.quaternion import Quaternion, QuaternionMatrix
from helpers import quaternion_eigenvalues


def random_quaternion(rng):
    return Quaternion(complex(*rng.standard_normal(2)),
                      complex(*rng.standard_normal(2)))


def test_units():
    one = Quaternion(1.0)
    i = Quaternion(1j)
    j = Quaternion(0.0, 1.0)
    k = i * j
    assert (i * i) == Quaternion(-1.0)
    assert (j * j) == Quaternion(-1.0)
    assert (k * k) == Quaternion(-1.0)
    assert (i * j * k) == Quaternion(-1.0)
    assert (one * i) == i


def test_j_commutation_rule():
    # j z = conj(z) j for every complex z
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = complex(*rng.standard_normal(2))
        j = Quaternion(0.0, 1.0)
        lhs = j * Quaternion(z)
        rhs = Quaternion(np.conj(z)) * j
        assert abs(lhs - rhs) < 1e-15


def test_conjugation_antihomomorphism_and_norm():
    rng = np.random.default_rng(1)
    for _ in range(200):
        q = random_quaternion(rng)
        p = random_quaternion(rng)
        lhs = (q * p).conjugate()
        rhs = p.conjugate() * q.conjugate()
        assert abs(lhs - rhs) < 1e-12
        assert abs(abs(q * p) - abs(q) * abs(p)) < 1e-12


def test_associativity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        q, p, r = (random_quaternion(rng) for _ in range(3))
        assert abs((q * p) * r - q * (p * r)) < 1e-12


def test_inverse():
    rng = np.random.default_rng(3)
    q = random_quaternion(rng)
    assert abs(q * q.inverse() - Quaternion(1.0)) < 1e-12
    with pytest.raises(ZeroDivisionError):
        Quaternion(0.0).inverse()


def test_conjugate_matches_stated_form():
    # conj(z1 + z2 j) = conj(z1) - j conj(z2)
    q = Quaternion(1 + 2j, 3 - 4j)
    j = Quaternion(0.0, 1.0)
    rhs = Quaternion(np.conj(1 + 2j)) - j * Quaternion(np.conj(3 - 4j))
    assert abs(q.conjugate() - rhs) < 1e-15


def random_qmatrix(n, rng):
    return QuaternionMatrix(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def test_embedding_is_algebra_homomorphism():
    rng = np.random.default_rng(4)
    for order in ("interleaved", "split"):
        a = random_qmatrix(3, rng)
        b = random_qmatrix(3, rng)
        lhs = (a @ b).embed(order)
        rhs = a.embed(order) @ b.embed(order)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_embedding_respects_conjugate_transpose():
    rng = np.random.default_rng(6)
    a = random_qmatrix(2, rng)
    assert np.max(np.abs(a.h.embed() - a.embed().conj().T)) < 1e-13


def test_eigenvalues_come_in_conjugate_pairs():
    rng = np.random.default_rng(7)
    a = random_qmatrix(2, rng)
    h = a @ a.h   # hermitian, real spectrum with even multiplicities
    ev = np.sort(quaternion_eigenvalues(h).real)
    assert np.max(np.abs(ev[0::2] - ev[1::2])) < 1e-9
