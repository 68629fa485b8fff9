"""Quaternion scalars and quaternionic matrices.

A quaternion is stored as a pair of complex numbers, q = z1 + z2*j, with the
defining relation j*z = conj(z)*j. Matrices over the quaternions are stored
as a pair of complex ndarrays and support products, conjugate transpose, and
an embedding into complex matrices of twice the size. The components may be
stacks (..., n, n) of matrices; products, conjugate transposes and
embeddings then act matrix by matrix.

The library computes Sp(n) on complex 2n x 2n matrices in the split basis
(a_1..a_n, b_n..b_1); ``embed("split")`` is the map into it. Here the
quaternionic form is an input type (``kahler.cocycle_shift`` accepts an
Sp(n) element as a QuaternionMatrix) and the test oracle behind
``_linalg.quaternion_iwasawa`` and ``_linalg.quaternion_ul``.
"""

from __future__ import annotations

import numpy as np


class Quaternion:
    """q = z1 + z2*j with complex parts z1, z2."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1=0.0, z2=0.0):
        self.z1 = complex(z1)
        self.z2 = complex(z2)

    def conjugate(self) -> "Quaternion":
        # conj(z1 + z2*j) = conj(z1) - j*conj(z2) = conj(z1) - z2*j
        return Quaternion(self.z1.conjugate(), -self.z2)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return Quaternion(
                self.z1 * other.z1 - self.z2 * other.z2.conjugate(),
                self.z1 * other.z2 + self.z2 * other.z1.conjugate(),
            )
        lam = complex(other)  # right multiplication by a complex scalar
        return Quaternion(self.z1 * lam, self.z2 * lam.conjugate())

    def __rmul__(self, other):
        # other is a real/complex scalar acting from the left
        return Quaternion(other * self.z1, other * self.z2)

    def __add__(self, other):
        other = _as_quaternion(other)
        return Quaternion(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other):
        other = _as_quaternion(other)
        return Quaternion(self.z1 - other.z1, self.z2 - other.z2)

    def __neg__(self):
        return Quaternion(-self.z1, -self.z2)

    def __abs__(self) -> float:
        return float(np.hypot(abs(self.z1), abs(self.z2)))

    def inverse(self) -> "Quaternion":
        n2 = abs(self.z1) ** 2 + abs(self.z2) ** 2
        if n2 == 0.0:
            raise ZeroDivisionError("inverse of zero quaternion")
        c = self.conjugate()
        return Quaternion(c.z1 / n2, c.z2 / n2)

    def __eq__(self, other):
        other = _as_quaternion(other)
        return self.z1 == other.z1 and self.z2 == other.z2

    def __repr__(self):
        return f"Quaternion({self.z1!r}, {self.z2!r})"


def _as_quaternion(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    return Quaternion(complex(x), 0.0)


class QuaternionMatrix:
    """Matrix with quaternion entries, stored as complex parts (Z1, Z2)."""

    __slots__ = ("z1", "z2")

    def __init__(self, z1, z2=None):
        self.z1 = np.array(z1, dtype=complex)
        self.z2 = (np.zeros_like(self.z1) if z2 is None
                   else np.array(z2, dtype=complex))
        if self.z1.shape != self.z2.shape:
            raise ValueError("component shapes differ")

    @property
    def shape(self):
        return self.z1.shape

    @classmethod
    def eye(cls, n: int) -> "QuaternionMatrix":
        return cls(np.eye(n, dtype=complex))

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "QuaternionMatrix":
        m = n if m is None else m
        return cls(np.zeros((n, m), dtype=complex))

    def copy(self) -> "QuaternionMatrix":
        return QuaternionMatrix(self.z1.copy(), self.z2.copy())

    def __getitem__(self, idx) -> Quaternion:
        return Quaternion(self.z1[idx], self.z2[idx])

    def __setitem__(self, idx, value):
        q = _as_quaternion(value)
        self.z1[idx] = q.z1
        self.z2[idx] = q.z2

    def __matmul__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        a1, a2, b1, b2 = self.z1, self.z2, other.z1, other.z2
        return QuaternionMatrix(a1 @ b1 - a2 @ b2.conj(),
                                a1 @ b2 + a2 @ b1.conj())

    def __add__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        return QuaternionMatrix(self.z1 + other.z1, self.z2 + other.z2)

    def __sub__(self, other: "QuaternionMatrix") -> "QuaternionMatrix":
        return QuaternionMatrix(self.z1 - other.z1, self.z2 - other.z2)

    def conj_transpose(self) -> "QuaternionMatrix":
        # entrywise conjugate then transpose: (Z1, Z2)* = (Z1^H, -Z2^T)
        return QuaternionMatrix(np.conj(np.swapaxes(self.z1, -1, -2)),
                                -np.swapaxes(self.z2, -1, -2))

    @property
    def h(self) -> "QuaternionMatrix":
        return self.conj_transpose()

    def norm_max(self) -> float:
        return float(np.max(np.hypot(np.abs(self.z1), np.abs(self.z2))))

    def embed(self, order: str = "interleaved") -> np.ndarray:
        """Complex 2n x 2n image of the matrix.

        The entry q = z1 + z2*j maps to the 2x2 block
        [[z1, -z2], [conj(z2), conj(z1)]]. ``order`` selects the basis
        layout: "interleaved" pairs (a_k, b_k) per quaternionic slot,
        "split" orders slots as (a_1..a_n, b_n..b_1), the ordering in which
        the symplectic Borel subgroup is upper triangular. A stack of
        matrices embeds matrix by matrix.
        """
        *lead, n, m = self.shape
        out = np.zeros(tuple(lead) + (2 * n, 2 * m), dtype=complex)
        out[..., 0::2, 0::2] = self.z1
        out[..., 0::2, 1::2] = -self.z2
        out[..., 1::2, 0::2] = self.z2.conj()
        out[..., 1::2, 1::2] = self.z1.conj()
        if order == "interleaved":
            return out
        if order == "split":
            return out[..., split_permutation(n)[:, None], split_permutation(m)]
        raise ValueError(f"unknown order {order!r}")

    @classmethod
    def from_embedded(cls, m) -> "QuaternionMatrix":
        """The quaternionic matrix (or stack) of an interleaved embedding.

        Reads the even rows: exact on the image of ``embed``.
        """
        return cls(m[..., 0::2, 0::2], -m[..., 0::2, 1::2])

    def __repr__(self):
        return f"QuaternionMatrix(z1={self.z1!r}, z2={self.z2!r})"


def split_permutation(n: int) -> np.ndarray:
    """Indices mapping the interleaved basis to (a_1..a_n, b_n..b_1)."""
    a = np.arange(0, 2 * n, 2)
    b = np.arange(2 * n - 1, 0, -2)
    return np.concatenate([a, b])
