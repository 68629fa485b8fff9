"""Per-family Lie data: root systems, split bases, charts, Weyl generators.

Each compact family (SU(n), Sp(n), SO(3), SO(4)) is described by an adapter
that fixes, in one place, the conventions the numerical layer relies on:

* weight coordinates: elements of the dual Cartan are vectors c in R^rankdim;
  ``weight_matrix`` maps them to matrices, roots have integer coordinate
  vectors and their own ``root_matrix`` map. The chamber pairing is the
  euclidean dot product of the coordinate vectors, which matches the
  per-family trace form on the stored matrices.
* a "split" matrix realization in which the Borel subgroup is upper
  triangular, charts Z are lower unitriangular and holomorphic in their
  coordinates, and the Iwasawa A-part is a positive diagonal. For SU this
  is the defining representation and for Sp(n) the split basis
  (a_1..a_n, b_n..b_1) of C^2n, where Sp(n) = Sp(2n, C) n U(2n); both are
  also the working basis. For SO it is an isotropic basis reached by a
  fixed unitary T.
* chart coordinates in a fixed order, one complex coordinate per positive
  root (SU and Sp level by level down the subdiagonals of the chart, that
  is by root height).
* the potential functionals: linear maps on log of the Iwasawa A-diagonal
  whose values restrict to ln(1+|t|^2) exactly on the matching simple-root
  two-cycle and to 0 on the others. ``Family.potential_weights`` calibrates
  them, once per family, at the point t = 1 of each cycle chart.

``chart_split`` is the one per-family source of root-space data. The
lowering generator of a root is the chart's derivative along its coordinate
at the origin, the simple roots are the first ``rank`` coordinates, and the
two-cycle of simple root k is the chart restricted to coordinate k, which
is exp(t x_k); the base class reads all three off the chart.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._linalg import _rq
from .errors import UnsupportedGroup

_LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class RootInfo:
    """A positive root: its coordinate vector and a printable label."""
    vec: tuple
    label: str

    def as_array(self):
        return np.asarray(self.vec, dtype=float)


class Family:
    """Base adapter; concrete families fill in the tables in __init__."""

    family: str
    n: int
    rank: int
    rankdim: int          # length of weight-coordinate vectors
    slots: int            # size of the split matrix realization

    # filled by subclasses ------------------------------------------------
    positive_roots: list  # list[RootInfo], aligned with chart coordinates
    dual_weights: np.ndarray      # (rank, rankdim): rows h_k, h_k . a_j = delta
    pairing_scale: float          # B(A, B) = scale * Re Tr(A B)

    # --- coordinates <-> matrices ---------------------------------------

    def weight_matrix(self, c):
        raise NotImplementedError

    def root_matrix(self, a):
        raise NotImplementedError

    def weight_coords(self, m):
        """Inverse of weight_matrix."""
        raise NotImplementedError

    def initial_matrix(self, weights):
        """The initial point mu0 = sum_k xi_k h_k as a working-basis matrix."""
        return self.weight_matrix(self.initial_coords(weights))

    def initial_coords(self, weights):
        return np.asarray(weights, dtype=float) @ self.dual_weights

    def spectrum(self, m) -> np.ndarray:
        """Eigenvalues of a working-basis matrix."""
        return np.linalg.eigvals(np.asarray(m, dtype=complex))

    # --- charts -----------------------------------------------------------

    @property
    def chart_dim(self) -> int:
        return len(self.positive_roots)

    @property
    def simple_roots(self) -> list:
        """The simple roots: coordinates run by root height, these first."""
        return self.positive_roots[: self.rank]

    def chart_split(self, coords):
        """Split-basis matrices for a batch of chart coordinates (N, dim)."""
        raise NotImplementedError

    def chart_working(self, coords):
        """Chart matrix in the family's working basis.

        One coordinate vector (dim,) gives one matrix, a batch (N, dim) a
        stack of N.
        """
        z = self.working_from_split(self.chart_split(coords))
        return z if np.ndim(coords) == 2 else z[0]

    def chart_jacobian(self, coords):
        """Split charts and their holomorphic derivatives at a coordinate batch.

        Returns ``z`` (N, s, s) and ``a`` (N, dim, s, s) with
        a[:, k] = dz/dz_k. Every chart entry is a holomorphic polynomial of
        degree at most 2 in each single coordinate (SO(3) has z^2; the SO(4)
        and Sp entries are affine in each coordinate, as a product down a
        triangular matrix uses each entry at most once), so a central
        difference along a coordinate is the exact derivative for any step,
        whatever the total degree (n - 1 for Sp(n)). The step is the power of
        two at or above the point's largest coordinate (at least 1), which
        keeps the rounding of the difference relative to the derivative.
        """
        coords = np.atleast_2d(np.asarray(coords, dtype=complex))
        nb, dim = coords.shape
        e = np.eye(dim)
        h = np.exp2(np.ceil(np.log2(np.maximum(
            1.0, np.max(np.abs(coords), axis=1)))))[:, None, None]
        pts = coords[:, None] + h * np.concatenate([e, -e])
        z = self.chart_split(np.concatenate([coords, pts.reshape(-1, dim)]))
        d = z[nb:].reshape((nb, 2, dim) + z.shape[1:]) \
            / (2.0 * h[..., None, None])
        return z[:nb], d[:, 0] - d[:, 1]

    def coords_from_zeta_split(self, zeta):
        """Chart coordinates of a split-basis lower-unitriangular element.

        ``zeta`` may be a stack (..., s, s); the coordinates come last.
        """
        raise NotImplementedError

    def split_from_working(self, g):
        return np.asarray(g, dtype=complex)

    def working_from_split(self, g):
        return np.asarray(g, dtype=complex)

    # --- cycles and potentials ---------------------------------------------

    @cached_property
    def lowering_generators(self) -> np.ndarray:
        """x_b = dz/dz_b at the origin, one per positive root (dim, s, s).

        The chart Jacobian is exact (see ``chart_jacobian``), so these are
        the root vectors of the chart's own normalization; read-only.
        """
        x = self.chart_jacobian(np.zeros(self.chart_dim))[1][0]
        x.setflags(write=False)
        return x

    def cycle_generators(self) -> np.ndarray:
        """Lowering generators x_k of the simple roots, one per cycle."""
        return self.lowering_generators[: self.rank]

    def cycle_chart(self, k: int, t):
        """Split chart of the k-th simple-root two-cycle at t, any shape.

        The chart with coordinate k set to t and the others zero; it is
        exp(t x_k), so dz/dt = z x_k.
        """
        t = np.asarray(t, dtype=complex)
        coords = np.zeros((t.size, self.chart_dim), dtype=complex)
        coords[:, k] = t.ravel()
        return self.chart_split(coords).reshape(t.shape + (self.slots,) * 2)

    def log_a(self, z_split):
        """log of the Iwasawa A-diagonal for a batch of split matrices."""
        return np.log(_rq(z_split, r_only=True))

    @cached_property
    def potential_weights(self) -> np.ndarray:
        """Rows W_k with Phi_k = W_k . log a; dual to the simple-root cycles."""
        rows = []
        for k in range(self.rank):
            z = self.cycle_chart(k, np.array([1.0 + 0.0j]))
            rows.append(self.log_a(z)[0] / _LN2)
        v = np.asarray(rows)
        return np.linalg.solve(v @ v.T, v)

    @cached_property
    def simple_root_coefficients(self) -> np.ndarray:
        """Integer rows c with positive root beta = sum_k c_k alpha_k."""
        vecs = np.array([info.vec for info in self.positive_roots])
        return np.rint(vecs @ self.dual_weights.T).astype(int)

    @property
    def minor_weights(self) -> np.ndarray:
        """Rows C_k with Phi_k = sum_j C_kj log det G[j:, j:], G = z z*.

        From log a_j = (log det G[j:, j:] - log det G[j+1:, j+1:]) / 2.
        """
        return 0.5 * np.diff(self.potential_weights, axis=1, prepend=0.0)

    def potentials(self, z_split) -> np.ndarray:
        """All rank basis potentials Phi_k at a batch of split matrices."""
        return self.log_a(z_split) @ self.potential_weights.T

    def chart_potentials(self, coords) -> np.ndarray:
        """All rank basis potentials at a batch (N, dim) of chart coordinates."""
        return self.potentials(self.chart_split(coords))

    # --- torus ------------------------------------------------------------

    def torus_coords(self, d_diag_split) -> np.ndarray:
        """Coordinates (d_1..d_l) of a complexified-torus split diagonal."""
        raise NotImplementedError

    def a_parameters(self, log_a) -> np.ndarray:
        """Family torus parameters of an A-element from its split log-diagonal.

        The log-diagonal may be a stack (..., slots); the parameters are last.
        """
        raise NotImplementedError

    # --- Weyl -------------------------------------------------------------

    def weyl_generators(self):
        """Matrix representatives of the simple reflections (working basis)."""
        raise NotImplementedError

    # --- misc ---------------------------------------------------------------

    def stabilizer_description(self, walls) -> str:
        """Name of the stabilizer of a point on the given simple-root walls."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# SU(n)


class SUFamily(Family):
    """SU(n): split basis = defining basis, charts are lower unitriangular."""

    family = "su"

    def __init__(self, n: int):
        if n < 2:
            raise UnsupportedGroup(f"SU({n}) is not supported (need n >= 2)")
        self.n = n
        self.rank = n - 1
        self.rankdim = n
        self.slots = n
        self.pairing_scale = 1.0

        # level order: subdiagonal distance 1 first, then 2, ...; the
        # entry (r, c) is the coordinate of e_c - e_r
        positions = [(i + lvl, i) for lvl in range(1, n) for i in range(n - lvl)]
        e = np.eye(n)
        self.positive_roots = [RootInfo(tuple(e[c] - e[r]), f"e{c + 1}-e{r + 1}")
                               for r, c in positions]
        self._rows, self._cols = np.array(positions).T
        # dual basis: fundamental weight vectors
        dual = np.zeros((n - 1, n))
        for k in range(1, n):
            dual[k - 1, :k] = 1.0 - k / n
            dual[k - 1, k:] = -k / n
        self.dual_weights = dual

    # matrices ------------------------------------------------------------

    def weight_matrix(self, c):
        return -1j * np.diag(np.asarray(c, dtype=float))

    def root_matrix(self, a):
        return 1j * np.diag(np.asarray(a, dtype=float))

    def weight_coords(self, m):
        return np.real(1j * np.diagonal(np.asarray(m)))

    # charts ---------------------------------------------------------------

    def chart_split(self, coords):
        coords = np.atleast_2d(np.asarray(coords, dtype=complex))
        nb = coords.shape[0]
        z = np.empty((nb, self.n, self.n), dtype=complex)
        z[...] = np.eye(self.n)
        z[:, self._rows, self._cols] = coords
        return z

    def coords_from_zeta_split(self, zeta):
        return np.asarray(zeta)[..., self._rows, self._cols]

    # torus ------------------------------------------------------------------

    def torus_coords(self, d_diag):
        d = np.asarray(d_diag, dtype=complex)
        return 1.0 / np.cumprod(d)[: self.rank]

    def a_parameters(self, log_a):
        # r_k from a = diag(1/r1, r1/r2, ..., r_{n-1})
        return np.exp(-np.cumsum(log_a, axis=-1)[..., : self.rank])

    # Weyl ---------------------------------------------------------------------

    def weyl_generators(self):
        if self.n == 3:
            w1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, -1]], dtype=complex)
            w2 = np.array([[-1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
            return [w1, w2]
        gens = []
        for k in range(self.n - 1):
            w = np.eye(self.n, dtype=complex)
            w[k, k] = w[k + 1, k + 1] = 0.0
            w[k, k + 1] = 1.0
            w[k + 1, k] = -1.0
            gens.append(w)
        return gens

    def stabilizer_description(self, walls):
        blocks = _wall_blocks(walls, self.n)
        if all(b == 1 for b in blocks):
            return "x".join(["U(1)"] * self.rank)
        big = [b for b in blocks if b > 1]
        if len(big) == 1:
            parts = [f"SU({big[0]})"] + ["U(1)"] * (len(blocks) - 1)
            return "x".join(parts)
        return "S(" + "x".join(f"U({b})" for b in blocks) + ")"


# ---------------------------------------------------------------------------
# Sp(n)


class SpFamily(Family):
    """Sp(n) = Sp(2n, C) n U(2n) on a holomorphic chart of Sp(2n, C).

    Split slot order is (a_1..a_n, b_n..b_1) with slot weights
    (e_1..e_n, -e_n..-e_1) and symplectic form ``_omega`` = [[0, J], [-J, 0]],
    J the n x n index reversal; this is also the working basis. The chart is
    the lower unipotent group

        z = [[A, 0], [J (U A - S), J A^-T J]],

    A unit lower triangular with A[r, c] the coordinate of e_c - e_r, U
    complex symmetric with U[r, c] = U[c, r] the coordinate of e_c + e_r and
    U[k, k] that of 2e_k, and S = x [[U10, U11/2], [U11/2, 0]] on the first
    two indices, x = A[1, 0]. z is symplectic as P = (U A - S) A^-1 =
    U - S A^-1 is symmetric. S puts the Sp(2) corner half way between the
    two factor orders, [[I, 0], [J U, I]] diag(A, J A^-T J) (P = U) and its
    reverse (P = A^-T U A^-1): with either order alone, the Sp(2) points
    where e1+e2 and 2e1 vanish lie on the pole of a chart transition of
    length two ((1, 0) or (0, 1)), with S on none. Every entry of z has
    degree at most 2 in each coordinate, and in all of them up to Sp(3).

    Each root has one entry of M = [[A], [J U]] on or above its
    anti-diagonal; as for SU, the coordinates run level by level down the
    subdiagonals of z through those entries, so they are ordered by root
    height, simple roots first.
    """

    family = "sp"

    def __init__(self, n: int):
        if n < 2:
            raise UnsupportedGroup(f"Sp({n}) is not supported (need n >= 2)")
        self.n = n
        self.rank = n
        self.rankdim = n
        self.slots = s = 2 * n
        self.pairing_scale = -0.5

        # slot weights (e_1..e_n, -e_n..-e_1)
        w = np.concatenate([np.eye(n), -np.eye(n)[::-1]])
        # entries (r, c) of M, level r - c: the root is w[c] - w[r]
        positions = [(c + lvl, c) for lvl in range(1, s)
                     for c in range(min(n, s - lvl)) if 2 * c + lvl < s]
        self.positive_roots = [RootInfo(tuple(w[c] - w[r]), _sp_label(c, r, n))
                               for r, c in positions]
        self._rows, self._cols = np.array(positions).T
        # U[c, r] = U[r, c]: the entries of J U below its anti-diagonal
        mirror = [(k, s - 1 - c, s - 1 - r) for k, (r, c) in enumerate(positions)
                  if r >= n and r + c < s - 1]
        self._midx, self._mrows, self._mcols = np.array(mirror).T
        dual = np.zeros((n, n))
        for k in range(n - 1):
            dual[k, : k + 1] = 1.0
        dual[n - 1, :] = 0.5
        self.dual_weights = dual
        self._omega = self._build_omega()

    def _build_omega(self):
        n = self.n
        om = np.zeros((2 * n, 2 * n))
        for k in range(n):
            om[k, 2 * n - 1 - k] = 1.0
            om[2 * n - 1 - k, k] = -1.0
        return om

    # matrices -------------------------------------------------------------

    def _split_diag(self, c):
        c = np.asarray(c, dtype=float)
        return np.concatenate([c, -c[::-1]])

    def weight_matrix(self, c):
        return 1j * np.diag(self._split_diag(c))

    def root_matrix(self, a):
        return self.weight_matrix(a)

    def weight_coords(self, m):
        d = np.diagonal(np.asarray(m))
        return np.imag(d[: self.n])

    # charts -----------------------------------------------------------------

    def chart_split(self, coords):
        coords = np.atleast_2d(np.asarray(coords, dtype=complex))
        nb, n = coords.shape[0], self.n
        eye = np.eye(n, dtype=complex)
        z = np.zeros((nb, 2 * n, 2 * n), dtype=complex)
        z[:, :n, :n] = eye
        z[:, self._rows, self._cols] = coords          # [[A], [J U]]
        z[:, self._mrows, self._mcols] = coords[:, self._midx]
        low, ju = z[:, :n, :n] - eye, z[:, n:, :n]
        # J S of the Sp(2) corner: S = x [[U10, U11/2], [U11/2, 0]]
        x = low[:, 1, 0]
        js = x * ju[:, n - 2, 0], 0.5 * x * ju[:, n - 2, 1]
        ju += _small_matmul(ju, low)
        ju[:, -1, 0] -= js[0]
        ju[:, -1, 1] -= js[1]
        ju[:, -2, 0] -= js[1]
        # A^-1 = sum_k (-L)^k, L = A - I nilpotent of order n, by Horner
        inv = eye - low
        for _ in range(n - 2):
            inv = eye - _small_matmul(low, inv)
        z[:, n:, n:] = np.swapaxes(inv, -1, -2)[:, ::-1, ::-1]
        return z

    def coords_from_zeta_split(self, zeta):
        # zeta = [[A, 0], [C, D]] with A^-1 = J D^T J, so J P = C A^-1;
        # U = P + S A^-1 on the Sp(2) corner. A and A^-1 are both read from
        # D: a rounded zeta is not exactly symplectic, and the trailing rows
        # [C, D] carry the potential, so a chart rebuilt around the A block
        # instead misses them (Phi by up to 1e-7 near the cell boundary)
        n = self.n
        zeta = np.asarray(zeta)
        a_inv = np.swapaxes(zeta[..., n:, n:], -1, -2)[..., ::-1, ::-1]
        # A from A^-1 A = I, row by row: A[i, :i] = -A^-1[i, :i] A[:i, :i]
        a = a_inv.copy()
        for i in range(1, n):
            a[..., i, :i] = -(a_inv[..., i:i + 1, :i]
                              @ a[..., :i, :i])[..., 0, :]
        jp = zeta[..., n:, :n] @ a_inv
        x = a[..., 1, 0]
        h = 0.5 * x * jp[..., n - 2, 1]
        u10 = jp[..., n - 1, 1] + h
        jp[..., n - 1, 0] += x * (u10 - h)
        jp[..., n - 1, 1] = jp[..., n - 2, 0] = u10
        return np.concatenate([a, jp], axis=-2)[..., self._rows, self._cols]

    # torus ---------------------------------------------------------------------

    def torus_coords(self, d_diag):
        return np.asarray(d_diag, dtype=complex)[: self.n]

    def a_parameters(self, log_a):
        # (r_1..r_n), the first half of the split A-diagonal
        return np.exp(np.asarray(log_a)[..., : self.n])

    # Weyl --------------------------------------------------------------------

    def weyl_generators(self):
        # real signed permutations, each symplectic: e_k <-> e_{k+1} on the a
        # and b slots, and the quaternion j on (a_n, b_n)
        n, s = self.n, self.slots
        gens = []
        for k in range(n - 1):
            w = np.eye(s, dtype=complex)
            perm = np.arange(s)
            perm[[k, k + 1, s - 2 - k, s - 1 - k]] = \
                [k + 1, k, s - 1 - k, s - 2 - k]
            gens.append(w[perm])
        w = np.eye(s, dtype=complex)
        w[n - 1, n - 1] = w[n, n] = 0.0
        w[n - 1, n] = -1.0
        w[n, n - 1] = 1.0
        gens.append(w)
        return gens

    def stabilizer_description(self, walls):
        # a wall on the long root 2e_n sends the last block to zero: Sp(b)
        blocks = _wall_blocks(walls, self.n)
        parts = [f"U({b})" for b in blocks]
        if self.n - 1 in walls:
            parts[-1] = f"Sp({blocks[-1]})"
        return "x".join(parts)


# ---------------------------------------------------------------------------
# SO(3), SO(4)


class SOFamily(Family):
    """SO(3) and SO(4) with rotation-block Cartan conventions.

    Working basis: real antisymmetric matrices, Cartan spanned by rotation
    blocks L(1,2) (and L(3,4)). The split basis orders isotropic vectors as
    (ubar_1, [ubar_2, u_2,] e_odd, u_1) so charts are lower unitriangular
    and A is diagonal.
    """

    family = "so"

    def __init__(self, n: int):
        if n not in (3, 4):
            raise UnsupportedGroup(
                f"SO({n}) is not supported; the chart structure is explicit "
                "only for n in {3, 4}")
        self.n = n
        m = n // 2
        self.rank = m
        self.rankdim = m
        self.slots = n
        self.pairing_scale = -0.5

        if n == 3:
            self.positive_roots = [RootInfo((1.0,), "e1")]
            self.dual_weights = np.array([[1.0]])
            t = np.zeros((3, 3), dtype=complex)
            rt = 1.0 / np.sqrt(2.0)
            t[:, 0] = [rt, -1j * rt, 0.0]     # ubar_1
            t[:, 1] = [0.0, 0.0, 1.0]         # e_3
            t[:, 2] = [rt, 1j * rt, 0.0]      # u_1
            self._t = t
        else:
            self.positive_roots = [RootInfo((1.0, -1.0), "e1-e2"),
                                   RootInfo((1.0, 1.0), "e1+e2")]
            self.dual_weights = np.array([[0.5, -0.5], [0.5, 0.5]])
            t = np.zeros((4, 4), dtype=complex)
            rt = 1.0 / np.sqrt(2.0)
            t[:, 0] = [rt, -1j * rt, 0.0, 0.0]    # ubar_1
            t[:, 1] = [0.0, 0.0, rt, -1j * rt]    # ubar_2
            t[:, 2] = [0.0, 0.0, rt, 1j * rt]     # u_2
            t[:, 3] = [rt, 1j * rt, 0.0, 0.0]     # u_1
            self._t = t

    # matrices ----------------------------------------------------------------

    def weight_matrix(self, c):
        c = np.asarray(c, dtype=float)
        m = np.zeros((self.n, self.n), dtype=complex)
        for k in range(self.rank):
            m[2 * k, 2 * k + 1] = c[k]
            m[2 * k + 1, 2 * k] = -c[k]
        return m

    def root_matrix(self, a):
        return self.weight_matrix(a)

    def weight_coords(self, m):
        m = np.asarray(m)
        return np.real(np.array([m[2 * k, 2 * k + 1] for k in range(self.rank)]))

    # charts ---------------------------------------------------------------------

    def split_from_working(self, g):
        return self._t.conj().T @ np.asarray(g, dtype=complex) @ self._t

    def working_from_split(self, g):
        return self._t @ np.asarray(g, dtype=complex) @ self._t.conj().T

    def chart_split(self, coords):
        coords = np.atleast_2d(np.asarray(coords, dtype=complex))
        nb = coords.shape[0]
        if self.n == 3:
            z = np.broadcast_to(np.eye(3, dtype=complex), (nb, 3, 3)).copy()
            rt2 = np.sqrt(2.0)
            z[:, 1, 0] = rt2 * coords[:, 0]
            z[:, 2, 1] = -rt2 * coords[:, 0]
            z[:, 2, 0] = -coords[:, 0] ** 2
            return z
        z = np.broadcast_to(np.eye(4, dtype=complex), (nb, 4, 4)).copy()
        z1, z2 = coords[:, 0], coords[:, 1]
        z[:, 1, 0] = z1
        z[:, 3, 2] = -z1
        z[:, 2, 0] = z2
        z[:, 3, 1] = -z2
        z[:, 3, 0] = -z1 * z2
        return z

    def coords_from_zeta_split(self, zeta):
        zeta = np.asarray(zeta)
        if self.n == 3:
            return zeta[..., 1:2, 0] / np.sqrt(2.0)
        return zeta[..., 1:3, 0]

    # torus -------------------------------------------------------------------

    def torus_coords(self, d_diag):
        d = np.asarray(d_diag, dtype=complex)
        # u_k sits at slot (slots - k), k = 1..rank
        return np.array([d[self.slots - 1 - k] for k in range(self.rank)])

    def a_parameters(self, log_a):
        # u_k sits at slot (slots - k), k = 1..rank
        return np.asarray(log_a)[..., self.slots - 1 - np.arange(self.rank)]

    # Weyl -----------------------------------------------------------------------

    def weyl_generators(self):
        if self.n == 3:
            return [np.diag([1.0, -1.0, -1.0]).astype(complex)]
        w1 = np.zeros((4, 4), dtype=complex)
        w1[0, 2] = w1[1, 3] = w1[2, 0] = w1[3, 1] = 1.0
        w2 = np.zeros((4, 4), dtype=complex)
        w2[0, 2] = w2[2, 0] = 1.0
        w2[1, 3] = w2[3, 1] = -1.0
        return [w1, w2]

    def stabilizer_description(self, walls):
        if self.n == 3:
            return "SO(2)"
        return "U(2)" if walls else "SO(2)xSO(2)"


def _sp_label(c: int, r: int, n: int) -> str:
    """Label of the Sp(n) root of the chart entry (r, c) of [[A], [J U]]."""
    if r < n:
        return f"e{c + 1}-e{r + 1}"
    r = 2 * n - 1 - r
    return f"2e{c + 1}" if r == c else f"e{c + 1}+e{r + 1}"


def _small_matmul(x, y):
    """x @ y for stacks of small matrices, one broadcast product per inner
    index: np.matmul makes one call per matrix, which costs several times as
    much at these sizes."""
    out = x[..., :, :1] * y[..., :1, :]
    for k in range(1, x.shape[-1]):
        out += x[..., :, k:k + 1] * y[..., k:k + 1, :]
    return out


def _wall_blocks(walls, size: int) -> list:
    """Sizes of the runs of slots 0..size-1, wall k joining slots k and k+1."""
    cuts = [0] + [k + 1 for k in range(size - 1) if k not in walls] + [size]
    return [b - a for a, b in zip(cuts, cuts[1:])]


@lru_cache(maxsize=32)
def get_family(family: str, n: int) -> Family:
    family = family.lower()
    if family == "su":
        return SUFamily(n)
    if family == "sp":
        return SpFamily(n)
    if family == "so":
        return SOFamily(n)
    raise UnsupportedGroup(f"unknown family {family!r}")
