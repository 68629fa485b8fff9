"""Per-family Lie data: root systems, split bases, charts, Weyl generators.

Each group SU(n), Sp(n), SO(3), SO(4) is a ``Family``: the group type, which
fixes in one place the conventions the numerical layer relies on:

* weight coordinates: elements of the dual Cartan are vectors c in R^rankdim;
  each is defined by its split-basis diagonal (``split_diagonal``), which
  ``weight_matrix`` maps to the working basis, and roots have integer
  coordinate vectors and map alike (``root_matrix``). The chamber pairing
  is the euclidean dot product of the coordinate vectors, which matches
  the per-family trace form on the stored matrices.
* a "split" matrix realization in which the Borel subgroup is upper
  triangular, charts Z are lower unitriangular and holomorphic in their
  coordinates, and the Iwasawa A-part is a positive diagonal. For SU this
  is the defining representation and for Sp(n) the split basis
  (a_1..a_n, b_n..b_1) of C^2n, where Sp(n) = Sp(2n, C) n U(2n); both are
  also the working basis. For SO it is an isotropic basis reached by a
  fixed unitary T.
* one table, ``slot_weights`` eps: the weight of each split slot. Chart
  coordinates are the entries (r, c) below the diagonal, level by level
  (so by root height), cut at the anti-diagonal; (r, c) is the coordinate
  of the positive root eps_c - eps_r.
* the potential functionals: linear maps on log of the Iwasawa A-diagonal
  whose values restrict to ln(1+|t|^2) exactly on the matching simple-root
  two-cycle and to 0 on the others, in closed form from eps
  (``Family.potential_weights``).

``chart_split`` is the one per-family source of root-space data, and
``chart_jacobian`` differentiates it in closed form. SU writes its chart in
one scatter and SO in a few; Sp evaluates its chart and its Gauss-Bruhat
read-out from index tables compiled once per family (``_Passes``): passes
of two-factor products gathered from a per-row buffer, rows on the fast
axis, the Jacobian by the product rule along the same passes. The lowering
generator of a root is the chart's derivative along its coordinate at the
origin, the simple roots are the first ``rank`` coordinates, and the
two-cycle of simple root k is the chart restricted to coordinate k, which
is exp(t x_k); the base class reads all three off the chart.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, lru_cache, wraps
from math import factorial

import numpy as np

from ._linalg import _read_only, _rq
from .errors import UnsupportedGroup

# complex values in one row block of an Sp chart buffer (1 MiB): a block
# stays in cache and the next one reuses its memory, where one buffer for a
# whole 20,736-row Sp(2) grid pays for fresh pages (2.0 against 10 ms on a
# two-CPU x86-64 host)
_BLOCK_VALUES = 1 << 16


@dataclass(frozen=True)
class RootInfo:
    """A positive root: its coordinate vector and a printable label."""
    vec: tuple
    label: str

    def as_array(self):
        return np.asarray(self.vec, dtype=float)


def _root(vec) -> RootInfo:
    """The root with coordinates ``vec``, labelled as in e1-e2, e1+e2, 2e1."""
    terms = "".join(("-" if v < 0 else "+") + ("2" if abs(v) == 2 else "")
                    + f"e{i + 1}" for i, v in enumerate(vec) if v)
    return RootInfo(tuple(vec), terms.lstrip("+"))


def per_group(fn):
    """``fn(group, *args)``, computed once per group and ``args`` and kept
    in a table on the group (``Family._tables``): the table is freed with
    the group, and no lookup hashes the group. ``__wrapped__`` is ``fn``."""
    @wraps(fn)
    def kept(group, *args):
        table = group._tables[fn]
        try:
            return table[args]
        except KeyError:
            pass
        out = table[args] = fn(group, *args)
        return out
    return kept


class Family:
    """A group, equal to any of its family and n. Subclasses set their sizes in
    __init__, then call ``Family.__init__`` with their slot weights."""

    family: str
    n: int
    rank: int
    rankdim: int          # length of weight-coordinate vectors
    slots: int            # size of the split matrix realization
    pairing_scale: float  # B(A, B) = scale * Re Tr(A B)
    weyl_order: int       # |W| in closed form (Bourbaki, ch. VI, Plates)
    # the chart keeps the entries with r + c <= slots - 1 - gap: 0 keeps the
    # anti-diagonal (Sp), 1 cuts it (SO), None keeps every entry (SU)
    _antidiagonal_gap: int | None = None

    slot_weights: np.ndarray  # (slots, rankdim), read-only
    weight_phase: complex = -1j   # mu0 = phase * diag(eps @ c), split basis
    positive_roots: list  # list[RootInfo], aligned with chart coordinates

    def __init__(self, slot_weights=None):
        # by default (e_1..e_r, [0,] -e_r..-e_1), r the rank: slots i and
        # s - 1 - i pair with opposite weights (Sp, SO)
        if slot_weights is None:
            half = np.eye(self.rank)
            mid = np.zeros((self.slots - 2 * self.rank, self.rank))
            slot_weights = np.concatenate([half, mid, -half[::-1]])
        self.slot_weights = eps = _read_only(slot_weights)[0]
        s, gap = self.slots, self._antidiagonal_gap
        positions = [(c + lvl, c) for lvl in range(1, s) for c in range(s - lvl)
                     if gap is None or 2 * c + lvl <= s - 1 - gap]
        self._rows, self._cols = np.array(positions).T
        self.positive_roots = [_root(eps[c] - eps[r]) for r, c in positions]
        self._eye = _read_only(np.eye(s, dtype=complex))[0]
        self._tables = defaultdict(dict)    # per_group function -> table

    @cached_property
    def dual_weights(self) -> np.ndarray:
        """Rows h_k with h_k . alpha_j = delta_kj: the inverse transpose of
        the simple roots. SU, whose roots span a hyperplane, overrides this."""
        simple = np.array([info.vec for info in self.simple_roots])
        return _read_only(np.linalg.inv(simple).T)[0]

    @property
    def name(self) -> str:
        pretty = {"su": "SU", "sp": "Sp", "so": "SO"}[self.family]
        return f"{pretty}({self.n})"

    def __repr__(self):
        return f"build_group({self.family!r}, {self.n})"

    @property
    def adapter(self) -> Family:
        """The group itself, kept for callers from when the group was a
        separate handle: the tests and ``perfbench/workloads.py``."""
        return self

    def __eq__(self, other):
        return type(other) is type(self) and other.n == self.n

    def __hash__(self):
        return hash((self.family, self.n))

    # --- coordinates <-> matrices ---------------------------------------

    def weight_matrix(self, c):
        """``split_diagonal(c)`` in the working basis."""
        return self.working_from_split(np.diag(self.split_diagonal(c)))

    def root_matrix(self, a):
        return self.weight_matrix(a)

    def weight_coords(self, m):
        """Inverse of weight_matrix: c_i off the first split slot of weight
        +-e_i."""
        slot = np.abs(self.slot_weights).argmax(axis=0)
        d = np.diagonal(self.split_from_working(m))[slot]
        sign = self.slot_weights[slot, np.arange(self.rankdim)]
        return d.imag * (sign * self.weight_phase.imag)

    def initial_coords(self, weights):
        return np.asarray(weights, dtype=float) @ self.dual_weights

    def split_diagonal(self, c):
        """The point of weight coordinates ``c`` in the split basis, where it
        is diagonal: phase * (eps @ c), read off the slot weights. mu0's one
        definition, and its exact spectrum: each slot weight has at most one
        nonzero entry, +1 or -1, so each value is one exact product.
        """
        c = np.asarray(c, dtype=float)
        j = np.abs(self.slot_weights).argmax(axis=1)
        sign = self.slot_weights[np.arange(self.slots), j]
        return self.weight_phase * (sign * c[j])

    def spectrum(self, m) -> np.ndarray:
        """Eigenvalues of an anti-hermitian working-basis matrix or stack.

        mu0 and every dressed point are anti-hermitian in the working basis,
        so i m is hermitian and the spectrum is -i times its real
        eigenvalues. The hermitian solver reads only the lower triangle of
        i m: whether m is anti-hermitian is for the caller to check
        (``checks.anti_hermitian_residual``).
        """
        return -1j * np.linalg.eigvalsh(1j * np.asarray(m, dtype=complex))

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
        return self._chart(coords, False)[:, 0]

    def chart_working(self, coords):
        """Chart matrix in the family's working basis.

        One coordinate vector (dim,) gives one matrix, a batch (N, dim) a
        stack of N.
        """
        c = np.asarray(coords, dtype=complex)
        z = self.working_from_split(self.chart_split(c))
        return z if c.ndim == 2 else z[0]

    def chart_jacobian(self, coords):
        """Split charts and their holomorphic derivatives at a coordinate batch.

        Returns ``z`` (N, s, s) and ``a`` (N, dim, s, s) with
        a[:, k] = dz/dz_k in closed form: SU reads its constant E_(r, c) off
        a table, SO and Sp take the product rule along their one chart build
        (``_chart``). ``a`` may be a read-only view.
        """
        z = self._chart(coords, True)
        return z[:, 0], z[:, 1:]

    def _chart(self, coords, jac: bool):
        """(N, 1 + dim, s, s) with ``jac``, else (N, 1, s, s): the charts at
        [:, 0] and dz/dz_k at [:, 1 + k].

        ``_fill_chart`` writes the chart into the identity from a stack c of
        the point and, with ``jac``, the unit vectors e_k, one slot each: an
        entry linear in c is then its own derivative, and a product of two
        takes the product rule (``_dual``).
        """
        c = np.asarray(coords, dtype=complex)
        c = (c if c.ndim > 1 else c.reshape(1, -1))[:, None]
        if jac:
            e = np.eye(c.shape[-1])
            c = np.concatenate([c, np.broadcast_to(e, (len(c),) + e.shape)], 1)
        z = np.zeros(c.shape[:2] + (self.slots,) * 2, dtype=complex)
        z[:, 0] = self._eye
        self._fill_chart(z, c)
        return z

    def _fill_chart(self, z, c):
        z[..., self._rows, self._cols] = c

    @cached_property
    def zeta_entries(self) -> tuple:
        """(flat index, row) of the zeta entries the read-out reads."""
        return _read_only(self._rows * self.slots + self._cols, self._rows)

    def coords_from_zeta_entries(self, values):
        return values

    def coords_from_zeta_split(self, zeta):
        """Chart coordinates of a split-basis lower-unitriangular element.

        ``zeta`` may be a stack (..., s, s); the coordinates come last.
        """
        flat = np.reshape(zeta, np.shape(zeta)[:-2] + (self.slots ** 2,))
        return self.coords_from_zeta_entries(flat[..., self.zeta_entries[0]])

    def split_from_working(self, g):
        return np.asarray(g, dtype=complex)

    def working_from_split(self, g):
        return np.asarray(g, dtype=complex)

    # --- cycles and potentials ---------------------------------------------

    @cached_property
    def lowering_generators(self) -> np.ndarray:
        """x_b = dz/dz_b at the origin, one per positive root (dim, s, s).

        Read off the closed-form ``chart_jacobian``, so these are the root
        vectors of the chart's own normalization; read-only.
        """
        x = self.chart_jacobian(np.zeros(self.chart_dim))[1][0]
        return _read_only(x)[0]

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
        """log of the Iwasawa A-diagonal for a batch of split matrices.

        Only the trailing ``rank`` rows of each chart are factored (an
        s x rank QR, ``_rq``); ``log_a_from_tail`` fills in the rest.
        """
        tail = np.asarray(z_split)[..., -self.rank:, :]
        return self.log_a_from_tail(_rq(tail, r_only=True))

    def log_a_from_tail(self, d):
        """The (..., slots) log-diagonal of a torus element from the moduli
        of the last ``rank`` entries of ``d``: log a is read off here alone.

        ``d`` is a triangular factor's diagonal, real or complex (an Iwasawa
        A, a Gauss-Bruhat d), or its trailing entries (``_rq``): the
        factorization's first steps, accurate far out on the chart. Sp and
        SO: log a_i = -log a_(s-1-i), s the slots, and the SO(3) middle
        slot is 0. SU overrides this with its determinant.
        """
        tail = np.log(abs(np.asarray(d)[..., -self.rank:]))
        mid = np.zeros(tail.shape[:-1] + (self.slots - 2 * self.rank,))
        return np.concatenate([-tail[..., ::-1], mid, tail], axis=-1)

    @cached_property
    def potential_weights(self) -> np.ndarray:
        """Rows W_k = -2 (h_k . eps) / sum_i (h_k . eps_i)(a_k . eps_i), with
        Phi_k = W_k . log a, h the ``dual_weights`` and eps the slot weights;
        read-only, exact on Sp and SO.

        The cycle of simple root k, coroot a_k, has log a = -ln(1+|t|^2)
        (a_k . eps) / 2, so Phi_k = ln(1+|t|^2) on it, and eps^T eps is a
        multiple of the identity, so Phi_k = 0 on the others.
        """
        h = self.dual_weights @ self.slot_weights.T
        a = self.simple_coroots @ self.slot_weights.T
        return _read_only(-2.0 * h / (h * a).sum(axis=1, keepdims=True))[0]

    @cached_property
    def simple_coroots(self) -> np.ndarray:
        """Rows 2 a_k / <a_k, a_k>, a_k the simple roots; read-only. A row has
        at most two nonzero entries, each +-1 or +-2: a pairing rounds once."""
        a = np.array([info.vec for info in self.simple_roots])
        return _read_only(2.0 * a / (a * a).sum(axis=1, keepdims=True))[0]

    @cached_property
    def simple_root_coefficients(self) -> np.ndarray:
        """Integer rows c with positive root beta = sum_k c_k alpha_k; read-only."""
        vecs = np.array([info.vec for info in self.positive_roots])
        return _read_only(np.rint(vecs @ self.dual_weights.T).astype(int))[0]

    @cached_property
    def minor_weights(self) -> np.ndarray:
        """Rows C_k with Phi_k = sum_j C_kj log det G[j:, j:], G = z z*.

        From log a_j = (log det G[j:, j:] - log det G[j+1:, j+1:]) / 2.
        """
        return _read_only(0.5 * np.diff(self.potential_weights, axis=1,
                                        prepend=0.0))[0]

    def fold(self, log_a, weights) -> np.ndarray:
        """sum_k weights_k Phi_k, (N,) or (N, l) for weights (rank,) or
        (rank, l), from an (N, slots) log-diagonal: one row-vector product
        per row with c = potential_weights.T @ weights, so a row does not
        depend on its batch, as it would in one gemm over the batch."""
        c = self.potential_weights.T @ np.asarray(weights, dtype=float)
        return np.matmul(np.asarray(log_a)[:, None, :], c)[:, 0]

    def potentials(self, z_split) -> np.ndarray:
        """All rank basis potentials Phi_k at a batch of split matrices."""
        return self.fold(self.log_a(z_split), np.eye(self.rank))

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
        self.weyl_order = factorial(n)
        super().__init__(np.eye(n))

    @cached_property
    def dual_weights(self) -> np.ndarray:
        """Traceless fundamental weights h_k = e_1 + .. + e_k - k/n."""
        n = self.n
        return _read_only(np.tri(n - 1, n) - np.arange(1, n)[:, None] / n)[0]

    @cached_property
    def _units(self) -> np.ndarray:
        """dz/dz_k = E_(r_k, c_k), one read-only table, built on first use."""
        units = np.zeros((self.chart_dim, self.n, self.n), dtype=complex)
        units[np.arange(self.chart_dim), self._rows, self._cols] = 1.0
        return _read_only(units)[0]

    # matrices ------------------------------------------------------------

    def root_matrix(self, a):
        return 1j * np.diag(np.asarray(a, dtype=float))

    # charts ---------------------------------------------------------------

    def chart_jacobian(self, coords):
        z = self.chart_split(coords)
        return z, np.broadcast_to(self._units, z.shape[:1] + self._units.shape)

    # torus ------------------------------------------------------------------

    def torus_coords(self, d_diag):
        d = np.asarray(d_diag, dtype=complex)
        return 1.0 / np.cumprod(d)[: self.rank]

    def log_a_from_tail(self, d):
        # a unitriangular chart has det 1: the log-diagonal sums to 0
        tail = np.log(abs(np.asarray(d)[..., -self.rank:]))
        return np.concatenate([-tail.sum(axis=-1, keepdims=True), tail],
                              axis=-1)

    def a_parameters(self, log_a):
        # r_k from a = diag(1/r1, r1/r2, ..., r_{n-1}): ln r_k is the sum of
        # log a from slot k on (exp before the reversal: np.exp of a
        # reversed view rounds with the batch size)
        suffix = np.cumsum(np.asarray(log_a)[..., :0:-1], axis=-1)
        return np.exp(suffix)[..., ::-1]

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
    length two ((1, 0) or (0, 1)), with S on none.

    Each root has one entry of M = [[A], [J U]] on or above its
    anti-diagonal, the chart position of its coordinate.

    The chart and the read-out of coordinates off a Gauss-Bruhat factor
    (``coords_from_zeta_split``) are index tables (``_Passes``), compiled
    on first use from these formulas and kept per family: A^-1 level by
    level as in forward substitution, each level one pass of products of
    earlier columns, and U A - S in the first pass, where x U10 cancels
    U01 A10 exactly. An Sp(n) chart takes max(1, n - 2) passes of O(n^3)
    terms in all, and its Jacobian is the product rule along the same
    passes.
    """

    family = "sp"
    weight_phase = 1j
    _antidiagonal_gap = 0

    def __init__(self, n: int):
        if n < 2:
            raise UnsupportedGroup(f"Sp({n}) is not supported (need n >= 2)")
        self.n = n
        self.rank = n
        self.rankdim = n
        self.slots = 2 * n
        self.pairing_scale = -0.5
        self.weyl_order = 2 ** n * factorial(n)
        super().__init__()
        # Omega pairs slot i with s - 1 - i, signed as the weight of slot i
        self._omega = np.diag(np.sign(self.slot_weights.sum(axis=1)))[:, ::-1]

    # charts -----------------------------------------------------------------

    @cached_property
    def _chart_tables(self) -> tuple:
        """``(index, seed, passes)``: the buffer column of each of the
        chart's s^2 entries, the ``_chart`` stack of the constant 1, the
        unit derivatives of the coordinates and the constant 0 (an input no
        pass reads, which the 0 entries read), and the compiled passes."""
        n, s = self.n, self.slots
        p, one = _Passes(), {0: 1.0}
        at = {(r, c): p.input((r, c)) for r, c in
              zip(self._rows.tolist(), self._cols.tolist())}
        p.input((s, s))          # the constant 0, keyed past the matrix

        def u(r, c):
            # U[r, c] = U[c, r], held in the rows of J U
            return at[s - 1 - max(r, c), min(r, c)]
        inv = _unit_lower_inverse(p, lambda i, j: at[i, j], n)
        inv.update(((i, i), one) for i in range(n))
        # U A - S on the Sp(2) corner, S = x [[U10, U11/2], [U11/2, 0]]:
        # like terms merge, so x U10 cancels U01 A10 exactly
        x = at[1, 0]
        corner = {(0, 0): (u(1, 0), -1.0), (0, 1): (u(1, 1), -0.5),
                  (1, 0): (u(1, 1), -0.5)}
        entries = dict(at)
        entries.update(((i, i), one) for i in range(n))
        for r in range(n):
            for c in range(n):
                terms = _product(u(r, c), one)
                for k in range(c + 1, n):
                    _product(u(r, k), at[k, c], 1.0, terms)
                if (r, c) in corner:
                    _product(x, *corner[r, c], terms)
                entries[s - 1 - r, c] = p.column(terms)
        # J A^-T J
        entries.update(((s - 1 - j, s - 1 - i), f)
                       for (i, j), f in inv.items())
        p.compile([p.read(f) for f in entries.values()])
        index = np.full((s, s), 1 + self.chart_dim)
        index[tuple(np.array(list(entries)).T)] = p.out
        seed = np.eye(2 + self.chart_dim, 1 + self.chart_dim, dtype=complex)
        return _read_only(index.ravel(), seed) + (p,)

    def _chart(self, coords, jac: bool):
        """``Family._chart`` from the compiled passes: the point and, with
        ``jac``, the unit vectors e_k go into one buffer, whose passes take
        the product rule. Rows go through in blocks of at most
        ``_BLOCK_VALUES`` buffer values; each block's entries are gathered
        and copied, transposed, into their rows of z."""
        index, seed, p = self._chart_tables
        c = np.asarray(coords, dtype=complex)
        c = c if c.ndim > 1 else c.reshape(1, -1)
        nb, dim = c.shape
        width = 1 + dim if jac else 1
        z = np.empty((nb, width, self.slots ** 2), dtype=complex)
        step = max(1, _BLOCK_VALUES // (width * p.width))
        for start in range(0, nb, step):
            rows = c[start:start + step].T
            buf = np.empty((p.width, width, rows.shape[1]), dtype=complex)
            buf[:2 + dim] = seed[:, :width, None]
            buf[1:1 + dim, 0] = rows
            p.run(buf)
            z[start:start + step] = buf[index].T
        return z.reshape((nb, width, self.slots, self.slots))

    @cached_property
    def _readout_passes(self) -> "_Passes":
        """The compiled passes of ``coords_from_zeta_split``, whose inputs
        are entries (r, c) of zeta."""
        n, s = self.n, self.slots
        p, one = _Passes(), {0: 1.0}

        def inv(i, j):
            # zeta = [[A, 0], [C, D]] with A^-1 = J D^T J
            return one if i == j else p.input((s - 1 - j) * s + s - 1 - i)
        a = _unit_lower_inverse(p, inv, n)

        def jp(r, c):
            # P[r, c] from J P = C A^-1
            terms = {}
            for k in range(c, n):
                _product(p.input((s - 1 - r) * s + k), inv(k, c), 1.0, terms)
            return terms
        # U = P + S A^-1 on the Sp(2) corner: U10 = P01 + x P11 / 2 and
        # U00 = P00 + x P01, x = A10. A is read from D, not from the A block:
        # a rounded zeta is not exactly symplectic, and the trailing rows
        # [C, D] carry the potential
        x = a[1, 0]
        u = {(r, c): jp(r, c) for r in range(n) for c in range(r + 1)}
        u[1, 0] = _product(x, p.column(u[1, 1]), 0.5, jp(0, 1))
        _product(x, p.column(jp(0, 1)), 1.0, u[0, 0])
        out = [p.read(a[r, c] if r < n else p.column(u[s - 1 - r, c]))
               for r, c in zip(self._rows.tolist(), self._cols.tolist())]
        return p.compile(out)

    @cached_property
    def zeta_entries(self) -> tuple:
        at = self._readout_passes.inputs
        return _read_only(at, at // self.slots)

    def coords_from_zeta_entries(self, values):
        p = self._readout_passes
        flat = values.reshape(-1, len(p.inputs))
        buf = np.empty((p.width, 1, len(flat)), dtype=complex)
        buf[0] = 1.0
        buf[1:1 + len(p.inputs), 0] = flat.T
        p.run(buf)
        coords = np.ascontiguousarray(buf[p.out, 0].T)
        return coords.reshape(values.shape[:-1] + (len(p.out),))

    # torus ---------------------------------------------------------------------

    def torus_coords(self, d_diag):
        return np.asarray(d_diag, dtype=complex)[: self.n]

    def a_parameters(self, log_a):
        # (r_1..r_n), the first half of the split A-diagonal, read off the
        # second: r_i = 1/a_(s-1-i)
        return np.exp(-np.asarray(log_a)[..., self.n:])[..., ::-1]

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
    _antidiagonal_gap = 1

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
        self.weyl_order = 2 ** (m - 1 + n % 2) * factorial(m)  # B_m or D_m
        super().__init__()
        # columns: ubar_k at slot k - 1 and u_k at slot n - k on the k-th
        # rotation plane, e_3 in the middle of SO(3)
        rt = 1.0 / np.sqrt(2.0)
        t = np.zeros((n, n), dtype=complex)
        for k in range(m):
            t[2 * k:2 * k + 2, k] = rt, -1j * rt
            t[2 * k:2 * k + 2, n - 1 - k] = rt, 1j * rt
        if n % 2:
            t[n - 1, m] = 1.0
        self._t = t

    # matrices ----------------------------------------------------------------

    def weight_matrix(self, c):
        # the rotation blocks, exact: T diag(d) T* misses them in the last bits
        c = np.asarray(c, dtype=float)
        m = np.zeros((self.n, self.n), dtype=complex)
        for k in range(self.rank):
            m[2 * k, 2 * k + 1] = c[k]
            m[2 * k + 1, 2 * k] = -c[k]
        return m

    # charts ---------------------------------------------------------------------

    def split_from_working(self, g):
        return self._t.conj().T @ np.asarray(g, dtype=complex) @ self._t

    def working_from_split(self, g):
        return self._t @ np.asarray(g, dtype=complex) @ self._t.conj().T

    def _fill_chart(self, z, c):
        if self.n == 3:
            rt2 = np.sqrt(2.0)
            z[..., 1, 0] = rt2 * c[..., 0]
            z[..., 2, 1] = -rt2 * c[..., 0]
            z[..., 2, 0] = -_dual(np.multiply, c[..., 0], c[..., 0])
            return
        z1, z2 = c[..., 0], c[..., 1]
        z[..., 1, 0] = z1
        z[..., 3, 2] = -z1
        z[..., 2, 0] = z2
        z[..., 3, 1] = -z2
        z[..., 3, 0] = _dual(np.multiply, -z1, z2)

    def coords_from_zeta_entries(self, values):
        return values / np.sqrt(2.0) if self.n == 3 else values

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


def _dual(mul, x, y):
    """mul(x, y) on ``_chart`` stacks: the values at [:, 0], and the product
    rule at [:, 1:]."""
    if y.shape[1] == 1:
        return mul(x, y)
    out = mul(x, y[:, :1])
    out[:, 1:] += mul(x[:, :1], y[:, 1:])
    return out


def _product(x, y, scale=1.0, terms=None) -> dict:
    """``terms`` plus scale x y, multiplied out: x and y are linear forms
    {column: coefficient}, the terms {(a, b): coefficient} products of two
    columns, a <= b; a product already present adds to its coefficient."""
    terms = {} if terms is None else terms
    for a, p in x.items():
        for b, q in y.items():
            key = (a, b) if a <= b else (b, a)
            terms[key] = terms.get(key, 0.0) + scale * p * q
    return terms


def _unit_lower_inverse(p, m, n) -> dict:
    """The strict lower entries (i, j) of the inverse of the unit lower
    triangular n x n matrix with strict lower entries m(i, j), as columns of
    ``p``, level by level as in forward substitution: inv[i, j] = -m(i, j)
    - sum_k m(i, k) inv[k, j], j < k < i."""
    inv = {}
    for lvl in range(1, n):
        for j in range(n - lvl):
            i = j + lvl
            terms = _product({0: 1.0}, m(i, j), -1.0)
            for k in range(j + 1, i):
                _product(m(i, k), inv[k, j], -1.0, terms)
            inv[i, j] = p.column(terms)
    return inv


class _Passes:
    """Polynomials in a row of inputs, compiled to passes of two-factor
    products that run on all rows at once.

    Values are linear forms {column: coefficient}. Column 0 holds the
    constant 1 and the inputs follow it; every other column holds a sum of
    products of two columns (``_product``) and is one pass deeper than the
    deepest column it reads (``column``). A polynomial of high degree, such
    as an entry of a triangular inverse, is so built level by level from
    columns of lower depth and never multiplied out into monomials.

    ``compile`` lays the columns out pass by pass. A pass gathers the two
    factors of each of its terms, multiplies them and scales them by their
    coefficients. It then adds each column's terms in the order they were
    made, one slice per term rank, so its columns sort by descending term
    count. No reduction decides that order, so every row rounds the same way
    in a batch of any size. ``run`` evaluates on a buffer (columns, j, N),
    rows last: values at [:, 0] and, for j > 1, derivatives at [:, 1:] by
    the product rule.
    """

    def __init__(self):
        self._keys = {}       # input key -> its column
        self._terms = [None]  # per column: [((a, b), coefficient), ...]
        self._depth = [0]

    def _new(self, terms, depth) -> int:
        self._terms.append(terms)
        self._depth.append(depth)
        return len(self._terms) - 1

    def input(self, key) -> dict:
        """The input named ``key``, given a column on first use."""
        if key not in self._keys:
            self._keys[key] = self._new(None, 0)
        return {self._keys[key]: 1.0}

    def column(self, terms) -> dict:
        """A sum of terms as a linear form: linear terms as they are, others
        in a column of their own."""
        terms = tuple((k, v) for k, v in terms.items() if v)
        if all(a == 0 for (a, _), _ in terms):
            return {b: v for (_, b), v in terms}
        return {self._make(terms): 1.0}

    def read(self, form) -> int:
        """The column that holds a linear form, made unless it is one."""
        if len(form) == 1 and 1.0 in form.values():
            return next(iter(form))
        return self._make(tuple(((0, c), v) for c, v in form.items()))

    def _make(self, terms) -> int:
        """A new column for a sum of terms, one pass deeper than the deepest
        column it reads. The terms before its first deepest one are summed
        first, in a column of their own, so that no pass adds more terms
        than it must; the sum is the same, left to right."""
        depth = [max(self._depth[a], self._depth[b]) for (a, b), _ in terms]
        cut = depth.index(max(depth))
        head = self.column(dict(terms[:cut])) if cut > 1 else {}
        if len(head) == 1 and 1.0 in head.values():
            terms = (((0, *head), 1.0),) + terms[cut:]
        return self._new(terms, 1 + max(depth))

    def compile(self, outputs) -> "_Passes":
        """Lay the columns out pass by pass; ``outputs`` are the columns read
        at the end (``out``)."""
        at = {0: 0}
        at.update((c, 1 + i) for i, c in enumerate(self._keys.values()))
        width, passes = len(at), []
        for depth in range(1, max(self._depth) + 1):
            cols = sorted((c for c, d in enumerate(self._depth) if d == depth),
                          key=lambda c: -len(self._terms[c]))
            left, right, coef, adds = [], [], [], []
            for rank in range(len(self._terms[cols[0]])):
                group = [c for c in cols if len(self._terms[c]) > rank]
                if rank:
                    start = width + len(left)
                    adds.append((slice(width, width + len(group)),
                                 slice(start, start + len(group))))
                for (a, b), v in (self._terms[c][rank] for c in group):
                    left.append(at[a])
                    right.append(at[b])
                    coef.append(v)
            at.update((c, width + i) for i, c in enumerate(cols))
            coef = np.array(coef, dtype=complex)[:, None, None]
            passes.append(_read_only(np.array(left + right), coef)
                          + (slice(width, width + len(left)), tuple(adds)))
            width += len(left)
        self.inputs, = _read_only(np.array(list(self._keys)))
        self.out, = _read_only(np.array([at[c] for c in outputs]))
        self.width, self.passes = width, tuple(passes)
        return self

    def run(self, buf):
        """Fill the columns of ``buf`` beyond its inputs, in place."""
        for factors, coef, terms, adds in self.passes:
            xy = buf[factors]
            x, y = xy[:len(coef)], xy[len(coef):]
            out = buf[terms]
            np.multiply(x, y[:, :1], out=out)
            if buf.shape[1] > 1:
                out[:, 1:] += x[:, :1] * y[:, 1:]
            out *= coef
            for dst, src in adds:
                buf[dst] += buf[src]
        # a coefficient -1 makes -0.0 of a zero term: every zero result
        # comes out +0.0, as x - x does, whatever signs its terms had
        buf[1 + len(self.inputs):] += 0.0


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
