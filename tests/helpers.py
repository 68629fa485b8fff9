"""Shared test utilities."""

from collections import Counter

import numpy as np

from coadjoint.checks import haar_su, random_chart, spectral_mismatch  # noqa: F401
from coadjoint.groups import _action_key
from coadjoint.quaternion import QuaternionMatrix


def mat_max(x):
    """Max entry magnitude for ndarray or QuaternionMatrix."""
    if isinstance(x, QuaternionMatrix):
        return x.norm_max()
    return float(np.max(np.abs(np.asarray(x))))


def identity_like(spec, x):
    if isinstance(x, QuaternionMatrix):
        return QuaternionMatrix.eye(x.shape[0])
    return np.eye(np.asarray(x).shape[0], dtype=complex)


# ---------------------------------------------------------------------------
# Weyl-group enumeration: the oracle for the Poincare-polynomial topology


def _parabolic_actions(wg, gen_indices):
    """Closure (as actions) of the subgroup generated by given reflections."""
    dim = wg.generators[0].action.shape[0] if wg.generators else 1
    ident = np.eye(dim)
    actions = {_action_key(ident): ident}
    frontier = [ident]
    gens = [wg.generators[k].action for k in gen_indices]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = g @ a
                key = _action_key(b)
                if key not in actions:
                    actions[key] = b
                    nxt.append(b)
        frontier = nxt
    return actions


def _coset_length_counts(wg, sub_gens, within_gens=None) -> tuple:
    """Length distribution of minimal coset representatives in H\\W (or H\\W_K)."""
    sub = _parabolic_actions(wg, sub_gens)
    within = None
    if within_gens is not None:
        within = set(_parabolic_actions(wg, within_gens).keys())
    length_of = {el.action_key(): el.length for el in wg.elements}
    counts = Counter()
    done = set()
    for el in wg.elements:
        key = el.action_key()
        if key in done or (within is not None and key not in within):
            continue
        coset = {_action_key(el.action @ h) for h in sub.values()}
        done |= coset
        counts[min(length_of[k] for k in coset)] += 1
    top = max(counts) if counts else 0
    return tuple(counts.get(i, 0) for i in range(top + 1))


# ---------------------------------------------------------------------------
# Float root pairings: the oracle for the wall-derived degeneracy data


def _equal_blocks(values, tol: float = 1e-12):
    """Multiplicities of equal consecutive entries of a sorted-ish vector."""
    vals = list(np.asarray(values, dtype=float))
    if not vals:
        return []
    vals = sorted(vals, reverse=True)
    blocks = [1]
    for prev, cur in zip(vals, vals[1:]):
        if abs(prev - cur) < tol:
            blocks[-1] += 1
        else:
            blocks.append(1)
    return blocks


def _float_stabilizer_description(fam, coords):
    """Stabilizer name from equal and vanishing weight coordinates."""
    if fam.family == "su":
        blocks = _equal_blocks(coords)
        if all(b == 1 for b in blocks):
            return "x".join(["U(1)"] * fam.rank)
        big = [b for b in blocks if b > 1]
        if len(big) == 1:
            parts = [f"SU({big[0]})"] + ["U(1)"] * (len(blocks) - 1)
            return "x".join(parts)
        return "S(" + "x".join(f"U({b})" for b in blocks) + ")"
    if fam.family == "sp":
        c = np.asarray(coords, dtype=float)
        zero = int(np.sum(np.abs(c) < 1e-12))
        blocks = _equal_blocks(c[np.abs(c) >= 1e-12])
        parts = [f"U({b})" if b > 1 else "U(1)" for b in blocks]
        if zero:
            parts.append(f"Sp({zero})")
        return "x".join(parts) if parts else "Sp(0)"
    if fam.n == 3:
        return "SO(2)"
    c = np.asarray(coords, dtype=float)
    if abs(abs(c[0]) - abs(c[1])) < 1e-12:
        return "U(2)"
    return "SO(2)xSO(2)"


def float_degeneracy(spec, point):
    """(required-zero mask, real dimension, stabilizer) from float pairings."""
    fam = spec.adapter
    c = np.asarray(point.coords)
    mask = np.array([abs(float(c @ info.as_array())) < 1e-12
                     for info in fam.positive_roots])
    nonzero = sum(1 for info in fam.positive_roots
                  if abs(float(c @ info.as_array())) >= 1e-12)
    return mask, 2 * nonzero, _float_stabilizer_description(fam, c)


def linear_find(wg, action):
    """Weyl element with the given action, by scanning every element."""
    key = _action_key(action)
    for el in wg.elements:
        if el.action_key() == key:
            return el
    raise KeyError("action is not a Weyl element")
