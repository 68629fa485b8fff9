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
