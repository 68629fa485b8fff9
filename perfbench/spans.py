"""Spans and counters recorded around the public calls of each coadjoint layer.

The tracer treats the library as a black box: it replaces module and class
attributes with timing wrappers around each traced call and puts the
originals back afterwards. A function imported by name into another
module (``from .decompose import dressing_matrix``) is patched at every
module that holds it, so each call is seen once whichever name it goes
through.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

# metric prefix -> (module, attribute path); a dotted path is a class
# attribute. Metric names must start with a letter, so the private modules
# _linalg and _families are reported as linalg and families.
SPANS = {
    "cli.main": ("cli", "main"),
    "groups.weyl_group": ("groups", "weyl_group"),
    "groups.classify_initial_point": ("groups", "classify_initial_point"),
    "groups.WeylGroup.find": ("groups", "WeylGroup.find"),
    "decompose.iwasawa": ("decompose", "iwasawa"),
    "decompose.dressing_matrix": ("decompose", "dressing_matrix"),
    "decompose.gauss_bruhat": ("decompose", "gauss_bruhat"),
    "orbit.dress": ("orbit", "dress"),
    "orbit.chart_transition": ("orbit", "chart_transition"),
    "orbit.fibration": ("orbit", "fibration"),
    "kahler.potential_batch": ("kahler", "potential_batch"),
    "kahler.metric": ("kahler", "metric"),
    "kahler.cocycle_shift": ("kahler", "cocycle_shift"),
    "cohomology.betti": ("cohomology", "betti"),
    "cohomology.leray_hirsch": ("cohomology", "leray_hirsch"),
    "cohomology.pairing_matrix": ("cohomology", "pairing_matrix"),
    "linalg.iwasawa_nak": ("_linalg", "iwasawa_nak"),
    "linalg.quaternion_iwasawa": ("_linalg", "quaternion_iwasawa"),
    "linalg.quaternion_ul": ("_linalg", "quaternion_ul"),
    "linalg.ul_decompose": ("_linalg", "ul_decompose"),
    "linalg.wirtinger_hessian": ("_linalg", "wirtinger_hessian"),
    "linalg.complex_laplacian": ("_linalg", "complex_laplacian"),
    "families.potentials": ("_families", "Family.potentials"),
}


class Tracer:
    """Records spans (name, parent, start, end, op) while installed.

    The wrappers are made once; ``install`` puts them in place and
    ``uninstall`` restores the originals, so the library runs unpatched
    between traced calls. Spans stay in memory until ``self_times`` folds
    them into per-layer totals. Self time is a span's duration minus that
    of its direct children; calls are synchronous, so children never
    overlap.
    """

    def __init__(self):
        self.spans = []                  # [name, parent index, start, end, op]
        self.stack = []
        self.active = defaultdict(int)   # span name -> open spans of that name
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.counts = defaultdict(int)   # counter -> n; "x@span" only inside span
        self.op = None                   # kind of the operation being run
        self._patches = self._make_patches()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            rec = [name, parent, time.perf_counter(), 0.0, self.op]
            self.spans.append(rec)
            self.stack.append(idx)
            self.active[name] += 1
            self.calls[name] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                rec[3] = time.perf_counter()
                self.active[name] -= 1
                self.stack.pop()
        return span

    def _count_potentials(self, fn):
        @functools.wraps(fn)
        def potentials(fam, z_split):
            out = fn(fam, z_split)
            rows = out.shape[0]
            self.counts["potentials.rows"] += rows
            if self.active["kahler.metric"]:
                self.counts["potentials.rows@metric"] += rows
            if self.active["cohomology.pairing_matrix"]:
                self.counts["pairing.columns_computed"] += out.size
                out = out.view(ColumnUse)
                out.tally = self.counts
                out.seen = set()
            return out
        return potentials

    def _count_quaternions(self, fn):
        @functools.wraps(fn)
        def __init__(q, *args, **kwargs):
            fn(q, *args, **kwargs)
            self.counts["quaternions"] += 1
            if self.active["orbit.dress"]:
                self.counts["quaternions@dress"] += 1
        return __init__

    # -- installing --------------------------------------------------------

    def _make_patches(self):
        """(owner, attribute, original, wrapper) for every span site."""
        from coadjoint import quaternion
        mods = [m for k, m in sys.modules.items()
                if k == "coadjoint" or k.startswith("coadjoint.")]
        patches = []
        for name, (modname, path) in SPANS.items():
            mod = sys.modules[f"coadjoint.{modname}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[attr]
                wrapped = self._wrap(name, orig)
                if name == "families.potentials":
                    wrapped = self._count_potentials(wrapped)
                patches.append((cls, attr, orig, wrapped))
                continue
            orig = getattr(mod, path)
            wrapped = self._wrap(name, orig)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        patches.append((m, key, orig, wrapped))
        init = quaternion.Quaternion.__dict__["__init__"]
        patches.append((quaternion.Quaternion, "__init__", init,
                        self._count_quaternions(init)))
        return patches

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # -- summary -----------------------------------------------------------

    def self_times(self):
        """Total self time per span name, in seconds."""
        child = [0.0] * len(self.spans)
        total = defaultdict(float)
        for name, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (name, _, t0, t1, _) in enumerate(self.spans):
            total[name] += (t1 - t0) - child[idx]
        return total


class ColumnUse(np.ndarray):
    """Potential columns handed to a pairing caller; counts the ones read.

    Reading one column (``out[:, j]``) marks that column used; any other
    access marks every column used. The tally goes to
    ``pairing.columns_used`` in rows, so that divided by
    ``pairing.columns_computed`` it is the share of computed potential
    values the caller consumed.
    """

    tally = None

    def __array_finalize__(self, obj):
        # a view or reshape of the handed-out array consumes all of it
        if isinstance(obj, ColumnUse) and obj.tally is not None:
            obj._use_all()
        self.tally = None

    def _use(self, cols):
        if self.tally is None:
            return
        new = set(cols) - self.seen
        if new:
            self.seen |= new
            self.tally["pairing.columns_used"] += self.shape[0] * len(new)

    def _use_all(self):
        self._use(range(self.shape[1]))

    def __getitem__(self, key):
        if (isinstance(key, tuple) and len(key) == 2
                and key[0] == slice(None) and isinstance(key[1], (int, np.integer))):
            self._use([int(key[1]) % self.shape[1]])
        else:
            self._use_all()
        return np.asarray(self)[key]

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self._use_all()
        inputs = tuple(np.asarray(x) if isinstance(x, ColumnUse) else x
                       for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)

    def __array_function__(self, func, types, args, kwargs):
        self._use_all()
        args = tuple(np.asarray(x) if isinstance(x, ColumnUse) else x
                     for x in args)
        return func(*args, **kwargs)
