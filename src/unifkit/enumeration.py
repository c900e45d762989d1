"""Exhaustive generators for small structures.

These back the desk-scale checks: every preorder, poset, topology or
equivalence on a handful of points, and the dense subsets of a finite
space.  Counts for sanity: 355 topologies on 4 labeled points, 4231
posets on 5, Bell(4) = 15 equivalences.
"""

from __future__ import annotations

import itertools

from .relations import FiniteSet, Relation, is_transitive_rows
from .topology import FiniteTopology


def all_preorders(base):
    """Every preorder on base. 2^(n^2-n) candidates get filtered, so
    n above 4 is not realistic here."""
    n = len(base)
    others = [[m for m in range(1 << n) if m >> i & 1] for i in range(n)]
    out = []
    for rows in itertools.product(*others):
        if is_transitive_rows(rows):
            out.append(Relation(base, rows))
    return out


def all_partial_orders(base):
    """Every partial order on base, built from the 3^(n(n-1)/2)
    orientation assignments on unordered pairs. Fine up to n = 5."""
    n = len(base)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    diag = [1 << i for i in range(n)]
    out = []
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        rows = diag[:]
        for (i, j), c in zip(pairs, choice):
            if c == 1:
                rows[i] |= 1 << j
            elif c == 2:
                rows[j] |= 1 << i
        if is_transitive_rows(rows):
            out.append(Relation(base, tuple(rows)))
    return out


def all_topologies(base):
    """Every topology on base, via the preorder dictionary."""
    return [FiniteTopology.from_preorder(r) for r in all_preorders(base)]


def all_equivalences(base):
    """Every equivalence relation, one per set partition (restricted
    growth strings)."""
    n = len(base)
    out = []

    def grow(assign, nblocks):
        if len(assign) == n:
            rows = [0] * n
            for i, bi in enumerate(assign):
                for j, bj in enumerate(assign):
                    if bi == bj:
                        rows[i] |= 1 << j
            out.append(Relation(base, rows))
            return
        for b in range(nblocks + 1):
            grow(assign + [b], max(nblocks, b + 1))
    if n == 0:
        return [Relation(base, [])]
    grow([0], 1)
    return out


def dense_subsets(top):
    """Subsets of the base whose closure is everything."""
    out = []
    for m in range(1 << len(top.base)):
        if top.closure_mask(m) == (1 << len(top.base)) - 1:
            out.append(top.base.labels_of(m))
    return out


def standard_base(n):
    """x0, x1, ... labels, the default test bench."""
    return FiniteSet("x%d" % i for i in range(n))
