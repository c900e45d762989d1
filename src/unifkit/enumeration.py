"""Exhaustive generators for small structures.

These back the desk-scale checks: every reflexive relation, preorder,
poset, topology or equivalence on a handful of points, the dense
subsets of a finite space, and the labeled dense pairs built from the
two.  Counts for sanity: 355 topologies on 4 labeled points, 4231
posets on 5, Bell(4) = 15 equivalences, 39853 dense pairs on 1 to 5
points.

The work follows the output.  A poset on n points is a poset on the
last n - 1 points plus the up-set and down-set of point 0, kept when
three bitmask tests hold (one-point extension, as in McKay's
isomorph-free generation), so no orientation assignment is tested for
transitivity.  A subset is dense when it meets each atom, a minimal
open that holds no smaller one, so the atoms are found once per space
instead of one closure per subset.  Dense sets of one base share the
base's interned frozensets.
"""

from __future__ import annotations

import itertools

from .relations import FiniteSet, Relation, bits
from .topology import FiniteTopology, up_sets


def reflexive_rows(n):
    """Successor rows of every reflexive relation on 0..n-1, as tuples:
    the product of the rows holding their own point, each in mask
    order.  There are 2^(n^2-n) of them."""
    return itertools.product(*([m for m in range(1 << n) if m >> i & 1]
                               for i in range(n)))


def all_preorders(base):
    """Every preorder on base, in reflexive_rows order: a preorder is a
    partial order (_poset_rows) on the classes of x ~ y iff x <= y <= x,
    one per set partition, and a sort of the row tuples restores the
    product order; 6942 on 5 points, where a filter tests 2^20 tuples."""
    posets = [_poset_rows(k) for k in range(len(base) + 1)]
    out = []
    for eq in all_equivalences(base):
        classes = tuple(dict.fromkeys(eq.rows))
        for q in posets[len(classes)]:
            up = {c: sum(classes[b] for b in bits(r))
                  for c, r in zip(classes, q)}
            out.append(tuple(up[r] for r in eq.rows))
    out.sort()
    return [Relation(base, rows) for rows in out]


def all_partial_orders(base):
    """Every partial order on base, in the order of the 3^(n(n-1)/2)
    orientation assignments on the unordered pairs (i, j), i < j, read
    as base-3 numbers with the pair list (0, 1), (0, 2), ..., (1, 2),
    ... as digits, most significant first; see _poset_rows.  Fine up
    to n = 5."""
    return [Relation(base, rows) for rows in _poset_rows(len(base))]


def _poset_rows(n):
    """Successor rows of every partial order on 0..n-1, in orientation
    order, by one-point extension.

    A reflexive relation with at most one arrow per pair is a partial
    order iff (a) its restriction Q to 1..n-1 is one, (b) the up-set U
    of point 0 (the j with 0 -> j) is Q-up-closed, (c) its down-set D
    (the j with j -> 0) is Q-down-closed and (d) every j in D has U
    inside its Q-row: these are the transitivity triples through 0,
    namely 0 -> j -> k, j -> k -> 0 and j -> 0 -> k.  Point 0's pairs
    are the leading digits of the orientation order and the remaining
    digits are the (n-1)-point order shifted by one, so looping over
    point 0's orientations in digit order, then over the (n-1)-point
    posets in their own order, lists the same relations in the same
    order as filtering every assignment.  Each Q carries a table from
    its up-closed sets to the points whose row holds the set, so (b),
    (c) and (d) are two lookups and one mask test: at n = 5, 81 x 219
    of them instead of 3^10 transitivity checks."""
    if n == 0:
        return [()]
    low = (1 << (n - 1)) - 1
    # per Q: each Q-up-closed set, mapped to the points whose row holds it
    tables = [(q, {u: sum(1 << j for j, r in enumerate(q) if u & ~r == 0)
                   for u in up_sets(q, low)})
              for q in _poset_rows(n - 1)]
    # (U, D) of point 0 over 1..n-1, in Q's coordinates, digit order
    links = [(0, 0)]
    for j in range(n - 1):
        b = 1 << j
        links = [x for u, d in links
                 for x in ((u, d), (u | b, d), (u, d | b))]
    out = []
    for u, d in links:
        for q, below in tables:
            # (b) U up-closed, (d) D under U, (c) D's complement up-closed
            held = below.get(u)
            if held is not None and d & ~held == 0 and low & ~d in below:
                out.append((1 | u << 1,) + tuple(
                    r << 1 | d >> j & 1 for j, r in enumerate(q)))
    return out


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
    """Subsets of the base whose closure is everything, in mask order.

    A set is dense iff it meets every minimal open.  Each minimal open
    holds an atom, a minimal open with no smaller one inside (the open
    points of a poset, the open classes of a preorder), so meeting each
    atom is enough.  Two atoms are disjoint, and every other minimal
    open holds a smaller atom, so taking the distinct minimal opens by
    size, the atoms are those that miss all atoms found before."""
    n = len(top.base)
    atoms, covered = [], 0
    for m in sorted({top.min_open_mask(i) for i in range(n)},
                    key=int.bit_count):
        if not m & covered:
            atoms.append(m)
            covered |= m
    labels_of = top.base.labels_of
    out = []
    for m in range(1 << n):
        for a in atoms:
            if not m & a:
                break
        else:
            out.append(labels_of(m))
    return out


def dense_pairs(n):
    """Every labeled dense pair on the standard base of n points, as
    (topology, dense labels): partial orders in all_partial_orders
    order, the dense subsets of each in mask order."""
    for po in all_partial_orders(standard_base(n)):
        top = FiniteTopology.from_preorder(po)
        for d in dense_subsets(top):
            yield top, d


def standard_base(n):
    """x0, x1, ... labels, the default test bench."""
    return FiniteSet("x%d" % i for i in range(n))
