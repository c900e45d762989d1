"""Finite topological spaces as explicit open-set lattices.

A finite topology is the same thing as a preorder (take minimal opens
for neighborhoods), and both directions of that dictionary are used
constantly here.  Opens are stored as bitmasks over the base set.
"""

from __future__ import annotations

from .relations import FiniteSet, Relation


class FiniteTopology:
    """Open-set family on a FiniteSet, validated at construction.

    Must contain the empty set and the whole space and be closed under
    binary union and intersection (enough for closure under all of them,
    the family being finite).
    """

    __slots__ = ("base", "open_masks", "_min_open")

    def __init__(self, base, open_masks, validate=True):
        self.base = base
        masks = tuple(sorted(set(open_masks)))
        full = (1 << len(base)) - 1
        if validate:
            have = set(masks)
            if 0 not in have or full not in have:
                raise ValueError("topology must contain the empty set and the space")
            for a in masks:
                for b in masks:
                    if a | b not in have or a & b not in have:
                        raise ValueError("opens not closed under union/intersection")
        self.open_masks = masks
        # minimal open of i = intersection of opens containing i
        mins = []
        for i in range(len(base)):
            acc = full
            for m in masks:
                if m >> i & 1:
                    acc &= m
            mins.append(acc)
        self._min_open = tuple(mins)

    @classmethod
    def from_opens(cls, base, opens, validate=True):
        return cls(base, (base.mask_of(o) for o in opens), validate=validate)

    @classmethod
    def from_preorder(cls, rel):
        """Opens are the up-closed sets of the preorder, read along rows."""
        if not rel.is_preorder():
            raise ValueError("relation is not a preorder")
        n = len(rel.base)
        masks = []
        for v in range(1 << n):
            ok = True
            for i in range(n):
                if v >> i & 1 and rel.rows[i] & ~v:
                    ok = False
                    break
            if ok:
                masks.append(v)
        return cls(rel.base, masks, validate=False)

    @classmethod
    def discrete(cls, base):
        n = len(base)
        return cls(base, range(1 << n), validate=False)

    @classmethod
    def indiscrete(cls, base):
        return cls(base, [0, (1 << len(base)) - 1], validate=False)

    @property
    def opens(self):
        return tuple(self.base.labels_of(m) for m in self.open_masks)

    def __eq__(self, other):
        """Equal when the minimal opens agree: they determine every open
        of a finite space, also when only a basis is stored."""
        return (
            isinstance(other, FiniteTopology)
            and self.base == other.base
            and self._min_open == other._min_open
        )

    def __hash__(self):
        return hash((self.base, self._min_open))

    def __repr__(self):
        return "FiniteTopology(%r, %d opens)" % (self.base.labels, len(self.open_masks))

    def is_open(self, labels):
        return self.is_open_mask(self.base.mask_of(labels))

    def is_open_mask(self, mask):
        """Open exactly when the set holds the minimal open of each of
        its points, which stays true where only a basis of the opens is
        stored."""
        if mask >> len(self.base):
            return False
        return all(self._min_open[i] & ~mask == 0
                   for i in range(len(self.base)) if mask >> i & 1)

    def min_open_mask(self, i):
        return self._min_open[i]

    def minimal_open(self, label):
        return self.base.labels_of(self._min_open[self.base.index(label)])

    def interior_mask(self, mask):
        acc = 0
        for m in self.open_masks:
            if m & ~mask == 0:
                acc |= m
        return acc

    def interior(self, labels):
        return self.base.labels_of(self.interior_mask(self.base.mask_of(labels)))

    def closure_mask(self, mask):
        # complement of the union of opens missing the set
        acc = 0
        for m in self.open_masks:
            if m & mask == 0:
                acc |= m
        return ~acc & ((1 << len(self.base)) - 1)

    def closure(self, labels):
        return self.base.labels_of(self.closure_mask(self.base.mask_of(labels)))

    def is_dense(self, labels):
        return self.closure_mask(self.base.mask_of(labels)) == (1 << len(self.base)) - 1

    def is_t0(self):
        return len(set(self._min_open)) == len(self.base)

    def specialization(self):
        """(x, y) related iff y lies in every open around x."""
        return Relation(self.base, self._min_open)

    def strict_chains(self):
        """All chains x0 < x1 < ... < xq in the specialization order of a
        T0 space, as index tuples, singletons included.  These are the
        simplices of the order complex."""
        if not self.is_t0():
            raise ValueError("order complex needs a T0 space")
        n = len(self.base)
        mins = self._min_open
        # strict successors of i, i excluded
        succ = [mins[i] & ~(1 << i) for i in range(n)]
        out = []

        def grow(chain, last):
            out.append(tuple(chain))
            m = succ[last]
            while m:
                low = m & -m
                j = low.bit_length() - 1
                chain.append(j)
                grow(chain, j)
                chain.pop()
                m ^= low
        for i in range(n):
            grow([i], i)
        return out

    def hasse_edges(self):
        """Covering pairs (i, j) with j a minimal strict specialization
        successor of i, on a T0 space."""
        if not self.is_t0():
            raise ValueError("Hasse diagram needs a T0 space")
        n = len(self.base)
        mins = self._min_open
        edges = []
        for i in range(n):
            strict = mins[i] & ~(1 << i)
            m = strict
            while m:
                low = m & -m
                j = low.bit_length() - 1
                # j covers i when no k has i < k < j
                covered = True
                k_mask = strict & ~(1 << j)
                while k_mask:
                    kl = k_mask & -k_mask
                    k = kl.bit_length() - 1
                    if mins[k] >> j & 1:
                        covered = False
                        break
                    k_mask ^= kl
                if covered:
                    edges.append((i, j))
                m ^= low
        return edges
