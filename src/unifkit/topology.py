"""Finite topological spaces, stored by the minimal open of each point.

A finite topology is the same thing as a preorder (take minimal opens
for neighborhoods), and both directions of that dictionary are used
constantly here.  The minimal opens determine every open (the space is
an Alexandrov space), so a space is stored, compared and hashed by
them; its open lattice, as bitmasks over the base set, is listed only
when asked for.
"""

from __future__ import annotations

from .relations import Relation, bits


def up_sets(mins, within):
    """Every subset of within that holds mins[i] & within for each of
    its points i, sorted: the opens of the subspace on within, given
    the minimal opens of a finite space.  Points with the same
    restricted minimal open come and go together; taking those classes
    by increasing size, every point a class needs is already placed, so
    each class extends the sets listed so far that hold its need and
    the work follows the output, not the 2^n subsets."""
    classes = {}
    for i in bits(within):
        key = mins[i] & within
        classes[key] = classes.get(key, 0) | 1 << i
    out = [0]
    for m in sorted(classes, key=int.bit_count):
        cls = classes[m]
        need = m & ~cls
        out += [s | cls for s in out if need & ~s == 0]
    out.sort()
    return out


class FiniteTopology:
    """Finite space stored by its minimal opens.

    Built from an open family, the family is validated and kept: it must
    contain the empty set and the whole space and be closed under binary
    union and intersection (enough for closure under all of them, the
    family being finite).  Built from a preorder, only the minimal opens
    are stored and open_masks lists the lattice on first use.
    """

    __slots__ = ("base", "_min_open", "_opens")

    def __init__(self, base, open_masks):
        self.base = base
        masks = tuple(sorted(set(open_masks)))
        full = (1 << len(base)) - 1
        have = set(masks)
        if 0 not in have or full not in have:
            raise ValueError("topology must contain the empty set and the space")
        for a in masks:
            for b in masks:
                if a | b not in have or a & b not in have:
                    raise ValueError("opens not closed under union/intersection")
        self._opens = masks
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
    def from_opens(cls, base, opens):
        return cls(base, (base.mask_of(o) for o in opens))

    @classmethod
    def from_preorder(cls, rel):
        """Opens are the up-closed sets of the preorder, read along rows:
        row i is the minimal open of i."""
        if not rel.is_preorder():
            raise ValueError("relation is not a preorder")
        top = cls.__new__(cls)
        top.base = rel.base
        top._min_open = rel.rows
        top._opens = None
        return top

    @classmethod
    def discrete(cls, base):
        return cls.from_preorder(Relation.diagonal(base))

    @classmethod
    def indiscrete(cls, base):
        return cls.from_preorder(Relation.full(base))

    @property
    def open_masks(self):
        if self._opens is None:
            self._opens = tuple(up_sets(self._min_open, (1 << len(self.base)) - 1))
        return self._opens

    def __eq__(self, other):
        """Equal when the minimal opens agree: they determine every open
        of a finite space."""
        return (
            isinstance(other, FiniteTopology)
            and self.base == other.base
            and self._min_open == other._min_open
        )

    def __hash__(self):
        return hash((self.base, self._min_open))

    def __repr__(self):
        return "FiniteTopology(%r, minimal opens %r)" % (self.base.labels,
                                                       self._min_open)

    def is_open_mask(self, mask):
        """Open exactly when the set holds the minimal open of each of
        its points."""
        if mask >> len(self.base):
            return False
        return all(self._min_open[i] & ~mask == 0 for i in bits(mask))

    def min_open_mask(self, i):
        return self._min_open[i]

    def interior_mask(self, mask):
        """The points whose minimal open lies inside the set."""
        acc = 0
        for i, m in enumerate(self._min_open):
            if m & ~mask == 0:
                acc |= 1 << i
        return acc

    def closure_mask(self, mask):
        """The points whose minimal open meets the set."""
        acc = 0
        for i, m in enumerate(self._min_open):
            if m & mask:
                acc |= 1 << i
        return acc

    def is_t0(self):
        return len(set(self._min_open)) == len(self.base)

    def specialization(self):
        """(x, y) related iff y lies in every open around x."""
        return Relation(self.base, self._min_open)

    def strict_chains(self):
        """The chains x0 < x1 < ... < xq in the specialization order of a
        T0 space, as index tuples: the simplices of the order complex,
        one sorted list per degree q (chain length - 1), [] on no points.
        Degree q + 1 extends each chain of degree q, in order, by each
        strict successor of its last point, ascending, so every list
        comes out sorted; faces of a chain are chains, so every degree
        up to the top one is filled."""
        if not self.is_t0():
            raise ValueError("order complex needs a T0 space")
        # tuples: bits of a mask past eight points is a one-shot generator
        succ = [tuple(bits(m & ~(1 << i)))
                for i, m in enumerate(self._min_open)]
        out = []
        level = [(i,) for i in range(len(succ))]
        while level:
            out.append(level)
            level = [c + (j,) for c in level for j in succ[c[-1]]]
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
            for j in bits(strict):
                # j covers i when no k has i < k < j
                if not any(mins[k] >> j & 1
                           for k in bits(strict & ~(1 << j))):
                    edges.append((i, j))
        return edges
