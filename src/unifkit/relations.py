"""Binary relations on small finite label sets.

Everything downstream (entourage filters, specialization preorders,
quotients) works with these two classes.  A Relation is immutable and
carries its base set; mixing relations over different base sets raises
immediately instead of producing silent nonsense.

Rows are cached as integer bitmasks, so composition and closure are
word operations.  Sets of size beyond ~60 are out of scope (the word
trick still works in Python, but nothing here is meant for that).
"""

from __future__ import annotations


class FiniteSet:
    """An ordered list of distinct labels. The order fixes element indices."""

    __slots__ = ("labels", "_index", "_sets")

    def __init__(self, labels):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        for lab in labels:
            if not isinstance(lab, str) or lab == "":
                raise ValueError("labels must be nonempty strings, got %r" % (lab,))
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}
        self._sets = {}

    def index(self, label):
        try:
            return self._index[label]
        except KeyError:
            raise ValueError("label %r not in base set" % (label,)) from None

    def __len__(self):
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label):
        return label in self._index

    def __eq__(self, other):
        return self is other or (isinstance(other, FiniteSet)
                                 and self.labels == other.labels)

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return "FiniteSet(%r)" % (self.labels,)

    def mask_of(self, labels):
        """Bitmask of a collection of labels."""
        m = 0
        for lab in labels:
            m |= 1 << self.index(lab)
        return m

    def labels_of(self, mask):
        """Frozenset of labels from a bitmask.  Each set is built once
        per base and mask, so equal masks give the same object."""
        try:
            return self._sets[mask]
        except KeyError:
            out = self._sets[mask] = frozenset(
                lab for i, lab in enumerate(self.labels) if mask >> i & 1)
            return out

    def subsets(self, nonempty=False):
        """All subsets as frozensets, in mask order."""
        start = 1 if nonempty else 0
        for m in range(start, 1 << len(self.labels)):
            yield self.labels_of(m)


# the set bits of every byte, for bits
_BYTE_BITS = tuple(tuple(i for i in range(8) if m >> i & 1)
                   for m in range(256))


def bits(mask):
    """Indices of the set bits of a nonnegative mask, in increasing
    order.  A mask below 256 (any row on at most eight points) reads a
    table, which is cheaper than starting a generator for the few bits
    it has."""
    if 0 <= mask < 256:
        return _BYTE_BITS[mask]
    return _wide_bits(mask)


def _wide_bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_same_base(a, b):
    if a.base is not b.base and a.base != b.base:
        raise ValueError("incompatible base sets")


class Relation:
    """A binary relation on a FiniteSet.

    Orientation convention used throughout: (x, y) in E means y is in the
    E-neighborhood E(x) of x.  compose follows arrows left to right:
    (x, z) in E.compose(F) iff (x, y) in E and (y, z) in F for some y.
    """

    __slots__ = ("base", "rows")

    def __init__(self, base, rows):
        # rows[i] = bitmask of successors of element i
        n = len(base)
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError("expected %d rows, got %d" % (n, len(rows)))
        full = (1 << n) - 1
        for r in rows:
            if not 0 <= r <= full:
                raise ValueError("row mask out of range")
        self.base = base
        self.rows = rows

    @classmethod
    def from_pairs(cls, base, pairs):
        rows = [0] * len(base)
        for a, b in pairs:
            rows[base.index(a)] |= 1 << base.index(b)
        return cls(base, rows)

    @classmethod
    def diagonal(cls, base):
        return cls(base, [1 << i for i in range(len(base))])

    @classmethod
    def full(cls, base):
        m = (1 << len(base)) - 1
        return cls(base, [m] * len(base))

    @property
    def pairs(self):
        """Frozenset of label pairs, built on each call."""
        labs = self.base.labels
        return frozenset((labs[i], labs[j])
                         for i, r in enumerate(self.rows) for j in bits(r))

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and self.base == other.base
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Relation(%r, %d pairs)" % (self.base.labels, len(self.pairs))

    def __contains__(self, pair):
        a, b = pair
        return self.rows[self.base.index(a)] >> self.base.index(b) & 1 == 1

    # set operations

    def union(self, other):
        _check_same_base(self, other)
        return Relation(self.base, [a | b for a, b in zip(self.rows, other.rows)])

    def intersection(self, other):
        _check_same_base(self, other)
        return Relation(self.base, [a & b for a, b in zip(self.rows, other.rows)])

    __or__ = union
    __and__ = intersection

    # relational algebra

    def compose(self, other):
        """self then other, reading pairs as arrows."""
        _check_same_base(self, other)
        orows = other.rows
        out = []
        for r in self.rows:
            acc = 0
            for j in bits(r):
                acc |= orows[j]
            out.append(acc)
        return Relation(self.base, out)

    def inverse(self):
        out = [0] * len(self.base)
        for i, r in enumerate(self.rows):
            for j in bits(r):
                out[j] |= 1 << i
        return Relation(self.base, out)

    # predicates

    def contains_diagonal(self):
        return all(r >> i & 1 for i, r in enumerate(self.rows))

    def is_symmetric(self):
        n = len(self.base)
        return all(
            (self.rows[i] >> j & 1) == (self.rows[j] >> i & 1)
            for i in range(n)
            for j in range(i + 1, n)
        )

    def is_transitive(self):
        return is_transitive_rows(self.rows)

    def is_preorder(self):
        return self.contains_diagonal() and self.is_transitive()

    def is_equivalence(self):
        return self.is_preorder() and self.is_symmetric()

    def transitive_closure(self):
        return Relation(self.base, _closed_rows(list(self.rows)))

    def reflexive_transitive_closure(self):
        rows = [r | 1 << i for i, r in enumerate(self.rows)]
        return Relation(self.base, _closed_rows(rows))


def _closed_rows(rows):
    """Close a list of successor rows under transitivity, in place."""
    changed = True
    while changed:
        changed = False
        for i, acc in enumerate(rows):
            for j in bits(acc):
                acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return rows


def is_transitive_rows(rows):
    """Transitivity on raw successor rows: every successor's row lies
    inside the row."""
    for r in rows:
        for j in bits(r):
            if rows[j] & ~r:
                return False
    return True


def intersect_all(relations):
    """Intersection of a nonempty collection of relations over one base:
    the rows are ANDed into one running list and one Relation is built
    at the end.  A lone relation comes back as itself."""
    relations = list(relations)
    if not relations:
        raise ValueError("need at least one relation")
    first = relations[0]
    if len(relations) == 1:
        return first
    rows = list(first.rows)
    for r in relations[1:]:
        _check_same_base(first, r)
        for i, b in enumerate(r.rows):
            rows[i] &= b
    return Relation(first.base, rows)


def random_relation(base, rng, density=0.5):
    n = len(base)
    rows = []
    for _ in range(n):
        r = 0
        for j in range(n):
            if rng.random() < density:
                r |= 1 << j
        rows.append(r)
    return Relation(base, rows)
