"""Entourage filters on finite sets and their covering-family twins.

A QUniformity is a finite basis of relations plus a symmetry claim.
On a finite set the generated filter is principal, so every axiom
reduces to a statement about the smallest entourage E_min, and every
check here is exact and total.  The covering side (Tukey families) is
materialized only on very small sets, as bitmask families over the
nonempty blocks.  Both translations read one packed entourage table
per base size, and they preserve E_min, which is what the round-trip
tests pin.

Orientation: (x, y) in E reads "y is E-close to x", so E(x) is a
neighborhood of x and opens are the V with E_min(x) inside V for all
x in V.
"""

from __future__ import annotations

import itertools
from array import array
from collections import namedtuple
from functools import cache

from .relations import FiniteSet, Relation, bits, intersect_all
from .topology import FiniteTopology


class QUniformity:
    """Finite entourage basis with a symmetry claim.

    The basis is deduplicated and kept in a deterministic order.
    symmetric_flag records intent; check_quniformity confirms or
    refutes it.
    """

    __slots__ = ("base", "basis", "symmetric_flag", "_e_min")

    def __init__(self, base, basis, symmetric_flag=False):
        basis = tuple(sorted(set(basis), key=lambda r: r.rows))
        if not basis:
            raise ValueError("entourage basis must be nonempty")
        for e in basis:
            if e.base != base:
                raise ValueError("incompatible base sets")
        self.base = base
        self.basis = basis
        self.symmetric_flag = bool(symmetric_flag)
        self._e_min = None

    @classmethod
    def discrete(cls, base):
        return cls(base, [Relation.diagonal(base)], symmetric_flag=True)

    @property
    def e_min(self):
        """Intersection of the basis, the smallest entourage of the
        principal filter."""
        if self._e_min is None:
            self._e_min = intersect_all(self.basis)
        return self._e_min

    def __eq__(self, other):
        return (
            isinstance(other, QUniformity)
            and self.base == other.base
            and self.basis == other.basis
            and self.symmetric_flag == other.symmetric_flag
        )

    def __hash__(self):
        return hash((self.base, self.basis, self.symmetric_flag))

    def __repr__(self):
        return "QUniformity(%r, %d entourages, symmetric=%r)" % (
            self.base.labels, len(self.basis), self.symmetric_flag)


class QUniformReport(namedtuple("QUniformReport", [
        "reflexive_ok", "cotransitive_ok", "symmetric_ok",
        "is_quasi_uniformity", "is_uniformity", "e_min", "witnesses"])):
    """Outcome of check_quniformity. Witnesses are (axiom, entourage,
    pair) triples pointing at a concrete failure."""

    __slots__ = ()


def check_quniformity(u):
    """Validate the filter axioms.

    Reflexivity is per basis element; cotransitivity (some entourage
    composes into any given one) collapses to transitivity of E_min
    because the filter is principal; the symmetry claim collapses to
    symmetry of E_min the same way.
    """
    witnesses = []
    e_min = u.e_min
    labs = u.base.labels

    reflexive_ok = True
    for e in u.basis:
        for i, r in enumerate(e.rows):
            if not r >> i & 1:
                reflexive_ok = False
                witnesses.append(("reflexivity", e, (labs[i], labs[i])))
                break
        if not reflexive_ok:
            break

    cotransitive_ok = True
    sq = e_min.compose(e_min)
    for i, r in enumerate(sq.rows):
        bad = r & ~e_min.rows[i]
        if bad:
            j = (bad & -bad).bit_length() - 1
            culprit = next(e for e in u.basis if not e.rows[i] >> j & 1)
            witnesses.append(("cotransitivity", culprit, (labs[i], labs[j])))
            cotransitive_ok = False
            break

    symmetric_ok = None
    if u.symmetric_flag:
        symmetric_ok = True
        inv = e_min.inverse()
        for i, r in enumerate(e_min.rows):
            bad = r & ~inv.rows[i]
            if bad:
                j = (bad & -bad).bit_length() - 1
                culprit = next(e for e in u.basis if not e.rows[j] >> i & 1)
                witnesses.append(("symmetry", culprit, (labs[j], labs[i])))
                symmetric_ok = False
                break

    is_quasi = reflexive_ok and cotransitive_ok
    is_unif = bool(is_quasi and u.symmetric_flag and symmetric_ok)
    return QUniformReport(reflexive_ok, cotransitive_ok, symmetric_ok,
                          is_quasi, is_unif, e_min, witnesses)


# covering side

MAX_COVERING_BASE = 4


def _check_covering_base(base):
    if len(base) > MAX_COVERING_BASE:
        raise ValueError(
            "covering families are only materialized for |X| <= %d"
            % MAX_COVERING_BASE)


@cache
def _entourage_table(n):
    """ent[f] is the entourage of covering mask f on n points, the union
    of the squares of its blocks, packed with row i at bits n*i.  Bit k
    of f selects block k + 1, so the masks below 2^(k+1) are those below
    2^k and the same with block k + 1 added.  2^15 entries at n = 4."""
    ent = array("H", [0])
    for b in range(1, 1 << n):
        square = 0
        for i in bits(b):
            square |= b << n * i
        ent.extend([e | square for e in ent])
    return ent


class CoveringFamily:
    """A family of coverings of a small base set.

    Coverings live as bitmask families over the list of nonempty blocks,
    bit k selecting block mask k + 1, the label view being derived.
    Only defined for |X| <= 4; the family of all coverings of a 4-set
    already has 32297 members.  The translations to and from entourages
    read one packed entourage table per base size.
    """

    __slots__ = ("base", "blocks", "families")

    def __init__(self, base, family_masks):
        _check_covering_base(base)
        self.base = base
        self.blocks = tuple(range(1, 1 << len(base)))
        self.families = frozenset(family_masks)
        if self.families and (min(self.families) < 1
                              or max(self.families) >> len(self.blocks)):
            raise ValueError(
                "covering mask outside the blocks of the base set")

    @classmethod
    def from_coverings(cls, base, coverings):
        masks = []
        for cov in coverings:
            f, total = _covering_mask(base, cov)
            if total != (1 << len(base)) - 1:
                raise ValueError("family member does not cover the base set")
            masks.append(f)
        return cls(base, masks)

    def covering_from_mask(self, f):
        return frozenset(self.base.labels_of(k + 1) for k in bits(f))

    @property
    def coverings(self):
        return tuple(self.covering_from_mask(f) for f in sorted(self.families))

    def __len__(self):
        return len(self.families)

    def __repr__(self):
        return "CoveringFamily(%r, %d coverings)" % (self.base.labels, len(self.families))


def _covering_mask(base, cov):
    """Family mask of a covering given by label blocks, and the union
    of its blocks."""
    f = total = 0
    for block in cov:
        bm = base.mask_of(block)
        if bm == 0:
            raise ValueError("empty block in covering")
        f |= 1 << (bm - 1)
        total |= bm
    return f, total


def _star_refines(fine, coarse):
    """Does fine star-refine coarse: star(fine, B) inside a member of
    coarse for every member B of fine. Masks in, masks out."""
    fine_blocks = [k + 1 for k in bits(fine)]
    coarse_blocks = [k + 1 for k in bits(coarse)]
    for b in fine_blocks:
        st = 0
        for a in fine_blocks:
            if a & b:
                st |= a
        if not any(st & ~c == 0 for c in coarse_blocks):
            return False
    return True


def weil_to_tukey(u):
    """Entourage filter to covering family.

    Materializes every covering refined by the neighborhood covering of
    E_min (guard |X| <= 4).  Input must be a validated uniformity.
    """
    if not u.symmetric_flag:
        raise ValueError("weil_to_tukey requires symmetric_flag")
    rep = check_quniformity(u)
    if not rep.is_uniformity:
        axiom = rep.witnesses[0][0] if rep.witnesses else "unknown"
        raise ValueError("not a uniformity (%s fails)" % axiom)
    _check_covering_base(u.base)
    n = len(u.base)
    full = (1 << n) - 1
    rows = u.e_min.rows
    # hit[f] holds the points i with E_min(i) inside some block of f,
    # built by the doubling of _entourage_table; E_min is reflexive, so
    # every f with hit[f] full covers the base
    hit = bytearray(1)
    for b in range(1, full + 1):
        hit_block = sum(1 << i for i in range(n) if rows[i] & ~b == 0)
        hit += hit.translate(bytes(x | hit_block for x in range(256)))
    keep = hit.translate(bytes(x == full for x in range(256)))
    # the empty family f = 0 is left out; every mask lies in range by
    # construction, so the constructor's pass over them is skipped
    fam = CoveringFamily(u.base, ())
    fam.families = frozenset(itertools.compress(range(1, len(hit)), keep[1:]))
    return fam


def tukey_to_weil(t):
    """Covering family to entourage filter, one symmetric entourage
    per covering (union of squares of its blocks)."""
    if not t.families:
        raise ValueError("empty covering family")
    base = t.base
    n = len(base)
    full = (1 << n) - 1
    ent = _entourage_table(n)
    packed = {ent[f] for f in t.families}
    # an entourage is reflexive exactly when its covering covers the base
    diagonal = sum(1 << (n + 1) * i for i in range(n))
    if any(p & diagonal != diagonal for p in packed):
        raise ValueError("family member does not cover the base set")
    return QUniformity(
        base, [Relation(base, [p >> n * i & full for i in range(n)])
               for p in packed],
        symmetric_flag=True)


class TukeyReport(namedtuple("TukeyReport", [
        "all_coverings_ok", "meet_ok", "coarsening_ok", "star_ok",
        "witnesses"])):
    __slots__ = ()

    @property
    def valid(self):
        return (self.all_coverings_ok and self.meet_ok
                and self.coarsening_ok and self.star_ok)


def _meet_mask(f1, f2):
    out = 0
    for k1 in bits(f1):
        for k2 in bits(f2):
            inter = (k1 + 1) & (k2 + 1)
            if inter:
                out |= 1 << (inter - 1)
    return out


def is_tukey_family(t):
    """Check the covering-family axioms, exhaustively and exactly.

    Coverage and coarsening-closure run over every member.  Call a
    member minimal when dropping any one of its blocks leaves the
    family; meet-stability and star-refinement run over the minimal
    members only, which decides them:

    - star, for any family: dropping blocks from a refiner shrinks its
      stars, adding blocks to a target makes it easier to hit, and
      every member contains a minimal one, so every member is
      star-refined by a member iff every minimal member is
      star-refined by a minimal member;
    - meet: _meet_mask is monotone in both arguments, so when
      coarsening holds (every superset of a member is a member) the
      meets of all pairs lie in the family iff those of minimal pairs
      do.  When coarsening fails the family is rejected whatever the
      meet check says.
    """
    full = (1 << len(t.base)) - 1
    blocks = t.blocks
    fams = sorted(t.families)
    fam_set = t.families
    witnesses = []

    all_cov = True
    for f in fams:
        u = 0
        for k in bits(f):
            u |= k + 1
        if u != full:
            all_cov = False
            witnesses.append(("covers", f))
            break

    minimal = [f for f in fams
               if all(f & ~(1 << k) not in fam_set for k in bits(f))]

    # the meet is symmetric, so unordered pairs suffice
    meet_ok = True
    for f1, f2 in itertools.combinations_with_replacement(minimal, 2):
        if _meet_mask(f1, f2) not in fam_set:
            meet_ok = False
            witnesses.append(("meet", f1, f2))
            break

    # adding any block keeps a covering a covering and only coarsens it
    coarsening_ok = True
    nb = len(blocks)
    for f in fams:
        for k in range(nb):
            g = f | 1 << k
            if g not in fam_set:
                coarsening_ok = False
                witnesses.append(("coarsening", f, blocks[k]))
                break
        if not coarsening_ok:
            break

    star_ok = True
    for f in minimal:
        if not any(_star_refines(c, f) for c in minimal):
            star_ok = False
            witnesses.append(("star", f))
            break

    return TukeyReport(all_cov, meet_ok, coarsening_ok, star_ok, witnesses)


# proximity side


class Proximity:
    """Nearness induced by an entourage filter: A near B when some
    entourage pair crosses from A to B, which for a principal filter
    means (A x B) meets E_min."""

    __slots__ = ("base", "_rows")

    def __init__(self, u):
        self.base = u.base
        self._rows = u.e_min.rows

    def near(self, a, b):
        bm = self.base.mask_of(b)
        return any(self._rows[self.base.index(x)] & bm for x in a)

    def table(self):
        """Sorted list of near pairs over nonempty subsets. Guarded."""
        if len(self.base) > 5:
            raise ValueError("proximity tables are only printed for |X| <= 5")
        subs = sorted(self.base.subsets(nonempty=True),
                      key=lambda s: (len(s), sorted(s)))
        out = []
        for a in subs:
            for b in subs:
                if self.near(a, b):
                    out.append((a, b))
        return out


# topology and the standard quasi-uniformities


def topology_from(u):
    """Opens are the E_min-stable sets, which are the sets stable under
    the reflexive-transitive closure of E_min."""
    return FiniteTopology.from_preorder(u.e_min.reflexive_transitive_closure())


def pervin(top):
    """One entourage per open: leave the open where it is, send the rest
    anywhere.  Each distinct row tuple is built as one Relation."""
    base = top.base
    n = len(base)
    full = (1 << n) - 1
    rows = {tuple(um if um >> i & 1 else full for i in range(n))
            for um in top.open_masks}
    return QUniformity(base, [Relation(base, r) for r in rows])


def kunzi(top):
    """Pervin refined by a compact (here: arbitrary) kernel K inside
    each open U: row U at the points of K, the full row elsewhere, so
    points outside the kernel move freely.  The kernels of U together
    give the product over the points of (full, U) on U and (full,) off
    U; each distinct row tuple is built as one Relation."""
    base = top.base
    n = len(base)
    full = (1 << n) - 1
    rows = set()
    for um in top.open_masks:
        rows.update(itertools.product(
            *[(full, um) if um >> i & 1 else (full,) for i in range(n)]))
    return QUniformity(base, [Relation(base, r) for r in rows])


def symmetrize(u):
    """Meet each entourage with its inverse. The result claims symmetry.
    Exercised by tests/test_quniform.py::test_symmetrize_yields_uniformity."""
    return QUniformity(u.base, [e.intersection(e.inverse()) for e in u.basis],
                       symmetric_flag=True)


def hausdorff_quotient(u):
    """Collapse the E_min-equivalence classes of a validated uniformity.

    Returns (quotient, mapping) with class labels joining the member
    labels by '+'.
    """
    if not u.symmetric_flag:
        raise ValueError("hausdorff_quotient needs symmetric_flag")
    rep = check_quniformity(u)
    if not rep.is_uniformity:
        raise ValueError("hausdorff_quotient needs a validated uniformity")
    e = rep.e_min
    base = u.base
    seen = {}
    classes = []
    for i, lab in enumerate(base.labels):
        m = e.rows[i]
        if m not in seen:
            seen[m] = len(classes)
            classes.append(m)
    cls_labels = ["+".join(sorted(base.labels_of(m))) for m in classes]
    qbase = FiniteSet(cls_labels)
    mapping = {}
    for i, lab in enumerate(base.labels):
        mapping[lab] = cls_labels[seen[e.rows[i]]]
    qrels = set()
    for ent in u.basis:
        pairs = set()
        for (a, b) in ent.pairs:
            pairs.add((mapping[a], mapping[b]))
        qrels.add(Relation.from_pairs(qbase, pairs))
    return QUniformity(qbase, qrels, symmetric_flag=True), mapping
