import functools
import itertools
import random

import pytest

from unifkit.enumeration import (all_equivalences, all_preorders,
                                 standard_base)
from unifkit.quniform import (CoveringFamily, Proximity, QUniformity,
                              _meet_mask, check_quniformity,
                              hausdorff_quotient, is_tukey_family, kunzi,
                              pervin, symmetrize, topology_from,
                              tukey_to_weil, weil_to_tukey)
from unifkit.relations import FiniteSet, Relation, bits, random_relation
from unifkit.topology import FiniteTopology


@pytest.fixture
def sier():
    base = FiniteSet(["p0", "p1"])
    return FiniteTopology.from_opens(base, [[], ["p1"], ["p0", "p1"]])


def uniform_two_blocks():
    """Equivalence uniformity with classes {a, b} and {c}."""
    base = FiniteSet(["a", "b", "c"])
    e = Relation.from_pairs(base, [("a", "a"), ("b", "b"), ("c", "c"),
                                   ("a", "b"), ("b", "a")])
    return QUniformity(base, [e], symmetric_flag=True)


def test_check_accepts_transitive_entourage(sier):
    u = pervin(sier)
    rep = check_quniformity(u)
    assert rep.reflexive_ok and rep.cotransitive_ok
    assert rep.is_quasi_uniformity
    assert rep.symmetric_ok is None
    assert not rep.witnesses


def test_cotransitivity_failure_has_witness():
    base = FiniteSet(["a", "b", "c"])
    # a -> b -> c but no a -> c and nothing smaller available
    e = Relation.from_pairs(
        base, [("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")])
    rep = check_quniformity(QUniformity(base, [e]))
    assert not rep.is_quasi_uniformity
    axioms = {w[0] for w in rep.witnesses}
    assert "cotransitivity" in axioms


def test_symmetry_claim_checked(sier):
    u = pervin(sier)
    claimed = QUniformity(u.base, u.basis, symmetric_flag=True)
    rep = check_quniformity(claimed)
    assert rep.symmetric_ok is False
    assert not rep.is_uniformity


def test_pervin_kunzi_share_the_specialization_core(sier):
    spec = sier.specialization()
    assert pervin(sier).e_min == spec
    assert kunzi(sier).e_min == spec


def test_topology_round_trip(sier):
    assert topology_from(pervin(sier)).open_masks == sier.open_masks
    assert topology_from(kunzi(sier)).open_masks == sier.open_masks


def _reference_pervin(top):
    base = top.base
    n = len(base)
    full = (1 << n) - 1
    rels = set()
    for um in top.open_masks:
        rows = [um if um >> i & 1 else full for i in range(n)]
        rels.add(Relation(base, rows))
    return QUniformity(base, rels, symmetric_flag=False)


def _reference_kunzi(top):
    base = top.base
    n = len(base)
    full = (1 << n) - 1
    rels = set()
    for um in top.open_masks:
        # all kernels K inside the open
        sub = um
        k = sub
        while True:
            rows = [um if k >> i & 1 else full for i in range(n)]
            rels.add(Relation(base, rows))
            if k == 0:
                break
            k = (k - 1) & sub
    return QUniformity(base, rels, symmetric_flag=False)


def test_pervin_kunzi_match_the_kernel_loops():
    """The row-tuple builds give the bases of the loops over every open
    and every kernel, in order, with the same core and topology.  The
    core is checked against a pairwise fold and the topology against
    the closure of the core with the diagonal, so intersect_all and the
    closure are compared too."""
    tops = [FiniteTopology.from_preorder(r)
            for n in range(1, 5) for r in all_preorders(standard_base(n))]
    assert len(tops) == 389
    tops += [FiniteTopology.from_preorder(r)
             for r in all_preorders(standard_base(5))[::10]]
    for top in tops:
        for build, reference in ((pervin, _reference_pervin),
                                 (kunzi, _reference_kunzi)):
            u, want = build(top), reference(top)
            assert [e.rows for e in u.basis] == \
                [e.rows for e in want.basis], top.open_masks
            core = functools.reduce(Relation.intersection, want.basis)
            assert u.e_min.rows == core.rows
            closed = core.union(Relation.diagonal(top.base))
            assert topology_from(u).open_masks == \
                top.open_masks == FiniteTopology.from_preorder(
                    closed.transitive_closure()).open_masks


def test_weil_tukey_round_trip_preserves_core():
    u = uniform_two_blocks()
    fam = weil_to_tukey(u)
    assert is_tukey_family(fam).valid
    assert tukey_to_weil(fam).e_min == u.e_min


def test_weil_to_tukey_rejects_asymmetric(sier):
    with pytest.raises(ValueError):
        weil_to_tukey(pervin(sier))


def test_tukey_family_indiscrete_four_points():
    # the indiscrete uniformity on four points admits every covering
    # that has the whole set as a block, and that block alone is the
    # one minimal member
    base = standard_base(4)
    fam = weil_to_tukey(
        QUniformity(base, [Relation.full(base)], symmetric_flag=True))
    assert len(fam) == 16384
    assert is_tukey_family(fam).valid


def test_covering_family_star():
    base = FiniteSet(["a", "b", "c"])
    fam = CoveringFamily.from_coverings(
        base, [[["a", "b"], ["b", "c"]], [["a", "b", "c"]]])
    covs = fam.coverings
    assert frozenset({frozenset({"a", "b", "c"})}) in covs


def test_proximity_from_uniformity(sier):
    two = uniform_two_blocks()
    assert Proximity(two).near(["a"], ["b"])
    assert not Proximity(two).near(["a"], ["c"])
    # A near B iff some E_min pair runs from A into B, on every pair of
    # subsets, the empty one included; the Pervin core is not symmetric,
    # so it also pins the orientation
    for u in (two, pervin(sier)):
        p = Proximity(u)
        pairs = u.e_min.pairs
        subs = list(u.base.subsets())
        for a in subs:
            for b in subs:
                assert p.near(a, b) == any((x, y) in pairs
                                           for x in a for y in b)


def test_proximity_table_guard():
    base = standard_base(6)
    u = QUniformity(base, [Relation.diagonal(base)], symmetric_flag=True)
    with pytest.raises(ValueError):
        Proximity(u).table()


def test_symmetrize_yields_uniformity(sier):
    s = symmetrize(pervin(sier))
    rep = check_quniformity(s)
    assert rep.is_uniformity


def test_hausdorff_quotient_collapses_core():
    u = uniform_two_blocks()
    q, mapping = hausdorff_quotient(u)
    assert q.e_min == Relation.diagonal(q.base)
    assert mapping["a"] == mapping["b"] == "a+b"
    assert mapping["c"] == "c"


def test_quotient_requires_symmetric(sier):
    with pytest.raises(ValueError):
        hausdorff_quotient(pervin(sier))


# The translations as the covering layer first wrote them, loop for loop,
# kept as the oracle for the table-driven ones.

def _oracle_universe(n):
    blocks = list(range(1, 1 << n))
    full = (1 << n) - 1
    nb = len(blocks)
    union = [0] * (1 << nb)
    for f in range(1, 1 << nb):
        low = f & -f
        union[f] = union[f ^ low] | blocks[low.bit_length() - 1]
    families = [f for f in range(1, 1 << nb) if union[f] == full]
    return blocks, families


def _oracle_weil_to_tukey(u):
    blocks, families = _oracle_universe(len(u.base))
    n = len(u.base)
    s = []
    for i in range(n):
        need = u.e_min.rows[i]
        acc = 0
        for k, bm in enumerate(blocks):
            if need & ~bm == 0:
                acc |= 1 << k
        s.append(acc)
    return [f for f in families if all(f & si for si in s)]


def _oracle_tukey_to_weil(base, families):
    n = len(base)
    row_sets = set()
    for f in families:
        rows = [0] * n
        m = f
        while m:
            low = m & -m
            bm = low.bit_length()
            for i in range(n):
                if bm >> i & 1:
                    rows[i] |= bm
            m ^= low
        row_sets.add(tuple(rows))
    return QUniformity(base, [Relation(base, rows) for rows in row_sets],
                       symmetric_flag=True)


def _equivalence_uniformities():
    for n in range(5):
        base = standard_base(n)
        for e in all_equivalences(base):
            yield QUniformity(base, [e], symmetric_flag=True)


def _seeded_uniformities(count, seed=3):
    # a partition core and up to two coarser symmetric entourages, drawn
    # as the uniformities benchmark workload draws them
    rng = random.Random(seed)
    base = standard_base(4)
    cores = all_equivalences(base)
    for _ in range(count):
        core = rng.choice(cores)
        basis = [core]
        for _ in range(rng.randint(0, 2)):
            extra = random_relation(base, rng, density=0.3)
            basis.append(core | extra | extra.inverse())
        rng.shuffle(basis)
        yield QUniformity(base, basis, symmetric_flag=True)


@pytest.mark.parametrize("uniformities", [
    pytest.param(_equivalence_uniformities, id="equivalence-cores"),
    pytest.param(lambda: _seeded_uniformities(8), id="seeded-4-points"),
])
def test_translations_match_the_oracle(uniformities):
    for u in uniformities():
        fam = weil_to_tukey(u)
        want = _oracle_weil_to_tukey(u)
        assert fam.families == frozenset(want), u
        if not want:
            continue
        got = tukey_to_weil(fam)
        expected = _oracle_tukey_to_weil(u.base, want)
        assert got.basis == expected.basis, u
        assert got.symmetric_flag is expected.symmetric_flag is True
        assert got.e_min == expected.e_min == u.e_min


def test_tukey_to_weil_matches_the_oracle_on_arbitrary_families():
    rng = random.Random(5)
    for n in range(1, 5):
        base = standard_base(n)
        _, universe = _oracle_universe(n)
        for size in (1, 2, 7, 40):
            fams = rng.sample(universe, min(size, len(universe)))
            got = tukey_to_weil(CoveringFamily(base, fams))
            assert got == _oracle_tukey_to_weil(base, fams), fams


def test_weil_to_tukey_guards_five_points():
    base = standard_base(5)
    with pytest.raises(ValueError,
                       match=r"only materialized for \|X\| <= 4"):
        weil_to_tukey(QUniformity.discrete(base))


def test_covering_family_rejects_masks_outside_the_blocks():
    base = standard_base(3)
    for masks in ([1 << 20], [0], [-1]):
        with pytest.raises(ValueError, match="outside the blocks"):
            CoveringFamily(base, masks)


def test_tukey_to_weil_rejects_a_member_that_misses_a_point():
    base = standard_base(3)
    # blocks {x0} and {x1} leave x2 uncovered
    with pytest.raises(ValueError, match="does not cover the base set"):
        tukey_to_weil(CoveringFamily(base, [0b11, 1 << 6]))


# is_tukey_family's exhaustive branch as it stood before the check moved
# to minimal members, kept verbatim with the star-refinement helper it
# called, as the oracle

def _reference_star_refines(fine, coarse, base):
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


def _reference_is_tukey_family(t):
    base = t.base
    full = (1 << len(base)) - 1
    blocks = t.blocks
    fams = sorted(t.families)
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

    fam_set = t.families
    meet_ok = True
    pair_iter = itertools.product(fams, fams)
    for f1, f2 in pair_iter:
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

    # star-refinement: candidates are the finest members
    def weight(f):
        return sum((k + 1).bit_count() for k in bits(f))

    cands = sorted(fams, key=weight)[:200]
    star_ok = True
    targets = fams
    for f in targets:
        if not any(_reference_star_refines(c, f, base) for c in cands):
            star_ok = False
            witnesses.append(("star", f))
            break

    return all_cov, meet_ok, coarsening_ok, star_ok


def _seeded_covering_families(count, seed=15):
    """Families on at most three points, where the oracle's caps never
    bind: arbitrary mask sets (some miss a point), and the up-closures
    of one to three masks, which are closed under coarsening."""
    rng = random.Random(seed)
    for i in range(count):
        base = standard_base(rng.choice((1, 2, 3, 3, 3, 3)))
        masks = range(1, 1 << (1 << len(base)) - 1)
        if i % 2:
            gens = rng.sample(masks, min(len(masks), rng.randint(1, 3)))
            fams = [f for f in masks if any(f & g == g for g in gens)]
        else:
            p = rng.choice((0.1, 0.5, 0.9))
            fams = [f for f in masks if rng.random() < p]
        yield CoveringFamily(base, fams)


def test_tukey_family_matches_the_oracle_on_seeded_families():
    verdicts = set()
    for t in _seeded_covering_families(2000):
        rep = is_tukey_family(t)
        cov, meet, coarse, star = _reference_is_tukey_family(t)
        assert rep.all_coverings_ok == cov, t.families
        assert rep.coarsening_ok == coarse, t.families
        assert rep.star_ok == star, t.families
        # meet is decided on minimal members, exact once coarsening holds
        if coarse:
            assert rep.meet_ok == meet, t.families
        verdicts.add(rep.valid)
    assert verdicts == {True, False}
