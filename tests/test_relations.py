import functools
import random

import pytest

from unifkit.relations import (FiniteSet, Relation, bits, intersect_all,
                               random_relation)


@pytest.fixture
def base():
    return FiniteSet(["a", "b", "c"])


def test_labels_and_masks(base):
    assert base.labels == ("a", "b", "c")
    assert base.index("b") == 1
    assert base.mask_of(["a", "c"]) == 0b101
    assert base.labels_of(0b110) == frozenset({"b", "c"})


def test_bits_lists_set_bits_in_order():
    # masks below 256 read the byte table, wider ones the loop
    for m in list(range(1 << 10)) + [1 << 70 | 5, (1 << 64) - 1]:
        assert list(bits(m)) == [i for i in range(m.bit_length())
                                 if m >> i & 1]


def test_subsets_counts(base):
    assert len(list(base.subsets())) == 8
    assert len(list(base.subsets(nonempty=True))) == 7


def test_from_pairs_and_pairs_round_trip(base):
    r = Relation.from_pairs(base, [("a", "b"), ("b", "c"), ("a", "a")])
    assert set(r.pairs) == {("a", "b"), ("b", "c"), ("a", "a")}


def _seeded_relations(seed, count=60):
    """Pairs of seeded random relations on 0 to 6 points."""
    rng = random.Random(seed)
    for k in range(count):
        b = FiniteSet("x%d" % i for i in range(k % 7))
        density = rng.choice((0.2, 0.4, 0.6))
        yield (random_relation(b, rng, density),
               random_relation(b, rng, density))


def _pairwise_closure(pairs):
    out = set(pairs)
    while True:
        more = {(a, d) for a, b in out for c, d in out if b == c} - out
        if not more:
            return out
        out |= more


def test_compose_is_relational_composition(base):
    r = Relation.from_pairs(base, [("a", "b")])
    s = Relation.from_pairs(base, [("b", "c")])
    assert set(r.compose(s).pairs) == {("a", "c")}
    assert not set(s.compose(r).pairs)
    for e, f in _seeded_relations(1):
        want = {(a, d) for a, b in e.pairs for c, d in f.pairs if b == c}
        assert set(e.compose(f).pairs) == want


def test_inverse_swaps(base):
    r = Relation.from_pairs(base, [("a", "b"), ("a", "c")])
    assert set(r.inverse().pairs) == {("b", "a"), ("c", "a")}


def test_diagonal_and_full(base):
    d = Relation.diagonal(base)
    f = Relation.full(base)
    assert d.contains_diagonal() and d.is_transitive()
    assert f.is_equivalence()
    assert d.compose(f) == f


def test_closures(base):
    r = Relation.from_pairs(base, [("a", "b"), ("b", "c")])
    t = r.reflexive_transitive_closure()
    assert t.is_preorder()
    assert ("a", "c") in set(t.pairs)
    e = (r | r.inverse()).reflexive_transitive_closure()
    assert e.is_equivalence()
    assert e == Relation.full(base)
    for e, _ in _seeded_relations(2):
        closed = _pairwise_closure(e.pairs)
        assert set(e.transitive_closure().pairs) == closed
        assert e.is_transitive() == (closed == set(e.pairs))
        diag = {(x, x) for x in e.base}
        assert set(e.reflexive_transitive_closure().pairs) == \
            _pairwise_closure(e.pairs | diag)


def test_predicates_disagree_on_strict_order(base):
    r = Relation.from_pairs(base, [("a", "b")])
    assert not r.contains_diagonal()
    assert r.is_transitive()
    assert not r.is_symmetric()


def test_intersect_all(base):
    r = Relation.from_pairs(base, [("a", "a"), ("a", "b"), ("b", "b"),
                                   ("c", "c")])
    s = Relation.from_pairs(base, [("a", "a"), ("b", "b"), ("c", "c"),
                                   ("b", "a")])
    m = intersect_all([r, s])
    assert m == Relation.diagonal(base)


def test_intersect_all_edge_cases(base):
    r = Relation.full(base)
    assert intersect_all([r]) is r
    assert intersect_all(iter([r])) is r
    other = Relation.full(FiniteSet(["a", "b", "d"]))
    with pytest.raises(ValueError, match="^incompatible base sets$"):
        intersect_all([r, Relation.diagonal(base), other])
    with pytest.raises(ValueError):
        intersect_all([])


def _seeded_relation_lists(seed, count=200):
    """Seeded lists of 1 to 40 random relations on 1 to 6 points."""
    rng = random.Random(seed)
    for _ in range(count):
        b = FiniteSet("x%d" % i for i in range(rng.randint(1, 6)))
        density = rng.choice((0.5, 0.8, 0.95))
        yield [random_relation(b, rng, density)
               for _ in range(rng.randint(1, 40))]


def test_intersect_all_is_the_pairwise_fold():
    for rels in _seeded_relation_lists(3):
        want = functools.reduce(Relation.intersection, rels)
        assert intersect_all(rels) == want
        for r in rels:
            diag = Relation.diagonal(r.base)
            assert r.reflexive_transitive_closure() == \
                r.union(diag).transitive_closure()


def test_random_relation_is_seed_deterministic(base):
    a = random_relation(base, random.Random(7))
    b = random_relation(base, random.Random(7))
    assert a == b
