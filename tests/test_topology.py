import itertools
import random

from unifkit.enumeration import (all_equivalences, all_partial_orders,
                                 all_preorders, dense_pairs, dense_subsets,
                                 reflexive_rows, standard_base)
from unifkit.quniform import QUniformity, topology_from
from unifkit.relations import (FiniteSet, Relation, is_transitive_rows,
                               random_relation)
from unifkit.topology import FiniteTopology, up_sets
from unifkit.tower import make_tower, puncture_quotient


def chain3():
    base = FiniteSet(["a", "b", "c"])
    r = Relation.from_pairs(base, [("a", "b"), ("b", "c")])
    return FiniteTopology.from_preorder(r.reflexive_transitive_closure())


def test_from_opens_matches_preorder_dictionary():
    base = FiniteSet(["p", "q"])
    top = FiniteTopology.from_opens(base, [[], ["q"], ["p", "q"]])
    r = Relation.from_pairs(base, [("p", "p"), ("q", "q"), ("p", "q")])
    assert top.open_masks == FiniteTopology.from_preorder(r).open_masks


def test_interior_closure_duality():
    top = chain3()
    full = 0b111
    for m in range(8):
        assert top.interior_mask(m) == full & ~top.closure_mask(full & ~m)


def test_minimal_open_of_chain():
    top = chain3()
    # a sees everything above it, c only itself
    assert top.min_open_mask(0) == 0b111
    assert top.min_open_mask(2) == 0b100


def test_specialization_round_trip():
    base = standard_base(3)
    for r in all_preorders(base):
        assert FiniteTopology.from_preorder(r).specialization() == r


def test_t0_iff_antisymmetric():
    base = standard_base(3)
    for r in all_preorders(base):
        top = FiniteTopology.from_preorder(r)
        antisymmetric = all(not (r.rows[i] >> j & 1 and r.rows[j] >> i & 1)
                            for i in range(3) for j in range(3) if i != j)
        assert top.is_t0() == antisymmetric


def test_hasse_edges_of_chain():
    top = chain3()
    assert set(top.hasse_edges()) == {(0, 1), (1, 2)}


def test_discrete_indiscrete():
    base = standard_base(2)
    assert len(FiniteTopology.discrete(base).open_masks) == 4
    assert len(FiniteTopology.indiscrete(base).open_masks) == 2


def test_is_dense():
    top = chain3()
    full = (1 << len(top.base)) - 1
    assert top.closure_mask(top.base.mask_of(["c"])) == full
    assert top.closure_mask(top.base.mask_of(["a"])) != full


def test_dense_subsets_of_chain():
    # any subset containing the generic point c is dense
    ds = dense_subsets(chain3())
    assert frozenset({"c"}) in ds
    assert len(ds) == 4


def _spread_reflexive_rows(n):
    """The reflexive relations as the acceptance suite first built
    them: row i is point i plus a subset of the others, spread from a
    mask over the n - 1 other points."""
    choices = []
    for i in range(n):
        rest = [b for b in range(n) if b != i]
        opts = []
        for m in range(1 << (n - 1)):
            row = 1 << i
            for k, b in enumerate(rest):
                if m >> k & 1:
                    row |= 1 << b
            opts.append(row)
        choices.append(opts)
    return list(itertools.product(*choices))


def test_enumeration_counts():
    for n in range(5):
        assert list(reflexive_rows(n)) == _spread_reflexive_rows(n)
    assert len(all_preorders(standard_base(1))) == 1
    assert len(all_preorders(standard_base(2))) == 4
    assert len(all_preorders(standard_base(3))) == 29
    assert len(all_preorders(standard_base(4))) == 355
    assert len(all_partial_orders(standard_base(5))) == 4231
    assert len(all_equivalences(standard_base(4))) == 15


def test_preorders_match_the_transitivity_filter():
    """Partial orders on the classes of each set partition list the
    transitive reflexive rows, in reflexive_rows order; on five points
    every tenth one is what test_pervin_kunzi_match_the_kernel_loops
    reads."""
    for n in range(6):
        want = [rows for rows in reflexive_rows(n)
                if is_transitive_rows(rows)]
        got = all_preorders(standard_base(n))
        assert [r.rows for r in got] == want, n
        assert all(r.is_preorder() for r in got)
    assert len(got) == 6942
    assert [r.rows for r in got[::10]] == want[::10]


# differential check of the enumerators against the direct filters:
# every orientation assignment tested for transitivity, and every subset
# tested by its closure


def _orientation_partial_orders(base):
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


def _closure_dense_subsets(top):
    out = []
    for m in range(1 << len(top.base)):
        if top.closure_mask(m) == (1 << len(top.base)) - 1:
            out.append(top.base.labels_of(m))
    return out


def test_partial_orders_match_orientation_filter():
    for n in range(6):
        base = standard_base(n)
        got = all_partial_orders(base)
        assert [r.rows for r in got] == \
            [r.rows for r in _orientation_partial_orders(base)], n
        assert all(r.base is base for r in got)


def test_dense_subsets_match_closure_scan():
    rels = [r for n in range(6) for r in all_partial_orders(standard_base(n))]
    rels += [r for n in range(5) for r in all_preorders(standard_base(n))]
    for r in rels:
        top = FiniteTopology.from_preorder(r)
        assert dense_subsets(top) == _closure_dense_subsets(top), r.rows


def test_dense_pairs_follow_the_nested_loops():
    for n, count in {1: 1, 2: 5, 3: 55, 4: 1121, 5: 38671}.items():
        got = list(dense_pairs(n))
        assert len(got) == count
        if n <= 4:
            tops = [FiniteTopology.from_preorder(po)
                    for po in all_partial_orders(standard_base(n))]
            assert got == [(t, d) for t in tops for d in dense_subsets(t)]


def test_labels_of_is_interned():
    for n in range(6):
        base = standard_base(n)
        for m in range(1 << n):
            got = base.labels_of(m)
            assert got == frozenset(base.labels[i] for i in range(n)
                                    if m >> i & 1)
            assert base.labels_of(m) is got


# differential check against the direct definitions: the opens of a
# preorder are the subsets closed along its rows, found by testing all
# 2^n of them; interior and closure walk that whole lattice


def _scan_up_sets(rows):
    n = len(rows)
    masks = []
    for v in range(1 << n):
        ok = True
        for i in range(n):
            if v >> i & 1 and rows[i] & ~v:
                ok = False
                break
        if ok:
            masks.append(v)
    return masks


def _walk_interior(opens, mask):
    acc = 0
    for m in opens:
        if m & ~mask == 0:
            acc |= m
    return acc


def _walk_closure(opens, mask, n):
    acc = 0
    for m in opens:
        if m & mask == 0:
            acc |= m
    return ~acc & ((1 << n) - 1)


def _agrees_with_scan(rel):
    n = len(rel.base)
    top = FiniteTopology.from_preorder(rel)
    opens = _scan_up_sets(rel.rows)
    assert list(top.open_masks) == opens
    for m in range(1 << n):
        assert top.interior_mask(m) == _walk_interior(opens, m)
        assert top.closure_mask(m) == _walk_closure(opens, m, n)
    rebuilt = FiniteTopology(rel.base, top.open_masks)
    assert rebuilt == top and hash(rebuilt) == hash(top)
    assert list(rebuilt.open_masks) == opens


def test_lattice_matches_scan_on_every_small_preorder():
    for n in range(5):
        for r in all_preorders(standard_base(n)):
            _agrees_with_scan(r)


def test_lattice_matches_scan_on_every_5_point_order():
    for r in all_partial_orders(standard_base(5)):
        _agrees_with_scan(r)


def _scan_within(rows, within):
    out = []
    v = within
    while True:
        if all(rows[i] & within & ~v == 0
               for i in range(len(rows)) if v >> i & 1):
            out.append(v)
        if v == 0:
            return sorted(out)
        v = (v - 1) & within


def test_up_sets_of_every_subspace():
    rels = [r for n in range(5) for r in all_preorders(standard_base(n))]
    rels += all_partial_orders(standard_base(5))
    for r in rels:
        for within in range(1 << len(r.base)):
            assert up_sets(r.rows, within) == _scan_within(r.rows, within)


def test_topology_from_matches_e_min_scan():
    rng = random.Random(11)
    seen_intransitive = 0
    for n in range(1, 6):
        base = standard_base(n)
        diag = Relation.diagonal(base)
        for _ in range(40):
            gens = [random_relation(base, rng, density=0.3).union(diag)
                    for _ in range(rng.randint(1, 3))]
            u = QUniformity(base, gens)
            seen_intransitive += not u.e_min.is_transitive()
            top = topology_from(u)
            assert list(top.open_masks) == _scan_up_sets(u.e_min.rows)
    assert seen_intransitive > 0


def test_sectorial_quotient_lists_the_scanned_lattice():
    top, _ = puncture_quotient(make_tower("sectorial_disk", 3))
    assert len(top.base) == 16
    opens = _scan_up_sets(top.specialization().rows)
    assert len(opens) == 2207
    assert list(top.open_masks) == opens
