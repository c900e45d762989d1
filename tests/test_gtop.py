import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from unifkit import gtop, linalg
from unifkit.enumeration import (all_partial_orders, all_preorders,
                                 dense_pairs, dense_subsets, standard_base)
from unifkit.gtop import (DensePair, GCoveringSystem, PosetSheaf,
                          cech_adequate, cech_cohomology, check_gluing,
                          check_grothendieck, check_l7, constant_sheaf,
                          finest_g_covering, pseudo_circle, random_sheaf,
                          sheaf_cohomology, sierpinski_pair,
                          simplicial_cohomology, uniform_g_topology)
from unifkit.relations import FiniteSet, Relation, bits
from unifkit.topology import FiniteTopology
from unifkit.tower import make_tower, puncture_quotient


def test_sierpinski_orientation():
    pair = sierpinski_pair()
    assert pair.x_labels == frozenset({"p1"})
    xhat = pair.xhat
    assert xhat.closure_mask(xhat.base.mask_of(["p1"])) == 0b11


def test_trace_opens():
    pair = sierpinski_pair()
    assert set(pair.trace_open_masks()) == {0, pair.x_mask}


def test_u_check_of_the_dense_point():
    pair = sierpinski_pair()
    # the largest open tracing into {p1} is the whole completion
    assert pair.u_check(("p1",)) == frozenset({"p0", "p1"})


def test_u_check_rejects_non_trace_open():
    base = FiniteSet(["p0", "p1"])
    top = FiniteTopology.from_opens(base, [[], ["p1"], ["p0", "p1"]])
    pair = DensePair(top, ["p0", "p1"])
    with pytest.raises(ValueError):
        pair.u_check(("p0",))


def test_l7_on_sierpinski():
    rep = check_l7(sierpinski_pair())
    assert rep.items1to5_ok
    assert not rep.items[7]


def test_l7_on_full_pseudo_circle():
    rep = check_l7(pseudo_circle(True))
    assert rep.items1to5_ok


def test_grothendieck_axioms_hold():
    for pair in (sierpinski_pair(), pseudo_circle(True), pseudo_circle(False)):
        rep = check_grothendieck(uniform_g_topology(pair, 2))
        assert rep.valid, pair.x_labels


def test_g_covering_detection():
    pair = pseudo_circle(False)
    base = pair.xhat.base
    g = GCoveringSystem(pair)
    both = [base.mask_of(["a"]), base.mask_of(["b"])]
    # u-checks of the two singletons miss the closed points
    assert not g.is_g_covering(pair.x_mask, both)
    assert g.is_g_covering(pair.x_mask, [pair.x_mask])


def test_constant_sheaf_on_circle_model():
    pair = pseudo_circle(True)
    f = constant_sheaf(pair.xhat)
    assert tuple(sheaf_cohomology(f)) == (1, 1)
    assert tuple(simplicial_cohomology(pair.xhat)) == (1, 1)


def test_cech_matches_on_adequate_covering():
    pair = pseudo_circle(True)
    members = finest_g_covering(pair)
    assert cech_adequate(pair, members)
    f = constant_sheaf(pair.xhat)
    assert tuple(cech_cohomology(pair, f, members)) == (1, 1)


def test_half_circle_finest_covering_is_degenerate():
    pair = pseudo_circle(False)
    members = finest_g_covering(pair)
    assert not cech_adequate(pair, members)


def oracle_cech_adequate(pair, members):
    """The component search cech_adequate replaces, kept verbatim as the
    reference."""
    top = pair.xhat
    n = len(top.base)
    mins = [top.min_open_mask(i) for i in range(n)]
    members = tuple(members)
    for r in range(1, len(members) + 1):
        for sigma in itertools.combinations(range(len(members)), r):
            inter = pair.x_mask
            for t in sigma:
                inter &= members[t]
            w = pair.u_check_mask(inter)
            # components via comparability inside w
            todo = w
            while todo:
                seed = todo & -todo
                comp = seed
                frontier = seed
                while frontier:
                    new = 0
                    for i in bits(frontier):
                        for j in range(n):
                            if w >> j & 1 and not comp >> j & 1:
                                if mins[i] >> j & 1 or mins[j] >> i & 1:
                                    new |= 1 << j
                    comp |= new
                    frontier = new
                todo &= ~comp
                if not any(comp >> i & 1 and comp & ~mins[i] == 0
                           for i in range(n)):
                    return False
    return True


def test_cech_adequate_matches_the_component_search():
    """Every dense pair on at most four points, from the partial orders
    and from all preorders (T0 or not), with its finest covering and
    three seeded random families of nonempty trace-opens."""
    pairs = list(_pairs_up_to(4))
    for n in range(1, 5):
        for r in all_preorders(standard_base(n)):
            top = FiniteTopology.from_preorder(r)
            pairs += [DensePair(top, d) for d in dense_subsets(top)]
    rng = random.Random(2012)
    verdicts = set()
    count = 0
    for pair in pairs:
        opens = [m for m in pair.trace_open_masks() if m]
        families = [finest_g_covering(pair)] + [
            rng.sample(opens, rng.randint(1, min(3, len(opens))))
            for _ in range(3)]
        for members in families:
            want = oracle_cech_adequate(pair, members)
            assert cech_adequate(pair, members) == want, (pair, members)
            verdicts.add(want)
            count += 1
    assert count == 13812
    assert verdicts == {True, False}


def test_cech_requires_a_distinguished_covering():
    pair = pseudo_circle(False)
    base = pair.xhat.base
    f = constant_sheaf(pair.xhat)
    with pytest.raises(ValueError):
        cech_cohomology(pair, f, [base.mask_of(["a"])])


def test_sheaf_shape_validation():
    base = FiniteSet(["x", "y"])
    top = FiniteTopology.from_opens(base, [[], ["y"], ["x", "y"]])
    with pytest.raises(ValueError):
        PosetSheaf(top, (1, 1), {})  # missing the edge matrix
    PosetSheaf(top, (1, 1), {(0, 1): ((Fraction(1),),)})


def test_gluing_on_constant_sheaf():
    pair = sierpinski_pair()
    f = constant_sheaf(pair.xhat)
    ok, _ = check_gluing(pair, f)
    assert ok


def oracle_check_gluing(pair, f, max_family_size=2):
    """The equalizer test written out: alpha into the member values,
    beta as the differences into the pairwise intersections."""
    g = GCoveringSystem(pair, max_family_size)
    for um in pair.trace_open_masks():
        w_u = pair.u_check_mask(um)
        d_u = f.dim_sections(w_u)
        for fam in g.listed(um):
            if not fam:
                if d_u != 0 and um == 0:
                    return False, (um, fam)
                continue
            w_i = [pair.u_check_mask(m) for m in fam]
            offs = []
            total = 0
            for w in w_i:
                offs.append(total)
                total += f.dim_sections(w)
            alpha = linalg.zeros(total, d_u)
            for k, w in enumerate(w_i):
                m = f.restrict_sections(w_u, w)
                for rr in range(len(m)):
                    for cc in range(d_u):
                        alpha[offs[k] + rr][cc] = m[rr][cc]
            rows2 = []
            for a in range(len(fam)):
                for b in range(a + 1, len(fam)):
                    w_ab = pair.u_check_mask(fam[a] & fam[b])
                    d_ab = f.dim_sections(w_ab)
                    if d_ab == 0:
                        continue
                    ra = f.restrict_sections(w_i[a], w_ab)
                    rb = f.restrict_sections(w_i[b], w_ab)
                    for t in range(d_ab):
                        row = [linalg.ZERO] * total
                        for cc in range(len(ra[t]) if ra else 0):
                            row[offs[a] + cc] += ra[t][cc]
                        for cc in range(len(rb[t]) if rb else 0):
                            row[offs[b] + cc] -= rb[t][cc]
                        rows2.append(row)
            ker = total - linalg.rank(rows2)
            composed = linalg.matmul(rows2, alpha) if rows2 else []
            square_zero = all(all(x == 0 for x in row) for row in composed)
            if linalg.rank(alpha) != d_u or ker != d_u or not square_zero:
                return False, (um, fam)
    return True, None


def pairwise_block_is_nonzero(pair, f):
    """Some listed family has two members whose values restrict to
    their intersection by a nonzero matrix."""
    g = GCoveringSystem(pair)
    for um in pair.trace_open_masks():
        for fam in g.listed(um):
            for a, b in itertools.combinations(fam, 2):
                block = f.restrict_sections(pair.u_check_mask(a),
                                            pair.u_check_mask(a & b))
                if any(any(row) for row in block):
                    return True
    return False


def gluing_cases():
    pairs = [pseudo_circle(True), pseudo_circle(False)]
    for n in range(1, 4):
        pairs += [DensePair(top, d) for top, d in dense_pairs(n)]
    for i, pair in enumerate(pairs):
        yield pair, constant_sheaf(pair.xhat)
        for seed in range(3):
            yield pair, random_sheaf(pair.xhat, random.Random(100 * i + seed))


def test_gluing_matches_the_equalizer_oracle():
    nonzero = False
    count = 0
    for pair, f in gluing_cases():
        got = check_gluing(pair, f)
        assert got == (True, None), pair
        assert got == oracle_check_gluing(pair, f), pair
        nonzero = nonzero or pairwise_block_is_nonzero(pair, f)
        count += 1
    assert nonzero
    assert count > 200


class DoubledSide(PosetSheaf):
    """Restrictions out of one open into smaller opens doubled: no longer
    a presheaf, so a family through that open fails the equalizer."""

    __slots__ = ("side",)

    def restrict_sections(self, big, small):
        m = super().restrict_sections(big, small)
        if big != self.side or small == big:
            return m
        return [[2 * x for x in row] for row in m]


def test_gluing_rejects_a_doubled_restriction():
    pair = pseudo_circle(True)
    top = pair.xhat
    f = DoubledSide(top, [1] * len(top.base),
                    {e: [[1]] for e in top.hasse_edges()})
    f.side = top.base.mask_of(["a", "b", "c"])
    got = check_gluing(pair, f)
    assert got[0] is False and got[1] is not None
    assert got == oracle_check_gluing(pair, f)


def test_random_sheaf_determinism_and_dims():
    top = pseudo_circle(True).xhat
    a = random_sheaf(top, random.Random(11))
    b = random_sheaf(top, random.Random(11))
    assert a.dims == b.dims and a.edge_mats == b.edge_mats
    assert all(d <= 2 for d in a.dims)


def test_euler_characteristic_is_chain_count():
    # sum of (-1)^k betti equals the alternating chain count
    top = pseudo_circle(True).xhat
    betti = sheaf_cohomology(constant_sheaf(top))
    chi = sum((-1) ** k * d for k, d in enumerate(betti))
    by_deg = top.strict_chains()
    assert chi == sum((-1) ** q * len(cs) for q, cs in enumerate(by_deg))


def oracle_strict_chains(top):
    """The recursive chain lister and its sort, kept as the reference:
    every strict chain, one (len, chain)-sorted list per degree."""
    n = len(top.base)
    succ = [top.min_open_mask(i) & ~(1 << i) for i in range(n)]
    out = []

    def grow(chain, last):
        out.append(tuple(chain))
        for j in bits(succ[last]):
            chain.append(j)
            grow(chain, j)
            chain.pop()
    for i in range(n):
        grow([i], i)
    by_deg = []
    for c in sorted(out, key=lambda c: (len(c), c)):
        if len(c) > len(by_deg):
            by_deg.append([])
        by_deg[-1].append(c)
    return by_deg


def poset_top(n, below):
    """The T0 space on n points whose specialization order is the
    reflexive closure of below(i, j)."""
    rows = [sum(1 << j for j in range(n) if i == j or below(i, j))
            for i in range(n)]
    return FiniteTopology.from_preorder(Relation(standard_base(n), rows))


def test_strict_chains_match_the_recursive_lister():
    """Every T0 space on at most five points, the puncture quotients
    from 4 to 128 sectors, and two posets past eight points with long
    chains (a 12-point chain and the 3 x 4 grid), where relations.bits
    returns a one-shot generator."""
    tops = [FiniteTopology.from_preorder(po) for n in range(6)
            for po in all_partial_orders(standard_base(n))]
    assert len(tops) == 1 + 1 + 3 + 19 + 219 + 4231
    tops += [puncture_quotient(make_tower("sectorial_disk", depth))[0]
             for depth in range(2, 7)]
    chain12 = poset_top(12, lambda i, j: i < j)
    grid = poset_top(12, lambda i, j: i // 4 <= j // 4 and i % 4 <= j % 4)
    tops += [chain12, grid]
    for top in tops:
        assert top.strict_chains() == oracle_strict_chains(top), top
    assert [len(cs) for cs in chain12.strict_chains()] == \
        [math.comb(12, k) for k in range(1, 13)]
    assert len(grid.strict_chains()) == 6


def oracle_nerve(pair, f, um, members, sizes):
    """The nerve over every subset of members (itertools.combinations),
    kept as the reference, with the cells of each size listed in the
    form _nerve returns."""
    w_of, index, dims, cells = {}, {}, {}, {}
    for size in sizes:
        cells[size] = list(itertools.combinations(range(len(members)), size))
        off = 0
        for sigma in cells[size]:
            inter = um
            for t in sigma:
                inter &= members[t]
            w_of[sigma] = w = pair.u_check_mask(inter)
            index[sigma] = off
            off += f.dim_sections(w)
        dims[size] = off
    return w_of, index, dims, cells


def adequate_nerve_cases():
    """Every dense pair on at most four points whose finest covering is
    adequate, with the constant sheaf, two seeded random sheaves and a
    constant sheaf whose restrictions out of the last member's
    check-open are doubled, which fails check_gluing on some pairs."""
    count = 0
    for pair in _pairs_up_to(4):
        members = finest_g_covering(pair)
        if not cech_adequate(pair, members):
            continue
        top = pair.xhat
        yield pair, members, constant_sheaf(top)
        for seed in range(2):
            yield pair, members, random_sheaf(
                top, random.Random(1000 * count + seed))
        doubled = DoubledSide(top, [1] * len(top.base),
                              {e: [[1]] for e in top.hasse_edges()})
        doubled.side = pair.u_check_mask(members[-1])
        yield pair, members, doubled
        count += 1


def test_nerve_cells_are_the_nonempty_intersections():
    count = 0
    for pair, members, f in adequate_nerve_cases():
        families = [(pair.x_mask, members, range(1, len(members) + 2))]
        g = GCoveringSystem(pair)
        families += [(um, fam, range(3)) for um in pair.trace_open_masks()
                     for fam in g.listed(um)]
        for um, fam, sizes in families:
            w_of, index, dims, cells = gtop._nerve(pair, f, um, fam, sizes)
            want = oracle_nerve(pair, f, um, fam, sizes)
            assert dims == want[2]
            for size in sizes:
                kept = [s for s in want[3][size]
                        if functools.reduce(int.__and__,
                                            (fam[t] for t in s), um)]
                assert list(cells[size]) == kept, (pair, um, fam, size)
                assert all(w_of[s] == want[0][s] and index[s] == want[1][s]
                           for s in kept)
                assert all(want[0][s] == 0 and f.dim_sections(0) == 0
                           for s in want[3][size] if s not in w_of)
            count += 1
    assert count > 5000, count


def test_nerve_routes_match_the_full_nerve(monkeypatch):
    """cech_cohomology and check_gluing over the kept cells against the
    same routes over every member subset."""
    verdicts, count = set(), 0
    for pair, members, f in adequate_nerve_cases():
        got = (cech_cohomology(pair, f, members), check_gluing(pair, f))
        with monkeypatch.context() as mp:
            mp.setattr(gtop, "_nerve", oracle_nerve)
            want = (cech_cohomology(pair, f, members),
                    check_gluing(pair, f))
        assert got == want, pair
        verdicts.add(got[1][0])
        count += 1
    assert verdicts == {True, False}
    assert count > 1000, count


def oracle_coboundary(rows, cols, cells, index, face_map):
    """The coboundary accumulated into Fraction zeros with +=."""
    if not rows or not cols:
        return []
    m = linalg.zeros(rows, cols)
    for c in cells:
        roff = index[c]
        for t in range(len(c)):
            face = c[:t] + c[t + 1:]
            coff = index[face]
            for r, row in enumerate(face_map(face, c)):
                out = m[roff + r]
                for cc, x in enumerate(row):
                    if x:
                        out[coff + cc] += -x if t & 1 else x
    return m


def oracle_simplicial_differentials(top):
    """The order-complex differentials accumulated with +=."""
    by_deg = top.strict_chains()
    index = {c: k for cs in by_deg for k, c in enumerate(cs)}
    out = []
    for q in range(len(by_deg)):
        if q + 1 == len(by_deg):
            out.append([])
            continue
        m = linalg.zeros(len(by_deg[q + 1]), len(by_deg[q]))
        for c in by_deg[q + 1]:
            sign = 1
            for t in range(len(c)):
                m[index[c]][index[c[:t] + c[t + 1:]]] += sign
                sign = -sign
        out.append(m)
    return out


def densified(rows, ncols):
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


def differentials(monkeypatch, route, *args):
    """(the differentials that _betti ranked, and for each _coboundary
    call its sparse rows densified next to the accumulating oracle's
    matrix) of one cohomology route."""
    seen, pairs = [], []
    betti, coboundary = gtop._betti, gtop._coboundary

    def betti_spy(dims, ds):
        seen.extend(ds)
        return betti(dims, seen)

    def coboundary_spy(rows, cols, cells, index, face_map):
        cells = list(cells)
        got = coboundary(rows, cols, cells, index, face_map)
        pairs.append((densified(got, cols),
                      oracle_coboundary(rows, cols, cells, index, face_map)))
        return got

    with monkeypatch.context() as mp:
        mp.setattr(gtop, "_betti", betti_spy)
        mp.setattr(gtop, "_coboundary", coboundary_spy)
        route(*args)
    return seen, pairs


def check_coboundaries(monkeypatch, pair, f):
    """Compares the sparse differentials of every route, densified, with
    the dense oracles; returns how many of the sheaf routes' were
    nonzero matrices."""
    nonzero = 0
    routes = [(sheaf_cohomology, (f,))]
    if pair is not None:
        routes.append((cech_cohomology,
                       (pair, f, finest_g_covering(pair))))
    for route, args in routes:
        seen, pairs = differentials(monkeypatch, route, *args)
        assert all(x for d in seen for row in d for x in row.values())
        for got, want in pairs:
            assert got == want
        nonzero += sum(1 for _, want in pairs if any(map(any, want)))
    seen, _ = differentials(monkeypatch, simplicial_cohomology, f.top)
    by_deg = f.top.strict_chains()
    assert [densified(d, len(cs)) for d, cs in zip(seen, by_deg)] == \
        oracle_simplicial_differentials(f.top)
    assert all(type(x) is int for d in seen for row in d
               for x in row.values())
    return nonzero


def test_coboundaries_match_the_accumulating_oracle(monkeypatch):
    count = nonzero = 0
    for n in range(1, 4):
        for top, d in dense_pairs(n):
            pair = DensePair(top, d)
            nonzero += check_coboundaries(monkeypatch, pair,
                                          constant_sheaf(top))
            for seed in range(3):
                f = random_sheaf(top, random.Random(100 * count + seed))
                nonzero += check_coboundaries(monkeypatch, pair, f)
            count += 1
    assert count == 61
    assert nonzero > 100
    for depth in (2, 3, 4):
        top, _ = puncture_quotient(make_tower("sectorial_disk", depth))
        assert check_coboundaries(monkeypatch, None, constant_sheaf(top)) == 1


def oracle_full_maps(top, dims, edge_mats):
    """Every map stalk(x) -> stalk(y), x below y, composed along the
    Hasse edges in a linear extension (larger minimal opens first);
    raises ValueError at the target point where two routes disagree."""
    n = len(top.base)
    mins = [top.min_open_mask(i) for i in range(n)]
    preds = {j: [i for (i, jj) in edge_mats if jj == j] for j in range(n)}
    full = {(x, x): linalg.identity(dims[x]) for x in range(n)}
    for y in sorted(range(n), key=lambda i: (-mins[i].bit_count(), i)):
        for x in range(n):
            if x == y or not mins[x] >> y & 1:
                continue
            got = None
            for p in preds[y]:
                if p != x and not mins[x] >> p & 1:
                    continue
                m = linalg.matmul(edge_mats[(p, y)], full[(x, p)])
                if got is None:
                    got = m
                elif got != m:
                    raise ValueError("restrictions are not functorial at %s"
                                     % top.base.labels[y])
            full[(x, y)] = got
    return full


def oracle_restrict_sections(f, big, small):
    """F(big) -> F(small) in the bases of f: each basis vector of F(big)
    cut down to small and solved against the basis of F(small)."""
    offb, bb, _ = f.section_space(big)
    offs, bs, _ = f.section_space(small)
    if not bs:
        return []
    total_s = sum(f.dims[p] for p in offs)
    cut = []
    for v in bb:
        w = [linalg.ZERO] * total_s
        for p in offs:
            for t in range(f.dims[p]):
                w[offs[p] + t] = v[offb[p] + t]
        cut.append(w)
    return linalg.transpose(linalg.solve_many(linalg.transpose(bs), cut))


def puncture_sheaves():
    for depth in range(2, 7):
        top, _ = puncture_quotient(make_tower("sectorial_disk", depth))
        yield constant_sheaf(top)
        yield random_sheaf(top, random.Random(depth))


def test_stalk_maps_are_the_composed_hasse_paths():
    count = 0
    sheaves = itertools.chain((f for _, f in gluing_cases()),
                              puncture_sheaves())
    for f in sheaves:
        top = f.top
        full = oracle_full_maps(top, f.dims, f.edge_mats)
        mins = top.min_open_mask
        for x in range(len(top.base)):
            for y in bits(mins(x)):
                want = full[(x, y)] if f.dims[x] else []
                assert f.restrict_sections(mins(x), mins(y)) == want, (
                    top, x, y)
                count += 1
    assert count > 1000


def test_restriction_maps_match_the_solve_on_nested_opens():
    nonzero = 0
    for pair, f in gluing_cases():
        top = f.top
        fresh = PosetSheaf(top, f.dims, f.edge_mats)
        opens = top.open_masks
        for big in opens:
            d = f.dim_sections(big)
            same = f.restrict_sections(big, big)
            assert same == [[int(i == j) for j in range(d)]
                            for i in range(d)] if d else same == []
            for small in opens:
                if small & ~big:
                    continue
                m = f.restrict_sections(big, small)
                assert m == oracle_restrict_sections(f, big, small)
                assert m == fresh.restrict_sections(big, small)
                nonzero += any(map(any, m)) and small != big
    assert nonzero > 100


def test_restrict_sections_rejects_an_open_outside_the_other():
    top = pseudo_circle(True).xhat
    f = constant_sheaf(top)
    a, b = top.base.mask_of(["a"]), top.base.mask_of(["b"])
    assert f.restrict_sections(a | b, a) == [[1, 0]]
    with pytest.raises(ValueError, match="inside the other"):
        f.restrict_sections(a, a | b)
    with pytest.raises(ValueError, match="inside the other"):
        f.restrict_sections(a, b)


def scaled_edge_sheaves():
    """(top, dims, edge matrices) of seeded sheaves with the matrix of
    one edge doubled, every edge in turn.  The orders on 4 points
    include the diamond, whose two routes then disagree."""
    rng = random.Random(20)
    tops = [FiniteTopology.from_preorder(rel)
            for rel in all_partial_orders(standard_base(4))]
    sheaves = itertools.chain(
        (f for _, f in gluing_cases()),
        (constant_sheaf(top) for top in tops),
        (random_sheaf(top, rng) for top in tops))
    for f in sheaves:
        for e, m in f.edge_mats.items():
            mats = dict(f.edge_mats)
            mats[e] = [[2 * x for x in row] for row in m]
            yield f.top, f.dims, mats


def test_functoriality_check_matches_the_composed_oracle():
    outcomes = {True: 0, False: 0}
    for top, dims, mats in scaled_edge_sheaves():
        try:
            oracle_full_maps(top, dims, mats)
        except ValueError:
            with pytest.raises(ValueError, match="not functorial"):
                PosetSheaf(top, dims, mats)
            outcomes[False] += 1
        else:
            PosetSheaf(top, dims, mats)
            outcomes[True] += 1
    assert outcomes[True] > 500 and outcomes[False] > 50, outcomes


def oracle_min_open_sections(top, dims, edge_mats):
    """{U_x: section_space(U_x)} by the kernel route that the
    constructor's transport replaces: one constraint row per edge and
    stalk row, then linalg.kernel_basis.  Raises the constructor's
    ValueError at the first x, in index order, with dim F(U_x) !=
    dims[x]."""
    mins = top.min_open_mask
    out = {}
    for x in range(len(top.base)):
        mask = mins(x)
        offs, cols = {}, []
        for p in sorted(bits(mask), key=lambda i: mins(i).bit_count()):
            offs[p] = len(cols)
            cols += [(p, t) for t in range(dims[p])]
        rows = []
        for (i, j), m in edge_mats.items():
            if mask >> i & 1:
                for rj, mrow in enumerate(m):
                    row = [0] * len(cols)
                    row[offs[j] + rj] = 1
                    for ci, v in enumerate(mrow):
                        row[offs[i] + ci] = -Fraction(v)
                    rows.append(row)
        basis = linalg.kernel_basis(rows, len(cols))
        if len(basis) != dims[x]:
            raise ValueError("restrictions are not functorial at %s"
                             % top.base.labels[x])
        free = [cols[max(c for c, v in enumerate(vec) if v)]
                for vec in basis]
        out[mask] = (offs, basis, free)
    return out


def transport_cases():
    """(top, dims, edge matrices): the gluing cases, a constant and a
    seeded sheaf on each order on 4 points, each of these with one edge
    matrix doubled in turn, and the puncture quotients at depths 2-6."""
    rng = random.Random(27)
    sheaves = [f for _, f in gluing_cases()]
    for rel in all_partial_orders(standard_base(4)):
        top = FiniteTopology.from_preorder(rel)
        sheaves += [constant_sheaf(top), random_sheaf(top, rng)]
    for f in sheaves:
        yield f.top, f.dims, f.edge_mats
        for e, m in f.edge_mats.items():
            yield f.top, f.dims, {**f.edge_mats,
                                  e: [[2 * x for x in row] for row in m]}
    for f in puncture_sheaves():
        yield f.top, f.dims, f.edge_mats


def test_transported_sections_match_the_kernel_route():
    outcomes = {True: 0, False: 0}
    for top, dims, mats in transport_cases():
        try:
            want = oracle_min_open_sections(top, dims, mats)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                PosetSheaf(top, dims, mats)
            assert str(got.value) == str(exc)
            outcomes[False] += 1
            continue
        f = PosetSheaf(top, dims, mats)
        for mask, (offs, basis, free) in want.items():
            got_offs, got_basis, got_free = f.section_space(mask)
            assert list(got_offs.items()) == list(offs.items())
            assert got_basis == basis and got_free == free, (top, mask)
            assert all(type(v) is Fraction for vec in got_basis for v in vec)
        outcomes[True] += 1
    assert outcomes[True] > 2000 and outcomes[False] > 50, outcomes


def test_g_covering_rejects_a_non_open_set():
    pair = pseudo_circle(False)
    g = GCoveringSystem(pair)
    a = pair.xhat.base.mask_of(["a"])
    # {c} is not a subset of X, so no trace-open
    c = pair.xhat.base.mask_of(["c"])
    with pytest.raises(ValueError, match="not open in the dense subspace"):
        g.is_g_covering(c, [])
    with pytest.raises(ValueError, match="not a subspace open"):
        g.is_g_covering(pair.x_mask, [c])
    with pytest.raises(ValueError, match="sticks out of its open"):
        g.is_g_covering(a, [pair.x_mask])


class _ReferenceSite:
    """The site calculus of a dense pair straight from the definitions:
    check-opens and member reaches by scanning the ambient opens, hat
    by closure_mask, covering when the reaches cover hat(U)."""

    def __init__(self, pair):
        self.top = pair.xhat
        self.x = pair.x_mask
        self.opens = sorted({m & self.x for m in self.top.open_masks})

    def check(self, um):
        acc = 0
        for m in self.top.open_masks:
            if m & self.x == um:
                acc |= m
        return acc

    def reach(self, um, ui):
        acc = 0
        for m in self.top.open_masks:
            if m & um & ~ui == 0:
                acc |= m
        return acc

    def covers(self, um, members):
        acc = 0
        for m in members:
            acc |= self.reach(um, m)
        return self.top.closure_mask(um) & ~acc == 0

    def decomposition(self, um):
        return tuple(sorted({self.top.min_open_mask(i) & self.x
                             for i in range(len(self.top.base))
                             if um >> i & 1}))

    def listed(self, um, size):
        if um == 0:
            return ((),)
        subs = [m for m in self.opens if m & ~um == 0]
        dec = self.decomposition(um)
        fams = {(um,)}
        if self.covers(um, dec):
            fams.add(dec)
        for k in range(1, size + 1):
            fams.update(c for c in itertools.combinations(subs, k)
                        if self.covers(um, c))
        return tuple(sorted(fams))

    def l7(self):
        top, x, opens, labels = self.top, self.x, self.opens, self.top.base
        items = dict.fromkeys(range(1, 8), True)
        wit = {}

        def note(i, w):
            if items[i]:
                items[i] = False
                wit[i] = w

        ambient = top.open_masks
        for um in opens:
            cu, hu = self.check(um), top.closure_mask(um)
            if cu not in ambient or cu & x != um:
                note(1, labels.labels_of(um))
            if cu & ~hu or (hu & x == um and cu != top.interior_mask(hu)):
                note(2, labels.labels_of(um))
        for ua in opens:
            for ub in opens:
                pair = (labels.labels_of(ua), labels.labels_of(ub))
                if self.check(ua) & self.check(ub) != self.check(ua & ub):
                    note(3, pair)
                if (self.check(ua) | self.check(ub)) & ~self.check(ua | ub):
                    note(4, pair)
        for v in ambient:
            if v & ~self.check(v & x):
                note(5, labels.labels_of(v))
        forms = [self.check(um) for um in opens]
        for v in ambient:
            for i in range(len(labels)):
                if v >> i & 1 and not any(w >> i & 1 and w & ~v == 0
                                          for w in forms):
                    note(6, (labels.labels_of(v), labels.labels[i]))
        for v in ambient:
            uv = v & x
            inside = [um for um in opens
                      if um & ~uv == 0 and self.check(um) & ~v == 0]
            cover = 0
            for um in inside:
                cover |= self.check(um)
            if v & ~cover or not self.covers(uv, inside):
                note(7, labels.labels_of(v))
        return items, wit

    def grothendieck(self, size):
        opens = self.opens
        flags = dict.fromkeys(("identity", "restriction", "composition",
                               "detection", "saturation"), True)
        wit = []

        def note(*w):
            flags[w[0]] = False
            wit.append(w)

        listed = {um: self.listed(um, size) for um in opens}
        for um in opens:
            if not self.covers(um, () if um == 0 else (um,)):
                note("identity", um)
        for um in opens:
            for fam in listed[um]:
                for vm in opens:
                    if vm & ~um == 0 and not self.covers(
                            vm, {m & vm for m in fam}):
                        note("restriction", um, fam, vm)
        for um in opens:
            for fam in listed[um]:
                composite = set()
                for m in fam:
                    dec = self.decomposition(m)
                    composite.update(dec if self.covers(m, dec) else (m,))
                if fam and not self.covers(um, composite):
                    note("composition", um, fam)
        for um in opens:
            for fam in listed[um]:
                for s in range(um + 1):
                    if s & ~um == 0 and s not in opens and all(
                            s & m in opens for m in fam):
                        note("detection", um, fam, s)
        for um in opens:
            subs = [m for m in opens if m & ~um == 0]
            for k in range(1, min(size, len(subs)) + 1):
                for fam in itertools.combinations(subs, k):
                    union = 0
                    for m in fam:
                        union |= m
                    if union != um or self.covers(um, fam):
                        continue
                    if any(all(any(v & ~m == 0 for m in fam) for v in gf)
                           for gf in listed[um] if gf):
                        note("saturation", um, fam)
        return flags, wit


def _pairs_up_to(nmax):
    for n in range(1, nmax + 1):
        for top, d in dense_pairs(n):
            yield DensePair(top, d)


def test_site_calculus_matches_the_definitions():
    """Tables and the pointwise covering test against scans of the
    ambient opens, on every dense pair with at most four points."""
    count = 0
    for pair in _pairs_up_to(4):
        ref = _ReferenceSite(pair)
        opens = pair.trace_open_masks()
        assert list(opens) == ref.opens
        assert [pair.u_check_mask(um) for um in opens] == \
            [ref.check(um) for um in opens]
        rep = check_l7(pair)
        assert (rep.items, rep.witnesses) == ref.l7(), pair
        g = GCoveringSystem(pair)
        for um in opens:
            subs = [m for m in opens if m & ~um == 0]
            for a, b in itertools.combinations_with_replacement(subs, 2):
                assert pair.member_reach_mask(um, a) == ref.reach(um, a)
                assert g.is_g_covering(um, (a, b)) == \
                    ref.covers(um, (a, b)), (pair, um, a, b)
        for size in (1, 2, 3):
            g = uniform_g_topology(pair, size)
            got = check_grothendieck(g)
            flags, wit = ref.grothendieck(size)
            assert (got.identity_ok, got.restriction_ok, got.composition_ok,
                    got.detection_ok, got.saturation_ok) == \
                tuple(flags.values()), pair
            assert got.witnesses == wit, pair
            assert [g.listed(um) for um in opens] == \
                [ref.listed(um, size) for um in opens], pair
        count += 1
    assert count == 1182
