import contextlib
import io
import random
from fractions import Fraction
from itertools import combinations
from math import ceil

import pytest

from unifkit import formats, topology
from unifkit import tower as tower_mod
from unifkit.cli import main
from unifkit.enumeration import standard_base
from unifkit.gtop import constant_sheaf
from unifkit.quniform import QUniformity, pervin, symmetrize, weil_to_tukey
from unifkit.relations import FiniteSet, Relation
from unifkit.topology import FiniteTopology
from unifkit.tower import (Covering, bornology_at_depth,
                           check_uniform_continuity, enumerate_threads,
                           is_tukey_at_depth, is_uniform_covering,
                           level_covering, make_tower, named_covering,
                           puncture_cohomology, puncture_quotient,
                           verify_tower)


def finite_uniformity():
    base = FiniteSet(["a", "b", "c"])
    e = Relation.from_pairs(base, [("a", "a"), ("b", "b"), ("c", "c"),
                                   ("a", "b"), ("b", "a")])
    return QUniformity(base, [e], symmetric_flag=True)


def test_make_tower_argument_checks():
    with pytest.raises(ValueError):
        make_tower("padic_disk", 3)
    with pytest.raises(ValueError):
        make_tower("formal", 3)
    # p-adic blocks are decimal digit strings, so digit 10 has no name;
    # formal blocks are ints and take any prime
    with pytest.raises(ValueError, match="decimal digits"):
        make_tower("padic_disk", 2, p=11)
    assert verify_tower(make_tower("formal", 2, p=11)).ok
    with pytest.raises(ValueError):
        make_tower("finite", 1)
    with pytest.raises(ValueError):
        make_tower("klein_bottle", 3)


def test_square_tower_verifies():
    rep = verify_tower(make_tower("metric_disk", 4))
    assert rep.ok
    assert tuple(rep.checked_levels) == (4,)
    assert "star=ok" in rep.lines()


def test_deep_tower_star_checks_every_level():
    rep = verify_tower(make_tower("metric_disk", 9))
    assert rep.ok
    assert tuple(rep.checked_levels) == tuple(range(4, 10))


def test_square_thread_classes():
    rep = enumerate_threads(make_tower("metric_disk", 4))
    assert rep.count_by_tag() == {"puncture": 1, "interior": 1020}


def test_sectorial_thread_classes_form_a_cycle():
    rep = enumerate_threads(make_tower("sectorial_disk", 3))
    assert rep.count_by_tag()["tangential"] == 8
    assert rep.tangential_cycle_ok()


def _pairwise_cycle_ok(gen, n):
    # every pair of windows meets exactly when they are neighbors
    angle = gen.axes[1]
    count = len(angle.ids(n))
    return count >= 3 and all(  # meeting is symmetric: b > a only
        tower_mod._spans_meet(angle, n, a, n, b) == (b - a in (1, count - 1))
        for a in range(count) for b in range(a + 1, count))


def test_tangential_cycle_per_position_matches_pairwise():
    gen = make_tower("sectorial_disk", 1).gen
    for n in range(11):
        assert gen.tangential_cycle_ok(n) == _pairwise_cycle_ok(gen, n), n
    assert not gen.tangential_cycle_ok(1)  # two windows are no cycle
    assert gen.tangential_cycle_ok(2)


def test_padic_leaf_classes_and_note():
    rep = enumerate_threads(make_tower("padic_disk", 4, p=2))
    assert rep.count_by_tag() == {"end": 16}
    assert any(line.startswith("note: ") for line in rep.lines())


def test_formal_branch_classes():
    rep = enumerate_threads(make_tower("formal", 4, p=3))
    assert rep.count_by_tag() == {"branch": 3}


def test_parent_chain():
    t = make_tower("metric_disk", 4)
    assert t.gen.parent(4, (3, -2)) == (1, -1)
    assert t.ancestor(4, (3, -2), 1) == (0, -1)


def test_sector_covering_uniform_only_for_sectorial():
    sec = make_tower("sectorial_disk", 3)
    met = make_tower("metric_disk", 3)
    assert is_uniform_covering(sec, named_covering(sec, "sectors")).ok
    rep = is_uniform_covering(met, named_covering(met, "sectors"))
    assert not rep.ok
    assert rep.witness == "puncture b-1,-1"


def test_level_covering_is_uniform():
    met = make_tower("metric_disk", 3)
    assert is_uniform_covering(met, level_covering(met, 3)).ok


def test_residue_covering_uniform():
    t = make_tower("padic_disk", 3, p=3)
    assert is_uniform_covering(t, named_covering(t, "residues")).ok


def test_named_covering_parser():
    t = make_tower("metric_disk", 3)
    assert named_covering(t, "level:2").level == 2
    with pytest.raises(ValueError):
        named_covering(t, "moebius")


def test_tukey_refinement_levels():
    sec = make_tower("sectorial_disk", 4)
    rep = is_tukey_at_depth(sec, named_covering(sec, "sectors"))
    assert rep.ok
    assert rep.level == 2
    met = make_tower("metric_disk", 4)
    bad = is_tukey_at_depth(met, named_covering(met, "sectors"))
    assert not bad.ok
    assert bad.witness.endswith("b-1,-1")


def test_identity_continuity_needs_no_refinement():
    t = make_tower("metric_disk", 4)
    rep = check_uniform_continuity("identity", t, t)
    assert rep.ok
    assert [(m, n) for m, n, _ in rep.rows] == [(k, k) for k in range(1, 5)]


def test_identity_on_formal_towers_is_flat():
    t = make_tower("formal", 3, p=2)
    rep = check_uniform_continuity("identity", t, t)
    assert rep.ok
    assert all(n == 1 for _, n, _ in rep.rows)


def test_identity_rejects_mismatched_generators():
    a = make_tower("metric_disk", 3)
    b = make_tower("sectorial_disk", 3)
    with pytest.raises(ValueError):
        check_uniform_continuity("identity", a, b)


def test_chart_change_has_five_level_modulus():
    sec = make_tower("sectorial_disk", 6)
    met = make_tower("metric_disk", 6)
    rep = check_uniform_continuity("polar_to_cartesian", sec, met)
    rows = {m: n for m, n, _ in rep.rows}
    assert rows[1] == 6
    assert all(rows[m] is None for m in range(2, 7))


def test_reverse_chart_change_fails_at_the_origin():
    met = make_tower("metric_disk", 3)
    sec = make_tower("sectorial_disk", 3)
    rep = check_uniform_continuity("cartesian_to_polar", met, sec)
    assert not rep.ok
    assert all(n is None and w.endswith(":b-1,-1") for _, n, w in rep.rows)


def test_bornology_golden_triangle():
    t = make_tower("metric_disk", 5)
    rep = bornology_at_depth(t, 3, [(2, 2), (2, 3), (3, 3)])
    assert rep.lines() == [
        "precompact=true", "bounded=true", "meets[1]=8", "meets[2]=9",
        "meets[3]=15", "meets[4]=45", "meets[5]=128", "Z=b2,2",
        "iterations=2"]


def test_bornology_separated_seeds():
    t = make_tower("metric_disk", 5)
    rep = bornology_at_depth(t, 3, [(-8, -8), (7, 7)])
    assert len(rep.z) == 2


def test_puncture_quotients():
    met = make_tower("metric_disk", 3)
    top, labels = puncture_quotient(met)
    assert len(top.base) == 1 and labels == ("p0",)
    sec = make_tower("sectorial_disk", 2)
    top, _ = puncture_quotient(sec)
    assert len(top.base) == 8
    sheaf_betti, complex_betti = puncture_cohomology(sec)
    assert tuple(sheaf_betti) == (1, 1)
    assert tuple(complex_betti) == (1, 1)


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_metric_puncture_cohomology_is_a_point(depth):
    # one point, one strict chain: the one-point path of strict_chains
    assert puncture_cohomology(make_tower("metric_disk", depth)) == \
        ((1,), (1,))


def test_tangential_cycle_needs_the_sectorial_tower():
    # the _Generator default: no angular windows, no cycle
    for tower in (make_tower("metric_disk", 3),
                  make_tower("padic_disk", 2, p=3)):
        assert enumerate_threads(tower).tangential_cycle_ok() is False


def test_basis_only_quotient_knows_every_open():
    top, _ = puncture_quotient(make_tower("sectorial_disk", 4))
    assert len(top.base) == 32  # stored by its minimal opens only
    for labels, is_open in ((("c0", "c1"), True), (("c0", "c1", "j0"), True),
                            (("j0",), False), (("c0", "j1"), False)):
        assert top.is_open_mask(top.base.mask_of(labels)) == is_open
    sheaf = constant_sheaf(top)
    assert sheaf.dim_sections(top.base.mask_of(("c0", "c1"))) == 2
    assert sheaf.dim_sections(top.base.mask_of(("c0", "c1", "j0"))) == 1
    with pytest.raises(ValueError):
        sheaf.dim_sections(top.base.mask_of(("j0",)))


def test_quotient_from_opens_equals_quotient_from_preorder():
    top, _ = puncture_quotient(make_tower("sectorial_disk", 3))
    listed = FiniteTopology(top.base, top.open_masks)
    assert len(listed.open_masks) == 2207
    assert listed == top and top == listed
    assert hash(listed) == hash(top)
    assert listed != FiniteTopology.discrete(top.base)


def test_large_quotients_never_list_their_lattice(monkeypatch):
    listed = []
    real = topology.up_sets
    monkeypatch.setattr(topology, "up_sets", lambda mins, within: (
        listed.append(len(mins)) or real(mins, within)))
    for depth in (4, 5, 6):  # 32, 64 and 128 points
        tower = make_tower("sectorial_disk", depth)
        sheaf_betti, complex_betti = puncture_cohomology(tower)
        assert tuple(sheaf_betti) == (1, 1) == tuple(complex_betti)
        assert "minimal opens" in repr(puncture_quotient(tower)[0])
    assert listed == []


def test_finite_embedding_tower():
    t = make_tower("finite", 1, uniformity=finite_uniformity())
    assert verify_tower(t).ok
    names = {t.gen.block_name(1, b) for b in t.gen.block_ids(1)}
    assert names == {"ea", "ec"}


def chain_uniformity():
    """The 4-point chain a-b-c-d with neighbors close: E_min rows ab,
    abc, bcd, cd, four distinct balls whose stars are not balls."""
    base = FiniteSet(["a", "b", "c", "d"])
    e = Relation.from_pairs(base, [(x, y) for x in "abcd" for y in "abcd"
                                   if abs(ord(x) - ord(y)) <= 1])
    return QUniformity(base, [e], symmetric_flag=True)


def test_finite_star_certificate_fails_on_the_chain():
    # the star of ball ab is abcd, which no ball holds; depth 1 has no
    # star check, so only the repeated levels fail
    assert verify_tower(make_tower("finite", 1,
                                   uniformity=chain_uniformity())).ok
    rep = verify_tower(make_tower("finite", 2, uniformity=chain_uniformity()))
    assert not rep.star_ok
    assert rep.refinement_ok and rep.covering_ok and rep.sample_ok
    assert rep.witness == "star@2:ea"
    assert "star=FAIL" in rep.lines()


# pinned report lines: every generator against the operations whose
# per-generator geometry the tests above leave uncovered


def sierpinski_pervin():
    base = FiniteSet(["o", "c"])
    return pervin(FiniteTopology.from_opens(base, [[], ["o"], ["o", "c"]]))


TOWERS = {
    "metric": lambda d: make_tower("metric_disk", d),
    "sectorial": lambda d: make_tower("sectorial_disk", d),
    "padic2": lambda d: make_tower("padic_disk", d, p=2),
    "padic3": lambda d: make_tower("padic_disk", d, p=3),
    "formal": lambda d: make_tower("formal", d, p=3),
    "finite": lambda d: make_tower("finite", d,
                                   uniformity=sierpinski_pervin()),
}


def covering(tower, spec):
    if isinstance(spec, str):
        return named_covering(tower, spec)
    return Covering(*spec)


OPS = {
    "bornology": lambda t, a: bornology_at_depth(t, a[0], a[1]),
    "tukey": lambda t, a: is_tukey_at_depth(t, covering(t, a)),
    "uniform": lambda t, a: is_uniform_covering(t, covering(t, a)),
    "identity": lambda t, a: check_uniform_continuity(
        "identity", t, TOWERS[a[0]](a[1])),
    "verify": lambda t, a: verify_tower(t),
}

PINNED = [
    ("sectorial", 3, "bornology", (2, [(1, 0), (1, 3)]),
     ["precompact=true", "bounded=true", "meets[1]=4", "meets[2]=12",
      "meets[3]=35", "Z=r1a0", "iterations=2"]),
    ("sectorial", 4, "bornology", (3, [(0, 0), (0, 1), (5, 7)]),
     ["precompact=true", "bounded=true", "meets[1]=4", "meets[2]=12",
      "meets[3]=17", "meets[4]=53", "Z=r0a0,r5a7", "iterations=2"]),
    ("padic2", 3, "bornology", (2, ["01", "10"]),
     ["precompact=true", "bounded=true", "meets[1]=2", "meets[2]=2",
      "meets[3]=4", "Z=d01,d10", "iterations=1"]),
    ("padic3", 3, "bornology", (1, ["2"]),
     ["precompact=true", "bounded=true", "meets[1]=1", "meets[2]=3",
      "meets[3]=9", "Z=d2", "iterations=1"]),
    ("formal", 3, "bornology", (2, [0, 2]),
     ["precompact=true", "bounded=true", "meets[1]=2", "meets[2]=2",
      "meets[3]=2", "Z=d0,d2", "iterations=1"]),
    ("finite", 2, "bornology", (1, [1]),
     ["precompact=true", "bounded=true", "meets[1]=2", "meets[2]=2", "Z=ec",
      "iterations=1"]),
    ("finite", 2, "bornology", (2, [0, 1]),
     ["precompact=true", "bounded=true", "meets[1]=2", "meets[2]=2", "Z=eo",
      "iterations=2"]),
    ("padic2", 3, "tukey", "residues",
     ["covering=residues", "tukey=true", "refining_level=1",
      "finite_subcover_size=2"]),
    ("padic2", 3, "tukey", "level:3",
     ["covering=level:3", "tukey=true", "refining_level=3",
      "finite_subcover_size=8"]),
    ("padic2", 3, "tukey", ("half", 2, [("00", "01", "10")]),
     ["covering=half", "tukey=false", "witness=3:d110",
      "finite_subcover_size=1"]),
    ("padic3", 2, "tukey", "level:1",
     ["covering=level:1", "tukey=true", "refining_level=1",
      "finite_subcover_size=3"]),
    ("formal", 3, "tukey", "level:2",
     ["covering=level:2", "tukey=true", "refining_level=1",
      "finite_subcover_size=3"]),
    ("formal", 3, "tukey", ("pair", 1, [(0, 1), (2,)]),
     ["covering=pair", "tukey=true", "refining_level=1",
      "finite_subcover_size=2"]),
    ("finite", 2, "tukey", "level:1",
     ["covering=level:1", "tukey=true", "refining_level=1",
      "finite_subcover_size=2"]),
    ("finite", 2, "tukey", ("open", 1, [(1,)]),
     ["covering=open", "tukey=true", "refining_level=1",
      "finite_subcover_size=1"]),
    ("finite", 2, "uniform", "level:1",
     ["covering=level:1", "uniform=true"]),
    ("finite", 2, "uniform", "level:2",
     ["covering=level:2", "uniform=true"]),
    ("finite", 2, "uniform", ("open", 2, [(1,)]),
     ["covering=open", "uniform=true"]),
    ("formal", 3, "uniform", "level:2",
     ["covering=level:2", "uniform=true"]),
    ("formal", 3, "uniform", ("pair", 1, [(0, 1), (2,)]),
     ["covering=pair", "uniform=true"]),
    ("formal", 3, "uniform", ("gap", 3, [(0, 1)]),
     ["covering=gap", "uniform=false", "witness=branch d2"]),
    ("sectorial", 3, "identity", ("sectorial", 3),
     ["map=identity", "uniformly_continuous=true", "target=1 source=1",
      "target=2 source=2", "target=3 source=3"]),
    ("sectorial", 2, "identity", ("sectorial", 4),
     ["map=identity", "uniformly_continuous=false", "target=1 source=1",
      "target=2 source=2", "target=3 FAIL witness=2:r0a0",
      "target=4 FAIL witness=2:r0a0"]),
    ("sectorial", 4, "identity", ("sectorial", 2),
     ["map=identity", "uniformly_continuous=true", "target=1 source=1",
      "target=2 source=2"]),
    ("padic2", 3, "identity", ("padic2", 3),
     ["map=identity", "uniformly_continuous=true", "target=1 source=1",
      "target=2 source=2", "target=3 source=3"]),
    ("padic2", 2, "identity", ("padic2", 4),
     ["map=identity", "uniformly_continuous=false", "target=1 source=1",
      "target=2 source=2", "target=3 FAIL witness=2:d00",
      "target=4 FAIL witness=2:d00"]),
    ("padic3", 4, "identity", ("padic3", 2),
     ["map=identity", "uniformly_continuous=true", "target=1 source=1",
      "target=2 source=2"]),
    ("metric", 4, "verify", None,
     ["generator=metric_disk", "depth=4", "symmetric=true", "star_lag=3",
      "blocks[1]=16", "blocks[2]=64", "blocks[3]=256", "blocks[4]=1024",
      "refinement=ok", "star=ok", "covering=ok", "sample=ok"]),
    ("metric", 5, "verify", None,
     ["generator=metric_disk", "depth=5", "symmetric=true", "star_lag=3",
      "blocks[1]=16", "blocks[2]=64", "blocks[3]=256", "blocks[4]=1024",
      "blocks[5]=4096", "refinement=ok", "star=ok", "covering=ok",
      "sample=ok"]),
    ("sectorial", 4, "verify", None,
     ["generator=sectorial_disk", "depth=4", "symmetric=true", "star_lag=3",
      "blocks[1]=4", "blocks[2]=16", "blocks[3]=64", "blocks[4]=256",
      "refinement=ok", "star=ok", "covering=ok", "sample=ok"]),
    ("sectorial", 5, "verify", None,
     ["generator=sectorial_disk", "depth=5", "symmetric=true", "star_lag=3",
      "blocks[1]=4", "blocks[2]=16", "blocks[3]=64", "blocks[4]=256",
      "blocks[5]=1024", "refinement=ok", "star=ok", "covering=ok",
      "sample=ok"]),
    # finer members than the blocks they cover, so covers_block decides;
    # the second member of "arcs" wraps across the cut at window start 4
    ("metric", 2, "tukey", ("halves", 2, [
        [(i, j) for i in range(-4, 1) for j in range(-4, 4)],
        [(i, j) for i in range(-1, 4) for j in range(-4, 4)]]),
     ["covering=halves", "tukey=true", "refining_level=1",
      "finite_subcover_size=2"]),
    ("sectorial", 2, "tukey", ("arcs", 2, [
        [(i, a) for i in range(4) for a in (0, 1, 2)],
        [(i, a) for i in range(4) for a in (2, 3, 0)]]),
     ["covering=arcs", "tukey=true", "refining_level=1",
      "finite_subcover_size=2"]),
    # no member holds tip r0a0 of level 1, so absorbs decides the
    # classes under it: tip r0a1 lifts across the cut onto window r0a0 of
    # level 3 but leaves a gap in r0a0 of level 2 and r0a1 of level 3
    ("sectorial", 3, "uniform", ("far-tip", 1, [[(0, 1)], [(1, 0), (1, 1)]]),
     ["covering=far-tip", "uniform=false", "witness=tangential r0a1"]),
    ("sectorial", 2, "uniform", ("far-tip", 1, [[(0, 1)], [(1, 0), (1, 1)]]),
     ["covering=far-tip", "uniform=false", "witness=tangential r0a0"]),
]


@pytest.mark.parametrize(
    "name,depth,op,arg,want", PINNED,
    ids=["%s-%d-%s-%d" % (c[0], c[1], c[2], i) for i, c in enumerate(PINNED)])
def test_pinned_report_lines(name, depth, op, arg, want):
    assert OPS[op](TOWERS[name](depth), arg).lines() == want


ROUND_TRIP = {
    # generator -> (tower file line, a name no block carries)
    "metric": ("tower metric_disk depth=2", "r0a0"),
    "sectorial": ("tower sectorial_disk depth=2", "b0,0"),
    "padic2": ("tower padic_disk depth=3 p=2", "e1"),
    "padic3": ("tower padic_disk depth=2 p=3", "b1,1"),
    "formal": ("tower formal depth=2 p=3", "dx"),
    "finite": ("tower finite depth=2 space=sp.space", "ez"),
}


def cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().splitlines(), err.getvalue()


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_block_names_read_back(tmp_path, name):
    """Every block name the reports print is accepted by the command
    line and names the same block again."""
    decl, bad = ROUND_TRIP[name]
    (tmp_path / "sp.space").write_text(formats.print_space(
        formats.SpaceFile.from_uniformity("sp", sierpinski_pervin())))
    path = tmp_path / "t.tower"
    path.write_text(decl + "\n")
    tower = TOWERS[name](int(decl.split("depth=")[1].split()[0]))
    for k in tower.levels():
        for b in tower.block_ids(k):
            text = tower.gen.block_name(k, b)
            code, out, _ = cli(["tower", "bornology", str(path),
                                "--level", str(k), "--blocks", text])
            assert code == 0 and "Z=%s" % text in out
    code, _, err = cli(["tower", "bornology", str(path), "--level", "1",
                        "--blocks", bad])
    assert code == 2
    assert err == "error: bad block name %r for generator %s\n" % (
        bad, tower.gen.kind)


# chart changes against the rational geometry: the oracles below are
# the earlier Fraction code, kept verbatim, so the integer chart-change
# routines stay cross-checked on every small block


def oracle_tau_of(x, y):
    """Arc-length coordinate of the direction of (x, y), in [0, 8)."""
    if x == 0 and y == 0:
        raise ValueError("the origin has no direction")
    if x >= abs(y):
        t = 1 + Fraction(y, x)
    elif y >= abs(x):
        t = 3 - Fraction(x, y)
    elif -x >= abs(y):
        t = 5 + Fraction(y, x)
    else:
        t = 7 - Fraction(x, y)
    return t % 8


def oracle_gamma(tau):
    """Point of the boundary square at arc-length coordinate tau."""
    t = Fraction(tau) % 8
    if t <= 2:
        return Fraction(1), t - 1
    if t <= 4:
        return 3 - t, Fraction(1)
    if t <= 6:
        return Fraction(-1), 5 - t
    return t - 7, Fraction(-1)


def oracle_tau_extent(gen, k, b):
    """Smallest circular arc of directions covering the block, or
    None for a block whose closure contains the origin."""
    if gen.is_origin(b):
        return None
    x0, x1, y0, y1 = gen.block_box(k, b)
    pts = [(x0, y0), (x0, y1), (x1, y0), (x1, y1)]
    for yy in (y0, y1):
        for s in (1, -1):
            if x0 <= s * yy <= x1:
                pts.append((s * yy, yy))
    for xx in (x0, x1):
        for s in (1, -1):
            if y0 <= s * xx <= y1:
                pts.append((xx, s * xx))
    taus = sorted({oracle_tau_of(px, py) for px, py in pts
                   if (px, py) != (0, 0)})
    if len(taus) == 1:
        return taus[0], Fraction(0)
    best_gap = None
    start_at = 0
    for idx, t in enumerate(taus):
        nxt = taus[(idx + 1) % len(taus)]
        gap = (nxt - t) % 8
        if best_gap is None or gap > best_gap:
            best_gap = gap
            start_at = (idx + 1) % len(taus)
    return taus[start_at], (8 - best_gap) % 8


def oracle_sector_members(gen, k, blocks):
    extents = [(b, oracle_tau_extent(gen, k, b)) for b in blocks]
    members = []
    for q in range(4):
        lo = 2 * q
        mem = []
        for b, ext in extents:
            if ext is None:
                continue
            es, el = ext
            if (es - lo) % 8 + el <= 4:
                mem.append(b)
        members.append(mem)
    return members


def oracle_find_metric_block(gen, m, box):
    """A level-m block containing the rational box, or None."""
    x0, x1, y0, y1 = box
    r = 1 << (m + 1)
    imin, imax = -(1 << m), (1 << m) - 1
    out = []
    for axis, lo, hi in zip(gen.axes, (x0 * r, y0 * r), (x1 * r, y1 * r)):
        if lo < -r or hi > r:
            return None
        cand = None
        for i in (min(lo // 2, imax), imin):
            if i < imin or i > imax:
                continue
            blo, bhi = axis.interval(m, i)
            if blo <= lo and hi <= bhi:
                cand = i
                break
        if cand is None:
            return None
        out.append(cand)
    return tuple(out)


def oracle_find_polar_block(gen, m, rho0, rho1, tau_s, tau_l):
    """A level-m polar block containing the radial interval times the
    circular tau arc, or None."""
    radius, angle = gen.axes
    top = 1 << (m + 1)
    cmax = (1 << m) - 1
    p0, p1 = rho0 * top, rho1 * top
    if p0 < 0 or p1 > top:
        return None
    ri = None
    for i in (min(p0 // 2, cmax), 0):
        if i < 0 or i > cmax:
            continue
        lo, hi = radius.interval(m, i)
        if lo <= p0 and p1 <= hi:
            ri = i
            break
    if ri is None:
        return None
    u_tau = Fraction(8, 1 << (m + 1))
    if tau_l > 3 * u_tau:
        return None
    s_units = tau_s / u_tau
    a = (s_units // 2) % (1 << m)
    ws, wl = angle.window(m, a)
    if (s_units - ws) % (1 << (m + 1)) + tau_l / u_tau <= wl:
        return (ri, int(a))
    return None


def oracle_polar_block_fits(gen, n, b, dst_gen, m):
    lo, hi = gen.axes[0].interval(n, b[0])
    v = Fraction(1, 1 << (n + 1))
    rho0, rho1 = lo * v, hi * v
    ws, wl = gen.axes[1].window(n, b[1])
    u_tau = Fraction(8, 1 << (n + 1))
    t0 = ws * u_tau
    t1 = t0 + wl * u_tau
    cands = [t0, t1]
    t = ceil(t0)
    while t < t1:
        if t % 2 == 0:  # gamma is linear between even integers
            cands.append(Fraction(t))
        t += 1
    gx = [oracle_gamma(t)[0] for t in cands]
    gy = [oracle_gamma(t)[1] for t in cands]
    xs = [r * g for r in (rho0, rho1) for g in (min(gx), max(gx))]
    ys = [r * g for r in (rho0, rho1) for g in (min(gy), max(gy))]
    return oracle_find_metric_block(
        dst_gen, m, (min(xs), max(xs), min(ys), max(ys))) is not None


def oracle_cartesian_block_fits(gen, n, b, dst_gen, m):
    ext = oracle_tau_extent(gen, n, b)
    if ext is None:
        return False  # full angular spread next to the puncture
    x0, x1, y0, y1 = gen.block_box(n, b)
    w = Fraction(1, 1 << (n + 1))

    def minabs(lo, hi):
        if lo <= 0 <= hi:
            return 0
        return min(abs(lo), abs(hi))

    rho0 = max(minabs(x0, x1), minabs(y0, y1)) * w
    rho1 = max(abs(x0), abs(x1), abs(y0), abs(y1)) * w
    return oracle_find_polar_block(dst_gen, m, rho0, rho1, ext[0],
                                   ext[1]) is not None


def oracle_cartesian_to_polar_lines(src, dst):
    """The depth table of the cartesian-to-polar map, every source
    block tested against the rational geometry."""
    out = ["map=cartesian_to_polar"]
    rows = []
    floor_n = 1
    for m in range(1, dst.depth + 1):
        found, witness = None, None
        for n in range(floor_n, src.depth + 1):
            bad = next((b for b in src.gen.puncture_first(n)
                        if not oracle_cartesian_block_fits(
                            src.gen, n, b, dst.gen, m)), None)
            if bad is None:
                found = n
                break
            witness = "%d:%s" % (n, src.gen.block_name(n, bad))
        if found is not None:
            floor_n = found
            rows.append("target=%d source=%d" % (m, found))
        else:
            rows.append("target=%d FAIL witness=%s" % (m, witness))
    ok = all("FAIL" not in r for r in rows)
    out.append("uniformly_continuous=%s" % ("true" if ok else "false"))
    return out + rows


def test_polar_block_fits_match_rational_geometry():
    sec = make_tower("sectorial_disk", 5).gen
    met = make_tower("metric_disk", 8).gen
    scan = tower_mod._PolarToCartesian(sec)
    for n in range(1, 6):
        for b in sec.block_ids(n):
            for m in range(1, 9):
                assert ((scan.first_unmapped(n, m, [b]) is None)
                        == oracle_polar_block_fits(sec, n, b, met, m)), (
                    n, b, m)


def boundary_scan(gen, k):
    """Every level-k metric block near the range boundary or the origin
    plus a fixed stride through the interior."""
    imin, imax = -(1 << k), (1 << k) - 1
    edge = {imin, imin + 1, -2, -1, 0, 1, imax - 1, imax}
    return [(i, j) for i, j in gen.block_ids(k)
            if i in edge or j in edge or (i % 37 == 0 and j % 11 == 0)]


def test_metric_sector_members_match_rational_geometry():
    gen = make_tower("metric_disk", 7).gen
    for k in range(1, 7):
        assert gen.sector_members(k) == oracle_sector_members(
            gen, k, gen.block_ids(k)), k
    # level 7 has 65536 blocks; the rational oracle takes the
    # boundary-heavy scan, which keeps every block next to the origin
    scan = boundary_scan(gen, 7)
    keep = set(scan)
    got = [[b for b in mem if b in keep] for mem in gen.sector_members(7)]
    assert got == oracle_sector_members(gen, 7, scan)


def test_cartesian_to_polar_matches_rational_geometry():
    for s in range(1, 6):
        for t in range(1, 6):
            met = make_tower("metric_disk", s)
            sec = make_tower("sectorial_disk", t)
            rep = check_uniform_continuity("cartesian_to_polar", met, sec)
            assert rep.lines() == oracle_cartesian_to_polar_lines(met, sec)


# the per-block parent and star tests that the per-axis checks replace,
# kept as the reference: the square generators must name the same first
# failing block, in block_ids order, on sound and on broken geometry


def _circ_contains(s1, l1, s2, l2, modulus):
    """Closed circular arc (start s1, length l1) inside (s2, l2)."""
    if l2 >= modulus:
        return True
    if l1 > l2:
        return False
    return (s1 - s2) % modulus + l1 <= l2


def block_inside_parent(gen, k, b):
    pb = gen.parent(k, b)
    if isinstance(gen, tower_mod._MetricGen):
        x0, x1, y0, y1 = gen.block_box(k, b)
        px0, px1, py0, py1 = gen.block_box(k - 1, pb)
        return (2 * px0 <= x0 and x1 <= 2 * px1
                and 2 * py0 <= y0 and y1 <= 2 * py1)
    radius, angle = gen.axes
    lo, hi = radius.interval(k, b[0])
    plo, phi = radius.interval(k - 1, pb[0])
    if 2 * plo > lo or hi > 2 * phi:
        return False
    mod = 1 << (k + 1)
    ws, wl = angle.window(k, b[1])
    ps, pl = angle.window(k - 1, pb[1])
    return _circ_contains(ws, wl, (2 * ps) % mod, 2 * pl, mod)


def block_star_ok(gen, k, b):
    tk = k - gen.star_lag
    f = 1 << (k - tk)
    if isinstance(gen, tower_mod._MetricGen):
        imin, imax = -(1 << tk), (1 << tk) - 1
        tb = [min(max((2 * c - 2) // (2 * f), imin), imax) for c in b]
        r = 1 << (k + 1)
        for ax in (0, 1):
            s_lo = max(2 * b[ax] - 2, -r)
            s_hi = min(2 * b[ax] + 5, r)
            t_lo, t_hi = gen.axes[ax].interval(tk, tb[ax])
            if t_lo * f > s_lo or s_hi > t_hi * f:
                return False
        return True
    radius, angle = gen.axes
    ri = min(max((2 * b[0] - 2) // (2 * f), 0), (1 << tk) - 1)
    aa = ((2 * b[1] - 2) // (2 * f)) % (1 << tk)
    top = 1 << (k + 1)
    s_lo = max(2 * b[0] - 2, 0)
    s_hi = min(2 * b[0] + 5, top)
    t_lo, t_hi = radius.interval(tk, ri)
    if t_lo * f > s_lo or s_hi > t_hi * f:
        return False
    mod = 1 << (k + 1)
    ts, tl = angle.window(tk, aa)
    return _circ_contains((2 * b[1] - 2) % mod, 7, (ts * f) % mod, tl * f,
                          mod)


class Lag2Metric(tower_mod._MetricGen):
    star_lag = 2


class Lag2Sectorial(tower_mod._SectorialGen):
    star_lag = 2


class Level3Shifted(tower_mod._LinearAxis):
    """Every level-3 interval moved one unit up."""

    def interval(self, k, i):
        lo, hi = super().interval(k, i)
        return (lo + 1, hi + 1) if k == 3 else (lo, hi)


class OneRadiusShifted(tower_mod._LinearAxis):
    """One level-4 radial interval moved one unit out: it still fits
    its parent, its children at level 5 do not."""

    def interval(self, k, i):
        lo, hi = super().interval(k, i)
        return (lo + 1, hi + 1) if (k, i) == (4, 5) else (lo, hi)


class Level3Turned(tower_mod._CyclicAxis):
    """Every level-3 angular window moved one unit on."""

    def window(self, k, a):
        s, l = super().window(k, a)
        return (s + 1, l) if k == 3 else (s, l)


class ShiftedMetric(tower_mod._MetricGen):
    def __init__(self):
        super().__init__()
        side = Level3Shifted(-1, 1)
        self.axes = (side, side)


class ShiftedRadius(tower_mod._SectorialGen):
    def __init__(self):
        super().__init__()
        self.axes = (OneRadiusShifted(0, 1), self.axes[1])


class ShiftedWindow(tower_mod._SectorialGen):
    def __init__(self):
        super().__init__()
        self.axes = (self.axes[0], Level3Turned())


# generator, depth, witness (read from the per-block checks)
AXIS_CASES = {
    "metric": (tower_mod._MetricGen, 7, None),
    "sectorial": (tower_mod._SectorialGen, 7, None),
    "lag2-metric": (Lag2Metric, 6, "star@3:b-8,-4"),
    "lag2-sectorial": (Lag2Sectorial, 6, "star@3:r0a0"),
    "shifted-metric": (ShiftedMetric, 6, "parent@3:b-8,7"),
    "shifted-radius": (ShiftedRadius, 6, "parent@5:r10a0"),
    "shifted-window": (ShiftedWindow, 6, "parent@4:r0a0"),
}


def first_failing_block(gen, k, ok):
    return next((b for b in gen.block_ids(k) if not ok(gen, k, b)), None)


@pytest.mark.parametrize("name", sorted(AXIS_CASES))
def test_axis_checks_name_the_first_failing_block(name):
    cls, depth, witness = AXIS_CASES[name]
    gen = cls()
    orphans = {k: first_failing_block(gen, k, block_inside_parent)
               for k in range(2, depth + 1)}
    unstarred = {k: first_failing_block(gen, k, block_star_ok)
                 for k in range(gen.star_lag + 1, depth + 1)}
    assert {k: gen.first_unfit(k, k - 1) for k in orphans} == orphans
    assert {k: gen.first_failed_star(k) for k in unstarred} == unstarred
    rep = verify_tower(tower_mod.CoveringTower(gen, depth))
    assert rep.witness == witness
    assert rep.refinement_ok == all(b is None for b in orphans.values())
    assert rep.star_ok == all(b is None for b in unstarred.values())


def oracle_identity_fits(gen, n, b, m):
    """The per-block refinement test the residue and finite generators
    answered before, kept as the reference: a p-adic disk of level n
    lies in a single level-m disk iff n >= m; the other generators
    repeat one covering at every level."""
    return n >= m if gen.kind == "padic_disk" else True


def oracle_check_star(gen, k, b):
    """The per-block star test the residue and finite generators
    answered before, kept as the reference: residue blocks are disjoint,
    so their stars are themselves; a finite ball's star must stay inside
    some ball."""
    if gen.kind != "finite":
        return True
    m = gen.masks[b]
    star = 0
    for x in gen.reps:
        if gen.masks[x] & m:
            star |= gen.masks[x]
    return any(star & ~gen.masks[x] == 0 for x in gen.reps)


def test_residue_and_finite_checks_match_the_block_walks():
    gens = [make_tower("padic_disk", 1, p=2).gen,
            make_tower("padic_disk", 1, p=3).gen,
            make_tower("formal", 1, p=3).gen,
            make_tower("finite", 1, uniformity=chain_uniformity()).gen,
            make_tower("finite", 1, uniformity=finite_uniformity()).gen]
    found = set()
    for gen in gens:
        for n in range(1, 6):
            want = first_failing_block(gen, n, oracle_check_star)
            assert gen.first_failed_star(n) == want, (gen.kind, n)
            found.add(("star", want is not None))
            for m in range(1, 6):
                want = first_failing_block(
                    gen, n, lambda g, k, b: oracle_identity_fits(g, k, b, m))
                assert gen.first_unfit(n, m) == want, (gen.kind, n, m)
                found.add(("fit", want is not None))
    assert found == {("star", True), ("star", False),
                     ("fit", True), ("fit", False)}


def brute_inside(axis, lvl, lo, hi, m):
    """Some level-m position holds the span [lo, hi] in level-lvl units:
    on the circle, every half unit of the span lies in the window."""
    g = 1 << (lvl - m)
    if isinstance(axis, tower_mod._CyclicAxis):
        turn = 2 * axis.mod(lvl)

        def holds(j):
            ws, wl = axis.window(m, j)
            return all((t - 2 * ws * g) % turn <= 2 * wl * g
                       for t in range(2 * lo, 2 * hi + 1))
    else:
        def holds(j):
            jlo, jhi = axis.interval(m, j)
            return jlo * g <= lo and hi <= jhi * g
    return any(holds(j) for j in axis.ids(m))


@pytest.mark.parametrize("axis,count", [
    (tower_mod._LinearAxis(-1, 1), 5036), (tower_mod._LinearAxis(0, 1), 2518),
    (tower_mod._CyclicAxis(), 2518)], ids=["side", "radius", "angle"])
def test_inside_matches_every_position(axis, count):
    """inside tests one candidate position; brute force tries them all,
    on every position span of levels 1-7 against levels 1-7 and every
    star against the levels 1-3 up."""
    cases = []
    for n in range(1, 8):
        for i in axis.ids(n):
            for m in range(1, 8):
                lvl = max(n, m)
                cases.append((lvl, *axis.spans(n, i, lvl, 0)[0], m))
            cases += [(n, *axis.star(n, i), n - lag) for lag in (1, 2, 3)
                      if n - lag >= 1]
    verdicts = set()
    for case in cases:
        want = brute_inside(axis, *case)
        assert axis.inside(*case) == want, case
        verdicts.add(want)
    assert len(cases) == count and verdicts == {True, False}


# The axis fit and star tests that first_unfit and first_failed_star
# inline, kept verbatim as the reference with the span they read.


def oracle_span(axis, k, i):
    if isinstance(axis, tower_mod._CyclicAxis):
        ws, wl = axis.window(k, i)
        return ws, ws + wl
    return axis.interval(k, i)


def oracle_fit(axis, n, i, m):
    """Position i of level n lies inside a single level-m position."""
    lvl = max(n, m)
    lo, hi = oracle_span(axis, n, i)
    return axis.inside(lvl, lo << (lvl - n), hi << (lvl - n), m)


def oracle_star_ok(axis, k, i, lag):
    """The star of position i lies in a position lag levels up."""
    return axis.inside(k, *axis.star(k, i), k - lag)


def first_failing_by_position(gen, k, ok):
    """The per-block walk, each axis position's verdict computed once."""
    x_ok, y_ok = ({i: ok(ax, i) for i in ax.ids(k)} for ax in gen.axes)
    return next((b for b in gen.block_ids(k)
                 if not (x_ok[b[0]] and y_ok[b[1]])), None)


@pytest.mark.parametrize("name", sorted(AXIS_CASES))
def test_inlined_axis_tests_match_the_oracles(name):
    gen = AXIS_CASES[name][0]()
    for n in range(1, 8):
        for m in range(1, 8):
            want = first_failing_by_position(
                gen, n, lambda ax, i: oracle_fit(ax, n, i, m))
            assert gen.first_unfit(n, m) == want, (n, m)
    for k in range(4, 8):
        want = first_failing_by_position(
            gen, k, lambda ax, i: oracle_star_ok(ax, k, i, gen.star_lag))
        assert gen.first_failed_star(k) == want, k


def _fit_linear(lo, hi, scale, interval_fn, imin, imax):
    """An index whose interval, scaled by scale, contains [lo, hi]:
    only the largest unclipped start and the clipped low edge can
    work.  Returns the index or None."""
    for i in (min(lo // (2 * scale), imax), imin):
        if i < imin or i > imax:
            continue
        blo, bhi = interval_fn(i)
        if blo * scale <= lo and hi <= bhi * scale:
            return i
    return None


def direct_polar_block_fits(gen, n, b, dst_gen, m):
    """The image box of one polar block fitted axis by axis into a
    level-m cartesian block: the per-block test that the scan's tables
    replace."""
    lo, hi = gen.axes[0].interval(n, b[0])
    ws, wl = gen.axes[1].window(n, b[1])
    u = 1 << (n + 1)
    t0, t1 = 8 * ws, 8 * (ws + wl)
    ts = [t0, t1, *range(-(-t0 // (2 * u)) * 2 * u, t1, 2 * u)]
    gx, gy = zip(*(tower_mod._gamma(t, u) for t in ts))
    xs = [r * g for r in (lo, hi) for g in (min(gx), max(gx))]
    ys = [r * g for r in (lo, hi) for g in (min(gy), max(gy))]
    f = 1 << max(m - 2 * n - 1, 0)
    g = 1 << max(2 * n + 1 - m, 0)
    imin, imax = -(1 << m), (1 << m) - 1
    return all(_fit_linear(
        min(e) * f, max(e) * f, g, lambda i: axis.interval(m, i),
        imin, imax) is not None for e, axis in zip((xs, ys), dst_gen.axes))


def test_polar_scan_finds_the_first_unmapped_block():
    sec = make_tower("sectorial_disk", 7).gen
    met = make_tower("metric_disk", 8).gen
    scan = tower_mod._PolarToCartesian(sec)
    for n in range(1, 8):
        c = 1 << n
        order = [(i, a) for i in reversed(range(c)) for a in range(c)]
        for m in range(1, 9):
            want = next((b for b in order if not direct_polar_block_fits(
                sec, n, b, met, m)), None)
            assert scan.first_unmapped(n, m) == want, (n, m)


# the per-block identity fits, overlap and neighbor loops that the axes
# replace, kept verbatim as the reference: first_unfit, blocks_meet and
# neighbors must agree with them on sound and on broken axes


def metric_identity_fits(gen, n, b, m):
    f = 1 << max(m - n, 0)
    g = 1 << max(n - m, 0)
    imin, imax = -(1 << m), (1 << m) - 1
    for axis, c in zip(gen.axes, b):
        lo, hi = axis.interval(n, c)
        if _fit_linear(lo * f, hi * f, g, lambda i: axis.interval(m, i),
                       imin, imax) is None:
            return False
    return True


def sectorial_identity_fits(gen, n, b, m):
    radius, angle = gen.axes
    f = 1 << max(m - n, 0)
    g = 1 << max(n - m, 0)
    lo, hi = radius.interval(n, b[0])
    if _fit_linear(lo * f, hi * f, g, lambda i: radius.interval(m, i), 0,
                   (1 << m) - 1) is None:
        return False
    mod = 1 << (max(n, m) + 1)
    ws, wl = angle.window(n, b[1])
    ws, wl = (ws * f) % mod, wl * f
    a = (ws // (2 * g)) % (1 << m)
    ts, tl = angle.window(m, a)
    return _circ_contains(ws, wl, (ts * g) % mod, tl * g, mod)


def metric_blocks_meet(gen, k1, b1, k2, b2):
    lvl = max(k1, k2)
    f1, f2 = 1 << (lvl - k1), 1 << (lvl - k2)
    a = tuple(c * f1 for c in gen.block_box(k1, b1))
    b = tuple(c * f2 for c in gen.block_box(k2, b2))
    return not (a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2])


def _circ_intersects(s1, l1, s2, l2, modulus):
    """Closed circular arcs (start s1, length l1) and (s2, l2) meet."""
    if l1 >= modulus or l2 >= modulus:
        return True
    return (s1 - s2) % modulus <= l2 or (s2 - s1) % modulus <= l1


def sectorial_blocks_meet(gen, k1, b1, k2, b2):
    radius, angle = gen.axes
    lvl = max(k1, k2)
    f1, f2 = 1 << (lvl - k1), 1 << (lvl - k2)
    lo1, hi1 = radius.interval(k1, b1[0])
    lo2, hi2 = radius.interval(k2, b2[0])
    if hi1 * f1 < lo2 * f2 or hi2 * f2 < lo1 * f1:
        return False
    mod = 1 << (lvl + 1)
    s1, l1 = angle.window(k1, b1[1])
    s2, l2 = angle.window(k2, b2[1])
    return _circ_intersects((s1 * f1) % mod, l1 * f1,
                            (s2 * f2) % mod, l2 * f2, mod)


def metric_neighbors(gen, k, b):
    imin, imax = -(1 << k), (1 << k) - 1
    i, j = b
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            ni, nj = i + di, j + dj
            if imin <= ni <= imax and imin <= nj <= imax:
                yield (ni, nj)


def sectorial_neighbors(gen, k, b):
    c = 1 << k
    i, a = b
    for di in (-1, 0, 1):
        ni = i + di
        if not 0 <= ni < c:
            continue
        # at level 1 the circle has two windows, so a - 1 and a + 1 agree
        for na in dict.fromkeys((a + da) % c for da in (-1, 0, 1)):
            if (ni, na) != (i, a):
                yield (ni, na)


@pytest.mark.parametrize("name", ["metric", "sectorial", "shifted-metric",
                                  "shifted-radius", "shifted-window"])
def test_axes_match_the_per_block_code(name):
    gen = AXIS_CASES[name][0]()
    if isinstance(gen, tower_mod._MetricGen):
        fits, meet, near = (metric_identity_fits, metric_blocks_meet,
                            metric_neighbors)
    else:
        fits, meet, near = (sectorial_identity_fits, sectorial_blocks_meet,
                            sectorial_neighbors)
    for n in range(1, 8):
        for m in range(1, 9):
            want = next((b for b in gen.block_ids(n)
                         if not fits(gen, n, b, m)), None)
            assert gen.first_unfit(n, m) == want, (n, m)
    blocks = [(k, b) for k in range(1, 4) for b in gen.block_ids(k)]
    for k1, b1 in blocks:
        assert list(gen.neighbors(k1, b1)) == list(near(gen, k1, b1))
        for k2, b2 in blocks:
            assert (gen.blocks_meet(k1, b1, k2, b2)
                    == meet(gen, k1, b1, k2, b2)), (k1, b1, k2, b2)


def test_identity_rejects_a_different_finite_model():
    two = FiniteSet(["o", "c"])
    sierpinski = make_tower("finite", 2, uniformity=sierpinski_pervin())
    discrete = make_tower("finite", 2,
                          uniformity=pervin(FiniteTopology.discrete(two)))
    three = make_tower("finite", 2, uniformity=pervin(
        FiniteTopology.discrete(FiniteSet(["o", "c", "x"]))))
    for src, dst in ((sierpinski, discrete), (discrete, sierpinski),
                     (discrete, three), (three, discrete)):
        with pytest.raises(ValueError, match="incompatible generators"):
            check_uniform_continuity("identity", src, dst)
    again = make_tower("finite", 3, uniformity=sierpinski_pervin())
    assert check_uniform_continuity("identity", sierpinski, again).ok


@pytest.mark.parametrize("kind", [tower_mod._MetricGen,
                                  tower_mod._SectorialGen],
                         ids=["metric", "sectorial"])
def test_square_neighbors_are_listed_once(kind):
    gen = kind()
    for k in range(1, 6):
        for b in gen.block_ids(k):
            nbs = list(gen.neighbors(k, b))
            assert len(nbs) == len(set(nbs)) and b not in nbs, (k, b)


# adjacency: blocks of one level that meet are neighbors, decided per
# axis position by first_unadjacent and checked here on block pairs


class LinearNearDrops(tower_mod._LinearAxis):
    """near lists that leave out position i + drop."""

    def __init__(self, lo, hi, drop):
        super().__init__(lo, hi)
        self.drop = drop

    def near(self, k, i):
        return [j for j in super().near(k, i) if j != i + self.drop]


class CyclicNearDrops(tower_mod._CyclicAxis):
    """near lists that leave out window a + drop."""

    def __init__(self, drop):
        self.drop = drop

    def near(self, k, a):
        return [j for j in super().near(k, a)
                if j != (a + self.drop) % (1 << k)]


def with_axes(cls, x, y):
    gen = cls()
    gen.axes = (x, y)
    return gen


def mutant_metric(drop):
    side = LinearNearDrops(-1, 1, drop)  # one object on both axes
    return with_axes(tower_mod._MetricGen, side, side)


# mutant near lists and the witness verify_tower prints for each
NEAR_MUTANTS = {
    "metric-next": (lambda: mutant_metric(1),
                    "adjacency@1:b-2,-2/b-2,-1"),
    "metric-prev": (lambda: mutant_metric(-1),
                    "adjacency@1:b-2,-1/b-2,-2"),
    "radius-next": (lambda: with_axes(
        tower_mod._SectorialGen, LinearNearDrops(0, 1, 1),
        tower_mod._CyclicAxis()), "adjacency@1:r0a0/r1a0"),
    "radius-prev": (lambda: with_axes(
        tower_mod._SectorialGen, LinearNearDrops(0, 1, -1),
        tower_mod._CyclicAxis()), "adjacency@1:r1a0/r0a0"),
    "angle-next": (lambda: with_axes(
        tower_mod._SectorialGen, tower_mod._LinearAxis(0, 1),
        CyclicNearDrops(1)), "adjacency@1:r0a0/r0a1"),
    "angle-prev": (lambda: with_axes(
        tower_mod._SectorialGen, tower_mod._LinearAxis(0, 1),
        CyclicNearDrops(-1)), "adjacency@1:r0a0/r0a1"),
}


def brute_unadjacent(gen, k):
    """The first pair of level-k blocks, in block order, that meet
    without being neighbors, from every pair of blocks."""
    blocks = sorted(gen.block_ids(k))
    for b1 in blocks:
        nbs = set(gen.neighbors(k, b1))
        for b2 in blocks:
            if b2 != b1 and b2 not in nbs and gen.blocks_meet(k, b1, k, b2):
                return b1, b2
    return None


@pytest.mark.parametrize("name", sorted(NEAR_MUTANTS))
def test_mutant_near_lists_fail_adjacency(name):
    make, witness = NEAR_MUTANTS[name]
    gen = make()
    for k in range(1, 5):
        want = brute_unadjacent(gen, k)
        assert want is not None and gen.first_unadjacent(k) == want, k
    rep = verify_tower(tower_mod.CoveringTower(gen, 4))
    assert rep.refinement_ok and rep.star_ok and rep.covering_ok
    assert not rep.sample_ok and not rep.ok
    assert rep.witness == witness
    assert "sample=FAIL" in rep.lines()


@pytest.mark.parametrize("name", sorted(set(AXIS_CASES) | set(TOWERS)))
def test_blocks_that_meet_are_neighbors(name):
    if name in AXIS_CASES:
        gen = AXIS_CASES[name][0]()
    else:
        gen = TOWERS[name](3).gen
    for k in range(1, 4):
        assert brute_unadjacent(gen, k) is None, k
        assert gen.first_unadjacent(k) is None, k


def test_positions_two_apart_that_meet_fail_adjacency():
    # the moved level-4 radial interval [11, 14] meets position 7's
    # [14, 17], two positions on; its children misfit at level 5 only
    gen = ShiftedRadius()
    assert gen.first_unadjacent(4) == brute_unadjacent(gen, 4) == (
        (5, 0), (7, 0))
    rep = verify_tower(tower_mod.CoveringTower(gen, 4))
    assert rep.refinement_ok and not rep.sample_ok
    assert rep.witness == "adjacency@4:r5a0/r7a0"


@pytest.mark.parametrize("axis", [
    tower_mod._LinearAxis(-1, 1), tower_mod._LinearAxis(0, 1),
    tower_mod._CyclicAxis()], ids=["side", "radius", "angle"])
def test_positions_meet_iff_near(axis):
    """Every pair of positions at levels up to 5, and every position
    with those up to three away at levels 6 to 10: positions two or
    more apart are disjoint, so first_unadjacent tests enough."""
    for k in range(1, 11):
        ids = axis.ids(k)
        for t, i in enumerate(ids):
            near = axis.near(k, i)
            others = ids if k <= 5 else {ids[(t + d) % len(ids)]
                                         for d in range(-3, 4)}
            for j in others:
                assert (tower_mod._spans_meet(axis, k, i, k, j)
                        == (j in near)), (k, i, j)


def set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for p in set_partitions(rest):
        yield [[first]] + p
        for i in range(len(p)):
            yield p[:i] + [[first] + p[i]] + p[i + 1:]


def test_finite_tukey_matches_weil_to_tukey():
    """Every equivalence uniformity on at most four points, and every
    family of at most three block unions of its finite tower: Tukey at
    depth 2 iff the family is in the Weil-Tukey translation, which holds
    each covering refined by E_min.  735 of the families cover."""
    coverings = 0
    for n in range(1, 5):
        base = FiniteSet("abcd"[:n])
        for part in set_partitions(list(range(n))):
            rows = [sum(1 << y for blk in part if x in blk for y in blk)
                    for x in range(n)]
            u = QUniformity(base, [Relation(base, rows)], symmetric_flag=True)
            families = weil_to_tukey(u).families
            t = make_tower("finite", 2, uniformity=u)
            blocks = list(t.block_ids(1))
            unions = [c for r in range(1, len(blocks) + 1)
                      for c in combinations(blocks, r)]
            for r in range(1, 4):
                for members in combinations(unions, r):
                    f = 0
                    for m in members:
                        f |= 1 << (sum(t.gen.masks[b] for b in m) - 1)
                    got = is_tukey_at_depth(t, Covering("c", 1, members)).ok
                    assert got == (f in families), (part, members)
                    coverings += got
    assert coverings == 735


# coverage by a covering member against brute force: every end is an
# integer in level units, so the closed boxes decide coverage on the
# half-unit grid; the angle is checked mod the circle, with no cut


def grid_box(gen, k, b, lvl):
    """Block b of level k as closed ranges of doubled level-lvl units;
    the angle range may run past the full turn."""
    f = 2 << (lvl - k)
    if isinstance(gen, tower_mod._MetricGen):
        x0, x1, y0, y1 = gen.block_box(k, b)
        return (x0 * f, x1 * f), (y0 * f, y1 * f)
    radius, angle = gen.axes
    lo, hi = radius.interval(k, b[0])
    ws, wl = angle.window(k, b[1])
    return (lo * f, hi * f), (ws * f, (ws + wl) * f)


def grid_holds(gen, box, lvl, x, y):
    (x0, x1), (y0, y1) = box
    if not x0 <= x <= x1:
        return False
    if isinstance(gen, tower_mod._MetricGen):
        return y0 <= y <= y1
    return (y - y0) % (4 << lvl) <= y1 - y0


def grid_covered(gen, cov_level, member, lvl, xs, ys):
    boxes = [grid_box(gen, cov_level, m, lvl) for m in member]
    return all(any(grid_holds(gen, box, lvl, x, y) for box in boxes)
               for x in xs for y in ys)


def near_member(gen, rng, cov_level, k, b):
    """Blocks of cov_level around block b of level k, each kept with one
    seeded probability, and now and then a far one."""
    keep = rng.choice((0.5, 0.8, 0.95, 1.0))
    member = [c for c in gen.block_ids(cov_level)
              if gen.blocks_meet(cov_level, c, k, b) and rng.random() < keep]
    if rng.random() < 0.3:
        member.append(rng.choice(list(gen.block_ids(cov_level))))
    return frozenset(member)


@pytest.mark.parametrize("kind", [tower_mod._MetricGen,
                                  tower_mod._SectorialGen],
                         ids=["metric", "sectorial"])
def test_block_coverage_matches_the_half_unit_grid(kind):
    gen = kind()
    rng = random.Random(2012)
    verdicts = set()
    for _ in range(400):
        cov_level, k = rng.randint(1, 4), rng.randint(1, 4)
        b = rng.choice(list(gen.block_ids(k)))
        member = near_member(gen, rng, cov_level, k, b)
        lvl = max(cov_level, k)
        (x0, x1), (y0, y1) = grid_box(gen, k, b, lvl)
        want = grid_covered(gen, cov_level, member, lvl, range(x0, x1 + 1),
                            range(y0, y1 + 1))
        assert gen.covers_block(cov_level, member, k, b) == want, (
            cov_level, k, b, sorted(member))
        verdicts.add(want)
    assert verdicts == {True, False}


def test_tips_coverage_matches_the_half_unit_grid():
    gen = tower_mod._SectorialGen()
    rng = random.Random(2012)
    verdicts = set()
    for _ in range(400):
        cov_level, n = rng.randint(1, 4), rng.randint(1, 4)
        a = rng.choice(list(gen.axes[1].ids(n)))
        member = near_member(gen, rng, cov_level, n, (0, a))
        lvl = max(cov_level, n)
        _, (y0, y1) = grid_box(gen, n, (0, a), lvl)
        tips = [b for b in member if b[0] == 0]
        want = grid_covered(gen, cov_level, tips, lvl, (0,),
                            range(y0, y1 + 1))
        assert gen.absorbs(cov_level, member, n, (0, a)) == want, (
            cov_level, n, a, sorted(member))
        verdicts.add(want)
    assert verdicts == {True, False}


def oracle_absorbs_origin(gen, level, member):
    """The member contains a full punctured neighborhood of the origin:
    each open corner quadrant is filled near 0 by some origin block."""
    need = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    for b in member:
        if not gen.is_origin(b):
            continue
        x0, x1, y0, y1 = gen.block_box(level, b)
        for sx, sy in tuple(need):
            okx = (x0 <= 0 < x1) if sx > 0 else (x0 < 0 <= x1)
            oky = (y0 <= 0 < y1) if sy > 0 else (y0 < 0 <= y1)
            if okx and oky:
                need.discard((sx, sy))
    return not need


def test_puncture_absorption_matches_the_quadrant_rule():
    gen = tower_mod._MetricGen()
    rng = random.Random(2012)
    verdicts = set()
    origin = gen.origin_ids()
    for _ in range(2000):
        cov_level, n = rng.randint(1, 6), rng.randint(1, 6)
        ids = gen.axes[0].ids(cov_level)
        keep = rng.choice((0.5, 0.8, 0.95))
        member = frozenset((i, j) for i in range(-3, 3) for j in range(-3, 3)
                           if i in ids and j in ids and rng.random() < keep)
        want = oracle_absorbs_origin(gen, cov_level, member)
        assert gen.absorbs(cov_level, member, n, origin[0]) == want, (
            cov_level, n, sorted(member))
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("name", sorted(TOWERS))
def test_limit_classes_come_first(name):
    """is_uniform_covering scans classes in order and names the first
    unabsorbed one, so the classes over the puncture must lead."""
    for depth in range(1, 5):
        tags = [c[0] for c in TOWERS[name](depth).gen.classes(depth)]
        limit = [t != "interior" for t in tags]
        assert limit == sorted(limit, reverse=True), (name, depth)
