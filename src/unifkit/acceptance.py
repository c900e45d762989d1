"""Ten numbered end-to-end checks over the whole library.

Each criterion is exact (integer or rational equality, no tolerances)
and carries a wall-clock budget; a criterion that exceeds its budget
fails even when every equality holds.  `run_all` prints one line per
criterion and returns overall success, so the command line and the
test suite share a single gate.
"""

import itertools
import os
import random
import time
import traceback

from .enumeration import (all_preorders, dense_pairs, reflexive_rows,
                          standard_base)
from .relations import Relation, random_relation
from .topology import FiniteTopology

_SEED = 20260822


def _c1():
    """Validated bases have preorder (uniform: equivalence) cores and
    the covering-family translation preserves the core."""
    from .quniform import (QUniformity, check_quniformity, tukey_to_weil,
                           weil_to_tukey)

    def examine(base, basis, trips_left):
        sym = all(r.is_symmetric() for r in basis)
        u = QUniformity(base, basis, symmetric_flag=sym)
        rep = check_quniformity(u)
        if rep.is_quasi_uniformity and not u.e_min.is_preorder():
            return None, "core not a preorder"
        if sym and rep.is_uniformity:
            if not u.e_min.is_equivalence():
                return None, "uniform core not an equivalence"
            if len(base) <= 4 and trips_left:
                if tukey_to_weil(weil_to_tukey(u)).e_min != u.e_min:
                    return None, "round trip moved the core"
                return (rep.is_quasi_uniformity, True), None
        return (rep.is_quasi_uniformity, False), None

    total = quasi = trips = 0
    for n in range(1, 5):
        base = standard_base(n)
        rels = [Relation(base, rows) for rows in reflexive_rows(n)]
        bases = [(r,) for r in rels]
        if n <= 3:
            bases += list(itertools.combinations(rels, 2))
        for basis in bases:
            res, err = examine(base, basis, True)
            if err:
                return False, "%s (n=%d)" % (err, n)
            total += 1
            quasi += res[0]
            trips += res[1]

    rng = random.Random(_SEED)
    rand_trips = 0
    for i in range(10000):
        n = rng.randint(2, 7)
        base = standard_base(n)
        basis = []
        for _ in range(rng.randint(1, 3)):
            r = random_relation(base, rng)
            if i % 3 == 1:
                r = r.reflexive_transitive_closure()
            elif i % 3 == 2:
                r = (r | r.inverse()).reflexive_transitive_closure()
            basis.append(r)
        res, err = examine(base, basis, rand_trips < 300)
        if err:
            return False, "%s (random case %d)" % (err, i)
        total += 1
        quasi += res[0]
        rand_trips += res[1]
    return True, "%d bases, %d validated, %d round trips" % (
        total, quasi, trips + rand_trips)


def _c2():
    """Both standard quasi-uniformities of every topology on four
    points reproduce the topology and share its specialization core."""
    from .quniform import kunzi, pervin, topology_from
    base = standard_base(4)
    count = 0
    for r in all_preorders(base):
        top = FiniteTopology.from_preorder(r)
        spec = top.specialization()
        pu = pervin(top)
        if topology_from(pu).open_masks != top.open_masks:
            return False, "opens changed for %r" % (top.open_masks,)
        if pu.e_min != spec or kunzi(top).e_min != spec:
            return False, "core is not specialization for %r" % (
                top.open_masks,)
        count += 1
    return count == 355, "%d topologies" % count


def _small_dense_pairs():
    from .gtop import DensePair
    for n in range(1, 6):
        for top, d in dense_pairs(n):
            yield DensePair(top, d)


def _c3():
    """Trace-open calculus items 1..5 on every dense pair with at most
    five completion points; the two-point asymmetric pair refutes
    item 7."""
    from .gtop import check_l7, sierpinski_pair
    count = 0
    for pair in _small_dense_pairs():
        rep = check_l7(pair)
        if not rep.items1to5_ok:
            bad = [i for i in range(1, 6) if not rep.items[i]]
            return False, "items %s fail on %r / %r" % (
                bad, pair.xhat.open_masks, sorted(pair.x_labels))
        count += 1
    if check_l7(sierpinski_pair()).items[7]:
        return False, "item 7 unexpectedly holds on the two-point pair"
    return True, "%d dense pairs" % count


def _c4():
    """Distinguished coverings form a Grothendieck topology on the same
    enumeration."""
    from .gtop import check_grothendieck, uniform_g_topology
    count = 0
    for pair in _small_dense_pairs():
        rep = check_grothendieck(uniform_g_topology(pair, 2))
        if not rep.valid:
            bad = [k for k in ("identity_ok", "restriction_ok",
                               "composition_ok", "detection_ok",
                               "saturation_ok") if not getattr(rep, k)]
            return False, "%s fail on %r / %r" % (
                bad, pair.xhat.open_masks, sorted(pair.x_labels))
        count += 1
    return True, "%d dense pairs" % count


def _sheaf_pair_corpus():
    """Dense pairs whose finest distinguished covering has pointed
    iterated intersections, so its nerve computes the derived answer."""
    from .gtop import (DensePair, cech_adequate, finest_g_covering,
                       pseudo_circle, sierpinski_pair)
    cands = [sierpinski_pair(), pseudo_circle(True), pseudo_circle(False)]
    for n, step in ((3, 7), (4, 97), (5, 997)):
        cands.extend(DensePair(t, d) for t, d in
                     itertools.islice(dense_pairs(n), 0, 6 * step, step))
    out = []
    for p in cands:
        members = finest_g_covering(p)
        if cech_adequate(p, members):
            out.append((p, members))
    return out


def _c5():
    """Nerve cohomology over the finest distinguished covering equals
    direct sheaf cohomology for 200 randomized sheaves, each of which
    satisfies the sheaf condition on every listed covering."""
    from .gtop import (cech_cohomology, check_gluing, random_sheaf,
                       sheaf_cohomology)
    pairs = _sheaf_pair_corpus()
    if len(pairs) < 5:
        return False, "corpus collapsed to %d pairs" % len(pairs)
    rng = random.Random(_SEED)
    checked = 0
    while checked < 200:
        for pair, members in pairs:
            f = random_sheaf(pair.xhat, rng)
            glued, witness = check_gluing(pair, f)
            if not glued:
                return False, "gluing fails on %r: U %r, family %r" % (
                    (sorted(pair.x_labels),) + witness)
            a = tuple(cech_cohomology(pair, f, members))
            b = tuple(sheaf_cohomology(f))
            pad = max(len(a), len(b))
            if a + (0,) * (pad - len(a)) != b + (0,) * (pad - len(b)):
                return False, "nerve %r vs direct %r on %r" % (
                    a, b, sorted(pair.x_labels))
            checked += 1
    return True, "%d pairs, %d sheaves" % (len(pairs), checked)


def _c6():
    """Disk towers at depths 3..8: thread classes over the puncture,
    the continuity modulus between the two charts, and sector
    coverings."""
    from .tower import (check_uniform_continuity, enumerate_threads,
                        is_uniform_covering, make_tower, named_covering)
    for d in range(3, 9):
        met = make_tower("metric_disk", d)
        sec = make_tower("sectorial_disk", d)

        if enumerate_threads(met).count_by_tag().get("puncture", 0) != 1:
            return False, "square tower puncture class count at depth %d" % d
        srep = enumerate_threads(sec)
        if srep.count_by_tag().get("tangential", 0) != 2 ** d:
            return False, "tangential class count at depth %d" % d
        if not srep.tangential_cycle_ok():
            return False, "tangential classes not one cycle at depth %d" % d

        # five-level modulus: target level m is realized from source
        # level m+5 and from nothing shallower
        p2c = check_uniform_continuity("polar_to_cartesian", sec, met)
        for m, n, _ in p2c.rows:
            want = m + 5 if m <= d - 5 else None
            if n != want:
                return False, "modulus row (%d, %r) at depth %d" % (m, n, d)
        c2p = check_uniform_continuity("cartesian_to_polar", met, sec)
        for m, n, w in c2p.rows:
            if n is not None or not w.endswith(":b-1,-1"):
                return False, "reverse map row (%d, %r, %r)" % (m, n, w)

        if not is_uniform_covering(sec, named_covering(sec, "sectors")).ok:
            return False, "sector covering not uniform at depth %d" % d
        umet = is_uniform_covering(met, named_covering(met, "sectors"))
        if umet.ok or umet.witness != "puncture b-1,-1":
            return False, "square sector covering verdict at depth %d" % d

    deep = check_uniform_continuity("polar_to_cartesian",
                                    make_tower("sectorial_disk", 8),
                                    make_tower("metric_disk", 3))
    if not deep.ok or [n for _, n, _ in deep.rows] != [6, 7, 8]:
        return False, "deep-source rows %r" % (deep.rows,)
    return True, "depths 3..8 and the level-8 source check"


def _c7():
    """The quotient circle of tangential classes carries the
    cohomology of a circle, against the order-complex oracle."""
    from .tower import make_tower, puncture_cohomology
    for n in range(2, 7):
        sheaf_betti, complex_betti = puncture_cohomology(
            make_tower("sectorial_disk", n))
        if tuple(sheaf_betti) != (1, 1) or tuple(complex_betti) != (1, 1):
            return False, "betti %r / %r at %d sectors" % (
                sheaf_betti, complex_betti, 2 ** n)
    return True, "2..64 sectors"


def _c8():
    """Residue towers for p = 2, 3: leaf counts, star certificates,
    and uniform residue coverings up to depth 6."""
    from .tower import (enumerate_threads, is_uniform_covering, make_tower,
                        named_covering, verify_tower)
    towers = 0
    for p in (2, 3):
        for d in range(1, 7):
            t = make_tower("padic_disk", d, p=p)
            rep = verify_tower(t)
            if not (rep.ok and rep.star_ok):
                return False, "verification fails at p=%d depth %d: %s" % (
                    p, d, rep.witness)
            counts = enumerate_threads(t).count_by_tag()
            if counts != {"end": p ** d}:
                return False, "class counts %r at p=%d depth %d" % (
                    counts, p, d)
            if not is_uniform_covering(t, named_covering(t, "residues")).ok:
                return False, "residue covering at p=%d depth %d" % (p, d)
            towers += 1
    return True, "%d towers" % towers


def _c9():
    """Closed-form index equals the stabilized dimension count for the
    whole operator corpus."""
    from .dmod import corpus, index_report
    for e in corpus():
        rep = index_report(e.spec)
        if rep.h0 != e.h0 or rep.h1 != e.h1 or rep.chi_formula != e.chi:
            return False, "%s: formula %d, dims (%d, %d), expected (%d, %d)" \
                % (e.name, rep.chi_formula, rep.h0, rep.h1, e.h0, e.h1)
        if not rep.agree:
            return False, "%s: formula and count disagree" % e.name
    return True, "8 operators"


def _c10():
    """Spot values of the leading-term defect at singular points."""
    from .dmod import (RatFunc, corpus, delta_product, delta_to_partial,
                       irregularity)
    entries = {e.name: e.spec.operator for e in corpus()}
    checks = [(irregularity(entries["exp-of-inverse"], 0), 1),
              (irregularity(entries["airy"], "inf"), 3),
              (irregularity(entries["euler-integer"], 0), 0),
              (irregularity(entries["euler-integer"], "inf"), 0),
              (irregularity(entries["euler-half"], 0), 0),
              (irregularity(entries["euler-half"], "inf"), 0)]
    zi = RatFunc.variable().inverted()
    expanded = delta_to_partial(delta_product((zi, RatFunc(1)),
                                              (zi * zi * 2, RatFunc(1))))
    checks.append((irregularity(expanded, 0), 3))
    for got, want in checks:
        if got != want:
            return False, "defect %d where %d was expected" % (got, want)
    return True, "7 spot values"


CRITERIA = (
    (1, "entourage cores and covering round trips", _c1, 60),
    (2, "four-point topology compatibility", _c2, 30),
    (3, "trace-open calculus on small dense pairs", _c3, 120),
    (4, "distinguished coverings form a site", _c4, 120),
    (5, "nerve against direct cohomology", _c5, 300),
    (6, "disk towers and the continuity modulus", _c6, 60),
    (7, "tangential circle cohomology", _c7, 60),
    (8, "residue towers for p = 2, 3", _c8, 60),
    (9, "index formula against the oracle", _c9, 120),
    (10, "irregularity spot values", _c10, 5),
)


def _crash_detail(exc):
    """Exception type, innermost unifkit frame and message of an
    exception caught in run_all (so run_all's frame is the outermost)."""
    package = os.path.dirname(os.path.abspath(__file__))
    frame = [f for f in traceback.extract_tb(exc.__traceback__)
             if os.path.dirname(os.path.abspath(f.filename)) == package][-1]
    return "crashed: %s at %s:%d in %s: %s" % (
        type(exc).__name__,
        os.path.relpath(os.path.abspath(frame.filename),
                        os.path.dirname(package)),
        frame.lineno, frame.name, exc)


def run_all(criteria=None, out=print):
    """Run the numbered criteria (all by default, else the iterable of
    numbers `criteria`; an empty or unknown selection is a ValueError
    before any runs).  One line per criterion; returns overall
    success."""
    known = {c[0] for c in CRITERIA}
    wanted = known if criteria is None else set(criteria)
    if not wanted:
        raise ValueError("no criterion selected")
    if wanted - known:
        raise ValueError("unknown criterion %d" % min(wanted - known))
    all_ok = True
    for num, title, fn, budget in CRITERIA:
        if num not in wanted:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as e:  # a crash is a failure, not an abort
            ok, detail = False, _crash_detail(e)
        dt = time.perf_counter() - t0
        if ok and dt > budget:
            ok, detail = False, "over budget: %s" % detail
        all_ok = all_ok and ok
        out("criterion %2d %s %s (%s; %.1fs, budget %ds)" % (
            num, "PASS" if ok else "FAIL", title, detail, dt, budget))
    return all_ok

