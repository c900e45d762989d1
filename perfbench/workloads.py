"""The five benchmark workloads, one per group of unifkit layers.

`setup(lib, seed)` turns a seed into inputs and returns an `Inputs`
holding the items of one pass.  An item's `run(data)` builds fresh
library objects from its data (a new DensePair, tower, sheaf,
ConnectionSpec or QUniformity every time, because every `corpus run` and
CLI call pays for building them, and reused objects would let their
caches answer work users pay for), calls public functions only, and
returns plain values.  Its `check(data, out)` compares them with the
item's stated invariant and returns None or a message.

Each pass has a fixed composition: the seed picks the members of every
stratum (which 5-point pairs, which sheaves, which partition of a given
type, which coefficients), not how many items of each kind there are,
so pass time does not depend on the seed.  Every pass has N = 5 (mod 10)
items: latencies are pooled over passes that repeat the same items, and
with such N the pooled median and 90th percentile fall in the middle of
one item's repeats instead of between two items of different cost.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("sites", "towers", "cohomology", "index", "uniformities")


class Item:
    __slots__ = ("kind", "run", "check", "data")

    def __init__(self, kind, run, check, data):
        self.kind = kind
        self.run = run
        self.check = check
        self.data = data


class Inputs:
    """Items of one pass, set-up problems (wrong enumeration counts and
    the like), and a plain-data fingerprint of everything the seed chose."""

    def __init__(self):
        self.items = []
        self.problems = []
        self.fingerprint = []

    def add(self, kind, run, check, data):
        self.items.append(Item(kind, run, check, data))

    def expect(self, what, got, want):
        if got != want:
            self.problems.append("%s: got %r, expected %r" % (what, got, want))


def setup(lib, name, seed):
    if name not in WORKLOADS:
        raise ValueError("unknown workload %r" % (name,))
    return globals()["_setup_" + name](lib, seed)


# dense pairs, shared by sites and cohomology

POSET_COUNTS = {1: 1, 2: 3, 3: 19, 4: 219, 5: 4231}
DENSE_PAIR_COUNTS = {1: 1, 2: 5, 3: 55, 4: 1121, 5: 38671}


def _dense_pairs(lib, n, inputs):
    """Every labeled dense pair on n points as (topology, dense labels),
    from the library's own enumerators, checked against known counts."""
    base = lib.enumeration.standard_base(n)
    orders = lib.enumeration.all_partial_orders(base)
    inputs.expect("partial orders on %d points" % n, len(orders),
                  POSET_COUNTS[n])
    out = []
    for po in orders:
        top = lib.topology.FiniteTopology.from_preorder(po)
        out.extend((top, d) for d in lib.enumeration.dense_subsets(top))
    inputs.expect("dense pairs on %d points" % n, len(out),
                  DENSE_PAIR_COUNTS[n])
    return out


def _stratified(rng, seq, k):
    """k members of seq, one drawn from each of k equal consecutive
    blocks, so the sample follows the enumeration's structure."""
    size = len(seq) // k
    return [seq[b * size + rng.randrange(size)] for b in range(k)]


def _pair_name(data):
    top, labels = data[0], data[1]
    return "%r / %r" % (top.open_masks, sorted(labels))


# sites: gtop's trace-open calculus and distinguished coverings

SITES_FIVE_POINT_SAMPLE = 400


def _setup_sites(lib, seed):
    gtop = lib.gtop
    rng = random.Random(seed)
    inputs = Inputs()
    pairs = []
    for n in range(1, 5):
        pairs.extend(_dense_pairs(lib, n, inputs))
    # sorted by a cost proxy first, so every seed's sample spreads over the
    # cheap and the expensive pairs alike
    five = _stratified(rng, sorted(_dense_pairs(lib, 5, inputs),
                                   key=lambda p: len(p[0].open_masks)),
                       SITES_FIVE_POINT_SAMPLE)
    inputs.fingerprint = [_pair_name(p) for p in five]
    pairs.extend(five)

    def run_l7(data):
        return gtop.check_l7(gtop.DensePair(data[0], data[1])).items

    def check_l7(data, items):
        bad = [i for i in range(1, 6) if not items[i]]
        if bad:
            return "items %s fail on %s" % (bad, _pair_name(data))
        return None

    def run_groth(data):
        rep = gtop.check_grothendieck(
            gtop.uniform_g_topology(gtop.DensePair(data[0], data[1]), 2))
        return {k: getattr(rep, k) for k in (
            "identity_ok", "restriction_ok", "composition_ok",
            "detection_ok", "saturation_ok")}

    def check_groth(data, flags):
        bad = [k for k, ok in flags.items() if not ok]
        if bad:
            return "%s fail on %s" % (bad, _pair_name(data))
        return None

    def run_sierpinski(data):
        return gtop.check_l7(gtop.sierpinski_pair()).items[7]

    def check_sierpinski(data, item7):
        if item7:
            return "item 7 unexpectedly holds on the two-point pair"
        return None

    for p in pairs:
        inputs.add("l7", run_l7, check_l7, p)
        inputs.add("grothendieck", run_groth, check_groth, p)
    inputs.add("l7_sierpinski", run_sierpinski, check_sierpinski, None)
    return inputs


# towers: covering towers over the punctured disk and residue disks

def _setup_towers(lib, seed):
    tower = lib.tower
    rng = random.Random(seed)
    inputs = Inputs()

    def make(kind, depth, p=None):
        return tower.make_tower(kind, depth, p=p)

    def run_threads(data):
        kind, depth, p = data
        rep = tower.enumerate_threads(make(kind, depth, p))
        cycle = rep.tangential_cycle_ok() if kind == "sectorial_disk" else None
        return rep.count_by_tag(), cycle

    def check_threads(data, out):
        kind, depth, p = data
        counts, cycle = out
        if kind == "metric_disk":
            want = {"puncture": 1, "interior": 4 ** (depth + 1) - 4}
        elif kind == "sectorial_disk":
            want = {"tangential": 2 ** depth,
                    "interior": 2 ** depth * (2 ** depth - 1)}
        elif kind == "padic_disk":
            want = {"end": p ** depth}
        else:
            want = {"branch": p}
        if counts != want:
            return "%s depth %d: classes %r, expected %r" % (
                kind, depth, counts, want)
        if kind == "sectorial_disk" and cycle != (depth >= 2):
            return "sectorial depth %d: tangential cycle %r" % (depth, cycle)
        return None

    def run_p2c(data):
        ds, dm = data
        rep = tower.check_uniform_continuity(
            "polar_to_cartesian", make("sectorial_disk", ds),
            make("metric_disk", dm))
        return [(m, n) for m, n, _ in rep.rows], rep.ok

    def check_p2c(data, out):
        # five-level modulus: target level m is realized from source
        # level m+5 and from nothing shallower
        ds, dm = data
        rows, ok = out
        want = [(m, m + 5 if m + 5 <= ds else None) for m in range(1, dm + 1)]
        if rows != want or ok != all(n is not None for _, n in want):
            return "polar_to_cartesian %d->%d rows %r" % (ds, dm, rows)
        return None

    def run_c2p(data):
        dm, ds = data
        rep = tower.check_uniform_continuity(
            "cartesian_to_polar", make("metric_disk", dm),
            make("sectorial_disk", ds))
        return list(rep.rows)

    def check_c2p(data, rows):
        if len(rows) != data[1] or any(
                n is not None or not w.endswith(":b-1,-1")
                for _, n, w in rows):
            return "cartesian_to_polar %d->%d rows %r" % (data + (rows,))
        return None

    def run_identity(depth):
        t = make("metric_disk", depth)
        return tower.check_uniform_continuity("identity", t, t).rows

    def check_identity(depth, rows):
        if [(m, n) for m, n, _ in rows] != [(k, k) for k in range(1, depth + 1)]:
            return "identity on metric depth %d rows %r" % (depth, rows)
        return None

    def run_cover(data):
        kind, depth, p = data
        t = make(kind, depth, p)
        name = "sectors" if kind in ("metric_disk", "sectorial_disk") \
            else "residues"
        rep = tower.is_uniform_covering(t, tower.named_covering(t, name))
        return rep.ok, rep.witness

    def check_cover(data, out):
        want = (False, "puncture b-1,-1") if data[0] == "metric_disk" \
            else (True, None)
        if out != want:
            return "%s depth %d: uniform covering verdict %r" % (
                data[0], data[1], out)
        return None

    def run_verify(data):
        kind, depth, p = data
        rep = tower.verify_tower(make(kind, depth, p))
        return rep.ok, rep.star_ok, rep.witness

    def check_verify(data, out):
        if out[:2] != (True, True):
            return "%s depth %d fails verification: %r" % (
                data[0], data[1], out[2])
        return None

    def run_residue(data):
        return run_threads(data), run_cover(data), run_verify(data)

    def check_residue(data, out):
        return (check_threads(data, out[0]) or check_cover(data, out[1])
                or check_verify(data, out[2]))

    items = []
    for d in range(2, 7):
        for kind in ("metric_disk", "sectorial_disk"):
            items.append(("threads", run_threads, check_threads,
                          (kind, d, None)))
            items.append(("cover", run_cover, check_cover, (kind, d, None)))
            items.append(("verify", run_verify, check_verify,
                          (kind, d, None)))
        items.append(("continuity", run_p2c, check_p2c, (d, d)))
        items.append(("continuity", run_c2p, check_c2p, (d, d)))
    # the deepest source against every shallower target, and the identity
    # map, which needs no refinement
    for dm in range(1, 6):
        items.append(("continuity", run_p2c, check_p2c, (6, dm)))
    for d in (1, 2):
        items.append(("continuity", run_identity, check_identity, d))
    # residue towers, one item per tower as each check alone takes
    # microseconds: every (p, depth) for the disk tree; the formal tower's
    # cost does not depend on p, so the seed picks it
    for d in range(1, 7):
        for kind, p in (("padic_disk", 2), ("padic_disk", 3),
                        ("formal", rng.choice((2, 3, 5, 7)))):
            items.append(("residue", run_residue, check_residue,
                          (kind, d, p)))
    rng.shuffle(items)
    for it in items:
        inputs.add(*it)
    inputs.fingerprint = [(it[0], it[3]) for it in items]
    return inputs


# cohomology: exact linear algebra under both sheaf cohomology routes

# The pairs are fixed (adequate members of a stride through each
# enumeration, as criterion 5 picks them) and the seed draws the sheaves,
# so the cost of the sheaf items does not depend on which pairs a seed hit.
COHOMOLOGY_PAIRS = ((3, 7, 2), (4, 97, 3), (5, 997, 3))  # points, stride, count
COHOMOLOGY_ROUNDS = 10


def _setup_cohomology(lib, seed):
    gtop = lib.gtop
    tower = lib.tower
    rng = random.Random(seed)
    inputs = Inputs()

    def adequate(top, labels):
        pair = gtop.DensePair(top, labels)
        return gtop.cech_adequate(pair, gtop.finest_g_covering(pair))

    # the nerve computes the derived answer only over adequate coverings
    specials = [gtop.sierpinski_pair(), gtop.pseudo_circle(True),
                gtop.pseudo_circle(False)]
    pairs = [(p.xhat, p.x_labels) for p in specials
             if adequate(p.xhat, p.x_labels)]
    inputs.expect("adequate special pairs", len(pairs), 2)
    for n, step, count in COHOMOLOGY_PAIRS:
        picked = [p for p in _dense_pairs(lib, n, inputs)[::step]
                  if adequate(*p)][:count]
        inputs.expect("adequate dense pairs on %d points" % n, len(picked),
                      count)
        pairs.extend(picked)

    # a round draws one sheaf on every pair, as criterion 5 loops; half
    # the sheaves have a 2-dimensional stalk, what their cost mostly
    # depends on, mixed within every round
    rounds = []
    for r in range(COHOMOLOGY_ROUNDS):
        sheaves = []
        for k, (top, labels) in enumerate(pairs):
            f = gtop.random_sheaf(top, rng)
            while max(f.dims) != 1 + (r + k) % 2:
                f = gtop.random_sheaf(top, rng)
            mats = {e: [list(row) for row in m]
                    for e, m in sorted(f.edge_mats.items())}
            sheaves.append((top, labels, f.dims, mats))
        rounds.append(sheaves)
    inputs.fingerprint = [(_pair_name(s), s[2], repr(s[3]))
                          for sheaves in rounds for s in sheaves]

    def run_puncture(n):
        sheaf_betti, complex_betti = tower.puncture_cohomology(
            tower.make_tower("sectorial_disk", n))
        return tuple(sheaf_betti), tuple(complex_betti)

    def check_puncture(n, out):
        if out != ((1, 1), (1, 1)):
            return "betti %r / %r at %d sectors" % (out + (2 ** n,))
        return None

    def run_round(sheaves):
        # the nerve of the finest distinguished covering against the direct
        # route, for each sheaf of the round
        out = []
        for top, labels, dims, mats in sheaves:
            pair = gtop.DensePair(top, labels)
            f = gtop.PosetSheaf(top, dims, mats)
            a = gtop.cech_cohomology(pair, f, gtop.finest_g_covering(pair))
            out.append((tuple(a), tuple(gtop.sheaf_cohomology(f))))
        return out

    def check_round(sheaves, out):
        for s, (a, b) in zip(sheaves, out):
            pad = max(len(a), len(b))
            if a + (0,) * (pad - len(a)) != b + (0,) * (pad - len(b)):
                return "nerve %r vs direct %r on %s, dims %r" % (
                    a, b, _pair_name(s), s[2])
        return None

    for n in range(2, 7):
        inputs.add("puncture", run_puncture, check_puncture, n)
    for sheaves in rounds:
        inputs.add("sheaves", run_round, check_round, sheaves)
    return inputs


# index: irregularities and the index formula against the window oracle

# Irregularities of the built-in operator corpus at its singular points;
# every point not listed is regular singular or ordinary.  With the known
# (h0, h1) these satisfy n(2 - #Z) - sum = h0 - h1 for every entry.
CORPUS_IRREGULARITY = {("exp-of-inverse", "0"): 1, ("mixed-slopes", "0"): 3,
                       ("airy", "inf"): 3}

# Seeded first-order operators c + z^k d/dz (c != 0) that get a full
# index report each pass, as (k, punctures).
INDEX_REPORT_SHAPES = ((0, (0, "inf")), (1, (0, "inf")), (1, (0, 1, "inf")),
                       (2, (0, "inf")), (3, (0, "inf")))
INDEX_IRREGULARITY_OPERATORS = 26


def _first_order_irregularity(c, k, point):
    """Irregularity of c + z^k d/dz, from its Euler form c + z^(k-1) delta
    at 0 and c - w^(1-k) delta_w at infinity (w = 1/z)."""
    if c == 0:
        return 0
    if point == "0":
        return max(0, k - 1)
    if point == "inf":
        return 1 if k == 0 else 0
    return 0


def _setup_index(lib, seed):
    dmod = lib.dmod
    poly = lib.poly
    rng = random.Random(seed)
    inputs = Inputs()

    corpus = [(e.name, e.spec.operator.coeffs,
               tuple(dmod.format_point(p) for p in e.spec.sorted_points()),
               e.h0, e.h1) for e in dmod.corpus()]
    inputs.expect("corpus size", len(corpus), 8)

    def first_order(c, k):
        z = poly.Polynomial.variable()
        return dmod.DiffOp([poly.Polynomial.const(c), z ** k])

    def rand_c():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                        rng.randint(1, 4))

    def run_corpus_report(data):
        name, coeffs, points, h0, h1 = data
        rep = dmod.index_report(dmod.ConnectionSpec(dmod.DiffOp(coeffs),
                                                    points))
        return rep.h0, rep.h1, rep.chi_formula, rep.stabilized, rep.agree

    def check_corpus_report(data, out):
        name, coeffs, points, h0, h1 = data
        if out != (h0, h1, h0 - h1, True, True):
            return "%s: (h0, h1, chi, stabilized, agree) = %r, expected %r" \
                % (name, out, (h0, h1, h0 - h1, True, True))
        return None

    def run_corpus_irregularity(data):
        name, coeffs, point = data
        return dmod.irregularity(dmod.DiffOp(coeffs), point)

    def check_corpus_irregularity(data, got):
        want = CORPUS_IRREGULARITY.get((data[0], data[2]), 0)
        if got != want:
            return "%s at %s: irregularity %d, expected %d" % (
                data[0], data[2], got, want)
        return None

    def run_first_order_report(data):
        c, k, points = data
        rep = dmod.index_report(dmod.ConnectionSpec(first_order(c, k),
                                                    points))
        return rep.chi_formula, rep.stabilized, rep.agree

    def check_first_order_report(data, out):
        c, k, points = data
        chi = 2 - len(points) - sum(_first_order_irregularity(c, k, str(p))
                                    for p in points)
        if out != (chi, True, True):
            return "%s + z^%d d/dz over %r: (chi, stabilized, agree) = %r," \
                " expected %r" % (c, k, points, out, (chi, True, True))
        return None

    def run_first_order_irregularity(data):
        c, k, point = data
        return dmod.irregularity(first_order(c, k), point)

    def check_first_order_irregularity(data, got):
        c, k, point = data
        want = _first_order_irregularity(c, k, str(point))
        if got != want:
            return "%s + z^%d d/dz at %s: irregularity %d, expected %d" % (
                c, k, point, got, want)
        return None

    for entry in corpus:
        inputs.add("report", run_corpus_report, check_corpus_report, entry)
        for p in entry[2]:
            inputs.add("irregularity", run_corpus_irregularity,
                       check_corpus_irregularity, (entry[0], entry[1], p))
    seeded = []
    for k, points in INDEX_REPORT_SHAPES:
        data = (rand_c(), k, points)
        seeded.append(data)
        inputs.add("report", run_first_order_report,
                   check_first_order_report, data)
    for i in range(INDEX_IRREGULARITY_OPERATORS):
        c, k = rand_c(), i // 2 % 4
        points = (0, "inf") if i % 2 == 0 else (0, 1, "inf")
        seeded.append((c, k, points))
        for p in points:
            inputs.add("irregularity", run_first_order_irregularity,
                       check_first_order_irregularity, (c, k, p))
    inputs.fingerprint = [(str(c), k, points) for c, k, points in seeded]
    return inputs


# uniformities: entourage checks (read path) and covering conversions
# (build path)

CORE_TYPES = ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
# Coverings of a 4-set refined by a partition of each type: a discrete
# core admits all 32297, a trivial one only the 2^14 containing the whole
# set as a block.
COVERINGS_BY_TYPE = {(4,): 16384, (3, 1): 24512, (2, 2): 28928,
                     (2, 1, 1): 30532, (1, 1, 1, 1): 32297}


def _setup_uniformities(lib, seed):
    rel = lib.relations
    qu = lib.quniform
    enum = lib.enumeration
    rng = random.Random(seed)
    inputs = Inputs()
    bases = {n: enum.standard_base(n) for n in range(2, 8)}

    def rows_core(basis_rows, n):
        core = []
        for i in range(n):
            acc = (1 << n) - 1
            for rows in basis_rows:
                acc &= rows[i]
            core.append(acc)
        return core

    def run_check(data):
        n, basis_rows, sym = data
        base = bases[n]
        u = qu.QUniformity(base, [rel.Relation(base, r) for r in basis_rows],
                           symmetric_flag=sym)
        rep = qu.check_quniformity(u)
        return (rep.reflexive_ok, rep.cotransitive_ok, rep.symmetric_ok,
                rep.is_quasi_uniformity, rep.is_uniformity, rep.e_min.rows)

    def check_check(data, out):
        # the filter is principal, so every axiom is a statement about the
        # intersection of the basis
        n, basis_rows, sym = data
        core = rows_core(basis_rows, n)
        reflexive = all(r[i] >> i & 1 for r in basis_rows for i in range(n))
        transitive = True
        for i in range(n):
            acc = 0
            for j in range(n):
                if core[i] >> j & 1:
                    acc |= core[j]
            transitive = transitive and acc & ~core[i] == 0
        symmetric = None
        if sym:
            symmetric = all((core[i] >> j & 1) == (core[j] >> i & 1)
                            for i in range(n) for j in range(n))
        quasi = reflexive and transitive
        want = (reflexive, transitive, symmetric, quasi,
                bool(quasi and sym and symmetric), tuple(core))
        if out != want:
            return "basis %r (symmetric=%r): report %r, expected %r" % (
                basis_rows, sym, out, want)
        return None

    def run_round_trip(data):
        kind, core_rows, basis_rows = data
        base = bases[4]
        u = qu.QUniformity(base, [rel.Relation(base, r) for r in basis_rows],
                           symmetric_flag=True)
        t = qu.weil_to_tukey(u)
        return len(t), qu.tukey_to_weil(t).e_min.rows

    def check_round_trip(data, out):
        kind, core_rows, basis_rows = data
        want = (COVERINGS_BY_TYPE[kind], core_rows)
        if out != want:
            return "core %r: (coverings, core after the round trip) = %r," \
                " expected %r" % (core_rows, out, want)
        return None

    base4 = bases[4]
    tops = [lib.topology.FiniteTopology.from_preorder(r)
            for r in enum.all_preorders(base4)]
    inputs.expect("topologies on 4 points", len(tops), 355)
    sweep = [(t, t.specialization().rows) for t in tops]

    def run_sweep(make):
        def run(data):
            out = []
            for top, _ in data:
                u = make(top)
                out.append((qu.topology_from(u).open_masks, u.e_min.rows))
            return out
        return run

    def check_sweep(data, out):
        # both quasi-uniformities reproduce the topology, and their core
        # is its specialization preorder
        for (top, spec), got in zip(data, out):
            if got != (top.open_masks, spec):
                return "(opens, core) %r for %r" % (got, top.open_masks)
        return None

    # read path: random bases as in the c1 mix, one per (size, flavor),
    # with 1 to 3 entourages
    checks = []
    for n in range(2, 8):
        for k, flavor in enumerate(("raw", "preorder", "equivalence")):
            basis = []
            for _ in range(1 + (n + k) % 3):
                r = rel.random_relation(bases[n], rng)
                if flavor == "preorder":
                    r = r.reflexive_transitive_closure()
                elif flavor == "equivalence":
                    r = (r | r.inverse()).reflexive_transitive_closure()
                basis.append(r)
            sym = all(r.is_symmetric() for r in basis)
            checks.append((n, tuple(r.rows for r in basis), sym))

    # build path: one round trip per partition type, the partition and
    # the coarser symmetric entourages around it drawn from the seed
    by_type = {}
    for e in enum.all_equivalences(base4):
        kind = tuple(sorted((bin(m).count("1") for m in set(e.rows)),
                            reverse=True))
        by_type.setdefault(kind, []).append(e)
    trips = []
    for kind in CORE_TYPES:
        core = rng.choice(by_type[kind])
        basis = [core.rows]
        for _ in range(rng.randint(0, 2)):
            extra = rel.random_relation(base4, rng, density=0.3)
            basis.append((core | extra | extra.inverse()).rows)
        rng.shuffle(basis)
        trips.append((kind, core.rows, tuple(basis)))

    for data in checks:
        inputs.add("check", run_check, check_check, data)
    for data in trips:
        inputs.add("round_trip", run_round_trip, check_round_trip, data)
    inputs.add("pervin", run_sweep(lambda t: qu.pervin(t)), check_sweep,
               sweep)
    inputs.add("kunzi", run_sweep(lambda t: qu.kunzi(t)), check_sweep, sweep)
    inputs.fingerprint = [checks, trips]
    return inputs
