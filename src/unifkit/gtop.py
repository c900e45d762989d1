"""Dense pairs, the largest-trace-open calculus, uniform G-coverings,
and sheaf cohomology on finite completions.

A DensePair is a finite space Xhat with a chosen dense subset X.  For
each open U of the subspace, check(U) is the union of the opens of
Xhat whose trace on X is exactly U; hat(U) is the closure of U.  A
family of opens of U is a distinguished covering of U when the member
reaches (union of ambient opens whose trace on U sits inside the
member) cover hat(U); over the full trace the reach of a member is
just its check-open, so both descriptions agree there.  Both are read
pointwise off the minimal opens mins[i] of Xhat: i lies in hat(U) iff
mins[i] & U is nonzero, and in the reach of a member Ui iff mins[i] & U
lies inside Ui (the reach is the interior of Ui | ~U), so a family
covers U iff each maximal nonzero local trace mins[i] & U lies inside
some member.  The whole calculus is exhaustively checkable at this
scale.

Sheaves on the completion are poset functors with rational matrices;
their cohomology comes from the ordered-chain complex, and the Cech
complex over a distinguished covering of X gives the second road to
the same numbers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import mul

from . import linalg
from .relations import FiniteSet, bits
from .topology import FiniteTopology


class DensePair:
    """A finite space together with a dense subset carrying the
    subspace topology."""

    __slots__ = ("xhat", "x_mask", "_check", "_trace_opens")

    def __init__(self, xhat, x_labels):
        x_mask = xhat.base.mask_of(x_labels)
        full = (1 << len(xhat.base)) - 1
        if xhat.closure_mask(x_mask) != full:
            raise ValueError("subset is not dense")
        self.xhat = xhat
        self.x_mask = x_mask
        # check-open of every trace-open, keyed by the trace-opens
        check = {}
        for m in xhat.open_masks:
            check[m & x_mask] = check.get(m & x_mask, 0) | m
        self._check = check
        self._trace_opens = tuple(sorted(check))

    @property
    def x_labels(self):
        return self.xhat.base.labels_of(self.x_mask)

    def __repr__(self):
        return "DensePair(%r, X=%r)" % (self.xhat, sorted(self.x_labels))

    def __eq__(self, other):
        return (isinstance(other, DensePair) and self.xhat == other.xhat
                and self.x_mask == other.x_mask)

    def __hash__(self):
        return hash((self.xhat, self.x_mask))

    def trace_open_masks(self):
        return self._trace_opens

    def is_trace_open(self, um):
        return um in self._check

    def u_check_mask(self, um):
        """Largest open of Xhat with trace exactly um."""
        try:
            return self._check[um]
        except KeyError:
            raise ValueError("set is not open in the dense subspace") from None

    def u_check(self, labels):
        return self.xhat.base.labels_of(
            self.u_check_mask(self.xhat.base.mask_of(labels)))

    def u_hat_mask(self, um):
        """Closure of the trace-open in Xhat."""
        return self.xhat.closure_mask(um)

    def member_reach_mask(self, um, ui):
        """Union of the ambient opens whose trace on um lies inside ui:
        how far the member ui of a covering of um extends into the
        closure of um (the check-open of ui over the full trace).  It
        holds the points whose minimal open meets um inside ui."""
        return self.xhat.interior_mask(ui | ~um)


def sierpinski_pair():
    base = FiniteSet(["p0", "p1"])
    top = FiniteTopology.from_opens(base, [[], ["p1"], ["p0", "p1"]])
    return DensePair(top, ["p1"])


def pseudo_circle(full=True):
    """Four-point model of the circle: two open points a, b glued along
    two closed points c, d.  full=True takes the identity pair;
    otherwise the dense subset is the two open points."""
    base = FiniteSet(["a", "b", "c", "d"])
    top = FiniteTopology.from_opens(base, [
        [], ["a"], ["b"], ["a", "b"], ["a", "b", "c"], ["a", "b", "d"],
        ["a", "b", "c", "d"]])
    return DensePair(top, base.labels if full else ["a", "b"])


class L7Report:
    """Per-item outcome of the trace-open calculus checks. Items 6 and 7
    need more than these finite models generally provide (regularity),
    so their failures are reported as informational, not as errors."""

    __slots__ = ("items", "witnesses")

    def __init__(self, items, witnesses):
        self.items = dict(items)
        self.witnesses = dict(witnesses)

    @property
    def items1to5_ok(self):
        return all(self.items[i] for i in range(1, 6))


def check_l7(pair):
    top = pair.xhat
    base = top.base
    opens = pair.trace_open_masks()
    items = {i: True for i in range(1, 8)}
    wit = {}

    def note(i, w):
        items[i] = False
        wit[i] = w

    # an item keeps its first witness, so it is only tested while it holds
    open_set = set(top.open_masks)
    check = {um: pair.u_check_mask(um) for um in opens}
    for um, cu in check.items():
        # item 1: the union of qualifying opens is open and has trace um
        if items[1] and (cu not in open_set or cu & pair.x_mask != um):
            note(1, base.labels_of(um))
        hu = pair.u_hat_mask(um)
        if items[2] and cu & ~hu:
            note(2, base.labels_of(um))
        # conditional clause of item 2
        if items[2] and hu & pair.x_mask == um and cu != top.interior_mask(hu):
            note(2, base.labels_of(um))

    for ua, ca in check.items():
        for ub, cb in check.items():
            if items[3] and ca & cb != check[ua & ub]:
                note(3, (base.labels_of(ua), base.labels_of(ub)))
            # trace-opens are closed under union, so item 4 reduces to pairs
            if items[4] and (ca | cb) & ~check[ua | ub]:
                note(4, (base.labels_of(ua), base.labels_of(ub)))

    # item 5 engine: every open of Xhat sits inside the check of its trace
    for v in top.open_masks:
        if items[5] and v & ~check[v & pair.x_mask]:
            note(5, base.labels_of(v))

    # item 6: inside any open, every point has a check-form neighborhood
    for v in top.open_masks:
        for i in bits(v):
            if items[6] and not any(w >> i & 1 and w & ~v == 0
                                    for w in check.values()):
                note(6, (base.labels_of(v), base.labels[i]))

    # item 7: any open is covered by the check-opens of some
    # distinguished covering of its trace; taking every candidate whose
    # check stays inside is the best possible choice
    g = GCoveringSystem(pair)
    for v in top.open_masks:
        if not items[7]:
            break
        uv = v & pair.x_mask
        cover_c = 0
        cands = []
        for um, cu in check.items():
            if um & ~uv == 0 and cu & ~v == 0:
                cover_c |= cu
                cands.append(um)
        if v & ~cover_c or not g._covers(uv, cands):
            note(7, base.labels_of(v))

    return L7Report(items, wit)


# distinguished covering systems


class GCoveringSystem:
    """For each trace-open U, the distinguished coverings are the
    families of opens of U whose member reaches cover hat(U); this is
    the subspace reading of "check-opens covering the closure", and the
    two coincide on the full trace.  Membership is decided pointwise:
    a point i of hat(U) is reached by a member Ui iff its local trace
    mins[i] & U lies inside Ui, so a family covers U iff every maximal
    nonzero local trace of U lies inside some member.  listed()
    materializes a deterministic sample (identity, minimal-open
    decomposition, and all families up to max_family_size) for the
    exhaustive bullet checks."""

    __slots__ = ("pair", "max_family_size", "_listed", "_traces")

    def __init__(self, pair, max_family_size=2):
        self.pair = pair
        self.max_family_size = max_family_size
        self._listed = {}
        self._traces = {}

    def is_g_covering(self, um, members):
        pair = self.pair
        if not pair.is_trace_open(um):
            raise ValueError("set is not open in the dense subspace")
        members = tuple(members)
        for m in members:
            if not pair.is_trace_open(m):
                raise ValueError("covering member is not a subspace open")
            if m & ~um:
                raise ValueError("covering member sticks out of its open")
        return self._covers(um, members)

    def _covers(self, um, members):
        """is_g_covering without validation: members must be a sequence
        of trace-opens inside the trace-open um."""
        traces = self._traces.get(um)
        if traces is None:
            top = self.pair.xhat
            ts = {top.min_open_mask(i) & um for i in range(len(top.base))}
            # the maximal nonzero local traces decide
            traces = self._traces[um] = tuple(
                t for t in ts if t and all(t == s or t & ~s for s in ts))
        for t in traces:
            for m in members:
                if t & ~m == 0:
                    break
            else:
                return False
        return True

    def minimal_decomposition(self, um):
        """Traces of the minimal opens of the points of U, deduplicated."""
        x, top = self.pair.x_mask, self.pair.xhat
        return tuple(sorted({top.min_open_mask(i) & x for i in bits(um & x)}))

    def listed(self, um):
        try:
            return self._listed[um]
        except KeyError:
            pass
        pair = self.pair
        subs = [m for m in pair.trace_open_masks() if m & ~um == 0]
        fams = set()
        if um == 0:
            fams.add(())
        else:
            fams.add((um,))
            dec = self.minimal_decomposition(um)
            if self._covers(um, dec):
                fams.add(dec)
            for size in range(1, self.max_family_size + 1):
                for combo in itertools.combinations(subs, size):
                    if self._covers(um, combo):
                        fams.add(tuple(sorted(combo)))
        out = tuple(sorted(fams))
        self._listed[um] = out
        return out


def uniform_g_topology(pair, max_family_size=2):
    return GCoveringSystem(pair, max_family_size)


class GrothReport:
    __slots__ = ("identity_ok", "restriction_ok", "composition_ok",
                 "detection_ok", "saturation_ok", "witnesses")

    def __init__(self):
        self.identity_ok = True
        self.restriction_ok = True
        self.composition_ok = True
        self.detection_ok = True
        self.saturation_ok = True
        self.witnesses = []

    @property
    def valid(self):
        return (self.identity_ok and self.restriction_ok
                and self.composition_ok and self.detection_ok
                and self.saturation_ok)


def check_grothendieck(g):
    """The five bullets: identity coverings, restriction stability,
    composition stability, local detection of openness, and saturation
    under coarsening by refinable families."""
    pair = g.pair
    rep = GrothReport()
    opens = pair.trace_open_masks()
    open_set = set(opens)

    for um in opens:
        ident = () if um == 0 else (um,)
        if not g._covers(um, ident):
            rep.identity_ok = False
            rep.witnesses.append(("identity", um))

    for um in opens:
        fams = g.listed(um)
        for fam in fams:
            for vm in opens:
                if vm & ~um:
                    continue
                # every local trace of V lies in V, so the family cut
                # down to V covers V exactly when the family does
                if not g._covers(vm, fam):
                    rep.restriction_ok = False
                    rep.witnesses.append(("restriction", um, fam, vm))

    # refine each member by its minimal decomposition where that is
    # itself a distinguished covering, by itself otherwise
    refinement = {}
    for m in opens:
        dec = g.minimal_decomposition(m)
        refinement[m] = dec if g._covers(m, dec) else (m,)
    for um in opens:
        for fam in g.listed(um):
            composite = [d for m in fam for d in refinement[m]]
            if fam and not g._covers(um, composite):
                rep.composition_ok = False
                rep.witnesses.append(("composition", um, fam))

    for um in opens:
        # scan subsets of U for locally-open implies open
        non_open = [s for s in range(um + 1)
                    if s & ~um == 0 and s not in open_set]
        for fam in g.listed(um):
            for s in non_open:
                if all((s & m) in open_set for m in fam):
                    rep.detection_ok = False
                    rep.witnesses.append(("detection", um, fam, s))

    for um in opens:
        gfams = g.listed(um)
        subs = [m for m in opens if m & ~um == 0]
        for size in range(1, min(g.max_family_size, len(subs)) + 1):
            for fam in itertools.combinations(subs, size):
                union = 0
                for m in fam:
                    union |= m
                if union != um or g._covers(um, fam):
                    continue
                if any(all(any(v & ~m == 0 for m in fam) for v in gf)
                       for gf in gfams if gf):
                    rep.saturation_ok = False
                    rep.witnesses.append(("saturation", um, fam))

    return rep


# sheaves on the completion


class PosetSheaf:
    """Stalk dimensions per point of a T0 space plus one rational matrix
    per Hasse edge of its specialization order.  Values on opens are the
    compatible families, and they are the one representation: the map
    stalk(x) -> stalk(y) is the restriction F(U_x) -> F(U_y) between
    minimal opens.  Every point of U_x is reached from x along Hasse
    edges inside U_x, so a section over U_x is fixed by its value at x,
    and that value is free exactly when every route out of x composes
    to the same map.  So F(U_x) is built by transport, not elimination:
    walking U_x by decreasing minimal open (an edge i -> j has U_j
    inside U_i, so i comes first), the stalk basis at x is carried
    along each edge; the first edge into j gives the values at j, and
    every other edge into j must give the same, or the restrictions
    are not functorial at x.  When they agree, the value at x is free,
    so x's columns are the free ones of section_space's elimination,
    and the kernel vector of free column (x, k) is the one section
    whose value at x is e_k: the transported basis is the basis that
    section_space would find."""

    __slots__ = ("top", "dims", "edge_mats", "_out", "_sections")

    def __init__(self, top, dims, edge_mats):
        if not top.is_t0():
            raise ValueError("sheaf base must be T0")
        n = len(top.base)
        dims = tuple(int(d) for d in dims)
        if len(dims) != n or any(d < 0 for d in dims):
            raise ValueError("bad stalk dimensions")
        hasse = top.hasse_edges()
        if set(edge_mats.keys()) != set(hasse):
            raise ValueError("restriction matrices must match the Hasse edges")
        for (i, j), m in edge_mats.items():
            if len(m) != dims[j] or any(len(r) != dims[i] for r in m):
                raise ValueError("matrix shape mismatch on edge %r" % ((i, j),))
        self.top = top
        self.dims = dims
        self.edge_mats = {e: [[x if type(x) is Fraction else Fraction(x)
                               for x in row] for row in m]
                          for e, m in edge_mats.items()}
        # the Hasse edges out of each point, with their matrices
        self._out = [[] for _ in range(n)]
        for (i, j), m in self.edge_mats.items():
            self._out[i].append((j, m))
        self._sections = {}
        for x in range(n):
            ux = top.min_open_mask(x)
            offs = self._blocks(ux)
            # vals[p][k]: the value at p of the section that is e_k at x
            vals = {x: linalg.identity(dims[x])}
            for i in reversed(offs):
                for j, m in self._out[i]:
                    # each sum starts from its first term (ZERO if none)
                    got = [[sum(t, next(t, linalg.ZERO))
                            for t in (map(mul, row, v) for row in m)]
                           for v in vals[i]]
                    if vals.setdefault(j, got) != got:
                        raise ValueError("restrictions are not functorial "
                                         "at %s" % top.base.labels[x])
            basis = [[c for p in offs for c in vals[p][k]]
                     for k in range(dims[x])]
            self._sections[ux] = (offs, basis,
                                  [(x, t) for t in range(dims[x])])

    def section_space(self, mask):
        """(offsets, basis, free) of F(W), W open, inside the direct sum
        of the stalks over W.  The blocks run by growing minimal open,
        ties by index, so over U_x the point x comes last: the columns
        before it are independent (a section vanishing at x vanishes),
        so x's columns are the free ones and the basis is x's stalk
        basis (the constructor transports it there).  free[k] =
        (point, stalk index) is the free column of basis vector k, where
        it is 1 and the others are 0 (linalg.kernel_basis), so a
        section's values there are its coordinates.  An edge i -> j and stalk row rj give one row,
        e_(j, rj) - row rj of the edge matrix in the i block; the edges
        out of the points of an open W stay inside it and the blocks of
        i != j are disjoint, so each entry is assigned once."""
        try:
            return self._sections[mask]
        except KeyError:
            pass
        if not self.top.is_open_mask(mask):
            raise ValueError("sections are only defined on opens")
        offs = self._blocks(mask)
        cols = [(p, t) for p in offs for t in range(self.dims[p])]
        rows = []
        for i in offs:
            for j, m in self._out[i]:
                for rj, mrow in enumerate(m):
                    row = [0] * len(cols)
                    row[offs[j] + rj] = 1
                    for ci, x in enumerate(mrow):
                        row[offs[i] + ci] = -x
                    rows.append(row)
        basis = linalg.kernel_basis(rows, len(cols))
        free = [cols[max(c for c, x in enumerate(v) if x)] for v in basis]
        out = (offs, basis, free)
        self._sections[mask] = out
        return out

    def _blocks(self, mask):
        """{point: offset of its stalk block} over the points of mask,
        in block order: by growing minimal open, ties by index."""
        # bits ascend and sorted is stable: ties stay in index order
        mins = self.top.min_open_mask
        offs = {}
        total = 0
        for p in sorted(bits(mask), key=lambda i: mins(i).bit_count()):
            offs[p] = total
            total += self.dims[p]
        return offs

    def dim_sections(self, mask):
        return len(self.section_space(mask)[1])

    def restrict_sections(self, big, small):
        """Matrix of F(big) -> F(small) in the chosen bases, [] when F(big)
        is zero: row k reads the basis of F(big) at small's free column k."""
        if small & ~big:
            raise ValueError("restriction needs an open inside the other")
        offb, bb, _ = self.section_space(big)
        free = self.section_space(small)[2]
        if not bb:
            return []
        return [[v[offb[p] + t] for v in bb] for p, t in free]


def constant_sheaf(top):
    mats = {e: linalg.identity(1) for e in top.hasse_edges()}
    return PosetSheaf(top, [1] * len(top.base), mats)


def _betti(dims, differentials):
    """Betti numbers of a cochain complex with cochain dimensions dims
    and the sparse rows of d^0, d^1, ... ([] for a zero map): dims[q] -
    rank d^q - rank d^(q-1), trailing zero degrees above degree 0
    dropped.  Each matrix is ranked as it arrives, so a generator keeps
    one alive at a time."""
    ranks = [linalg.sparse_rank(d) for d in differentials]
    betti = [dims[q] - ranks[q] - (ranks[q - 1] if q else 0)
             for q in range(len(dims))]
    while len(betti) > 1 and betti[-1] == 0:
        betti.pop()
    return tuple(betti)


def _coboundary(rows, cols, cells, index, face_map):
    """The rows x cols matrix of an alternating coboundary into the given
    cells, each a tuple, as sparse rows {column: nonzero value} (the
    form linalg.sparse_rank takes).  The face of a cell that drops entry
    t enters with sign (-1)^t, as the block face_map(face, cell) at row
    offset index[cell] and column offset index[face]; [] stands for a
    zero map.  The entries of a cell are distinct (the points of a
    strict chain, the positions of an index tuple), so its faces are
    distinct and so are their column blocks: each entry is assigned
    once, and no zero is stored."""
    if not rows or not cols:
        return []
    m = [{} for _ in range(rows)]
    for c in cells:
        roff = index[c]
        for t in range(len(c)):
            face = c[:t] + c[t + 1:]
            coff = index[face]
            for r, row in enumerate(face_map(face, c)):
                out = m[roff + r]
                for cc, x in enumerate(row):
                    if x:
                        out[coff + cc] = -x if t & 1 else x
    return m


def sheaf_cohomology(f):
    """Betti numbers of the ordered-chain complex: cochains assign to a
    strict chain a vector in the stalk of its top point.  The chains
    come from strict_chains, one sorted list per degree, each degree
    grown from the one below.  Every face enters by the restriction
    F(U_x) -> F(U_y) from its top point x to the chain's top point y
    (restrict_sections on minimal opens, the identity when the face
    keeps y)."""
    by_deg = f.top.strict_chains()
    if not by_deg:
        return (0,)
    mins = f.top.min_open_mask
    index = {}
    dims_q = []
    for cs in by_deg:
        off = 0
        for c in cs:
            index[c] = off
            off += f.dims[c[-1]]
        dims_q.append(off)

    def differential(q):
        if q + 1 == len(by_deg):
            return []
        return _coboundary(dims_q[q + 1], dims_q[q], by_deg[q + 1], index,
                           lambda face, c: f.restrict_sections(
                               mins(face[-1]), mins(c[-1])))

    return _betti(dims_q, (differential(q) for q in range(len(by_deg))))


def simplicial_cohomology(top):
    """Rational cohomology of the order complex, the independent route
    for constant coefficients."""
    by_deg = top.strict_chains()
    index = {c: k for cs in by_deg for k, c in enumerate(cs)}

    def differential(q):
        if q + 1 == len(by_deg):
            return []
        # the faces of a strict chain are distinct: one entry each
        return [{index[c[:t] + c[t + 1:]]: -1 if t & 1 else 1
                 for t in range(len(c))} for c in by_deg[q + 1]]

    return _betti([len(cs) for cs in by_deg],
                  (differential(q) for q in range(len(by_deg))))


# Cech side


def finest_g_covering(pair):
    """Deduplicated traces of the minimal opens of the completion's
    points. Always a distinguished covering of X: each check-open
    swallows the minimal open it came from."""
    top = pair.xhat
    out = set()
    for i in range(len(top.base)):
        out.add(top.min_open_mask(i) & pair.x_mask)
    out.discard(0)
    return tuple(sorted(out))


def cech_adequate(pair, members):
    """Acyclicity certificate: every iterated intersection's check-open
    must split into components each having an initial point.  Sections
    over such a component are the stalk of that point, so the Cech
    complex over the covering computes the derived answer.

    A check-open w is open, so it is the union of the minimal opens U_i
    of its minimal points: the i in w whose U_i lies in no larger U_j, j
    in w.  Each U_i is connected under comparability (all of it lies
    over i), and no comparability links disjoint U_a and U_b: if j in
    U_a and k in U_b are comparable, one lies in the minimal open of the
    other, so in both U_a and U_b.  Hence when these U_i are pairwise
    disjoint they are the components, with initial points i.
    Conversely a component with an initial point j holds some U_i and
    lies in U_j, which holds U_i, so it is U_i by maximality: the
    components are the U_i, pairwise disjoint.  They are disjoint iff
    their sizes add up to the size of w; equivalent points of a non-T0
    space share one U_i, counted once."""
    top = pair.xhat
    mins = [top.min_open_mask(i) for i in range(len(top.base))]
    members = tuple(members)
    for r in range(1, len(members) + 1):
        for sigma in itertools.combinations(range(len(members)), r):
            inter = pair.x_mask
            for t in sigma:
                inter &= members[t]
            w = pair.u_check_mask(inter)
            tops = {mins[i] for i in bits(w)
                    if not any(mins[j] >> i & 1 and mins[j] != mins[i]
                               for j in bits(w))}
            if sum(m.bit_count() for m in tops) != w.bit_count():
                return False
    return True


def _nerve(pair, f, um, members, sizes):
    """The Cech nerve of members over the trace-open um, for the member
    counts in the range sizes: per size, the cells (sorted tuples of
    member positions, () for um) with a nonempty intersection, in
    lexicographic order, each grown from one of the size below by a
    later member and mapped to its intersection; the check-open and
    offset of each; the dimension per size.  Dropping empty
    intersections is exact: X is dense, so the only open with empty
    trace is the empty set, whose F is 0, and such a cell adds only zero
    rows and columns.  Offsets, matrices, Betti numbers and
    check_gluing's verdicts and witnesses are those of the full nerve;
    faces of a kept cell meet in more, so they are kept."""
    w_of, index, dims, cells = {}, {}, {}, {}
    level = {(): um} if um else {}
    for size in range(sizes.stop):
        if size:
            level = {sigma + (t,): meet for sigma, inter in level.items()
                     for t in range(sigma[-1] + 1 if sigma else 0,
                                    len(members))
                     if (meet := inter & members[t])}
        if size >= sizes.start:
            off = 0
            for sigma, inter in level.items():
                w_of[sigma] = w = pair.u_check_mask(inter)
                index[sigma] = off
                off += f.dim_sections(w)
            dims[size] = off
            cells[size] = level
    return w_of, index, dims, cells


def _nerve_coboundary(f, nerve, size):
    """The Cech coboundary into the kept intersections of size members."""
    w_of, index, dims, cells = nerve
    return _coboundary(
        dims[size], dims[size - 1], cells[size], index,
        lambda face, sigma: f.restrict_sections(w_of[face], w_of[sigma]))


def cech_cohomology(pair, f, members):
    """Cech complex of a distinguished covering of X with values
    F(check of the intersections). Returns Betti dimensions per degree."""
    if f.top != pair.xhat:
        raise ValueError("sheaf lives on a different completion")
    members = tuple(sorted(set(members)))
    g = GCoveringSystem(pair)
    full_trace = pair.x_mask
    if not g.is_g_covering(full_trace, members):
        raise ValueError("not a distinguished covering of the dense subset")
    r = len(members)
    # degree q holds the intersections of q + 1 members; size r + 1 has
    # none, so the last coboundary is the zero map
    nerve = _nerve(pair, f, full_trace, members, range(1, r + 2))
    return _betti([nerve[2][q + 1] for q in range(r)], (
        _nerve_coboundary(f, nerve, q + 2) for q in range(r)))


def _kills(row, m):
    """Whether the sparse row times the sparse rows of m is zero."""
    acc = {}
    for k, y in row.items():
        for c, x in m[k].items():
            acc[c] = acc.get(c, 0) + y * x
    return not any(acc.values())


def check_gluing(pair, f):
    """Sheaf condition for the pulled-back presheaf U -> F(check U) on
    every listed distinguished covering: the augmented Cech complex
    F(check U) -alpha-> prod F(check U_i) -beta-> prod F(check U_ij) is
    exact at its first two terms, so the value embeds as the equalizer of
    the member values against the pairwise intersections.  Returns (ok,
    witness)."""
    g = GCoveringSystem(pair)
    for um in pair.trace_open_masks():
        for fam in g.listed(um):
            nerve = _nerve(pair, f, um, fam, range(3))
            d_u, total = nerve[2][0], nerve[2][1]
            alpha = _nerve_coboundary(f, nerve, 1)
            beta = _nerve_coboundary(f, nerve, 2)
            if (linalg.sparse_rank(alpha) != d_u
                    or total - linalg.sparse_rank(beta) != d_u
                    or alpha and not all(_kills(row, alpha) for row in beta)):
                return False, (um, fam)
    return True, None


def random_sheaf(top, rng):
    """Random sheaf as a conjugated sum of one or two constant sheaves on
    closed down-sets (closures of one or two points); stalk dims stay at
    most 2 and cohomology is genuinely varied."""
    n = len(top.base)
    k = rng.randint(1, 2)
    downs = []
    for _ in range(k):
        seeds = rng.sample(range(n), rng.randint(1, min(2, n)))
        d = 0
        for s in seeds:
            d |= top.closure_mask(1 << s)
        downs.append(d)
    dims = [sum(1 for d in downs if d >> i & 1) for i in range(n)]

    def rand_invertible(d):
        if d == 0:
            return []
        while True:
            m = [[Fraction(rng.randint(-2, 2)) for _ in range(d)]
                 for _ in range(d)]
            if linalg.rank(m) == d:
                return m

    conj = [rand_invertible(d) for d in dims]
    conj_inv = []
    for m in conj:
        if not m:
            conj_inv.append([])
            continue
        d = len(m)
        sols = linalg.solve_many(m, [[linalg.ONE if i == j else linalg.ZERO
                                      for i in range(d)] for j in range(d)])
        conj_inv.append(linalg.transpose(sols))
    mats = {}
    for (i, j) in top.hasse_edges():
        alive_i = [t for t, d in enumerate(downs) if d >> i & 1]
        alive_j = [t for t, d in enumerate(downs) if d >> j & 1]
        raw = linalg.zeros(dims[j], dims[i])
        for rj, t in enumerate(alive_j):
            if t in alive_i:
                raw[rj][alive_i.index(t)] = linalg.ONE
        m = linalg.matmul(conj[j], linalg.matmul(raw, conj_inv[i])) \
            if dims[j] and dims[i] else raw
        mats[(i, j)] = m
    return PosetSheaf(top, dims, mats)
