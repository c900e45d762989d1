"""Star-refining towers of finite coverings over a sample set.

A tower presents a precompact (quasi-)uniform space by a sequence of
finite coverings by named blocks, each refining the one before it.
Depth-N threads (coherent block chains) approximate the points of the
completion; the built-in generators model the punctured square with
its two uniformities, the residue disk tree of the integers under a
prime, the one-level formal disk, and arbitrary finite models from the
entourage modules.

Geometry is exact.  Blocks of the square generators are closed boxes
with integer endpoints in level units; the angular coordinate lives on
the piecewise linear boundary circle of the square, parametrized by
arc length with total length 8.  Chart changes stay in integers too: a
level-n polar block maps to a box with integer ends in metric
level-(2n+1) units.  Blocks
at consecutive levels overlap by construction, which is what makes
star-refinement certifiable: a partition can never absorb the star of
a boundary block, an overlap of half a block width can.  The
certificates relate level k to level k-3 for the square generators
(the star of a block spans 7 level units and a block three levels up
spans 24, leaving room to place one whatever the alignment) and to
level k-1 for the residue generators, whose levels are honest
partitions with singleton stars.

A square block pairs one position on each of two axes: the metric
tower is a linear axis times a linear axis, the sectorial (blown-up)
tower the same linear axis on the radius times a cyclic axis for the
angle.  An axis answers through two methods.  inside(lvl, lo, hi, m)
is containment: the span [lo, hi] in level-lvl units (lvl >= m) lies
in the level-m position lo // 2^(lvl-m+1), the one starting at or below
lo; parents, fits and star certificates are that question.  They and
overlap hold of a block exactly when they hold of both positions, and
a block's neighbors pair the near positions of its two, so
verification, adjacency included, tests each axis position of a level
once.

spans(k, i, lvl, cut) is extent: position i of level k as closed
integer spans in level-lvl units (a window as its two lifts about a
cut), which decide overlap and, in one sweep testing the second axis
at every first-axis span end and midpoint, coverage of a box by a
covering member.  That sweep absorbs every square thread class: an
interior class over its block, the puncture class over the box
[-1, 1]^2 about the origin, a tangential class over its window at
radius 0.

Each generator class holds its own geometry: its blocks and their
names (block_name, and parse_block for reading them back), parents and
stars, containment and overlap, coverage of a block by a covering
member, and which member absorbs each of its thread classes.  A thread
class is a plain (tag, rep, blocks) tuple, and absorbs reads only its
representative block rep.  The operations below ask the generator
instead of switching on its kind or on a class tag (only make_tower
and the domains of the chart-change maps name kinds), so adding or
changing a uniform structure touches one class, or one axis.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import product

from .relations import FiniteSet, Relation
from .topology import FiniteTopology

FULL_CIRCLE = 8  # arc length of the boundary square


def _gamma(t, u):
    """Point of the boundary square at arc-length coordinate t / u, in
    units of 1/u."""
    t %= FULL_CIRCLE * u
    if t <= 2 * u:
        return u, t - u
    if t <= 4 * u:
        return 3 * u - t, u
    if t <= 6 * u:
        return -u, 5 * u - t
    return t - 7 * u, -u


class Covering:
    """A covering of the tower's space by unions of blocks of one
    level."""

    __slots__ = ("name", "level", "members")

    def __init__(self, name, level, members):
        self.name = name
        self.level = level
        self.members = tuple(tuple(m) for m in members)


# generators


class _LinearAxis:
    """The segment [lo, hi].  At level k position i carries the interval
    [2i, 2i+3] in units of 2^-(k+1), clipped to [lo, hi]: width 3,
    stride 2, so adjacent positions share a unit-wide strip and
    positions two apart are disjoint."""

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi

    def ids(self, k):
        return range(self.lo << k, self.hi << k)

    def interval(self, k, i):
        return (max(2 * i, self.lo << (k + 1)),
                min(2 * i + 3, self.hi << (k + 1)))

    def star(self, k, i):
        """Position i with its neighbors, clipped to the segment."""
        return (max(2 * i - 2, self.lo << (k + 1)),
                min(2 * i + 5, self.hi << (k + 1)))

    def inside(self, lvl, lo, hi, m):
        """Starts grow by 2 and ends, clip included, never fall, so the
        last position starting at or below lo holds whatever another
        does; past either end of the segment the clip leaves an interval
        that holds no more than the end position does."""
        s = lvl - m
        jlo, jhi = self.interval(m, lo >> (s + 1))
        return jlo << s <= lo and hi <= jhi << s

    def candidates(self, k, lo, hi):
        """Positions whose interval could meet [lo, hi], in level-k
        units; callers re-check exactly."""
        first = max((lo - 3) // 2, self.lo << k)
        last = min(hi // 2, (self.hi << k) - 1)
        return range(first, last + 1)

    def spans(self, k, i, lvl, cut):
        """Position i of level k in level-lvl units, less cut."""
        f = 1 << (lvl - k)
        lo, hi = self.interval(k, i)
        return ((lo * f - cut, hi * f - cut),)

    def covers(self, k):
        reach = self.lo << (k + 1)
        for i in self.ids(k):
            lo, hi = self.interval(k, i)
            if lo > reach:
                return False
            reach = max(reach, hi)
        return reach == self.hi << (k + 1)

    def near(self, k, i):
        first, last = self.lo << k, (self.hi << k) - 1
        return [j for j in (i - 1, i, i + 1) if first <= j <= last]


class _CyclicAxis:
    """The boundary circle, in units of 2^-(k+1) of a turn at level k.
    Position a carries the window (start 2a, length 3) mod 2^(k+1) for
    a in range(2^k), so each window overlaps its two neighbors and the
    tip carries exactly 2^k positions."""

    def ids(self, k):
        return range(1 << k)

    def mod(self, k):
        return 1 << (k + 1)

    def window(self, k, a):
        return 2 * a, 3

    def star(self, k, a):
        """Window a with its two neighbors: an arc of 7 units."""
        return 2 * a - 2, 2 * a + 5

    def inside(self, lvl, lo, hi, m):
        """The arc from lo to hi lies in the window: turned to start at
        the window's start it ends by the window's end.  This is exact
        because every window at level m >= 1 is shorter than a turn (3
        of 2^(m+1) units), so no arc holds it twice round."""
        s = lvl - m
        ws, wl = self.window(m, (lo >> (s + 1)) % (1 << m))
        return (lo - (ws << s)) % self.mod(lvl) + hi - lo <= wl << s

    def candidates(self, k, lo, hi):
        return self.ids(k)  # any window can meet an arc

    def spans(self, k, a, lvl, cut):
        """Window a of level k in level-lvl units with the circle cut
        open at cut: the lift starting in [0, mod) and the one before
        it, the only lifts that meet an arc from 0 shorter than a turn."""
        f = 1 << (lvl - k)
        mod = self.mod(lvl)
        ws, wl = self.window(k, a)
        s = (ws * f - cut) % mod
        return (s, s + wl * f), (s - mod, s - mod + wl * f)

    def covers(self, k):
        mod = self.mod(k)
        covered = set()
        for a in self.ids(k):
            ws, wl = self.window(k, a)
            covered.update(t % mod for t in range(ws, ws + wl))
        return len(covered) == mod

    def near(self, k, a):
        c = 1 << k
        return list(dict.fromkeys(((a - 1) % c, a, (a + 1) % c)))


def _spans_meet(axis, k1, i1, k2, i2):
    """Position i1 of level k1 and i2 of level k2 of one axis overlap.
    Cut at the start of the first, which becomes [0, w]; only a window's
    two lifts about the cut can meet it, so the positions overlap iff a
    span of the second reaches into [0, w]."""
    lvl = max(k1, k2)
    lo, hi = axis.spans(k1, i1, lvl, 0)[0]
    for s, e in axis.spans(k2, i2, lvl, lo):
        if s <= hi - lo and e >= 0:
            return True
    return False


class _Generator:
    """What a generator owns: its blocks and their names, parents, stars,
    containment, overlap, coverage by a covering member, and its thread
    classes, which classes(n) yields as (tag, rep, blocks) tuples, those
    over the puncture first.  The defaults fit a generator whose levels
    all repeat one covering by pairwise disjoint blocks; the others
    override what differs."""

    symmetric = True
    star_lag = 1
    thread_notes = ()
    model = None  # tells apart generators of one kind and params

    def __init__(self):
        self.params = {}

    def parse_block(self, text):
        """The block a report names: the inverse of block_name."""
        try:
            if text.startswith(self.block_prefix):
                return self.block_from(text[1:])
        except (ValueError, KeyError):
            pass
        raise ValueError("bad block name %r for generator %s"
                         % (text, self.kind))

    def parent(self, k, b):
        return b

    def path(self, n, b):
        """The chain of ancestors of block b of level n, level 1 first."""
        out = [b]
        for k in range(n, 1, -1):
            out.append(self.parent(k, out[-1]))
        return tuple(reversed(out))

    def neighbors(self, k, b):
        return iter(())  # one level's blocks are disjoint

    def first_failed_star(self, k):
        """The first block of level k, in block_ids order, whose star
        fails its certificate, or None: the star of a disjoint block is
        the block itself."""
        return None

    def puncture_first(self, k):
        """The level's blocks, those a sector can never hold first, so
        that scans of failing levels stay cheap."""
        return self.block_ids(k)

    def absorbs(self, cov_level, member, n, rep):
        """The member's level-cov_level blocks hold the depth-n thread
        class with representative block rep: by default, they cover it."""
        return self.covers_block(cov_level, member, n, rep)

    def first_unfit(self, n, m):
        """The first block of level n, in block_ids order, that lies in
        no single level-m block, or None: the levels repeat one
        covering."""
        return None

    def first_unadjacent(self, k):
        """The first pair of blocks of level k that meet without being
        neighbors, or None.  Residue and formal levels are partitions,
        so blocks of one level meet only themselves, and a finite
        tower's neighbors are exactly the balls that meet."""
        return None

    def tangential_cycle_ok(self, n):
        return False


class _SquareGen(_Generator):
    """Punctured square [-1,1]^2 minus the origin: a block pairs one
    position of each of the two axes the subclass sets in self.axes.
    Both uniformities halve blocks per level and certify stars three
    levels up; what holds per position is derived here from the axes."""

    star_lag = 3

    def block_ids(self, k):
        x, y = self.axes
        return product(x.ids(k), y.ids(k))

    def block_count(self, k):
        x, y = self.axes
        return len(x.ids(k)) * len(y.ids(k))

    def has_block(self, k, b):
        x, y = self.axes
        return (isinstance(b, tuple) and len(b) == 2
                and isinstance(b[0], int) and isinstance(b[1], int)
                and b[0] in x.ids(k) and b[1] in y.ids(k))

    def parent(self, k, b):
        return (b[0] // 2, b[1] // 2)

    def neighbors(self, k, b):
        x, y = self.axes
        near_y = y.near(k, b[1])
        for i in x.near(k, b[0]):
            for j in near_y:
                if (i, j) != b:
                    yield (i, j)

    def blocks_meet(self, k1, b1, k2, b2):
        return all(_spans_meet(ax, k1, i1, k2, i2)
                   for ax, i1, i2 in zip(self.axes, b1, b2))

    def covers_space(self, k):
        return all(ax.covers(k) for ax in self.axes)

    def covers_block(self, cov_level, mset, k, b):
        """Exact coverage of block b of level k by the union of a
        member's level-cov_level blocks."""
        lvl = max(cov_level, k)
        return self._covers_box(cov_level, mset, lvl, [
            ax.spans(k, i, lvl, 0)[0] for ax, i in zip(self.axes, b)])

    def _covers_box(self, cov_level, member, lvl, box):
        """The closed box, one (lo, hi) span per axis in level-lvl units,
        lies in the union of the member's level-cov_level blocks.  Each
        axis is cut at the box's low end, so the box becomes [0, w] x
        [0, h] with h > 0, and a window lifts to the spans that can meet
        it.  Span ends are integers and the spans holding a first-axis
        point change only at ends, so testing the second axis at each end
        and at each midpoint between consecutive ends decides the box
        exactly."""
        f = 1 << (lvl - cov_level)
        x, y = self.axes
        (x0, x1), (y0, y1) = box
        spans = []
        for i in x.candidates(cov_level, x0 // f, -(-x1 // f)):
            for j in y.candidates(cov_level, y0 // f, -(-y1 // f)):
                if (i, j) in member:
                    spans += product(x.spans(cov_level, i, lvl, x0),
                                     y.spans(cov_level, j, lvl, y0))
        w, h = x1 - x0, y1 - y0
        ends = sorted({0, w}.union(e for xs, _ in spans for e in xs
                                   if 0 < e < w))
        # doubled coordinates keep the midpoints integer
        for p in [2 * e for e in ends] + [a + b for a, b in
                                          zip(ends, ends[1:])]:
            reach = 0  # h > 0, so a reach past 0 is a span holding 0
            for lo, hi in sorted(ys for xs, ys in spans
                                 if 2 * xs[0] <= p <= 2 * xs[1]):
                if lo > reach:
                    break
                reach = max(reach, hi)
            if reach < h:
                return False
        return True

    def first_failed_star(self, k):
        return self._first_failing(k, lambda ax, i: ax.inside(
            k, *ax.star(k, i), k - self.star_lag))

    def first_unfit(self, n, m):
        lvl = max(n, m)
        return self._first_failing(n, lambda ax, i: ax.inside(
            lvl, *ax.spans(n, i, lvl, 0)[0], m))

    def _first_failing(self, k, ok):
        """A block fails when its position on either axis fails, so the
        first failing block in block_ids order pairs the first failing
        position of one axis with the first position of the other."""
        x, y = self.axes
        xs, ys = x.ids(k), y.ids(k)
        bad_x = next(((i, ys[0]) for i in xs if not ok(x, i)), None)
        bad_y = next(((xs[0], j) for j in ys if not ok(y, j)), None)
        return min((b for b in (bad_x, bad_y) if b is not None), default=None)

    def first_unadjacent(self, k):
        """Blocks meet iff their positions meet on each axis, and a
        block's neighbors pair the near positions of its two, so blocks
        that meet without being neighbors have positions that meet
        without being near on some axis.  In block order the first such
        pair is the least failing pair of positions of one axis, each
        with the first position of the other, which meets no lesser
        one.  Positions two or more apart are disjoint (stride 2 and
        width 3 on both axes, as tangential_cycle_ok argues for the
        circle), so each pair at most two apart in ids order, wrapped
        round as on the circle, is tested once; a pair wrapped round a
        segment does not meet."""
        bad = {}
        for ax in self.axes:
            if ax in bad:
                continue  # the metric tower's two axes are one object
            ids = ax.ids(k)
            n = len(ids)
            near = [ax.near(k, i) for i in ids]
            bad[ax] = []
            for t, i in enumerate(ids):
                for u in ((t + 1) % n, (t + 2) % n):
                    j = ids[u]
                    # meeting is symmetric, near lists need not be
                    if ((j not in near[t] or i not in near[u])
                            and _spans_meet(ax, k, i, k, j)):
                        bad[ax] += [(a, b) for a, b, c in
                                    ((i, j, t), (j, i, u)) if b not in near[c]]
        x, y = self.axes
        x0, y0 = x.ids(k)[0], y.ids(k)[0]
        return min([((i, y0), (j, y0)) for i, j in bad[x]]
                   + [((x0, i), (x0, j)) for i, j in bad[y]], default=None)


class _MetricGen(_SquareGen):
    """The punctured square with the euclidean uniformity: overlapping
    cartesian boxes halving per level, a linear axis on [-1, 1] for
    each coordinate."""

    kind = "metric_disk"
    block_prefix = "b"

    def __init__(self):
        super().__init__()
        side = _LinearAxis(-1, 1)
        self.axes = (side, side)

    def block_name(self, k, b):
        return "b%d,%d" % b

    def block_from(self, body):
        i, _, j = body.partition(",")
        return (int(i), int(j))

    def block_box(self, k, b):
        x, y = self.axes
        return x.interval(k, b[0]) + y.interval(k, b[1])

    def origin_ids(self):
        return ((-1, -1), (-1, 0), (0, -1), (0, 0))

    def is_origin(self, b):
        return b[0] in (-1, 0) and b[1] in (-1, 0)

    def puncture_first(self, k):
        yield from self.origin_ids()
        for b in self.block_ids(k):
            if not self.is_origin(b):
                yield b

    def absorbs(self, cov_level, member, n, rep):
        """The puncture class (rep an origin block) needs a punctured
        neighborhood of the origin: the box [-1, 1]^2 in level
        cov_level + 1 units, where member block ends are even, so it is
        covered iff each open quadrant at 0 lies in one block."""
        if not self.is_origin(rep):
            return super().absorbs(cov_level, member, n, rep)
        return self._covers_box(cov_level, member, cov_level + 1,
                                [(-1, 1), (-1, 1)])

    def sector_members(self, k):
        """Quarter q collects the blocks whose directions stay in the arc
        [2q, 2q+4] of the boundary circle, that is in the closed
        half-plane x+y >= 0, y >= x, x+y <= 0 or x >= y.  A box lies in
        a half-plane exactly when its corner extreme against the
        boundary line does.  An origin block has every direction and
        joins no quarter."""
        members = [[], [], [], []]
        for b in self.block_ids(k):
            if self.is_origin(b):
                continue
            x0, x1, y0, y1 = self.block_box(k, b)
            for mem, inside in zip(members, (x0 + y0 >= 0, y0 >= x1,
                                             x1 + y1 <= 0, x0 >= y1)):
                if inside:
                    mem.append(b)
        return members

    def puncture_space(self, n):
        base = FiniteSet(("p0",))
        return FiniteTopology.indiscrete(base), ("p0",)

    def classes(self, n):
        origin = self.origin_ids()
        yield "puncture", origin[0], origin
        for b in self.block_ids(n):
            if not self.is_origin(b):
                yield "interior", b, (b,)


class _SectorialGen(_SquareGen):
    """The same punctured square, finer uniformity: polar blocks, a
    radial position times an angular window on the boundary circle.  The
    radius is the metric tower's linear axis on [0, 1]; the angle is a
    cyclic axis."""

    kind = "sectorial_disk"
    block_prefix = "r"

    def __init__(self):
        super().__init__()
        self.axes = (_LinearAxis(0, 1), _CyclicAxis())

    def block_name(self, k, b):
        return "r%da%d" % b

    def block_from(self, body):
        i, _, a = body.partition("a")
        return (int(i), int(a))

    def is_tip(self, b):
        return b[0] == 0

    def absorbs(self, cov_level, member, n, rep):
        """A tangential class (rep a tip block) needs a thin sector over
        its window: the box over radius 0, which only tips hold."""
        if not self.is_tip(rep):
            return super().absorbs(cov_level, member, n, rep)
        lvl = max(cov_level, n)
        return self._covers_box(cov_level, member, lvl, [
            (0, 0), self.axes[1].spans(n, rep[1], lvl, 0)[0]])

    def sector_members(self, k):
        """Quarter q collects the blocks whose window, with the circle
        cut open at the quarter turn q, ends within half a turn."""
        angle = self.axes[1]
        members = []
        for q in range(4):
            inside = {a for a in angle.ids(k)
                      if angle.spans(k, a, k, q << (k - 1))[0][1] <= 1 << k}
            members.append([b for b in self.block_ids(k) if b[1] in inside])
        return members

    def tangential_cycle_ok(self, n):
        """The 2^n angular windows form a cycle: each meets exactly its
        two neighbors.  Window a is [2a, 2a+3] mod 2^(n+1), the same arc
        turned by 2a, so whether windows a and b meet depends only on
        b - a mod 2^n, and symmetrically in its sign.  Offset 1 leaves
        an overlap of one unit; at offsets 2 to 2^n - 2 both gaps
        between the two windows are at least one unit.  So windows a and
        b meet iff b - a = 0, 1 or -1 mod 2^n, and with at least 3
        windows it is enough to check, per position, that window a
        meets window a+1 and not window a+2."""
        angle = self.axes[1]
        count = len(angle.ids(n))
        return count >= 3 and all(
            _spans_meet(angle, n, a, n, (a + 1) % count)
            and not _spans_meet(angle, n, a, n, (a + 2) % count)
            for a in range(count))

    def puncture_space(self, n):
        """The circle of angular classes with a junction point between
        each adjacent pair, every junction specializing to its two
        neighbors."""
        mcount = len(self.axes[1].ids(n))
        labels = tuple("c%d" % a for a in range(mcount)) + tuple(
            "j%d" % a for a in range(mcount))
        base = FiniteSet(labels)
        mins = [1 << a for a in range(mcount)]
        for a in range(mcount):
            mins.append(1 << (mcount + a) | 1 << a | 1 << ((a + 1) % mcount))
        return FiniteTopology.from_preorder(Relation(base, mins)), labels

    def classes(self, n):
        for a in self.axes[1].ids(n):
            yield "tangential", (0, a), ((0, a),)
        for b in self.block_ids(n):
            if not self.is_tip(b):
                yield "interior", b, (b,)


class _ResidueGen(_Generator):
    """Residue disks of the integers under a prime p; their levels are
    honest partitions with singleton stars."""

    block_prefix = "d"

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, p)):
            raise ValueError("p must be prime")
        self.p = p
        self.params = {"p": p}

    def covers_space(self, k):
        return True  # each level partitions the disk


class _PadicGen(_ResidueGen):
    """Residue disk tree: level k partitions the integer disk into the
    p^k residue disks of radius p^-k, one per length-k digit string."""

    kind = "padic_disk"
    thread_notes = ("stable-radius chains and limit points of disk "
                    "sequences with empty intersection have no finite "
                    "block chain at this depth and are not enumerated",)

    def __init__(self, p):
        super().__init__(p)
        if p > 10:
            raise ValueError("padic_disk needs p < 10: its blocks are "
                             "strings of decimal digits")

    def block_ids(self, k):
        digits = [str(d) for d in range(self.p)]
        for tup in product(digits, repeat=k):
            yield "".join(tup)

    def block_count(self, k):
        return self.p ** k

    def has_block(self, k, b):
        return (isinstance(b, str) and len(b) == k
                and all(c.isdigit() and int(c) < self.p for c in b))

    def block_name(self, k, b):
        return "d" + b

    def block_from(self, body):
        return body

    def parent(self, k, b):
        return b[:-1]

    def first_unfit(self, n, m):
        """A disk of radius p^-n lies in one of radius p^-m iff n >= m;
        otherwise every disk fails, the first one first."""
        return None if n >= m else next(self.block_ids(n))

    def blocks_meet(self, k1, b1, k2, b2):
        return b1.startswith(b2) or b2.startswith(b1)

    def covers_block(self, cov_level, mset, k, b):
        """Residue-disk coverage, recursing into child disks down to the
        member radius p^-cov_level."""
        cap = max(cov_level, len(b))

        def covered(s):
            if any(s.startswith(m) for m in mset):
                return True
            if len(s) >= cap:
                return False
            return all(covered(s + str(d)) for d in range(self.p))

        return covered(b)

    def classes(self, n):
        for b in self.block_ids(n):
            yield "end", b, (b,)


class _FormalGen(_ResidueGen):
    """One-level residue covering repeated at every depth: blocks never
    shrink, so every thread keeps a stable radius."""

    kind = "formal"

    def block_ids(self, k):
        return iter(range(self.p))

    def block_count(self, k):
        return self.p

    def has_block(self, k, b):
        return isinstance(b, int) and 0 <= b < self.p

    def block_name(self, k, b):
        return "d%d" % b

    def block_from(self, body):
        return int(body)

    def blocks_meet(self, k1, b1, k2, b2):
        return b1 == b2

    def covers_block(self, cov_level, mset, k, b):
        return b in mset

    def classes(self, n):
        for b in range(self.p):
            yield "branch", b, (b,)


class _FiniteGen(_Generator):
    """Tower induced by a finite entourage model: one block per
    distinct minimal ball, identical at every level."""

    kind = "finite"
    block_prefix = "e"

    def __init__(self, uniformity):
        super().__init__()
        self.u = uniformity
        self.symmetric = uniformity.symmetric_flag
        rows = uniformity.e_min.rows
        seen = {}
        for x, row in enumerate(rows):
            seen.setdefault(row, x)
        self.reps = sorted(seen.values())
        self.masks = {x: rows[x] for x in self.reps}
        self.model = (uniformity.base, self.masks)

    def block_ids(self, k):
        return iter(self.reps)

    def block_count(self, k):
        return len(self.reps)

    def has_block(self, k, b):
        return b in self.masks

    def block_name(self, k, b):
        return "e%s" % self.u.base.labels[b]

    def block_from(self, body):
        return self.u.base.index(body)

    def neighbors(self, k, b):
        m = self.masks[b]
        return iter(x for x in self.reps if x != b and self.masks[x] & m)

    def first_failed_star(self, k):
        """Levels repeat, so the certificate is honest only when the star
        of each ball stays inside some ball; depth-1 embeddings never
        reach this check."""
        masks = [self.masks[x] for x in self.reps]
        for b, m in zip(self.reps, masks):
            star = 0
            for x in masks:
                if x & m:
                    star |= x
            if not any(star & ~x == 0 for x in masks):
                return b
        return None

    def blocks_meet(self, k1, b1, k2, b2):
        return self.masks[b1] & self.masks[b2] != 0

    def covers_block(self, cov_level, mset, k, b):
        acc = 0
        for x in mset:
            acc |= self.masks[x]
        return self.masks[b] & ~acc == 0

    def classes(self, n):
        for b in self.reps:
            yield "interior", b, (b,)

    def covers_space(self, k):
        acc = 0
        for m in self.masks.values():
            acc |= m
        return acc == (1 << len(self.u.base)) - 1


class CoveringTower:
    """Immutable tower of coverings C_1..C_N produced by make_tower."""

    __slots__ = ("gen", "depth")

    def __init__(self, gen, depth):
        if depth < 1:
            raise ValueError("depth must be at least 1")
        self.gen = gen
        self.depth = depth

    def levels(self):
        return range(1, self.depth + 1)

    def block_count(self, k):
        self._check_level(k)
        return self.gen.block_count(k)

    def block_ids(self, k):
        self._check_level(k)
        return self.gen.block_ids(k)

    def ancestor(self, k, b, target):
        while k > target:
            b = self.gen.parent(k, b)
            k -= 1
        return b

    def _check_level(self, k):
        if not 1 <= k <= self.depth:
            raise ValueError("no such level %r" % (k,))

    def _check_block(self, k, b):
        self._check_level(k)
        if not self.gen.has_block(k, b):
            raise ValueError("no block %r at level %d" % (b, k))


def make_tower(generator, depth, p=None, uniformity=None):
    """Build a tower.  generator is one of metric_disk, sectorial_disk,
    padic_disk, formal, finite; the residue generators take a prime p
    and the finite generator an entourage model."""
    if generator == "metric_disk":
        gen = _MetricGen()
    elif generator == "sectorial_disk":
        gen = _SectorialGen()
    elif generator == "padic_disk":
        if p is None:
            raise ValueError("padic_disk needs p")
        gen = _PadicGen(p)
    elif generator == "formal":
        if p is None:
            raise ValueError("formal needs p")
        gen = _FormalGen(p)
    elif generator == "finite":
        if uniformity is None:
            raise ValueError("finite needs a uniformity")
        gen = _FiniteGen(uniformity)
    else:
        raise ValueError("unknown generator %r" % (generator,))
    return CoveringTower(gen, depth)


# structural verification


class TowerReport(namedtuple("TowerReport", [
        "tower", "refinement_ok", "star_ok", "covering_ok", "sample_ok",
        "witness", "checked_levels"])):
    __slots__ = ()

    @property
    def ok(self):
        return (self.refinement_ok and self.star_ok and self.covering_ok
                and self.sample_ok)

    def lines(self):
        t, gen = self.tower, self.tower.gen
        out = ["generator=%s" % gen.kind]
        for key in sorted(gen.params):
            out.append("%s=%s" % (key, gen.params[key]))
        out.append("depth=%d" % t.depth)
        out.append("symmetric=%s" % ("true" if gen.symmetric else "false"))
        out.append("star_lag=%d" % gen.star_lag)
        for k in t.levels():
            out.append("blocks[%d]=%d" % (k, t.block_count(k)))
        for name in ("refinement", "star", "covering", "sample"):
            ok = getattr(self, name + "_ok")
            out.append("%s=%s" % (name, "ok" if ok else "FAIL"))
        if self.witness is not None:
            out.append("witness=%s" % self.witness)
        return out


def verify_tower(tower):
    """Check parent containment and star certificates on every block of
    every level, covering of the space, and that blocks of one level
    that meet are neighbors (reported as sample).  The generator answers
    with the first failing block, or block pair, of a level; the square
    generators test each axis position once instead of each block.  The
    witness names the first failure in block order."""
    gen = tower.gen
    witness = None

    refinement_ok = True
    for k in range(2, tower.depth + 1):
        # a block lies in its parent iff it fits a single block one level
        # up: on the square axes the only candidate there is the parent
        b = gen.first_unfit(k, k - 1)
        if b is not None:
            refinement_ok = False
            witness = "parent@%d:%s" % (k, gen.block_name(k, b))
            break

    star_ok = True
    checked = []
    for k in range(gen.star_lag + 1, tower.depth + 1):
        checked.append(k)
        b = gen.first_failed_star(k)
        if b is not None:
            star_ok = False
            witness = witness or "star@%d:%s" % (k, gen.block_name(k, b))
            break

    covering_ok = all(gen.covers_space(k) for k in tower.levels())
    if not covering_ok and witness is None:
        witness = "level fails to cover the space"

    sample_ok = True
    for k in tower.levels():
        pair = gen.first_unadjacent(k)
        if pair is not None:
            sample_ok = False
            witness = witness or "adjacency@%d:%s/%s" % (
                k, gen.block_name(k, pair[0]), gen.block_name(k, pair[1]))
            break

    return TowerReport(tower, refinement_ok, star_ok, covering_ok,
                       sample_ok, witness, checked)


# threads


class ThreadReport:
    __slots__ = ("tower", "notes")

    def __init__(self, tower):
        self.tower = tower
        self.notes = tuple(tower.gen.thread_notes)

    def iter_classes(self):
        return self.tower.gen.classes(self.tower.depth)

    def count_by_tag(self):
        out = {}
        for tag, _, _ in self.iter_classes():
            out[tag] = out.get(tag, 0) + 1
        return out

    def tangential_cycle_ok(self):
        """The classes over the puncture form one cycle under block
        adjacency: each meets exactly its two angular neighbors."""
        return self.tower.gen.tangential_cycle_ok(self.tower.depth)

    def class_line(self, c):
        tag, rep, blocks = c
        gen = self.tower.gen
        path = gen.path(self.tower.depth, rep)
        names = "/".join(gen.block_name(k, b)
                         for k, b in enumerate(path, start=1))
        extra = "" if len(blocks) == 1 else " blocks=%d" % len(blocks)
        return "%s %s%s" % (tag, names, extra)

    def lines(self):
        body = sorted(self.class_line(c) for c in self.iter_classes())
        for note in self.notes:
            body.append("note: %s" % note)
        return body


def enumerate_threads(tower):
    return ThreadReport(tower)


# named coverings


def level_covering(tower, k):
    tower._check_level(k)
    return Covering("level:%d" % k, k, [(b,) for b in tower.block_ids(k)])


def sector_covering(tower, k=None):
    """Four overlapping quarter unions, one per quarter turn of the
    boundary circle: each member collects the level-k blocks whose
    directions stay within a half-circle window starting at that
    quarter."""
    if not isinstance(tower.gen, _SquareGen):
        raise ValueError("sector covering needs a square generator")
    if k is None:
        k = min(tower.depth, 3)
    tower._check_level(k)
    if k < 2:
        raise ValueError("sector covering needs level 2 or deeper")
    return Covering("sectors@%d" % k, k, tower.gen.sector_members(k))


def residue_covering(tower):
    if not isinstance(tower.gen, _ResidueGen):
        raise ValueError("residue covering needs a residue generator")
    return Covering("residues", 1, [(b,) for b in tower.block_ids(1)])


def named_covering(tower, name):
    if name.startswith("level:"):
        return level_covering(tower, int(name.split(":", 1)[1]))
    if name == "sectors":
        return sector_covering(tower)
    if name.startswith("sectors:"):
        return sector_covering(tower, int(name.split(":", 1)[1]))
    if name == "residues":
        return residue_covering(tower)
    raise ValueError("unknown covering %r" % (name,))


def _members(tower, cov):
    """The covering's member sets and their union, once each member is
    checked to be a union of blocks of its level."""
    tower._check_level(cov.level)
    for mem in cov.members:
        for b in mem:
            if not tower.gen.has_block(cov.level, b):
                raise ValueError(
                    "covering member is not a block union: %r" % (b,))
    msets = [frozenset(m) for m in cov.members]
    return msets, frozenset().union(*msets)


def _in_some_member(tower, cov, members, k, b, test):
    """test(cov.level, member, k, b) holds for some member, or b's
    enclosing block is a member block, which settles the test (an
    origin block holds the origin, a tip window the class window)."""
    msets, present = members
    if cov.level <= k and tower.ancestor(k, b, cov.level) in present:
        return True
    return any(test(cov.level, ms, k, b) for ms in msets)


# uniform coverings


class UniformCoverReport(namedtuple("UniformCoverReport", [
        "ok", "witness", "covering"])):
    __slots__ = ()

    def lines(self):
        out = ["covering=%s" % self.covering.name,
               "uniform=%s" % ("true" if self.ok else "false")]
        if self.witness is not None:
            out.append("witness=%s" % self.witness)
        return out


def is_uniform_covering(tower, cov):
    """True when every thread class, limit classes included, lies in
    the extension of a single member, as the generator's absorbs decides:
    an interior class needs its block inside the member's union; a class
    over the puncture needs a member absorbing a punctured neighborhood
    (metric) or a thin sector over its angular window (sectorial); a
    residue class needs its disk covered.  classes yields the limit
    classes first, so the failure witness is a limit class whenever one
    fails."""
    members = _members(tower, cov)
    gen = tower.gen
    n = tower.depth
    for tag, rep, _ in gen.classes(n):
        if not _in_some_member(tower, cov, members, n, rep, gen.absorbs):
            witness = "%s %s" % (tag, gen.block_name(n, rep))
            return UniformCoverReport(False, witness, cov)
    return UniformCoverReport(True, None, cov)


# Tukey refinement


class TukeyReport(namedtuple("TukeyReport", [
        "ok", "level", "witness", "covering", "subcover_size"])):
    __slots__ = ()

    def lines(self):
        out = ["covering=%s" % self.covering.name,
               "tukey=%s" % ("true" if self.ok else "false")]
        if self.level is not None:
            out.append("refining_level=%d" % self.level)
        if self.witness is not None:
            out.append("witness=%s" % self.witness)
        out.append("finite_subcover_size=%d" % self.subcover_size)
        return out


def is_tukey_at_depth(tower, cov):
    """Some level of the tower refines the covering: every block of the
    level fits inside a single member.  A finite subcover always exists
    because members are finitely many; its size is reported."""
    members = _members(tower, cov)
    gen = tower.gen
    best = None
    witness = None
    for k in tower.levels():
        level_witness = None
        for b in gen.puncture_first(k):
            if not _in_some_member(tower, cov, members, k, b,
                                   gen.covers_block):
                level_witness = "%d:%s" % (k, gen.block_name(k, b))
                break
        if level_witness is None:
            best = k
            break
        witness = level_witness
    return TukeyReport(best is not None, best,
                       None if best is not None else witness,
                       cov, len(cov.members))


# uniform continuity


class ContinuityReport(namedtuple("ContinuityReport", [
        "kind", "rows", "src", "dst"])):
    __slots__ = ()

    @property
    def ok(self):
        return all(n is not None for _, n, _ in self.rows)

    def lines(self):
        out = ["map=%s" % self.kind,
               "uniformly_continuous=%s" % ("true" if self.ok else "false")]
        for m, n, w in self.rows:
            if n is not None:
                out.append("target=%d source=%d" % (m, n))
            else:
                out.append("target=%d FAIL witness=%s" % (m, w))
        return out


def check_uniform_continuity(kind, src, dst):
    """Depth table for a structure map: for each target level m, the
    least source level n whose every block maps inside a single target
    block, or FAIL with a witness block.  Least levels are monotone in
    m because target blocks sit inside their parents, so each search
    resumes where the previous row stopped."""
    gen = src.gen
    if kind == "identity":
        if (gen.kind != dst.gen.kind or gen.params != dst.gen.params
                or gen.model != dst.gen.model):
            raise ValueError("incompatible generators for the identity")
        unmapped = gen.first_unfit
    elif kind == "polar_to_cartesian":
        if gen.kind != "sectorial_disk" or dst.gen.kind != "metric_disk":
            raise ValueError("polar_to_cartesian maps the sectorial tower "
                             "to the metric tower")
        unmapped = _PolarToCartesian(gen).first_unmapped
    elif kind == "cartesian_to_polar":
        if gen.kind != "metric_disk" or dst.gen.kind != "sectorial_disk":
            raise ValueError("cartesian_to_polar maps the metric tower "
                             "to the sectorial tower")

        def unmapped(n, m):
            # the closure of an origin block holds the origin, so the
            # block carries every direction, while an angular window
            # spans 3 of 2^(m+1) units; no polar block holds its image
            return gen.origin_ids()[0]
    else:
        raise ValueError("unknown map %r" % (kind,))
    rows = []
    floor_n = 1
    for m in range(1, dst.depth + 1):
        found = None
        last_witness = None
        for n in range(floor_n, src.depth + 1):
            w = unmapped(n, m)
            if w is None:
                found = n
                break
            last_witness = "%d:%s" % (n, gen.block_name(n, w))
        if found is not None:
            floor_n = found
            rows.append((m, found, None))
        else:
            rows.append((m, None, last_witness))
    return ContinuityReport(kind, rows, src, dst)


class _PolarToCartesian:
    """Images of sectorial blocks in the metric chart, tabulated per
    axis.  With u = 2^(n+1), the radial ends of a level-n polar block and
    the boundary points over its window are integers in units of 1/u, so
    the bounding box of its image has integer ends in units of 1/u^2,
    metric level 2n+1.  Radii are non-negative, so for the radial ends
    lo, hi of position i and the extremes gx0, gx1 of the boundary x
    coordinate over window a, the box of block (i, a) spans
    [min(lo gx0, hi gx0), max(lo gx1, hi gx1)] in x, and likewise in y.
    Each source level has one radial table and one angular table, whose
    entries are filled on first use: scans of failing levels stop after
    a few blocks."""

    def __init__(self, src):
        self.src = src
        self._levels = {}

    def _tables(self, n):
        if n not in self._levels:
            radius, angle = self.src.axes
            self._levels[n] = ([radius.interval(n, i) for i in radius.ids(n)],
                               [None] * len(angle.ids(n)))
        return self._levels[n]

    def _extremes(self, n, a, angular):
        """Fill the angular entry of window a: the least and greatest x
        and y of the boundary points over it, in units of 1/u."""
        u = 1 << (n + 1)
        ws, wl = self.src.axes[1].window(n, a)
        t0, t1 = FULL_CIRCLE * ws, FULL_CIRCLE * (ws + wl)
        # gamma is linear between the corners, at multiples of 2u
        ts = [t0, t1, *range(-(-t0 // (2 * u)) * 2 * u, t1, 2 * u)]
        gx, gy = zip(*(_gamma(t, u) for t in ts))
        angular[a] = (min(gx), max(gx), min(gy), max(gy))
        return angular[a]

    def first_unmapped(self, n, m, blocks=None):
        """The first level-n block of blocks (default: every block, outer
        radii first) whose image lies in no single level-m metric block,
        or None.  Level-m position j spans [2j, 2j+3] (_LinearAxis.interval,
        whose clip to the square never binds here: images stay inside
        it), so starts grow by 2 and ends with them, and only the last
        position starting at or below the low end x0 of an image interval
        can hold it: the one starting at x0 - x0 % 2."""
        radial, angular = self._tables(n)
        if blocks is None:
            # outer blocks have the widest images; scanning them first
            # detects a failing level quickly
            blocks = ((i, a) for i in reversed(range(len(radial)))
                      for a in range(len(angular)))
        # both sides in units of the finer of levels 2n+1 and m
        f = 1 << max(m - 2 * n - 1, 0)
        g = 1 << max(2 * n + 1 - m, 0)
        step, width = 2 * g, 3 * g
        if f > 1:
            radial = [(lo * f, hi * f) for lo, hi in radial]
        for i, a in blocks:
            lo, hi = radial[i]
            gx0, gx1, gy0, gy1 = angular[a] or self._extremes(n, a, angular)
            x0 = lo * gx0 if gx0 >= 0 else hi * gx0
            x1 = hi * gx1 if gx1 >= 0 else lo * gx1
            y0 = lo * gy0 if gy0 >= 0 else hi * gy0
            y1 = hi * gy1 if gy1 >= 0 else lo * gy1
            if (x1 > x0 - x0 % step + width
                    or y1 > y0 - y0 % step + width):
                return (i, a)
        return None


# bornology


class BornologyReport(namedtuple("BornologyReport", [
        "precompact", "bounded", "level_counts", "z", "n", "level"])):
    __slots__ = ()

    def lines(self):
        out = ["precompact=%s" % ("true" if self.precompact else "false"),
               "bounded=%s" % ("true" if self.bounded else "false")]
        for k, c in self.level_counts:
            out.append("meets[%d]=%d" % (k, c))
        out.append("Z=%s" % ",".join(self.z))
        out.append("iterations=%d" % self.n)
        return out


def bornology_at_depth(tower, level, blocks):
    """Finite-subcover counts per level for a block-union subset, and a
    boundedness witness: one seed block per adjacency component of the
    subset, with the number of star iterations needed to reach all of
    it from the seeds."""
    blocks = list(blocks)
    for b in blocks:
        tower._check_block(level, b)
    gen = tower.gen
    counts = []
    for k in tower.levels():
        c = sum(1 for b in tower.block_ids(k)
                if any(gen.blocks_meet(k, b, level, t) for t in blocks))
        counts.append((k, c))
    bset = set(blocks)
    seen = set()
    seeds = []
    for b in sorted(bset, key=str):
        if b in seen:
            continue
        seeds.append(b)
        stack = [b]
        seen.add(b)
        while stack:
            cur = stack.pop()
            for nb in gen.neighbors(level, cur):
                if nb in bset and nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
    frontier = set(seeds)
    reached = set(seeds)
    n = 1
    while not bset <= reached:
        nxt = set()
        for b in frontier:
            for nb in gen.neighbors(level, b):
                if nb not in reached:
                    nxt.add(nb)
                    reached.add(nb)
        if not nxt:
            break
        frontier = nxt
        n += 1
    bounded = bset <= reached
    return BornologyReport(True, bounded, counts,
                           [gen.block_name(level, b) for b in seeds],
                           n, level)


# the puncture quotient as a finite space


def puncture_quotient(tower):
    """The classes over the puncture as a finite topological space: one
    point for the metric tower; for the sectorial tower the circle of
    angular classes with a junction point between each adjacent pair,
    every junction specializing to its two neighbors."""
    if not isinstance(tower.gen, _SquareGen):
        raise ValueError("puncture quotient needs a square generator")
    return tower.gen.puncture_space(tower.depth)


def puncture_cohomology(tower):
    """Constant-sheaf Betti numbers of the puncture quotient, computed
    by the sheaf route and by the order-complex route."""
    from .gtop import constant_sheaf, sheaf_cohomology, simplicial_cohomology
    top, _ = puncture_quotient(tower)
    return sheaf_cohomology(constant_sheaf(top)), simplicial_cohomology(top)
