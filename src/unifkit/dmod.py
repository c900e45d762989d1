"""Newton polygons, irregularity numbers, and the index of a linear
differential operator on the punctured projective line.

An operator is a list of rational function coefficients of powers of
d/dz.  Local analysis at a point goes through the Euler form: powers
of the derivative are rewritten in delta = (z-x) d/dz, whose
coefficient valuations carry the polygon.  The Euler coefficients come
from one numerator per coefficient over the common denominator of the
operator's coefficients (_delta_numerators), and their valuations are
read off those numerators without normalising.  The index formula
n*(2 - #Z) - sum of irregularities is validated against brute-force
linear algebra on windows of the partial fraction basis of the functions
regular away from Z, started past the indicial roots.  The images of
basis elements are columns of lambda*L in closed form, lambda the lcm
of the denominators of the coefficients' partial fractions (split
once); integral punctures are ints, so the columns are integer when the
coefficients are polynomials.  Derivatives and products of basis
elements are again finite sums of basis elements (see _OracleSession).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, lcm, perm

from . import linalg
from .poly import (ONE, ZERO, Polynomial, RatFunc, _divisors,
                   partial_fractions, rational_roots)

INF = "inf"


def as_point(x):
    return INF if x == INF else Fraction(x)


def format_point(x):
    return INF if x == INF else str(x)


def _point_key(x):
    # finite points ascending, infinity last
    return (1, Fraction(0)) if x == INF else (0, x)


def _stirling_first(n):
    """Signed Stirling numbers s[i][j]: falling factorial coefficients,
    x(x-1)...(x-i+1) = sum_j s[i][j] x^j."""
    s = [[0] * (n + 1) for _ in range(n + 1)]
    s[0][0] = 1
    for i in range(n):
        for j in range(i + 1):
            if s[i][j]:
                s[i + 1][j + 1] += s[i][j]
                s[i + 1][j] -= i * s[i][j]
    return s


def _stirling_second(n):
    """S[j][k] with delta^j = sum_k S[j][k] z^k (d/dz)^k."""
    s = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    s[0][0] = ONE
    for j in range(n):
        for k in range(j + 1):
            if s[j][k]:
                s[j + 1][k + 1] += s[j][k]
                s[j + 1][k] += k * s[j][k]
    return s


class DiffOp:
    """Coefficients a_0..a_n of powers of d/dz; a_n must be nonzero and
    the order n at least 1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [c if isinstance(c, RatFunc) else RatFunc(c) for c in coeffs]
        while len(cs) > 1 and cs[-1].is_zero():
            cs.pop()
        if len(cs) < 2:
            raise ValueError("operator order must be at least 1")
        self.coeffs = tuple(cs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def apply(self, f):
        if not isinstance(f, RatFunc):
            f = RatFunc(f)
        out = RatFunc(0)
        der = f
        for i, a in enumerate(self.coeffs):
            if i:
                der = der.deriv()
            if not a.is_zero():
                out = out + a * der
        return out

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.coeffs == other.coeffs

    def __repr__(self):
        return "DiffOp(%s)" % ", ".join(repr(c) for c in self.coeffs)


def _delta_numerators(op, x):
    """Numerators P_0..P_n and common denominator D of the Euler-form
    coefficients in the local coordinate t: t = z - x at a finite x and
    t = z at infinity, before the substitution w = 1/z.  With each
    nonzero coefficient a_i = N_i / D_i and D the product of the D_i,
    b_j = sum_{i>=j} s1[i][j] a_i t^(-i) = P_j / (D t^n) where
    P_j = sum_{i>=j} s1[i][j] N_i prod_{k!=i} D_k t^(n-i).
    Only products and sums of polynomials: nothing is normalised, so
    cancellation between the terms of b_j shows up exactly in P_j."""
    n = op.order
    s1 = _stirling_first(n)
    den = Polynomial.const(1)
    tops = []  # (i, N_i times every D_k with k != i met so far)
    for i, a in enumerate(op.coeffs):
        if a.is_zero():
            continue
        num, d = a.num, a.den
        if x != INF:
            num, d = num.shift(x), d.shift(x)
        if den.degree:
            num = num * den
        if d.degree:
            tops = [(k, t * d) for k, t in tops]
            den = den * d
        tops.append((i, num))
    width = max(n - i + len(t.coeffs) for i, t in tops)
    nums = []
    for j in range(n + 1):
        acc = [ZERO] * width
        for i, t in tops:
            c = s1[i][j] if i >= j else 0
            if c:
                for m, v in enumerate(t.coeffs, n - i):
                    acc[m] += c * v
        nums.append(Polynomial(acc))
    return nums, den


def to_delta_form(op, x):
    """Coefficients b_0..b_n with L = sum b_j delta^j, delta the scaled
    derivative (z-x) d/dz at a finite x.  At infinity the substitution
    w = 1/z is applied and the b_j come back as functions of w, each
    times (-1)^j since w d/dw = -z d/dz, so they are the Euler form in
    w.  Each b_j is one RatFunc built from its numerator over the
    common denominator (_delta_numerators), normalised once."""
    x = as_point(x)
    n = op.order
    nums, den = _delta_numerators(op, x)
    den = den * Polynomial.monomial(n)
    if x == INF:
        return tuple(RatFunc(p, den).inverted() * ((-1) ** j)
                     for j, p in enumerate(nums))
    # back from t = z - x to z
    nums = [p.shift(-x) for p in nums]
    den = den.shift(-x)
    return tuple(RatFunc(p, den) for p in nums)


def delta_valuations(op, x, numerators=None):
    """Local orders of the Euler-form coefficients; None marks a zero
    coefficient.  They are read off the numerators over the common
    denominator (_delta_numerators, or numerators when given) without
    normalising: the order of P_j / (D t^n) is that of P_j minus that of
    D t^n, whatever factors the two share."""
    x = as_point(x)
    n = op.order
    nums, den = numerators or _delta_numerators(op, x)
    if x == INF:
        # order at w = 0 of a function of z is its degree drop
        return tuple(None if p.is_zero() else den.degree + n - p.degree
                     for p in nums)
    vd = den.valuation_at(0) + n
    return tuple(None if p.is_zero() else p.valuation_at(0) - vd for p in nums)


def delta_product(bs, cs):
    """Product of two operators given by Euler-form coefficients at 0,
    using the commutation delta f = f delta + z f'."""
    bs = [b if isinstance(b, RatFunc) else RatFunc(b) for b in bs]
    cs = [c if isinstance(c, RatFunc) else RatFunc(c) for c in cs]
    out = [RatFunc(0)] * (len(bs) + len(cs) - 1)
    for i, b in enumerate(bs):
        if b.is_zero():
            continue
        for j, c in enumerate(cs):
            if c.is_zero():
                continue
            # delta^i (c f) expands by the Leibniz rule for the Euler
            # derivative; dc walks through euler()^t of c
            dc = c
            for t in range(0, i + 1):
                out[i - t + j] = out[i - t + j] + b * comb(i, t) * dc
                dc = dc.euler()
    return tuple(out)


def delta_to_partial(bs):
    """Operator in d/dz form from Euler-form coefficients at 0, by
    delta^j = sum_k S[j][k] t^k (d/dt)^k."""
    bs = [b if isinstance(b, RatFunc) else RatFunc(b) for b in bs]
    n = len(bs) - 1
    s2 = _stirling_second(n)
    tt = RatFunc.variable()
    out = []
    for k in range(n + 1):
        acc = RatFunc(0)
        for j in range(k, n + 1):
            if s2[j][k] and not bs[j].is_zero():
                acc = acc + bs[j] * s2[j][k]
        out.append(acc * tt ** k)
    return DiffOp(out)


class NewtonPolygon:
    """Points (i, -v) for the Euler-form coefficient valuations, their
    upper convex hull, the positive slopes with horizontal lengths, and
    the irregularity.  Zero coefficients contribute no point."""

    __slots__ = ("points", "hull", "slopes", "irregularity")

    def __init__(self, valuations):
        pts = [(i, -v) for i, v in enumerate(valuations) if v is not None]
        if not pts:
            raise ValueError("polygon needs at least one finite valuation")
        self.points = tuple(pts)
        hull = []
        for p in pts:
            while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) >= 0:
                hull.pop()
            hull.append(p)
        self.hull = tuple(hull)
        slopes = []
        rise = 0
        for (i1, y1), (i2, y2) in zip(hull, hull[1:]):
            lam = Fraction(y1 - y2, i2 - i1)
            if lam > 0:
                slopes.append((lam, i2 - i1))
                rise += y1 - y2
        self.slopes = tuple(slopes)
        # irregularity two ways: hull rise over the positive slopes, and
        # the closed form v(b_n) - min v(b_i); they must agree
        vn = -pts[-1][1]
        direct = max(0, max(vn + y for _, y in pts))
        if rise != direct:
            raise RuntimeError("polygon rise %d disagrees with the closed "
                               "form %d" % (rise, direct))
        self.irregularity = rise


def _cross(o, a, b):
    return ((a[0] - o[0]) * (b[1] - o[1])
            - (a[1] - o[1]) * (b[0] - o[0]))


def newton_polygon(op, x):
    return NewtonPolygon(delta_valuations(op, x))


def irregularity(op, x):
    return newton_polygon(op, x).irregularity


def ordinary_at_infinity(op):
    """Whether the pullback under w = 1/z has pole-free monic
    coefficients at w = 0, i.e. infinity is not a singular point.  The
    pullback is the d/dw form of the Euler form at infinity: with the
    numerators P_j over D z^n of _delta_numerators, its coefficient of
    (d/dw)^k is w^k Q_k(1/w) / (D(1/w) w^-n) for
    Q_k = sum_{j>=k} S[j][k] (-1)^j P_j, so its order at w = 0 is
    k - deg Q_k plus a shift common to all k."""
    n = op.order
    nums, _ = _delta_numerators(op, INF)
    s2 = _stirling_second(n)
    orders = []
    for k in range(n + 1):
        q = Polynomial()
        for j in range(k, n + 1):
            if s2[j][k]:
                q = q + nums[j] * (s2[j][k] * (-1) ** j)
        orders.append(None if q.is_zero() else k - q.degree)
    lead = orders[n]
    if lead is None:
        return False
    return all(v is None or v >= lead for v in orders)


class ConnectionSpec:
    """An operator together with the finite set of punctures it lives
    away from.  Every finite pole of a coefficient and every point
    where a monic coefficient has a pole must be listed; infinity must
    be listed too unless the caller certifies the operator regular
    there and the pullback check confirms it."""

    __slots__ = ("operator", "points")

    def __init__(self, operator, points, infinity_regular=False):
        pts = frozenset(as_point(p) for p in points)
        lead = operator.coeffs[-1]
        finite = {p for p in pts if p != INF}
        needed = set()
        for a in operator.coeffs:
            if a.is_zero():
                continue
            for f in (a, a / lead):
                roots, rest = rational_roots(f.den)
                if rest:
                    raise ValueError("operator has non-rational singular points")
                needed.update(roots)
        missing = needed - finite
        if missing:
            raise ValueError("Z omits the singular point %s"
                             % format_point(min(missing)))
        if INF not in pts:
            if not infinity_regular:
                raise ValueError(
                    "infinity must be in Z unless certified regular")
            if not ordinary_at_infinity(operator):
                raise ValueError("operator is not regular at infinity")
        self.operator = operator
        self.points = pts

    @property
    def order(self):
        return self.operator.order

    def finite_points(self):
        return sorted(p for p in self.points if p != INF)

    def has_inf(self):
        return INF in self.points

    def sorted_points(self):
        return sorted(self.points, key=_point_key)


def deligne_chi(spec):
    """n*(2 - #Z) minus the total irregularity over Z."""
    return _chi(spec, {p: irregularity(spec.operator, p)
                       for p in spec.points})


def _chi(spec, irs):
    """deligne_chi from the irregularities at every point of Z."""
    if not irs:
        raise ValueError("Z must contain inf or be nonempty")
    return spec.order * (2 - len(irs)) - sum(irs.values())


# brute-force index on windows of the partial fraction basis


def _shift_bound(spec):
    """How far one application of the operator can move a basis element
    along the coordinate grid, overestimated on purpose."""
    s = 1
    for i, a in enumerate(spec.operator.coeffs):
        if a.is_zero():
            continue
        for x in spec.finite_points():
            s = max(s, abs(i - a.valuation(x)))
        if spec.has_inf():
            s = max(s, abs(a.valuation_inf() + i))
    return s


def _indicial_bound(numerators):
    """d*, the largest positive integer root over Z of the indicial
    polynomials, or 0; numerators[x] is _delta_numerators at x in Z.
    L t^-K = t^-K sum_j P_j (-K)^j / (D t^n) at t = z - x, and
    L z^M = z^M sum_j P_j M^j / (D z^n): the P_j's coefficients at their
    least shared order (greatest degree at infinity) make I_x, so unless
    I_x(-K) = 0 (I_inf(M) = 0) the image has pole order K + e exactly
    (degree M + e); e, the most a term moves an order there, is at most
    s = _shift_bound, and lower orders and regular terms reach less.  So
    every window d >= d* + s reads the (h0, h1) of L on all of V:
    - a kernel element's top order K at any point is a root, else its
      image has order K + e there; so ker L lies in V_d;
    - a coordinate of order N > d is, up to a scalar, the top term of the
      image of the basis element of order N - e > d*, a non-root, whose
      other terms lie lower there and at orders <= s <= d elsewhere; top
      down, V = W_d + L(V), so V / L(V) = W_d / (L(V) & W_d);
    - window_dims' own argument needs no root past d + s."""
    best = 0
    for x, (nums, _) in numerators.items():
        sign, m = ((1, max(p.degree for p in nums)) if x == INF
                   else (-1, min(p.valuation_at(0) for p in nums if p.coeffs)))
        ind = [p.coeffs[m] if m <= p.degree else ZERO for p in nums]
        # an integer root k != 0 divides I's lowest nonzero coefficient
        low = next(c for c in ind if c) * lcm(*(c.denominator for c in ind))
        best = max([best] + [k for k in _divisors(int(low)) if not sum(
            c * (sign * k) ** j for j, c in enumerate(ind))])
    return best


class _OracleSession:
    """Shared image cache for one spec across growing windows.

    Images come in closed form from the partial fractions of the
    coefficients, split once per session by partial_fractions, whose
    reconstruction check covers the split.  The i-th derivative of a
    basis element is a scalar times one basis element,
    (z^m)^(i) = m!/(m-i)! z^(m-i) and
    ((z-x)^-k)^(i) = (-1)^i k(k+1)...(k+i-1) (z-x)^(-k-i),
    and the product of two basis elements has an exact split.  z^j (z-x)^-k
    has the principal part sum_{t<k} C(j,t) x^(j-t) (z-x)^(t-k) (Taylor at
    x) and the polynomial part sum_{s<=j-k} C(k+s-1,s) x^s z^(j-k-s)
    (Laurent at infinity), and for y != x and d = x - y,
    (z-y)^-l (z-x)^-k = sum_{t<k} (-1)^t C(l+t-1,t) d^(-l-t) (z-x)^(t-k)
                      + sum_{t<l} (-1)^t C(k+t-1,t) (-d)^(-k-t) (z-y)^(t-l).
    ConnectionSpec puts every pole of a coefficient in Z, and the split
    is unique, so each image equals partial_fractions of the operator
    applied to the element, times scale, the lcm lambda of the split's
    denominators: the terms are ints, the images those of lambda*L, and
    lambda*L has the kernel and image of L, so each window's (h0, h1)
    is that of L.  Integral points are ints, so polynomial coefficients
    give integer images.  No image is rebuilt and checked on its own;
    the tests cross-check the images against that direct path."""

    def __init__(self, spec):
        self.spec = spec
        self.shift = _shift_bound(spec)
        self._images = {}
        self.points = [_int_point(x) for x in spec.finite_points()]
        terms = []
        for a in spec.operator.coeffs:
            poly_part, parts = partial_fractions(a, spec.finite_points())
            terms.append(
                [(("pw", j), c) for j, c in enumerate(poly_part.coeffs) if c]
                + [(("pole", _int_point(y), l), c) for y, cs in parts.items()
                   for l, c in cs.items()])
        lam = self.scale = lcm(*(t[1].denominator for ts in terms for t in ts))
        self._terms = [[(t, int(c * lam)) for t, c in ts] for ts in terms]

    def basis_keys(self, d):
        top = d if self.spec.has_inf() else 0
        return ([("pw", m) for m in range(top + 1)]
                + [("pole", x, k) for x in self.points
                   for k in range(1, d + 1)])

    def image(self, key):
        if key in self._images:
            return self._images[key]
        vec = {}
        for i, terms in enumerate(self._terms):
            # the i-th derivative of the element is s times der
            if key[0] == "pw":
                if i > key[1]:
                    break
                s, der = perm(key[1], i), ("pw", key[1] - i)
            else:
                s = (-1) ** i * perm(key[2] + i - 1, i)
                der = ("pole", key[1], key[2] + i)
            for term, c in terms:
                for coord, e in _product(term, der):
                    vec[coord] = vec.get(coord, 0) + c * s * e
        vec = {coord: c for coord, c in vec.items() if c}
        if not self.spec.has_inf() and any(
                coord[0] == "pw" and coord[1] for coord in vec):
            # the operator does not act on functions regular at
            # infinity: bad input, not a fault
            raise ValueError("image leaves the function space: a pole at "
                             "infinity, which is not in Z")
        self._images[key] = vec
        return vec

    def window_dims(self, d):
        """Kernel and cokernel sizes against the window of bound d.

        h0 is the kernel of the operator L on the window V_d, exactly.
        h1 is the dimension of W_d / (L(V) & W_d), W_d the window's
        coordinates and V the whole function space.  An element outside
        V_d can map into W_d (d/dz sends z^(d+1) to (d+1) z^d), so the
        images come from the outer window V_(d+s), s = _shift_bound,
        the most that one term a_i (d/dz)^i moves the pole order at a
        point of Z, or the degree at infinity, of a basis element.

        Why s is enough: let v have order K > d + s at some point.  Each
        term moves K by at least -s, and the terms that move it most give
        Lv one coordinate of order above d, whose coefficient is a
        nonzero polynomial in K (their leading coefficients times rising
        or falling factorials of K).  Lower orders of v, elements at
        other points and the coefficients' own poles reach lower orders
        only.  So unless K is a root of that polynomial, Lv leaves W_d,
        and L(V) & W_d = L(V_(d+s)) & W_d, per window; _indicial_bound
        gives the d from which (h0, h1) are those of L on V.

        One elimination reads all three counts.  Each coordinate is a
        sparse row {column: int} over the outer basis, window first; a
        column holding a Fraction is scaled by the lcm of its
        denominators (linalg._cleared), which keeps the pivot columns
        and the rank of every set of rows.  The rows outside W_d enter
        linalg._insert first, leaving rank(out_rows) = n_outer - k_out
        pivots; the window's rows follow.  A column is a pivot exactly
        when it is outside the span of the columns before it, whatever
        the row order, so the final pivots are the whole matrix's:
        n_outer - k_full of them, those below n_inner the window's rank.
        k_out - k_full is the dimension of the outer images inside W_d."""
        inner = self.basis_keys(d)
        inner_set = set(inner)
        outer = inner + [k for k in self.basis_keys(d + self.shift)
                         if k not in inner_set]
        rows = {}
        for j, key in enumerate(outer):
            vec = self.image(key)
            if any(type(x) is not int for x in vec.values()):
                vec = linalg._cleared(vec)
            for c, x in vec.items():
                rows.setdefault(c, {})[j] = x
        pivots = {}
        for c, row in rows.items():
            if c not in inner_set:
                linalg._insert(pivots, row)
        rank_out = len(pivots)
        for c, row in rows.items():
            if c in inner_set:
                linalg._insert(pivots, row)
        n_inner = len(inner)
        h0 = n_inner - sum(1 for c in pivots if c < n_inner)
        h1 = n_inner - (len(pivots) - rank_out)
        return h0, h1


def _product(f, g):
    """The partial fraction split of the product of two basis elements,
    as (coordinate, coefficient) pairs; see _OracleSession."""
    if f[0] == "pw" and g[0] == "pw":
        return ((("pw", f[1] + g[1]), 1),)
    if g[0] == "pw":
        f, g = g, f
    _, x, k = g
    if f[0] == "pw":
        # z^j (z-x)^-k: Taylor terms at x below order k, then the
        # polynomial part from the Laurent expansion at infinity
        j = f[1]
        return ([(("pole", x, k - t), comb(j, t) * x ** (j - t))
                 for t in range(min(k, j + 1))]
                + [(("pw", j - k - s), comb(k + s - 1, s) * x ** s)
                   for s in range(j - k + 1)])
    _, y, l = f
    if y == x:
        return ((("pole", x, k + l), 1),)
    d = x - y  # an int for int points: Fraction, not /, keeps it exact
    return ([(("pole", x, k - t), Fraction((-1) ** t * comb(l + t - 1, t),
                                           d ** (l + t))) for t in range(k)]
            + [(("pole", y, l - t), Fraction((-1) ** t * comb(k + t - 1, t),
                                             (-d) ** (k + t)))
               for t in range(l)])


def _int_point(x):
    # an integral point as an int: cheap to hash, its powers stay ints
    return x.numerator if x.denominator == 1 else x


class IndexReport(namedtuple("IndexReport", [
        "spec", "irregularities", "chi_formula", "h0", "h1"])):
    __slots__ = ()
    stabilized = True  # certified by _indicial_bound, see index_report

    @property
    def chi_oracle(self):
        return self.h0 - self.h1

    @property
    def agree(self):
        return self.chi_formula == self.chi_oracle

    def lines(self):
        out = []
        for p in sorted(self.irregularities, key=_point_key):
            out.append("ir[%s]=%d" % (format_point(p),
                                      self.irregularities[p]))
        out.append("chi_formula=%d" % self.chi_formula)
        out.append("h0=%d" % self.h0)
        out.append("h1=%d" % self.h1)
        out.append("chi_oracle=%d" % self.chi_oracle)
        out.append("stabilized=true")
        out.append("agree=%s" % ("true" if self.agree else "false"))
        return out


D_START = 10  # least degree bound of the first oracle window
D_STEP = 5  # growth of the bound from one window to the next


def index_report(spec, d_max=80):
    """Irregularities, the formula value, and the oracle dimensions on
    three windows D_STEP apart from max(D_START, d* + s), exact by
    _indicial_bound; the extra two re-check that, and a disagreement is
    a fault.  d_max caps the last window.  With infinity regular, dz (a
    double pole there) separates function-space and connection index."""
    op = spec.operator
    numerators = {p: _delta_numerators(op, p) for p in spec.points}
    session = _OracleSession(spec)
    start = max(D_START, _indicial_bound(numerators) + session.shift)
    last = start + 2 * D_STEP
    if d_max < last:
        raise ValueError("degree bound must be at least %d" % last)
    irs = {p: NewtonPolygon(delta_valuations(op, p, nd)).irregularity
           for p, nd in numerators.items()}
    chi = _chi(spec, irs)
    dims = {session.window_dims(d) for d in range(start, last + 1, D_STEP)}
    if len(dims) > 1:
        raise RuntimeError("oracle windows from %d disagree: %r"
                           % (start, sorted(dims)))
    return IndexReport(spec, irs, chi, *dims.pop())


# built-in operator corpus


class CorpusEntry(namedtuple("CorpusEntry", ["name", "spec", "h0", "h1"])):
    __slots__ = ()

    @property
    def chi(self):
        return self.h0 - self.h1


def corpus():
    """Operators spanning regular, single-slope, mixed-slope, and
    rank-2 behavior, with their known cohomology dimensions."""
    z = Polynomial.variable()
    one = Polynomial.const(1)
    entries = []

    def add(name, coeffs, points, h0, h1):
        entries.append(CorpusEntry(
            name, ConnectionSpec(DiffOp(coeffs), points), h0, h1))

    add("gm-trivial", [0, one], [0, INF], 1, 1)
    add("thrice-punctured-trivial", [0, one], [0, 1, INF], 1, 2)
    add("exp-of-inverse", [one, z * z], [0, INF], 0, 1)
    add("euler-integer", [-2, z], [0, INF], 1, 1)
    add("euler-half", [Polynomial.const(Fraction(-1, 2)), z], [0, INF], 0, 0)
    add("mixed-slopes",
        [2 - 4 * z, z ** 4 + z ** 3 + 2 * z ** 2, z ** 5], [0, INF], 0, 3)
    add("airy", [-z, Polynomial(), one], [INF], 0, 1)
    add("hypergeometric-like",
        [Polynomial.const(Fraction(-1, 15)),
         Polynomial((Fraction(1, 2), Fraction(-23, 15))),
         z - z * z], [0, 1, INF], 0, 2)
    return tuple(entries)
