"""Exact univariate polynomials and rational functions over Q.

Thin immutable wrappers around tuples of Fractions.  Beyond ring
arithmetic, only what valuation bookkeeping needs: Taylor shifts, the
one route to local data at a rational point (orders of vanishing, pole
multiplicities), degree at infinity, substitution of the inverted
variable, and exact partial fractions with a verified reconstruction.
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


class Polynomial:
    """Coefficients ascending; no trailing zeros; () is the zero
    polynomial, whose degree is reported as -1."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((Fraction(c),))

    @classmethod
    def variable(cls):
        return cls((ZERO, ONE))

    @classmethod
    def monomial(cls, k):
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        return cls((ZERO,) * k + (ONE,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial([c * other for c in self.coeffs])
        other = _as_poly(other)
        if not self.coeffs or not other.coeffs:
            return Polynomial()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Polynomial(), self
        quot = [ZERO] * (dq + 1)
        inv = 1 / other.lc()
        for i in range(dq, -1, -1):
            c = rem[i + other.degree] * inv
            quot[i] = c
            if c:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Polynomial(quot), Polynomial(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def gcd(self, other):
        a, b = self, _as_poly(other)
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def monic(self):
        if self.is_zero():
            raise ValueError("zero polynomial cannot be made monic")
        inv = 1 / self.lc()
        return Polynomial([c * inv for c in self.coeffs])

    def deriv(self):
        return Polynomial([i * c for i, c in enumerate(self.coeffs) if i])

    def eval(self, x):
        x = Fraction(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, x):
        """Coefficients of p(u + x), by repeated synthetic division."""
        if not x:
            return self
        x = Fraction(x)
        work = list(self.coeffs)
        out = []
        for _ in range(len(work)):
            # one division by (z - x): remainder is the next coefficient
            carry = ZERO
            for i in range(len(work) - 1, -1, -1):
                work[i], carry = carry, work[i] + carry * x
            out.append(carry)
            work.pop()
        return Polynomial(out)

    def valuation_at(self, x):
        """Order of vanishing at x, the index of the first nonzero Taylor
        coefficient there; None for the zero polynomial."""
        if self.is_zero():
            return None
        return next(m for m, c in enumerate(self.shift(x).coeffs) if c)

    def reversed_coeffs(self, upto):
        """Coefficients of z^upto * p(1/z); upto must cover the degree."""
        if upto < self.degree:
            raise ValueError("reversal window smaller than the degree")
        out = [ZERO] * (upto + 1)
        for i, c in enumerate(self.coeffs):
            out[upto - i] = c
        return Polynomial(out)

    def __repr__(self):
        return "Polynomial(%r)" % (self.coeffs,)


def _as_poly(v):
    if isinstance(v, Polynomial):
        return v
    if isinstance(v, (int, Fraction)):
        return Polynomial.const(v)
    raise TypeError("cannot coerce %r to a polynomial" % (v,))


def rational_roots(p):
    """All rational roots with multiplicities, and the degree they leave
    unexplained.  With p cleared to integers, the root 0 has the index
    of the lowest nonzero coefficient as multiplicity, and every other
    root is some +-r/q, r dividing that coefficient and q the leading
    one (the rational root theorem); the unexplained degree is 0 exactly
    when p splits into linear factors over Q."""
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    den = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * den) for c in p.coeffs]
    v0 = p.valuation_at(0)
    roots = {ZERO: v0} if v0 else {}
    if p.degree > v0:  # else p / z^v0 is a constant
        for q in _divisors(ints[-1]):
            for r in _divisors(ints[v0]):
                for cand in (Fraction(r, q), Fraction(-r, q)):
                    if cand not in roots and not p.eval(cand):
                        roots[cand] = p.valuation_at(cand)
    return roots, p.degree - sum(roots.values())


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


class RatFunc:
    """num/den with monic denominator and gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num = Polynomial()
            self.den = Polynomial.const(1)
            return
        # a constant denominator has a constant gcd with anything
        if den.degree > 0:
            g = num.gcd(den)
            if g.degree > 0:
                num = num // g
                den = den // g
        lead = den.lc()
        self.num = num * (1 / lead)
        self.den = den * (1 / lead)

    @classmethod
    def const(cls, c):
        return cls(Polynomial.const(c))

    @classmethod
    def variable(cls):
        return cls(Polynomial.variable())

    def is_zero(self):
        return self.num.is_zero()

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_rat(other)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-_as_rat(other))

    def __rsub__(self, other):
        return _as_rat(other) + (-self)

    def __mul__(self, other):
        other = _as_rat(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_rat(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_rat(other) / self

    def __pow__(self, k):
        if k < 0:
            return RatFunc(self.den, self.num) ** (-k)
        return RatFunc(self.num ** k, self.den ** k)

    def deriv(self):
        return RatFunc(self.num.deriv() * self.den
                       - self.num * self.den.deriv(),
                       self.den * self.den)

    def euler(self):
        """z times the derivative."""
        return RatFunc(Polynomial.variable()) * self.deriv()

    def valuation(self, x):
        """Order at the finite point x; None means plus infinity."""
        if self.is_zero():
            return None
        return self.num.valuation_at(x) - self.den.valuation_at(x)

    def valuation_inf(self):
        if self.is_zero():
            return None
        return self.den.degree - self.num.degree

    def inverted(self):
        """The same function of 1/z, as a function of the new variable."""
        m = max(self.num.degree, self.den.degree)
        return RatFunc(self.num.reversed_coeffs(m),
                       self.den.reversed_coeffs(m))

    def __repr__(self):
        if self.den == Polynomial.const(1):
            return repr(self.num)
        return "(%r)/(%r)" % (self.num, self.den)


def _as_rat(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, (int, Fraction, Polynomial)):
        return RatFunc(v)
    raise TypeError("cannot coerce %r to a rational function" % (v,))


def partial_fractions(f, points):
    """Split f into a polynomial part plus principal parts at the given
    finite points.  Returns (poly_part, {x: {k: coeff}}).  Raises if the
    denominator has a root outside the allowed set; the reconstruction
    is verified exactly before returning."""
    poly_part, rem = divmod(f.num, f.den)
    parts = {}
    den = f.den
    mults = {}
    for x in dict.fromkeys(Fraction(x) for x in points):
        # den = (z - x)^e g with g(x) != 0, so den(u + x) = u^e g(u + x):
        # e leading zeros, then the Taylor coefficients of g at x
        ds = den.shift(x)
        e = ds.valuation_at(0)
        if not e:
            continue
        mults[x] = e
        # h = rem/g mod u^e via series division
        rs = rem.shift(x).coeffs
        gs = ds.coeffs[e:]
        inv0 = 1 / gs[0]
        h = []
        for j in range(e):
            acc = rs[j] if j < len(rs) else ZERO
            for t in range(1, min(j + 1, len(gs))):
                acc -= gs[t] * h[j - t]
            h.append(acc * inv0)
        coeffs = {e - j: c for j, c in enumerate(h) if c}
        if coeffs:
            parts[x] = coeffs
    # the (z - x)^e at distinct x are coprime and each divides den, so
    # their product does, and den / product, of degree deg den - sum e,
    # has a root outside the points exactly when that degree is positive
    if sum(mults.values()) < den.degree:
        raise ValueError("pole outside the allowed set")
    # exact reconstruction check over the common denominator
    recon = poly_part * den
    for x, coeffs in parts.items():
        g = den // (Polynomial((-x, ONE)) ** mults[x])
        for k, c in coeffs.items():
            recon = recon + g * (Polynomial((-x, ONE)) ** (mults[x] - k)) * c
    if recon != f.num:
        raise ArithmeticError("partial fraction reconstruction failed")
    return poly_part, parts
