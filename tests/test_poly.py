import math
import random
from fractions import Fraction

import pytest

from unifkit.poly import (ONE, ZERO, Polynomial, RatFunc, _divisors,
                          partial_fractions, rational_roots)

z = Polynomial.variable()


def test_degree_conventions():
    assert Polynomial().degree == -1
    assert Polynomial.const(3).degree == 0
    assert (z ** 4 - z).degree == 4


def test_trailing_zeros_normalized():
    assert Polynomial((1, 2, 0, 0)) == Polynomial((1, 2))


def test_ring_identities():
    p = 2 * z ** 2 - 3 * z + 1
    q = z - 5
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree


def test_gcd_is_monic_common_factor():
    p = (z - 1) * (z + 2)
    q = (z - 1) * z
    assert p.gcd(q) == z - 1


def test_shift_then_eval():
    p = z ** 2 + 1
    s = p.shift(Fraction(3))
    assert s.eval(Fraction(0)) == p.eval(Fraction(3))


def test_valuation_at_root():
    p = z ** 2 * (z - 1)
    assert p.valuation_at(Fraction(0)) == 2
    assert p.valuation_at(Fraction(1)) == 1
    assert p.valuation_at(Fraction(2)) == 0


def _dividing_valuation(p, x):
    """The valuation that divided by (z - x) until a remainder appeared,
    kept as the oracle for the Taylor-shift route."""
    if p.is_zero():
        return None
    x = Fraction(x)
    lin = Polynomial((-x, ONE))
    v = 0
    while True:
        q, r = divmod(p, lin)
        if not r.is_zero():
            return v
        p = q
        v += 1


_ROOT_POOL = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2),
              Fraction(-3, 4), Fraction(5, 3)]


def _seeded_product(rng):
    """A rational scalar times (z - r)^m over a sample of the pool, each
    m at most 4, and the multiplicities."""
    want = {r: rng.randint(1, 4)
            for r in rng.sample(_ROOT_POOL, rng.randint(0, 4))}
    p = Polynomial.const(Fraction(rng.choice([1, -2, 3]), rng.choice([1, 7])))
    for r, m in want.items():
        p = p * Polynomial((-r, ONE)) ** m
    return p, want


def _as_given(x):
    # integral points as ints, the others as Fractions
    return int(x) if x.denominator == 1 else x


def test_valuation_at_matches_the_division_oracle():
    rng = random.Random(30)
    for x in _ROOT_POOL + [Fraction(2)]:
        assert Polynomial().valuation_at(x) is None
        assert Polynomial().valuation_at(_as_given(x)) is None
    for _ in range(150):
        p, want = _seeded_product(rng)
        for x in _ROOT_POOL + [Fraction(2), Fraction(-6, 5)]:
            v = _dividing_valuation(p, x)
            assert v == want.get(x, 0), (p, x)
            assert p.valuation_at(x) == p.valuation_at(_as_given(x)) == v


def test_rational_roots():
    p = (2 * z - 1) ** 2 * (z + 3)
    roots, rest = rational_roots(p)
    assert roots == {Fraction(1, 2): 2, Fraction(-3): 1}
    assert rest == 0


def _peeling_rational_roots(p):
    """The root finder that divided out each root it found, kept as the
    oracle for the divisor test."""
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    roots = {}
    v0 = p.valuation_at(0)
    if v0:
        roots[ZERO] = v0
        p = p // Polynomial.monomial(v0)
    while p.degree > 0:
        # clear to integers for the candidate search
        den_lcm = math.lcm(*(c.denominator for c in p.coeffs))
        ints = [int(c * den_lcm) for c in p.coeffs]
        found = None
        for q in _divisors(ints[-1]):
            for r in _divisors(ints[0]):
                for cand in (Fraction(r, q), Fraction(-r, q)):
                    if p.eval(cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        mult = p.valuation_at(found)
        roots[found] = mult
        p = p // (Polynomial((-found, ONE)) ** mult)
    return roots, p


def test_rational_roots_match_the_peeling_oracle():
    rng = random.Random(11)
    pool = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
            Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(-6)]
    quadratics = [None, z ** 2 + 1, z ** 2 - 2, 2 * z ** 2 + z + 3]
    split = unsplit = 0
    for _ in range(200):
        want = {x: rng.randint(1, 3)
                for x in rng.sample(pool, rng.randint(0, 4))}
        p = Polynomial.const(Fraction(rng.choice([1, -2, 3]),
                                      rng.choice([1, 7])))
        for x, m in want.items():
            p = p * Polynomial((-x, ONE)) ** m
        quad = rng.choice(quadratics)
        if quad is not None:
            p = p * quad
        roots, rest = rational_roots(p)
        old_roots, cofactor = _peeling_rational_roots(p)
        assert roots == old_roots == want, p
        assert rest == cofactor.degree == (2 if quad else 0), p
        split += not rest
        unsplit += bool(rest)
    assert split > 20 and unsplit > 20


def test_ratfunc_reduction():
    f = RatFunc(z ** 2 - 1, z - 1)
    assert f == RatFunc(z + 1)
    assert f.den == Polynomial.const(1)


def test_ratfunc_denominator_is_monic():
    f = RatFunc(Polynomial.const(1), 2 * z)
    assert f.den.lc() == 1


def _gcd_normal_form(num, den):
    # num/den reduced by their gcd whatever den is, then den made monic
    if num.is_zero():
        return Polynomial(), Polynomial.const(1)
    g = num.gcd(den)
    if g.degree > 0:
        num, den = num // g, den // g
    lead = den.lc()
    return num * (1 / lead), den * (1 / lead)


def test_ratfunc_normal_form_matches_gcd_path():
    rng = random.Random(26)

    def poly(deg):
        return Polynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(deg)] + [Fraction(rng.choice(
                               (-3, -1, 2, 5)), rng.randint(1, 3))])

    dens = [Polynomial.const(c) for c in
            (1, -1, 2, Fraction(-3, 2), Fraction(7, 5))]
    dens += [poly(rng.randint(1, 3)) for _ in range(5)]
    nums = [Polynomial(), Polynomial.const(Fraction(-4, 3))]
    nums += [poly(rng.randint(0, 6)) for _ in range(20)]
    nums += [poly(1) * d for d in dens[5:]]
    for num in nums:
        for den in dens:
            f = RatFunc(num, den)
            assert (f.num, f.den) == _gcd_normal_form(num, den), (num, den)


def test_euler_derivative():
    # z d/dz of z^k is k z^k
    f = RatFunc(z ** 3)
    assert f.euler() == RatFunc(3 * z ** 3)


def test_valuations():
    f = RatFunc(z ** 2, z - 1)
    assert f.valuation(Fraction(0)) == 2
    assert f.valuation(Fraction(1)) == -1
    assert f.valuation_inf() == -1  # degree 2 over degree 1


def test_inverted_swaps_valuations():
    f = RatFunc(z ** 3 + z)
    assert f.inverted().valuation(Fraction(0)) == f.valuation_inf()


def test_negative_power():
    f = RatFunc(z)
    assert f ** -2 == RatFunc(Polynomial.const(1), z ** 2)


def test_zero_division_guard():
    with pytest.raises((ValueError, ZeroDivisionError)):
        RatFunc(z) / RatFunc(0)


def test_partial_fractions_reconstruction():
    f = RatFunc(z ** 3 + 2, z ** 2 * (z - 1))
    poly_part, parts = partial_fractions(f, [Fraction(0), Fraction(1)])
    rebuilt = RatFunc(poly_part)
    for x, terms in parts.items():
        for k, c in terms.items():
            rebuilt = rebuilt + RatFunc(Polynomial.const(c)) * (
                RatFunc(z - x) ** -k)
    assert rebuilt == f


def test_partial_fractions_rejects_hidden_pole():
    f = RatFunc(Polynomial.const(1), z - 1)
    with pytest.raises(ValueError):
        partial_fractions(f, [Fraction(0)])


def _stripping_partial_fractions(f, points):
    """The split that stripped each pole's factor off the denominator,
    kept as the oracle for the one Taylor shift per point."""
    points = [Fraction(x) for x in points]
    poly_part, rem = divmod(f.num, f.den)
    parts = {}
    den = f.den
    mults = {}
    for x in points:
        e = _dividing_valuation(den, x)
        if e:
            mults[x] = e
    stripped = den
    for x, e in mults.items():
        stripped = stripped // (Polynomial((-x, ONE)) ** e)
    if stripped.degree > 0:
        raise ValueError("pole outside the allowed set")
    for x, e in mults.items():
        g = den // (Polynomial((-x, ONE)) ** e)
        # Taylor data at x: h = rem/g mod u^e via series division
        rs = rem.shift(x).coeffs
        gs = g.shift(x).coeffs
        inv0 = 1 / gs[0]
        h = []
        for j in range(e):
            acc = rs[j] if j < len(rs) else ZERO
            for t in range(1, j + 1):
                if t < len(gs):
                    acc -= gs[t] * h[j - t]
            h.append(acc * inv0)
        coeffs = {}
        for j in range(e):
            if h[j]:
                coeffs[e - j] = h[j]
        if coeffs:
            parts[x] = coeffs
    # exact reconstruction check over the common denominator
    recon = poly_part * den
    for x, coeffs in parts.items():
        g = den // (Polynomial((-x, ONE)) ** mults[x])
        for k, c in coeffs.items():
            recon = recon + g * (Polynomial((-x, ONE)) ** (mults[x] - k)) * c
    if recon != f.num:
        raise ArithmeticError("partial fraction reconstruction failed")
    return poly_part, parts


def _split_or_message(f, points, split):
    try:
        poly_part, parts = split(f, points)
    except ValueError as e:
        return str(e)
    return poly_part, list(parts.items())


def test_partial_fractions_match_the_stripping_oracle():
    rng = random.Random(31)
    rejected = 0
    for _ in range(150):
        den, poles = _seeded_product(rng)
        num = Polynomial([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                          for _ in range(rng.randint(0, den.degree + 3))])
        f = RatFunc(num, den)
        # repeated points, points that are not poles, and sometimes a
        # pole left out of the list
        points = [_as_given(x) for x in rng.sample(_ROOT_POOL, 4)]
        points += rng.sample(points, 2) + [_as_given(x) for x in poles]
        if poles and rng.random() < 0.3:
            gone = rng.choice(sorted(poles))
            points = [x for x in points if x != gone]
        rng.shuffle(points)
        got = _split_or_message(f, points, partial_fractions)
        want = _split_or_message(f, points, _stripping_partial_fractions)
        assert got == want, (f, points)
        rejected += isinstance(got, str)
    # an irreducible factor of the denominator is a pole outside any list
    f = RatFunc(z, (z ** 2 + 1) * (z - 1))
    assert _split_or_message(f, [1, 0], partial_fractions) \
        == _split_or_message(f, [1, 0], _stripping_partial_fractions) \
        == "pole outside the allowed set"
    assert rejected > 5
