import random
from fractions import Fraction

import pytest

from unifkit.dmod import (ConnectionSpec, DiffOp, NewtonPolygon,
                          _OracleSession, as_point, corpus, deligne_chi,
                          delta_product, delta_to_partial, delta_valuations,
                          derham_oracle, format_point, index_report,
                          irregularity, newton_polygon, ordinary_at_infinity,
                          to_delta_form)
from unifkit.poly import Polynomial, RatFunc, partial_fractions

z = Polynomial.variable()
ENTRIES = {e.name: e for e in corpus()}


def op(name):
    return ENTRIES[name].spec.operator


def test_operator_must_have_positive_order():
    with pytest.raises(ValueError):
        DiffOp([RatFunc(1)])
    with pytest.raises(ValueError):
        DiffOp([RatFunc(1), RatFunc(0)])


def test_apply_euler_operator():
    d = DiffOp([RatFunc(0), RatFunc(z)])
    assert d.apply(RatFunc(z ** 3)) == RatFunc(3 * z ** 3)
    assert d.apply(RatFunc(1)).is_zero()


def test_point_formatting_round_trip():
    for text in ("0", "3/2", "-1", "inf"):
        assert format_point(as_point(text)) == text


def test_delta_form_of_euler_is_polynomial_free():
    # z d/dz - 2 in delta form is just (delta - 2)
    bs = to_delta_form(op("euler-integer"), 0)
    assert bs[1] == RatFunc(1)
    assert bs[0] == RatFunc(Polynomial.const(-2))


def test_delta_valuations_mark_zero_coefficients():
    vals = delta_valuations(DiffOp([RatFunc(0), RatFunc(z)]), 0)
    assert vals[0] is None
    assert vals[1] == 0


def test_known_polygon_slopes():
    np0 = newton_polygon(op("exp-of-inverse"), 0)
    assert np0.slopes == ((Fraction(1), 1),)
    assert np0.irregularity == 1
    npi = newton_polygon(op("airy"), "inf")
    assert npi.slopes == ((Fraction(3, 2), 2),)
    assert npi.irregularity == 3


def test_regular_points_have_empty_polygon_rise():
    for name in ("euler-integer", "euler-half"):
        for x in (0, "inf"):
            assert irregularity(op(name), x) == 0


def test_mixed_slope_split():
    assert irregularity(op("mixed-slopes"), 0) == 3
    assert irregularity(op("mixed-slopes"), "inf") == 0


def test_polygon_rise_is_sum_of_slope_rises():
    np0 = newton_polygon(op("mixed-slopes"), 0)
    assert np0.irregularity == sum(lam * ln for lam, ln in np0.slopes)


def test_delta_product_adds_irregularities():
    zi = RatFunc.variable().inverted()
    f1 = (zi, RatFunc(1))
    f2 = (zi * zi * 2, RatFunc(1))
    prod = delta_to_partial(delta_product(f1, f2))
    ir1 = NewtonPolygon([b.valuation(Fraction(0)) if not b.is_zero() else None
                         for b in f1]).irregularity
    ir2 = NewtonPolygon([b.valuation(Fraction(0)) if not b.is_zero() else None
                         for b in f2]).irregularity
    assert (ir1, ir2) == (1, 2)
    assert irregularity(prod, 0) == 3


def test_ordinary_at_infinity():
    assert ordinary_at_infinity(op("gm-trivial"))
    assert not ordinary_at_infinity(op("airy"))


def test_spec_requires_singular_points_listed():
    bad = DiffOp([RatFunc(Polynomial.const(1), z), RatFunc(1)])
    with pytest.raises(ValueError):
        ConnectionSpec(bad, ["inf"])


def test_closed_form_index_on_corpus():
    for e in corpus():
        assert deligne_chi(e.spec) == e.chi, e.name


def test_oracle_stabilizes_on_euler():
    assert derham_oracle(ENTRIES["euler-integer"].spec, 20) == (1, 1, True)


def test_oracle_rejects_silly_bound():
    with pytest.raises(ValueError):
        derham_oracle(ENTRIES["euler-integer"].spec, 0)


def test_report_lines_shape():
    rep = index_report(ENTRIES["airy"].spec)
    lines = rep.lines()
    assert lines[0] == "ir[inf]=3"
    assert "chi_formula=-1" in lines
    assert lines[-1] == "agree=true"
    assert rep.agree and rep.stabilized


# the oracle's images against the direct path: apply the operator to the
# basis element as a rational function and split the result, with the
# reconstruction check of partial_fractions

def _direct_image(spec, key):
    if key[0] == "pw":
        element = RatFunc(Polynomial.monomial(key[1]))
    else:
        _, x, k = key
        element = RatFunc(1, Polynomial((-x, 1)) ** k)
    f = spec.operator.apply(element)
    poly_part, parts = partial_fractions(f, spec.finite_points())
    vec = {}
    if not spec.has_inf() and poly_part.degree > 0:
        raise ArithmeticError("image leaves the function space")
    for m, c in enumerate(poly_part.coeffs):
        if c:
            vec[("pw", m)] = c
    for x, coeffs in parts.items():
        for k, c in coeffs.items():
            vec[("pole", x, k)] = c
    return vec


def _infinity_regular_specs():
    one = Polynomial.const(1)
    return {
        "d/dz": ConnectionSpec(DiffOp([0, one]), [0], infinity_regular=True),
        "z d/dz": ConnectionSpec(DiffOp([0, z]), [0], infinity_regular=True),
        "d/dz + 1/(z(z-1))": ConnectionSpec(
            DiffOp([RatFunc(one, z * (z - 1)), one]), [0, 1],
            infinity_regular=True),
    }


def _cross_check_specs():
    rng = random.Random(8)
    specs = {e.name: e.spec for e in corpus()}
    for k in range(4):
        for points in ((0, "inf"), (0, 1, "inf")):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 6),
                         rng.randint(1, 4))
            specs["%s + z^%d d/dz over %r" % (c, k, points)] = \
                ConnectionSpec(DiffOp([Polynomial.const(c), z ** k]), points)
    # poles at three finite points, polynomial parts, a double pole
    half = Polynomial((Fraction(1, 2), 1))
    specs["three poles"] = ConnectionSpec(DiffOp([
        RatFunc(z ** 2) + RatFunc(Polynomial.const(3), half ** 2),
        RatFunc(z ** 3 + 1, z * (z - 1)),
        RatFunc(2)]), [0, 1, Fraction(-1, 2), "inf"])
    specs.update(_infinity_regular_specs())
    # regular at infinity, but the image of 1 has a pole there
    specs["z^2 + z^4 d/dz"] = ConnectionSpec(
        DiffOp([z ** 2, z ** 4]), [0], infinity_regular=True)
    return specs


@pytest.mark.parametrize("name", sorted(_cross_check_specs()))
def test_oracle_images_match_direct_path(name):
    spec = _cross_check_specs()[name]
    session = _OracleSession(spec)
    raised = 0
    for key in session.basis_keys(25):
        try:
            want = _direct_image(spec, key)
        except ArithmeticError:
            raised += 1
            with pytest.raises(ValueError):
                session.image(key)
            continue
        assert session.image(key) == want, key
    # the images of 1, 1/z and 1/z^2 have a polynomial part of degree > 0
    if name == "z^2 + z^4 d/dz":
        assert raised == 3


def test_oracle_on_infinity_regular_specs():
    specs = _infinity_regular_specs()
    assert derham_oracle(specs["d/dz"], 10) == (1, 2, True)
    assert derham_oracle(specs["z d/dz"], 10) == (1, 1, True)
    assert derham_oracle(specs["d/dz + 1/(z(z-1))"], 10) == (1, 3, True)
