import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import unifkit
from unifkit import linalg
from unifkit.dmod import (D_START, INF, ConnectionSpec, DiffOp,
                          NewtonPolygon, _OracleSession,
                          _delta_numerators, _indicial_bound,
                          _shift_bound, _stirling_first, _stirling_second,
                          as_point, corpus, deligne_chi, delta_product,
                          delta_to_partial, delta_valuations,
                          format_point, index_report,
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


# the Euler form against the direct path: the n-term RatFunc sums that
# built it before the common-denominator numerators, kept verbatim

def _reference_delta_form(op, x):
    x = as_point(x)
    n = op.order
    s1 = _stirling_first(n)
    if x == INF:
        shifted = RatFunc.variable()  # z, inverted below
        bs = []
        for j in range(n + 1):
            acc = RatFunc(0)
            for i in range(j, n + 1):
                if s1[i][j]:
                    acc = acc + op.coeffs[i] * (shifted ** (-i)) * s1[i][j]
            bs.append(acc.inverted() * ((-1) ** j))
        return tuple(bs)
    lin = RatFunc(Polynomial((-x, Fraction(1))))
    bs = []
    for j in range(n + 1):
        acc = RatFunc(0)
        for i in range(j, n + 1):
            if s1[i][j]:
                acc = acc + op.coeffs[i] * (lin ** (-i)) * s1[i][j]
        bs.append(acc)
    return tuple(bs)


def _valuations_of(bs, x):
    return tuple(b.valuation(0 if x == INF else x) for b in bs)


DELTA_POINTS = (0, 1, -1, Fraction(1, 2), 2, INF)

# cancellation inside b_j, with the valuations read at the parent
CANCELLATION = {
    "b_1 vanishes identically": (
        DiffOp([0, RatFunc(1, z), 1]), 0, (None, None, -2)),
    "leading terms of b_1 cancel": (
        DiffOp([0, RatFunc(z + 1, z), 1]), 0, (None, -1, -2)),
    "1 + (1/z + 1) d/dz + d^2/dz^2 at inf": (
        DiffOp([1, RatFunc(z + 1, z), 1]), INF, (0, 1, 2)),
}


def _random_coefficient(rng):
    if rng.random() < 0.2:
        return RatFunc(0)
    num = Polynomial([Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(rng.randint(1, 4))])
    den = Polynomial.const(1)
    for r in (0, 1, -1, Fraction(1, 2), 2, 3):
        den = den * Polynomial((-r, 1)) ** rng.choice((0, 0, 0, 0, 1, 2))
    return RatFunc(num, den)


def _delta_form_operators():
    ops = {e.name: e.spec.operator for e in corpus()}
    ops.update((name, case[0]) for name, case in CANCELLATION.items())
    rng = random.Random(10)
    target = len(ops) + 40
    while len(ops) < target:
        n = rng.randint(1, 3)
        coeffs = [_random_coefficient(rng) for _ in range(n + 1)]
        if coeffs[-1].is_zero():
            continue
        ops["seeded %d" % len(ops)] = DiffOp(coeffs)
    return ops


def test_delta_form_matches_direct_sums():
    for name, d in _delta_form_operators().items():
        for x in DELTA_POINTS:
            want = _reference_delta_form(d, x)
            assert to_delta_form(d, x) == want, (name, x)
            assert delta_valuations(d, x) == _valuations_of(want, x), (name, x)


@pytest.mark.parametrize("name", sorted(CANCELLATION))
def test_delta_valuations_under_cancellation(name):
    d, x, want = CANCELLATION[name]
    assert delta_valuations(d, x) == want
    assert _valuations_of(_reference_delta_form(d, x), x) == want


def test_polygon_check_survives_optimised_mode():
    # a hull that keeps a point below it (v = 0, 1, -2) rises by 1 where
    # the closed form gives 0; the check must fire under python -O too
    code = ("from unifkit import dmod\n"
            "dmod._cross = lambda o, a, b: -1\n"
            "try:\n"
            "    dmod.NewtonPolygon([0, 1, -2])\n"
            "except RuntimeError as e:\n"
            "    print(e)\n")
    src = str(Path(unifkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "polygon rise 1 disagrees with the closed form 0\n"
    assert NewtonPolygon([0, 1, -2]).irregularity == 0


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


# ordinary_at_infinity as it was written before it shared the Stirling
# expansion of delta_to_partial, kept verbatim as the oracle

def _reference_ordinary_at_infinity(op):
    n = op.order
    bs = to_delta_form(op, 0)
    s2 = _stirling_second(n)
    tt = RatFunc.variable()
    cs = []
    for k in range(n + 1):
        acc = RatFunc(0)
        for j in range(k, n + 1):
            if s2[j][k] and not bs[j].is_zero():
                acc = acc + bs[j].inverted() * ((-1) ** j) * s2[j][k]
        cs.append(acc * tt ** k)
    lead = cs[n]
    if lead.is_zero():
        return False
    vl = lead.valuation(0)
    for c in cs[:-1]:
        v = c.valuation(0)
        if v is not None and v < vl:
            return False
    return True


def _pulled_back(cs):
    """sum c_k(w) (d/dw)^k for polynomials c_k in w, written in z = 1/w,
    where d/dw = -z^2 d/dz: an operator regular at infinity whenever
    its leading c_k does not vanish at w = 0."""
    minus_z2 = RatFunc(-z * z)
    power = [RatFunc(1)]  # (d/dw)^k in powers of d/dz
    out = [RatFunc(0)] * len(cs)
    for c in cs:
        cz = RatFunc(c).inverted()
        for i, p in enumerate(power):
            out[i] = out[i] + cz * p
        # left-multiply by -z^2 d/dz: p D^i becomes p' D^i + p D^(i+1)
        nxt = [RatFunc(0)] * (len(power) + 1)
        for i, p in enumerate(power):
            nxt[i] = nxt[i] + minus_z2 * p.deriv()
            nxt[i + 1] = nxt[i + 1] + minus_z2 * p
        power = nxt
    return DiffOp(out)


def _random_polynomial(rng):
    return Polynomial([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(rng.randint(1, 3))])


def _small_coefficient(rng):
    if rng.random() < 0.2:
        return RatFunc(0)
    den = z ** rng.choice((0, 0, 1, 2)) * (z - 1) ** rng.choice((0, 0, 1))
    return RatFunc(_random_polynomial(rng), den)


def test_ordinary_at_infinity_matches_the_reference():
    ops = [e.spec.operator for e in corpus()]
    rng = random.Random(14)
    while len(ops) < 8 + 300:
        n = rng.randint(1, 3)
        if len(ops) % 3:
            coeffs = [_small_coefficient(rng) for _ in range(n + 1)]
            if coeffs[-1].is_zero():
                continue
            ops.append(DiffOp(coeffs))
        else:
            cs = [_random_polynomial(rng) for _ in range(n)]
            cs.append(Polynomial.const(rng.choice((1, -2, Fraction(1, 3)))))
            ops.append(_pulled_back(cs))
    verdicts = [ordinary_at_infinity(d) for d in ops]
    assert verdicts == [_reference_ordinary_at_infinity(d) for d in ops]
    assert True in verdicts and False in verdicts


def test_spec_requires_singular_points_listed():
    bad = DiffOp([RatFunc(Polynomial.const(1), z), RatFunc(1)])
    with pytest.raises(ValueError):
        ConnectionSpec(bad, ["inf"])


@pytest.mark.parametrize("coeffs, message", [
    # coefficient poles at 2 and 5: the least missing point is named
    ([RatFunc(1, (z - 2) * (z - 5)), RatFunc(1)],
     "Z omits the singular point 2"),
    # no coefficient has a pole; a_0 / a_1 has one at 3
    ([RatFunc(1), RatFunc(z - 3)], "Z omits the singular point 3"),
    ([RatFunc(1, z ** 2 + 1), RatFunc(1)],
     "operator has non-rational singular points"),
    ([RatFunc(1), RatFunc(z ** 2 - 2)],
     "operator has non-rational singular points"),
])
def test_spec_rejections_keep_their_messages(coeffs, message):
    with pytest.raises(ValueError) as err:
        ConnectionSpec(DiffOp(coeffs), [0, INF])
    assert str(err.value) == message


def test_closed_form_index_on_corpus():
    for e in corpus():
        assert deligne_chi(e.spec) == e.chi, e.name


def _dims(rep):
    return rep.h0, rep.h1, rep.stabilized


def test_oracle_stabilizes_on_euler():
    assert _dims(index_report(ENTRIES["euler-integer"].spec)) == (1, 1, True)


def test_oracle_rejects_silly_bound():
    with pytest.raises(ValueError, match="at least 20"):
        index_report(ENTRIES["euler-integer"].spec, 0)


def _d_star(spec):
    return _indicial_bound({p: _delta_numerators(spec.operator, p)
                            for p in spec.points})


def _euler(r, s):
    # z^2 D^2 + (1 - r - s) z D + rs = (delta - r)(delta - s), kernel
    # spanned by z^r and z^s
    return ConnectionSpec(DiffOp([Polynomial.const(r * s), (1 - r - s) * z,
                                  z * z]), [0, INF])


@pytest.mark.parametrize("r", range(-30, 31, 7))
def test_euler_family_reads_its_closed_form(r):
    for s in range(-30, 31, 5):
        spec = _euler(r, s)
        assert _d_star(spec) == max(abs(r), abs(s)), s
        rep = index_report(spec)
        assert _dims(rep) == (len({r, s}), len({r, s}), True), s
        assert rep.agree, s


def test_first_order_integer_roots_read_their_kernel():
    # z d/dz - c has kernel z^c, a pole at 0 when c < 0
    for c in list(range(-60, 0)) + list(range(1, 61)):
        spec = ConnectionSpec(DiffOp([Polynomial.const(-c), z]), [0, INF])
        assert _d_star(spec) == abs(c), c
        rep = index_report(spec)
        assert _dims(rep) == (1, 1, True) and rep.agree, c


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
    # poles at 0 and 3, so the pole-by-pole products divide by powers
    # of 3, not of +-1
    specs["poles at 0 and 3"] = ConnectionSpec(DiffOp([
        RatFunc(Polynomial.const(2), z * (z - 3) ** 2),
        RatFunc(z ** 2 + 1, z - 3), RatFunc(Fraction(1, 2))]),
        [0, 3, "inf"])
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
        # the session's images are those of scale * L
        assert session.image(key) == {
            c: session.scale * v for c, v in want.items()}, key
    # the images of 1, 1/z and 1/z^2 have a polynomial part of degree > 0
    if name == "z^2 + z^4 d/dz":
        assert raised == 3


def test_oracle_scale_clears_the_split():
    # the lcm of the denominators of every coefficient in the split
    specs = _cross_check_specs()
    assert _OracleSession(specs["-1/3 + z^3 d/dz over (0, 1, 'inf')"]
                          ).scale == 3
    assert _OracleSession(ENTRIES["hypergeometric-like"].spec).scale == 30
    assert _OracleSession(specs["poles at 0 and 3"]).scale == 18


def test_integral_points_give_integer_images():
    # the corpus and every seeded c + z^k d/dz of the index benchmark:
    # polynomial coefficients and integral points, so the keys and every
    # image entry over the last benchmark window are ints
    for spec in _index_workload_specs():
        session = _OracleSession(spec)
        assert all(type(x) is int for x in session.points)
        for key in session.basis_keys(D_START + 10 + session.shift):
            for coord, v in session.image(key).items():
                assert type(v) is int, (spec.operator, key, coord)
                assert coord[0] == "pw" or type(coord[1]) is int


def test_poles_three_apart_stay_exact():
    # d = 3 - 0 in the pole-by-pole split: no float may come out of the
    # division, and the entries that are not integral stay Fractions
    session = _OracleSession(_cross_check_specs()["poles at 0 and 3"])
    assert session.points == [0, 3]
    kinds = {type(v) for key in session.basis_keys(20)
             for v in session.image(key).values()}
    assert kinds == {int, Fraction}


def test_oracle_on_infinity_regular_specs():
    specs = _infinity_regular_specs()
    assert _dims(index_report(specs["d/dz"])) == (1, 2, True)
    assert _dims(index_report(specs["z d/dz"])) == (1, 1, True)
    assert _dims(index_report(specs["d/dz + 1/(z(z-1))"])) == (1, 3, True)


def _beyond(coord, d):
    if coord[0] == "pw":
        return coord[1] > d
    return coord[2] > d


def _coord_key(c):
    # polynomial coordinates by degree, then poles by point and order
    if c[0] == "pw":
        return (0, 0, c[1])
    return (1, c[1], c[2])


def _reference_window_dims(session, d):
    # three separate ranks: the window's own columns, the rows outside
    # the window and the full matrix, in basis_keys order
    inner = session.basis_keys(d)
    outer = session.basis_keys(d + session.shift)
    cols = [session.image(k) for k in outer]
    coords = sorted({c for v in cols for c in v}, key=_coord_key)
    cindex = {c: i for i, c in enumerate(coords)}
    inner_set = set(inner)
    full = [[Fraction(0)] * len(outer) for _ in coords]
    for j, vec in enumerate(cols):
        for c, val in vec.items():
            full[cindex[c]][j] = val
    n_inner = len(inner)
    rank_inner = linalg.rank([[session.image(k).get(c, Fraction(0))
                               for k in inner] for c in coords])
    h0 = n_inner - rank_inner
    out_rows = [row for c, row in zip(coords, full)
                if c not in inner_set or _beyond(c, d)]
    k_out = len(outer) - linalg.rank(out_rows)
    k_full = len(outer) - linalg.rank(full)
    h1 = n_inner - (k_out - k_full)
    return h0, h1


def test_window_enlargement_is_needed():
    # d/dz sends z^21 to 21 z^20, so without the outer window z^20
    # counts as missed and h1 grows by one
    for name, enlarged, unenlarged in (
            ("gm-trivial", (1, 1), (1, 2)),
            ("thrice-punctured-trivial", (1, 2), (1, 3))):
        session = _OracleSession(ENTRIES[name].spec)
        assert session.shift == 1
        assert session.window_dims(20) == enlarged
        session.shift = 0
        assert session.window_dims(20) == unenlarged


@pytest.mark.parametrize("name", sorted(set(_cross_check_specs())
                                         - {"z^2 + z^4 d/dz"}))
def test_window_dims_match_three_ranks(name):
    # the corpus, seeded specs with one and two finite points, three poles
    session = _OracleSession(_cross_check_specs()[name])
    for d in range(10, 36, 5):
        assert session.window_dims(d) == _reference_window_dims(session, d), d


@pytest.mark.parametrize("family", ["workload", "cross-check", "euler"])
def test_report_windows_match_three_ranks(family):
    # every window index_report runs, fractional images included
    specs = {"workload": _index_workload_specs,
             "cross-check": lambda: _cross_check_specs().values(),
             "euler": lambda: (_euler(r, s) for r in range(-30, 31, 7)
                               for s in range(-30, 31, 5))}[family]()
    for spec in specs:
        session = _OracleSession(spec)
        start = max(D_START, _d_star(spec) + session.shift)
        for d in range(start, start + 11, 5):
            try:
                want = _reference_window_dims(session, d)
            except ValueError:
                with pytest.raises(ValueError):
                    session.window_dims(d)
                continue
            assert session.window_dims(d) == want, (spec.operator, d)


def oracle_derham(spec, degree_bound):
    """Three windows five apart, compared outright."""
    session = _OracleSession(spec)
    dims = [session.window_dims(d)
            for d in (degree_bound, degree_bound + 5, degree_bound + 10)]
    h0, h1 = dims[-1]
    return h0, h1, dims[0] == dims[1] == dims[2]


@pytest.mark.parametrize("bound", [1, 5, 10])
def test_derham_oracle_matches_three_windows(bound):
    # every window from d* + s is exact, so three windows compared
    # outright from any first window at or past it, below D_START too,
    # read the report's dimensions; bound 10 is the report's own start
    for name, entry in ENTRIES.items():
        start = max(bound, _d_star(entry.spec) + _shift_bound(entry.spec))
        assert _dims(index_report(entry.spec)) == oracle_derham(
            entry.spec, start), name


@pytest.mark.parametrize("name", sorted(_cross_check_specs()))
def test_certified_start_agrees_with_later_windows(name):
    spec = _cross_check_specs()[name]
    session = _OracleSession(spec)
    d0 = _d_star(spec) + session.shift
    if name == "z^2 + z^4 d/dz":
        with pytest.raises(ValueError):
            session.window_dims(d0)
        return
    want = _reference_window_dims(session, d0)
    for d in (d0, d0 + 4, d0 + 9):
        assert session.window_dims(d) == want, d
    assert _reference_window_dims(session, d0 + 9) == want


def _index_workload_specs():
    # every c + z^k d/dz the index benchmark can draw, and the corpus
    for a in range(1, 7):
        for b in range(1, 5):
            for sign in (-1, 1):
                for k in range(4):
                    for points in ((0, INF), (0, 1, INF)):
                        yield ConnectionSpec(DiffOp([
                            Polynomial.const(Fraction(sign * a, b)),
                            z ** k]), points)
    for e in corpus():
        yield e.spec


def test_benchmark_windows_start_at_d_start():
    # the index workload's windows stay at 10, 15 and 20
    for spec in _index_workload_specs():
        assert _d_star(spec) + _shift_bound(spec) <= D_START
