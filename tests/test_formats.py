from fractions import Fraction
from pathlib import Path

import pytest

from unifkit.dmod import corpus, deligne_chi
from unifkit.formats import (FormatError, SpaceFile, format_ratfunc,
                             parse_expression, parse_operator, parse_sheaf,
                             parse_space, parse_tower, print_space)
from unifkit.gtop import check_l7, constant_sheaf, sierpinski_pair
from unifkit.poly import RatFunc
from unifkit.quniform import check_quniformity, weil_to_tukey
from unifkit.relations import FiniteSet, Relation
from unifkit.topology import FiniteTopology

DEMO = """space demo 3
elements a b c
uniformity symmetric
entourage E1
pair a a
pair a b
pair b a
pair b b
pair c c
end
covering C1
block a b
block c
end
open
open a
open a b c
dense a b
"""


def test_space_round_trip_is_byte_identical():
    sf = parse_space(DEMO, "demo.space")
    assert print_space(sf) == DEMO


def test_space_sections_materialize():
    sf = parse_space(DEMO, "demo.space")
    assert check_quniformity(sf.uniformity()).is_quasi_uniformity
    assert len(sf.covering_family()) == 1
    assert len(sf.topology().open_masks) == 3
    sf.dense_pair()


def test_unsorted_input_canonicalizes():
    out = print_space(parse_space("space x 2\nelements b a\nopen b\nopen a b\nopen\n"))
    assert out.splitlines()[1] == "elements a b"
    assert parse_space(out).labels == ("a", "b")


@pytest.mark.parametrize("bad,frag", [
    ("", "missing `space` header"),
    ("space x 1\nelements a\npair a a\n", "unknown directive"),
    ("space x 1\nelements a a\n", "expected 1 labels, got 2"),
    ("space x 2\nelements a b\nentourage E\npair a q\nend\n",
     "unknown element label"),
    ("space x 1\nelements a\nentourage E\n", "unterminated"),
    ("space x 1\nelements a\ncovering C\nend\n", "empty covering section"),
])
def test_space_parse_errors(bad, frag):
    with pytest.raises(FormatError) as exc:
        parse_space(bad, "t.space")
    assert frag in str(exc.value)
    assert str(exc.value).startswith("t.space:")


def test_error_carries_line_and_column():
    with pytest.raises(FormatError) as exc:
        parse_space("space x 2\nelements a b\nentourage E\npair a q\nend\n")
    assert (exc.value.line, exc.value.col) == (4, 8)


def test_structureless_space_has_empty_basis():
    sf = parse_space("space e 1\nelements a\n")
    with pytest.raises(ValueError, match="empty basis"):
        sf.uniformity()


def test_tower_declaration_round_trip():
    d = parse_tower("# c\ntower padic_disk depth=4 p=3\n")
    assert d == {"generator": "padic_disk", "depth": 4, "p": 3, "space": None}


def test_tower_depth_required():
    with pytest.raises(FormatError, match="depth is required"):
        parse_tower("tower metric_disk\n")


def test_expression_grammar():
    zz = RatFunc.variable()
    assert parse_expression("z^2 + 3*z - 1/2") == \
        zz ** 2 + RatFunc.const(3) * zz - RatFunc.const(Fraction(1, 2))
    assert parse_expression("(z + 1)/(z - 1)") == (zz + 1) / (zz - 1)
    assert parse_expression("z^-2") == zz.inverted() ** 2
    assert parse_expression("-z") == -zz


@pytest.mark.parametrize("text", [
    "z^2 + 1", "(z^2 + 1)/(z - 1/2)", "0", "-3*z", "1/2"])
def test_expression_format_round_trip(text):
    v = parse_expression(text)
    assert parse_expression(format_ratfunc(v)) == v


def test_expression_error_positions():
    with pytest.raises(FormatError) as exc:
        parse_expression("z +", "f.op", 3)
    assert (exc.value.line, exc.value.col) == (3, 4)
    with pytest.raises(FormatError, match="division by zero"):
        parse_expression("1/(z - z)")
    with pytest.raises(FormatError, match="division by zero") as exc:
        parse_expression("0^-1")
    assert exc.value.col == 5


@pytest.mark.parametrize("power,reciprocal", [
    ("z^-2", "1/z^2"), ("(z-1)^-1", "1/(z-1)"), ("(z+1)^-2", "1/(z+1)^2"),
    ("(2*z)^-1", "1/(2*z)"), ("2^-1", "1/2")])
def test_negative_exponent_is_the_reciprocal_power(power, reciprocal):
    assert parse_expression(power) == parse_expression(reciprocal)


# the corpus in the operator file format, one text per entry
CORPUS_TEXTS = {
    "gm-trivial": "a_1 = 1\nZ = {0, inf}\n",
    "thrice-punctured-trivial": "a_1 = 1\nZ = {0, 1, inf}\n",
    "exp-of-inverse": "a_0 = 1\na_1 = z^2\nZ = {0, inf}\n",
    "euler-integer": "a_0 = -2\na_1 = z\nZ = {0, inf}\n",
    "euler-half": "a_0 = -1/2\na_1 = z\nZ = {0, inf}\n",
    "mixed-slopes": "a_0 = -4*z + 2\na_1 = z^4 + z^3 + 2*z^2\n"
                    "a_2 = z^5\nZ = {0, inf}\n",
    "airy": "a_0 = -z\na_2 = 1\nZ = {inf}\n",
    "hypergeometric-like": "a_0 = -1/15\na_1 = -23/15*z + 1/2\n"
                           "a_2 = -z^2 + z\nZ = {0, 1, inf}\n",
}


def test_operator_corpus_round_trips():
    entries = corpus()
    assert sorted(e.name for e in entries) == sorted(CORPUS_TEXTS)
    for entry in entries:
        spec = entry.spec
        spec2 = parse_operator(CORPUS_TEXTS[entry.name], entry.name)
        assert spec2.operator == spec.operator, entry.name
        assert spec2.points == spec.points
        assert deligne_chi(spec2) == deligne_chi(spec)
    airy = (Path(__file__).parent.parent / "samples" / "airy.op").read_text()
    assert airy == CORPUS_TEXTS["airy"]


def test_operator_parse_basics():
    spec = parse_operator("a_0 = -z\na_2 = 1\nZ = {inf}\n", "x.op")
    assert spec.operator.order == 2
    with pytest.raises(FormatError, match="missing Z"):
        parse_operator("a_1 = z\n", "x.op")


def test_sheaf_round_trip():
    top = FiniteTopology.from_preorder(
        Relation(FiniteSet(("p", "q", "r")), (0b111, 0b010, 0b100)))
    sh = constant_sheaf(top)
    text = ("sheaf const\npoint p dim=1\npoint q dim=1\npoint r dim=1\n"
            "edge p q 1\nedge p r 1\n")
    name, sh2 = parse_sheaf(text, "c.sheaf")
    assert name == "const"
    assert sh2.top == sh.top and sh2.dims == sh.dims
    assert sh2.edge_mats == sh.edge_mats


def test_sheaf_parse_errors():
    with pytest.raises(FormatError, match="unknown point"):
        parse_sheaf("sheaf s\npoint a dim=1\nedge a b 1\n", "s.sheaf")
    with pytest.raises(FormatError, match="needs 2 entries"):
        parse_sheaf("sheaf s\npoint a dim=1\npoint b dim=2\nedge a b 1\n", "s")


def test_dense_pair_through_space_file():
    sier = sierpinski_pair()
    sf = SpaceFile.from_topology("sierpinski", sier.xhat, dense=sier.x_labels)
    pair2 = parse_space(print_space(sf)).dense_pair()
    assert pair2 == sier
    rep = check_l7(pair2)
    assert rep.items1to5_ok and not rep.items[7]


def test_covering_family_through_space_file():
    sf = parse_space(
        "space u 2\nelements a b\nuniformity symmetric\n"
        "entourage E1\npair a a\npair b b\nend\n"
        "entourage E2\npair a a\npair a b\npair b a\npair b b\nend\n")
    fam = weil_to_tukey(sf.uniformity())
    out = SpaceFile.from_covering_family("u-coverings", fam)
    rt = parse_space(print_space(out)).covering_family()
    assert rt.families == fam.families
