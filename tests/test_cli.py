"""Command line behavior, including the pinned golden outputs."""

import argparse
import contextlib
import io
from pathlib import Path

import pytest

from unifkit import formats
from unifkit.cli import _parser, main
from unifkit.enumeration import standard_base
from unifkit.gtop import sierpinski_pair
from unifkit.quniform import QUniformity, pervin, symmetrize

SIER = ("space sierpinski 2\nelements p0 p1\n"
        "open\nopen p1\nopen p0 p1\ndense p1\n")
CIRCLE = ("space circle 4\nelements a b c d\nopen\nopen a\nopen b\n"
          "open a b\nopen a b c\nopen a b d\nopen a b c d\n"
          "dense a b c d\n")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def sier_file(tmp_path):
    p = tmp_path / "sierpinski.space"
    p.write_text(SIER)
    return str(p)


@pytest.fixture
def airy_file():
    return str(Path(__file__).parent.parent / "samples" / "airy.op")


@pytest.fixture
def pervin_file(tmp_path):
    u = pervin(sierpinski_pair().xhat)
    p = tmp_path / "pervin.space"
    p.write_text(formats.print_space(formats.SpaceFile.from_uniformity("sp", u)))
    return str(p)


@pytest.fixture
def sym_file(tmp_path):
    u = symmetrize(pervin(sierpinski_pair().xhat))
    p = tmp_path / "sym.space"
    p.write_text(formats.print_space(formats.SpaceFile.from_uniformity("s", u)))
    return str(p)


# the three pinned goldens

def test_golden_report_ends_agree_true(airy_file):
    code, out, _ = run(["dmod", "report", airy_file])
    assert code == 0
    assert out.splitlines()[-1] == "agree=true"


def test_golden_l7_items(sier_file):
    code, out, _ = run(["gtop", "l7", sier_file])
    lines = out.splitlines()
    for i in range(1, 6):
        assert "item%d=pass" % i in lines
    assert "item7=fail(expected)" in lines
    assert code == 0


def test_golden_empty_basis(tmp_path):
    p = tmp_path / "empty-basis.space"
    p.write_text("space nothing 2\nelements a b\n")
    code, _, err = run(["check", str(p)])
    assert code == 2
    assert "empty basis" in err


# the rest of the surface

def test_check_reports_axioms(pervin_file):
    code, out, _ = run(["check", pervin_file])
    assert code == 0
    assert "quasi_uniformity=true" in out.splitlines()


def test_check_topology_golden(sier_file):
    code, out, _ = run(["check", sier_file])
    assert code == 0
    assert out.splitlines() == ["opens=3", "topology=ok", "t0=true"]


def test_check_topology_not_closed_under_union(tmp_path):
    p = tmp_path / "gap.space"
    p.write_text("space gap 3\nelements a b c\nopen a\nopen b\n")
    code, out, _ = run(["check", str(p)])
    assert code == 1
    assert out.splitlines() == [
        "topology=FAIL opens not closed under union/intersection"]


def test_check_failing_symmetric_uniformity(tmp_path):
    p = tmp_path / "asym.space"
    p.write_text("space asym 2\nelements a b\nuniformity symmetric\n"
                 "entourage e\npair a a\npair b b\npair a b\nend\n")
    code, out, _ = run(["check", str(p)])
    assert code == 1
    assert out.splitlines() == [
        "entourages=1", "reflexive=ok", "cotransitive=ok", "symmetric=FAIL",
        "quasi_uniformity=true", "uniformity=false", "witness=symmetry b,a"]


def test_check_parse_error_cites_position(tmp_path):
    p = tmp_path / "bad.space"
    p.write_text("space x 1\nelements a\nfrob a\n")
    code, _, err = run(["check", str(p)])
    assert code == 2
    assert ":3:1:" in err


def test_convert_round_trip(tmp_path, sym_file):
    code, w2t, _ = run(["convert", "--weil-to-tukey", sym_file])
    assert code == 0
    cov = tmp_path / "cov.space"
    cov.write_text(w2t)
    code, out, _ = run(["check", str(cov)])
    assert code == 0
    assert "tukey_family=true" in out.splitlines()
    code, back, _ = run(["convert", "--tukey-to-weil", str(cov)])
    assert code == 0
    assert "entourage" in back


def test_check_decides_a_four_point_weil_to_tukey_family(tmp_path):
    # every covering of four points, far past any pairwise check
    u = QUniformity.discrete(standard_base(4))
    disc = tmp_path / "discrete.space"
    disc.write_text(formats.print_space(
        formats.SpaceFile.from_uniformity("d", u)))
    code, w2t, _ = run(["convert", "--weil-to-tukey", str(disc)])
    assert code == 0
    cov = tmp_path / "cov.space"
    cov.write_text(w2t)
    code, out, _ = run(["check", str(cov)])
    assert code == 0
    lines = out.splitlines()
    assert "coverings=32297" in lines
    assert "tukey_family=true" in lines
    assert "exhaustive=true" in lines


def test_derive_topology(pervin_file):
    code, out, _ = run(["derive", "--topology", pervin_file])
    assert code == 0
    assert "open p1" in out.splitlines()


def test_derive_proximity(sym_file, pervin_file):
    code, out, _ = run(["derive", "--proximity", sym_file])
    assert code == 0
    assert out.splitlines() == [
        "near p0 p0", "near p0 p0+p1", "near p1 p1", "near p1 p0+p1",
        "near p0+p1 p0", "near p0+p1 p1", "near p0+p1 p0+p1"]
    # the Pervin core is not symmetric: p0 is near p1, not the reverse
    code, out, _ = run(["derive", "--proximity", pervin_file])
    assert code == 0
    assert out.splitlines() == [
        "near p0 p0", "near p0 p1", "near p0 p0+p1", "near p1 p1",
        "near p1 p0+p1", "near p0+p1 p0", "near p0+p1 p1",
        "near p0+p1 p0+p1"]


def test_pervin_kunzi_emit_entourages(sier_file):
    for sub in ("pervin", "kunzi"):
        code, out, _ = run([sub, sier_file])
        assert code == 0
        assert "entourage E1" in out


def test_quotient_emits_space_and_mapping(sym_file):
    code, out, _ = run(["quotient", sym_file])
    assert code == 0
    assert out.startswith("space ")
    assert any(l.startswith("# map ") for l in out.splitlines())


def test_tower_build_and_depth_override(tmp_path):
    p = tmp_path / "met.tower"
    p.write_text("tower metric_disk depth=6\n")
    code, out, _ = run(["tower", "build", str(p), "--depth", "3"])
    assert code == 0
    assert "depth=3" in out.splitlines()
    assert "star=ok" in out.splitlines()


def test_tower_threads(tmp_path):
    p = tmp_path / "p2.tower"
    p.write_text("tower padic_disk depth=3 p=2\n")
    code, out, _ = run(["tower", "threads", str(p)])
    assert code == 0
    assert sum(1 for l in out.splitlines() if l.startswith("end ")) == 8


def test_tower_uniform_cover_verdicts(tmp_path):
    sec = tmp_path / "sec.tower"
    sec.write_text("tower sectorial_disk depth=3\n")
    met = tmp_path / "met.tower"
    met.write_text("tower metric_disk depth=3\n")
    code, out, _ = run(["tower", "uniform-cover", str(sec),
                        "--covering", "sectors"])
    assert code == 0 and "uniform=true" in out.splitlines()
    code, out, _ = run(["tower", "uniform-cover", str(met),
                        "--covering", "sectors"])
    assert code == 1 and "witness=puncture b-1,-1" in out.splitlines()


def test_tower_tukey(tmp_path):
    sec = tmp_path / "sec.tower"
    sec.write_text("tower sectorial_disk depth=3\n")
    code, out, _ = run(["tower", "tukey", str(sec), "--covering", "sectors"])
    assert code == 0
    assert "refining_level=2" in out.splitlines()


def test_tower_continuity(tmp_path):
    met = tmp_path / "met.tower"
    met.write_text("tower metric_disk depth=3\n")
    code, out, _ = run(["tower", "continuity", str(met), "--map", "identity"])
    assert code == 0
    code, out, _ = run(["tower", "continuity", str(met),
                        "--map", "cartesian_to_polar"])
    assert code == 1
    assert "FAIL" in out


def test_tower_bornology(tmp_path):
    met = tmp_path / "met.tower"
    met.write_text("tower metric_disk depth=5\n")
    code, out, _ = run(["tower", "bornology", str(met), "--level", "3",
                        "--blocks", "b2,2;b2,3;b3,3"])
    assert code == 0
    assert "Z=b2,2" in out.splitlines()


@pytest.mark.parametrize("decl, level, blocks, bornology, build", [
    ("sectorial_disk depth=4", 3, "r0a0;r1a7;r5a3",
     ["meets[1]=4", "meets[2]=13", "meets[3]=20", "meets[4]=61",
      "Z=r0a0,r5a3", "iterations=2"],
     ["generator=sectorial_disk", "depth=4", "symmetric=true", "star_lag=3",
      "blocks[1]=4", "blocks[2]=16", "blocks[3]=64", "blocks[4]=256"]),
    ("padic_disk depth=4 p=3", 2, "d01;d02;d21",
     ["meets[1]=2", "meets[2]=3", "meets[3]=9", "meets[4]=27",
      "Z=d01,d02,d21", "iterations=1"],
     ["generator=padic_disk", "p=3", "depth=4", "symmetric=true",
      "star_lag=1", "blocks[1]=3", "blocks[2]=9", "blocks[3]=27",
      "blocks[4]=81"]),
    ("formal depth=3 p=5", 2, "d1;d3",
     ["meets[1]=2", "meets[2]=2", "meets[3]=2", "Z=d1,d3", "iterations=1"],
     ["generator=formal", "p=5", "depth=3", "symmetric=true", "star_lag=1",
      "blocks[1]=5", "blocks[2]=5", "blocks[3]=5"]),
    ("finite depth=2 space=pervin.space", 1, "ep1",
     ["meets[1]=2", "meets[2]=2", "Z=ep1", "iterations=1"],
     ["generator=finite", "depth=2", "symmetric=false", "star_lag=1",
      "blocks[1]=2", "blocks[2]=2"]),
], ids=["sectorial", "padic", "formal", "finite"])
def test_tower_bornology_and_build_goldens(tmp_path, pervin_file, decl,
                                           level, blocks, bornology, build):
    t = tmp_path / "t.tower"
    t.write_text("tower %s\n" % decl)
    code, out, _ = run(["tower", "bornology", str(t), "--level", str(level),
                        "--blocks", blocks])
    assert (code, out.splitlines()) == (
        0, ["precompact=true", "bounded=true"] + bornology)
    code, out, _ = run(["tower", "build", str(t)])
    assert (code, out.splitlines()) == (0, build + [
        "refinement=ok", "star=ok", "covering=ok", "sample=ok"])


def test_finite_tower_reads_space_reference(tmp_path, pervin_file):
    import os.path
    t = tmp_path / "fin.tower"
    t.write_text("tower finite depth=1 space=%s\n"
                 % os.path.basename(pervin_file))
    code, out, _ = run(["tower", "build", str(t)])
    assert code == 0


@pytest.mark.parametrize("decl, sizes", [
    ("metric_disk depth=4", [16, 64, 256, 1024]),
    ("sectorial_disk depth=4", [4, 16, 64, 256]),
    ("padic_disk depth=3 p=3", [3, 9, 27]),
])
def test_tower_level_coverings(tmp_path, decl, sizes):
    t = tmp_path / "t.tower"
    t.write_text("tower %s\n" % decl)
    for k, size in enumerate(sizes, 1):
        cov = "level:%d" % k
        code, out, _ = run(["tower", "uniform-cover", str(t),
                            "--covering", cov])
        assert (code, out) == (0, "covering=%s\nuniform=true\n" % cov)
        code, out, _ = run(["tower", "tukey", str(t), "--covering", cov])
        assert (code, out) == (0, "covering=%s\ntukey=true\n"
                               "refining_level=%d\nfinite_subcover_size=%d\n"
                               % (cov, k, size))


def test_finite_tower_at_depth_two(tmp_path, pervin_file):
    import os.path
    t = tmp_path / "fin.tower"
    t.write_text("tower finite depth=2 space=%s\n"
                 % os.path.basename(pervin_file))
    code, out, _ = run(["tower", "build", str(t)])
    assert (code, out.splitlines()) == (0, [
        "generator=finite", "depth=2", "symmetric=false", "star_lag=1",
        "blocks[1]=2", "blocks[2]=2", "refinement=ok", "star=ok",
        "covering=ok", "sample=ok"])
    code, out, _ = run(["tower", "threads", str(t)])
    assert (code, out) == (0, "interior ep0/ep0\ninterior ep1/ep1\n")
    code, out, _ = run(["tower", "tukey", str(t), "--covering", "level:1"])
    assert (code, out) == (0, "covering=level:1\ntukey=true\n"
                           "refining_level=1\nfinite_subcover_size=2\n")


@pytest.mark.parametrize("param", ["p=7", "space=nowhere.space"])
def test_tower_rejects_parameter_the_generator_does_not_take(tmp_path, param):
    t = tmp_path / "met.tower"
    t.write_text("tower metric_disk depth=2 %s\n" % param)
    code, out, err = run(["tower", "build", str(t)])
    assert code == 2 and out == ""
    assert err == "error: %s:1:27: generator metric_disk takes no %s= " \
        "parameter\n" % (t, param.partition("=")[0])


def test_gtop_ucheck(sier_file):
    code, out, _ = run(["gtop", "ucheck", sier_file, "--labels", "p1"])
    assert code == 0
    assert out.strip() == "ucheck=p0+p1"
    code, _, err = run(["gtop", "ucheck", sier_file, "--labels", "p0"])
    assert code == 2


def test_gtop_groth(sier_file):
    code, out, _ = run(["gtop", "groth", sier_file])
    assert code == 0
    assert "grothendieck=true" in out.splitlines()


def test_gtop_cohomology(tmp_path):
    sh = tmp_path / "c.sheaf"
    # the constant sheaf on the Sierpinski space
    sh.write_text("sheaf c\npoint p0 dim=1\npoint p1 dim=1\nedge p0 p1 1\n")
    code, out, _ = run(["gtop", "cohomology", str(sh)])
    assert code == 0
    assert out.splitlines()[0] == "H^0 = 1"


def test_gtop_cohomology_of_a_twisted_plane_bundle_on_the_circle(tmp_path):
    # the pseudo-circle a, b < c, d with stalk Q^2 and the two
    # coordinates swapped along one edge: H^0 holds the invariants and
    # H^1 the coinvariants of the swap
    sh = tmp_path / "twisted.sheaf"
    sh.write_text("sheaf twisted\n"
                  + "".join("point %s dim=2\n" % p for p in "abcd")
                  + "edge a c 1 0 0 1\nedge a d 1 0 0 1\n"
                  "edge b c 1 0 0 1\nedge b d 0 1 1 0\n")
    assert run(["gtop", "cohomology", str(sh)]) == (0, "H^0 = 1\nH^1 = 1\n",
                                                    "")


def test_gtop_cohomology_rejects_a_non_functorial_diamond(tmp_path):
    # a < b < d and a < c < d, with c -> d scaled by 2: the two routes
    # out of a disagree, so the stalk at a has no section over its
    # minimal open
    sh = tmp_path / "diamond.sheaf"
    sh.write_text("sheaf diamond\n"
                  + "".join("point %s dim=1\n" % p for p in "abcd")
                  + "edge a b 1\nedge a c 1\nedge b d 1\nedge c d 2\n")
    assert run(["gtop", "cohomology", str(sh)]) == (
        2, "", "error: restrictions are not functorial at a\n")


def test_gtop_cech(tmp_path):
    p = tmp_path / "cech.space"
    p.write_text(SIER + "covering C1\nblock p1\nend\n")
    assert run(["gtop", "cech", str(p)]) == (
        0, "cech H^0 = 1\nposet H^0 = 1\nmatch=true\n", "")


def test_gtop_cech_on_the_pseudo_circle(tmp_path):
    p = tmp_path / "circle.space"
    p.write_text(CIRCLE + "covering C1\nblock a b c\nblock a b d\nend\n")
    assert run(["gtop", "cech", str(p)]) == (
        0, "cech H^0 = 1\ncech H^1 = 1\nposet H^0 = 1\nposet H^1 = 1\n"
        "match=true\n", "")


def test_dmod_subcommands(tmp_path, airy_file):
    code, out, _ = run(["dmod", "polygon", airy_file, "--at", "inf"])
    assert code == 0 and "irregularity=3" in out.splitlines()
    code, out, _ = run(["dmod", "irregularity", airy_file])
    assert code == 0 and out.strip() == "ir[inf]=3"
    code, out, _ = run(["dmod", "chi", airy_file])
    assert code == 0 and out.strip() == "chi=-1"
    code, out, _ = run(["dmod", "delta", airy_file, "--at", "0"])
    assert code == 0 and out.splitlines()[0].startswith("b_0 = ")
    code, out, _ = run(["dmod", "oracle", airy_file, "--dmax", "30"])
    assert code == 0 and "stabilized=true" in out.splitlines()


@pytest.mark.parametrize("dmax", ["5", "0", "10", "19"])
def test_report_below_the_first_window_is_input_error(airy_file, dmax):
    # stabilization compares three windows, 10, 15 and 20
    code, out, err = run(["dmod", "report", airy_file, "--dmax", dmax])
    assert code == 2 and out == ""
    assert err == "error: degree bound must be at least 20\n"


def test_report_at_the_third_window_runs(airy_file):
    code, out, _ = run(["dmod", "report", airy_file, "--dmax", "20"])
    assert code == 0
    assert out.splitlines()[-2:] == ["stabilized=true", "agree=true"]


def test_oracle_dmax_zero_is_not_replaced(airy_file):
    # --dmax caps the last window for oracle as for report
    code, out, err = run(["dmod", "oracle", airy_file, "--dmax", "0"])
    assert code == 2 and out == ""
    assert err == "error: degree bound must be at least 20\n"


@pytest.fixture
def euler30_file():
    return str(Path(__file__).parent.parent / "samples" / "euler30.op")


def test_report_reads_a_kernel_past_the_benchmark_windows(euler30_file):
    # z d/dz - 30 has kernel z^30: the windows start past the indicial
    # root 30 plus the shift 1, at 31, 36 and 41
    code, out, _ = run(["dmod", "report", euler30_file])
    assert (code, out) == (0, "ir[0]=0\nir[inf]=0\nchi_formula=0\nh0=1\n"
                              "h1=1\nchi_oracle=0\nstabilized=true\n"
                              "agree=true\n")
    code, out, _ = run(["dmod", "oracle", euler30_file])
    assert (code, out) == (0, "h0=1\nh1=1\nchi_oracle=0\nstabilized=true\n")


@pytest.mark.parametrize("command", ["report", "oracle"])
def test_cap_below_the_certified_windows_is_input_error(euler30_file,
                                                        command):
    code, out, err = run(["dmod", command, euler30_file, "--dmax", "30"])
    assert (code, out) == (2, "")
    assert err == "error: degree bound must be at least 41\n"


@pytest.mark.parametrize("command", ["report", "oracle"])
def test_operator_leaving_the_function_space_is_input_error(tmp_path,
                                                            command):
    # regular at infinity, but the image of 1 is z^2
    p = tmp_path / "pole.op"
    p.write_text("a_0 = z^2\na_1 = z^4\nZ = {0}\n"
                 "regular_at_infinity = true\n")
    code, out, err = run(["dmod", command, str(p)])
    assert code == 2 and out == ""
    assert err == ("error: image leaves the function space: a pole at "
                   "infinity, which is not in Z\n")


def test_negative_exponent_reads_as_the_reciprocal(tmp_path):
    lines = {}
    for name, a0 in (("power", "(z-1)^-1"), ("quotient", "1/(z-1)")):
        p = tmp_path / ("%s.op" % name)
        p.write_text("a_0 = %s\na_1 = 1\nZ = {0, 1, inf}\n" % a0)
        code, lines[name], _ = run(["dmod", "report", str(p)])
        assert code == 0
    assert lines["power"] == lines["quotient"]
    assert "chi_formula=-1\nh0=1\n" in lines["power"]
    assert "ir[inf]=0\n" in lines["power"]


@pytest.mark.parametrize("criteria", ["42", "10,42"])
def test_unknown_criterion_is_input_error(criteria):
    code, out, err = run(["corpus", "run", "--criteria", criteria])
    assert (code, out) == (2, "")
    assert err == "error: unknown criterion 42\n"


@pytest.mark.parametrize("criteria", [",", ""])
def test_empty_criteria_is_input_error(criteria):
    # an empty selection runs nothing, not every criterion
    code, out, err = run(["corpus", "run", "--criteria", criteria])
    assert (code, out, err) == (2, "", "error: no criterion selected\n")


@pytest.mark.parametrize("criteria", ["x", "1,x", "1.5"])
def test_malformed_criteria_is_input_error(criteria):
    code, out, err = run(["corpus", "run", "--criteria", criteria])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("unifkit corpus run: error: argument "
                                    "--criteria: invalid criteria value: %r"
                                    % criteria)


@pytest.mark.parametrize("sub", ["delta", "polygon", "irregularity"])
@pytest.mark.parametrize("at", ["x", "1/0", ""])
def test_malformed_point_is_input_error(airy_file, sub, at):
    code, out, err = run(["dmod", sub, airy_file, "--at", at])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("unifkit dmod %s: error: argument --at: "
                                    "invalid point value: %r" % (sub, at))


def test_unknown_flag_is_input_error(airy_file):
    code, _, _ = run(["dmod", "chi", airy_file, "--frobnicate"])
    assert code == 2


def test_missing_file_is_input_error(tmp_path):
    code, _, err = run(["check", str(tmp_path / "nope.space")])
    assert code == 2
    assert "error:" in err


def command_paths(parser, prefix=()):
    """Every command path of the argparse tree that sets a handler."""
    func = parser.get_default("func")
    if func is not None:
        yield prefix, func
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from command_paths(sub, prefix + (name,))


def test_dispatch_covers_documented_surface():
    handlers = dict(command_paths(_parser()))
    assert all(callable(fn) for fn in handlers.values())
    assert set(handlers) == {
        ("check",), ("convert",), ("derive",), ("pervin",), ("kunzi",),
        ("quotient",),
        ("tower", "build"), ("tower", "threads"), ("tower", "uniform-cover"),
        ("tower", "tukey"), ("tower", "continuity"), ("tower", "bornology"),
        ("gtop", "ucheck"), ("gtop", "l7"), ("gtop", "groth"),
        ("gtop", "cohomology"), ("gtop", "cech"),
        ("dmod", "delta"), ("dmod", "polygon"), ("dmod", "irregularity"),
        ("dmod", "chi"), ("dmod", "oracle"), ("dmod", "report"),
        ("corpus", "run")}
