"""Command line entry point.

Every operation reads the documented text formats and prints
deterministic key=value or section lines, so outputs diff cleanly and
golden files stay stable.  Exit codes: 0 the requested check or
computation succeeded (verdicts included), 1 it ran but the verdict is
negative (an axiom fails, a covering is not uniform, the formula and the
oracle disagree), 2 the input could not be used (parse error, missing
structure, violated precondition).  `dmod oracle` has no negative
verdict: its windows are certified, so it exits 0 or 2.
"""

import argparse
import sys

from . import formats


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _bool(b):
    return "true" if b else "false"


def _okfail(b):
    return "ok" if b else "FAIL"


# spaces


def cmd_check(args):
    sf = formats.parse_space(_read(args.path), args.path)
    if not sf.entourages and not sf.coverings and sf.opens is None:
        raise ValueError("empty basis")
    ok = True
    out = []
    if sf.entourages:
        from .quniform import check_quniformity
        rep = check_quniformity(sf.uniformity())
        out.append("entourages=%d" % len(sf.entourages))
        out.append("reflexive=%s" % _okfail(rep.reflexive_ok))
        out.append("cotransitive=%s" % _okfail(rep.cotransitive_ok))
        out.append("symmetric=%s" % ("na" if rep.symmetric_ok is None
                                     else _okfail(rep.symmetric_ok)))
        out.append("quasi_uniformity=%s" % _bool(rep.is_quasi_uniformity))
        if sf.symmetric:
            out.append("uniformity=%s" % _bool(rep.is_uniformity))
        for axiom, _, (a, b) in rep.witnesses:
            out.append("witness=%s %s,%s" % (axiom, a, b))
        ok = ok and rep.is_quasi_uniformity and (
            not sf.symmetric or rep.is_uniformity)
    if sf.coverings:
        from .quniform import is_tukey_family
        fam = sf.covering_family()
        rep = is_tukey_family(fam)
        out.append("coverings=%d" % len(fam))
        out.append("all_coverings=%s" % _okfail(rep.all_coverings_ok))
        out.append("meet=%s" % _okfail(rep.meet_ok))
        out.append("coarsening=%s" % _okfail(rep.coarsening_ok))
        out.append("star=%s" % _okfail(rep.star_ok))
        out.append("tukey_family=%s" % _bool(rep.valid))
        out.append("exhaustive=true")
        ok = ok and rep.valid
    if sf.opens is not None:
        try:
            top = sf.topology()
        except ValueError as e:
            out.append("topology=FAIL %s" % e)
            ok = False
        else:
            out.append("opens=%d" % len(top.open_masks))
            out.append("topology=ok")
            out.append("t0=%s" % _bool(top.is_t0()))
    print("\n".join(out))
    return 0 if ok else 1


def cmd_convert(args):
    sf = formats.parse_space(_read(args.path), args.path)
    if args.weil_to_tukey:
        from .quniform import weil_to_tukey
        fam = weil_to_tukey(sf.uniformity())
        out = formats.SpaceFile.from_covering_family(sf.name, fam)
    else:
        from .quniform import tukey_to_weil
        u = tukey_to_weil(sf.covering_family())
        out = formats.SpaceFile.from_uniformity(sf.name, u)
    sys.stdout.write(formats.print_space(out))
    return 0


def cmd_derive(args):
    sf = formats.parse_space(_read(args.path), args.path)
    u = sf.uniformity()
    if args.topology:
        from .quniform import topology_from
        top = topology_from(u)
        sys.stdout.write(formats.print_space(
            formats.SpaceFile.from_topology(sf.name, top)))
        return 0
    from .quniform import Proximity
    table = Proximity(u).table()
    for a, b in table:
        print("near %s %s" % ("+".join(sorted(a)), "+".join(sorted(b))))
    return 0


def cmd_pervin(args):
    return _topology_to_uniformity(args, "pervin")


def cmd_kunzi(args):
    return _topology_to_uniformity(args, "kunzi")


def _topology_to_uniformity(args, which):
    from . import quniform
    sf = formats.parse_space(_read(args.path), args.path)
    u = getattr(quniform, which)(sf.topology())
    sys.stdout.write(formats.print_space(
        formats.SpaceFile.from_uniformity(sf.name, u)))
    return 0


def cmd_quotient(args):
    from .quniform import hausdorff_quotient
    sf = formats.parse_space(_read(args.path), args.path)
    q, mapping = hausdorff_quotient(sf.uniformity())
    sys.stdout.write(formats.print_space(
        formats.SpaceFile.from_uniformity(sf.name, q)))
    for lab in sorted(mapping):
        print("# map %s -> %s" % (lab, mapping[lab]))
    return 0


# towers


def _load_tower(args):
    from .tower import make_tower
    decl = formats.parse_tower(_read(args.path), args.path)
    depth = args.depth if args.depth is not None else decl["depth"]
    uniformity = None
    if decl["generator"] == "finite":
        if decl["space"] is None:
            raise ValueError("finite towers need space=<path>")
        import os.path
        sp = os.path.join(os.path.dirname(args.path) or ".", decl["space"])
        uniformity = formats.parse_space(_read(sp), sp).uniformity()
    return make_tower(decl["generator"], depth, p=decl["p"],
                      uniformity=uniformity)


def cmd_tower_build(args):
    from .tower import verify_tower
    rep = verify_tower(_load_tower(args))
    print("\n".join(rep.lines()))
    return 0 if rep.ok else 1


def cmd_tower_threads(args):
    from .tower import enumerate_threads
    rep = enumerate_threads(_load_tower(args))
    print("\n".join(rep.lines()))
    return 0


def cmd_tower_uniform_cover(args):
    from .tower import is_uniform_covering, named_covering
    tower = _load_tower(args)
    rep = is_uniform_covering(tower, named_covering(tower, args.covering))
    print("\n".join(rep.lines()))
    return 0 if rep.ok else 1


def cmd_tower_tukey(args):
    from .tower import is_tukey_at_depth, named_covering
    tower = _load_tower(args)
    rep = is_tukey_at_depth(tower, named_covering(tower, args.covering))
    print("\n".join(rep.lines()))
    return 0 if rep.ok else 1


def cmd_tower_continuity(args):
    from .tower import CoveringTower, check_uniform_continuity, make_tower
    src = _load_tower(args)
    dst_depth = (args.target_depth if args.target_depth is not None
                 else src.depth)
    if args.map == "identity":
        dst = CoveringTower(src.gen, dst_depth)
    elif args.map == "polar_to_cartesian":
        dst = make_tower("metric_disk", dst_depth)
    else:
        dst = make_tower("sectorial_disk", dst_depth)
    rep = check_uniform_continuity(args.map, src, dst)
    print("\n".join(rep.lines()))
    return 0 if rep.ok else 1


def cmd_tower_bornology(args):
    from .tower import bornology_at_depth
    tower = _load_tower(args)
    blocks = [tower.gen.parse_block(t) for t in args.blocks.split(";")]
    rep = bornology_at_depth(tower, args.level, blocks)
    print("\n".join(rep.lines()))
    return 0 if rep.bounded else 1


# dense pairs and sheaves


def _load_pair(args):
    return formats.parse_space(_read(args.path), args.path).dense_pair()


def cmd_gtop_ucheck(args):
    pair = _load_pair(args)
    labels = tuple(t for t in args.labels.split(",") if t)
    res = pair.u_check(labels)
    print("ucheck=%s" % ("+".join(sorted(res)) if res else "empty"))
    return 0


def cmd_gtop_l7(args):
    from .gtop import check_l7
    rep = check_l7(_load_pair(args))
    out = []
    for i in range(1, 8):
        if rep.items[i]:
            out.append("item%d=pass" % i)
        elif i in (6, 7):
            out.append("item%d=fail(expected)" % i)
        else:
            out.append("item%d=fail" % i)
    for i in sorted(rep.witnesses):
        if not rep.items[i]:
            out.append("witness%d=%s" % (i, rep.witnesses[i]))
    print("\n".join(out))
    return 0 if rep.items1to5_ok else 1


def cmd_gtop_groth(args):
    from .gtop import check_grothendieck, uniform_g_topology
    g = uniform_g_topology(_load_pair(args),
                           max_family_size=args.max_family_size)
    rep = check_grothendieck(g)
    out = ["identity=%s" % _okfail(rep.identity_ok),
           "restriction=%s" % _okfail(rep.restriction_ok),
           "composition=%s" % _okfail(rep.composition_ok),
           "detection=%s" % _okfail(rep.detection_ok),
           "saturation=%s" % _okfail(rep.saturation_ok),
           "grothendieck=%s" % _bool(rep.valid)]
    print("\n".join(out))
    return 0 if rep.valid else 1


def cmd_gtop_cohomology(args):
    from .gtop import sheaf_cohomology
    _, sheaf = formats.parse_sheaf(_read(args.path), args.path)
    betti = sheaf_cohomology(sheaf)
    for k, d in enumerate(betti):
        print("H^%d = %d" % (k, d))
    return 0


def cmd_gtop_cech(args):
    from .gtop import cech_cohomology, constant_sheaf, sheaf_cohomology
    sf = formats.parse_space(_read(args.path), args.path)
    pair = sf.dense_pair()
    if not sf.coverings:
        raise ValueError("no covering sections")
    base = pair.xhat.base
    members = [base.mask_of(b) for b in sf.coverings[0][1]]
    f = constant_sheaf(pair.xhat)
    cech = cech_cohomology(pair, f, members)
    poset = sheaf_cohomology(f)
    for k, d in enumerate(cech):
        print("cech H^%d = %d" % (k, d))
    for k, d in enumerate(poset):
        print("poset H^%d = %d" % (k, d))
    match = cech == poset
    print("match=%s" % _bool(match))
    return 0 if match else 1


# differential operators


def _load_operator(args):
    return formats.parse_operator(_read(args.path), args.path)


def point(text):
    """A rational or inf, as --at reads it."""
    from .dmod import as_point
    try:
        return as_point(text)
    except ZeroDivisionError:  # a zero denominator, 1/0
        raise ValueError(text) from None


def cmd_dmod_delta(args):
    from .dmod import to_delta_form
    spec = _load_operator(args)
    bs = to_delta_form(spec.operator, args.at)
    for i, b in enumerate(bs):
        print("b_%d = %s" % (i, formats.format_ratfunc(b)))
    return 0


def cmd_dmod_polygon(args):
    from .dmod import newton_polygon
    spec = _load_operator(args)
    np = newton_polygon(spec.operator, args.at)
    for i, y in np.points:
        print("point %d %s" % (i, y))
    for i, y in np.hull:
        print("vertex %d %s" % (i, y))
    for lam, length in np.slopes:
        print("slope %s length %d" % (lam, length))
    print("irregularity=%d" % np.irregularity)
    return 0


def cmd_dmod_irregularity(args):
    from .dmod import format_point, irregularity
    spec = _load_operator(args)
    if args.at is not None:
        pts = [args.at]
    else:
        pts = spec.sorted_points()
    for p in pts:
        print("ir[%s]=%d" % (format_point(p),
                             irregularity(spec.operator, p)))
    return 0


def cmd_dmod_chi(args):
    from .dmod import deligne_chi
    print("chi=%d" % deligne_chi(_load_operator(args)))
    return 0


def cmd_dmod_oracle(args):
    from .dmod import index_report
    rep = index_report(_load_operator(args), args.dmax)
    # h0, h1, chi_oracle and stabilized: the report without the formula
    print("\n".join(rep.lines()[-5:-1]))
    return 0


def cmd_dmod_report(args):
    from .dmod import index_report
    spec = _load_operator(args)
    rep = index_report(spec, args.dmax)
    print("\n".join(rep.lines()))
    return 0 if rep.agree else 1


# the acceptance suite


def criteria(text):
    """Comma-separated criterion numbers, as --criteria reads them; none
    at all reaches run_all, which rejects it."""
    return [int(t) for t in text.split(",") if t.strip()]


def cmd_corpus_run(args):
    from .acceptance import run_all
    return 0 if run_all(criteria=args.criteria) else 1


def _parser():
    p = argparse.ArgumentParser(
        prog="unifkit",
        description="entourage models, covering towers, finite sheaf "
                    "cohomology, and connection indices")
    sub = p.add_subparsers(dest="cmd", required=True, metavar="command")

    q = sub.add_parser("check", help="axiom reports for a space file")
    q.add_argument("path")
    q.set_defaults(func=cmd_check)

    q = sub.add_parser("convert",
                       help="entourage filter to covering family or back")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--weil-to-tukey", action="store_true")
    g.add_argument("--tukey-to-weil", action="store_true")
    q.add_argument("path")
    q.set_defaults(func=cmd_convert)

    q = sub.add_parser("derive",
                       help="induced proximity or topology of a uniformity")
    g = q.add_mutually_exclusive_group(required=True)
    g.add_argument("--proximity", action="store_true")
    g.add_argument("--topology", action="store_true")
    q.add_argument("path")
    q.set_defaults(func=cmd_derive)

    for name, fn in (("pervin", cmd_pervin), ("kunzi", cmd_kunzi)):
        q = sub.add_parser(name,
                           help="%s quasi-uniformity of a topology" % name)
        q.add_argument("path")
        q.set_defaults(func=fn)

    q = sub.add_parser("quotient",
                       help="separated quotient of a uniformity")
    q.add_argument("path")
    q.set_defaults(func=cmd_quotient)

    t = sub.add_parser("tower", help="covering tower operations")
    tsub = t.add_subparsers(dest="sub", required=True, metavar="operation")

    def tower_parser(name, fn):
        q = tsub.add_parser(name)
        q.add_argument("path")
        q.add_argument("--depth", type=int, default=None,
                       help="override the depth in the tower file")
        q.set_defaults(func=fn)
        return q

    tower_parser("build", cmd_tower_build)
    tower_parser("threads", cmd_tower_threads)
    q = tower_parser("uniform-cover", cmd_tower_uniform_cover)
    q.add_argument("--covering", required=True,
                   help="level:<k>, sectors, sectors:<k>, or residues")
    q = tower_parser("tukey", cmd_tower_tukey)
    q.add_argument("--covering", required=True)
    q = tower_parser("continuity", cmd_tower_continuity)
    q.add_argument("--map", required=True,
                   choices=("identity", "polar_to_cartesian",
                            "cartesian_to_polar"))
    q.add_argument("--target-depth", type=int, default=None)
    q = tower_parser("bornology", cmd_tower_bornology)
    q.add_argument("--level", type=int, required=True)
    q.add_argument("--blocks", required=True,
                   help="semicolon-separated block names, e.g. b2,3;b2,4")

    gt = sub.add_parser("gtop", help="dense pairs and sheaf cohomology")
    gsub = gt.add_subparsers(dest="sub", required=True, metavar="operation")
    q = gsub.add_parser("ucheck")
    q.add_argument("path")
    q.add_argument("--labels", required=True,
                   help="comma-separated labels of a trace-open set")
    q.set_defaults(func=cmd_gtop_ucheck)
    q = gsub.add_parser("l7")
    q.add_argument("path")
    q.set_defaults(func=cmd_gtop_l7)
    q = gsub.add_parser("groth")
    q.add_argument("path")
    q.add_argument("--max-family-size", type=int, default=2)
    q.set_defaults(func=cmd_gtop_groth)
    q = gsub.add_parser("cohomology")
    q.add_argument("path")
    q.set_defaults(func=cmd_gtop_cohomology)
    q = gsub.add_parser("cech")
    q.add_argument("path")
    q.set_defaults(func=cmd_gtop_cech)

    dm = sub.add_parser("dmod", help="connection index operations")
    dsub = dm.add_subparsers(dest="sub", required=True, metavar="operation")
    for name, fn, with_at, dmax in (
            ("delta", cmd_dmod_delta, True, False),
            ("polygon", cmd_dmod_polygon, True, False),
            ("irregularity", cmd_dmod_irregularity, "optional", False),
            ("chi", cmd_dmod_chi, False, False),
            ("oracle", cmd_dmod_oracle, False, True),
            ("report", cmd_dmod_report, False, True)):
        q = dsub.add_parser(name)
        q.add_argument("path")
        if with_at:
            q.add_argument("--at", type=point, required=with_at is True,
                           help="point (a rational or inf)")
        if dmax:
            q.add_argument("--dmax", type=int, default=80,
                           help="cap on the oracle's last window")
        q.set_defaults(func=fn)

    c = sub.add_parser("corpus", help="the acceptance suite")
    csub = c.add_subparsers(dest="sub", required=True, metavar="operation")
    q = csub.add_parser("run")
    q.add_argument("--criteria", type=criteria, default=None,
                   help="comma-separated criterion numbers (default all)")
    q.set_defaults(func=cmd_corpus_run)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as e:
        # FormatError is a ValueError
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
