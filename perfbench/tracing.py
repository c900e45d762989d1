"""Per-layer tracing by wrapping unifkit's public functions from outside.

A Tracer replaces each target with a wrapper: the module attribute, every
other module attribute bound to the same function (the `from .x import y`
re-bindings), or the attribute on its class for methods, classmethods and
constructors.  Each wrapper counts calls and raised exceptions and adds
its self time, which is its duration minus the time spent in wrapped
calls beneath it.  Coarse targets also record a span (id, parent, item,
name, start, end); hot leaf targets keep counters only, because some run
close to a million times per pass.

Nothing is installed unless `install` is called, so untraced runs execute
the library exactly as users do.
"""

from __future__ import annotations

import sys
import time


class Target:
    """One wrapped callable: `attr` is "func", "Class.method" or
    "Class.__init__" inside the layer module `module`."""

    __slots__ = ("name", "module", "attr", "leaf", "scoped", "before")

    def __init__(self, name, module, attr, leaf, scoped=False, before=None):
        self.name = name
        self.module = module
        self.attr = attr
        self.leaf = leaf
        self.scoped = scoped
        self.before = before


def _count_rref_input(tracer, args):
    m = args[0]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    tracer.extra["linalg.rref.cells"] += rows * cols
    bits = 0
    for row in m:
        for x in row:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > bits:
                bits = b
    if bits > tracer.extra["linalg.rref.max_bits"]:
        tracer.extra["linalg.rref.max_bits"] = bits


def _count_tukey_relation(tracer, args):
    if tracer.depth["quniform.tukey_to_weil"]:
        tracer.extra["quniform.tukey_to_weil.relations"] += 1


# Grouped by the end-to-end metric each target should move, and where.
TARGETS = (
    # pass_s and item_ms_p90 on sites (grothendieck items), item_ms_p50
    # there (l7 items); no change elsewhere.  Per-object caches also move
    # peak_rss_mb on sites.
    Target("gtop.GCoveringSystem.is_g_covering", "gtop",
           "GCoveringSystem.is_g_covering", leaf=True),
    Target("gtop.DensePair.u_hat_mask", "gtop", "DensePair.u_hat_mask",
           leaf=True),
    Target("gtop.DensePair.member_reach_mask", "gtop",
           "DensePair.member_reach_mask", leaf=True),
    Target("topology.closure_mask", "topology", "FiniteTopology.closure_mask",
           leaf=True),
    Target("gtop.check_grothendieck", "gtop", "check_grothendieck",
           leaf=False),
    Target("gtop.check_l7", "gtop", "check_l7", leaf=False),
    # setup_s on sites
    Target("enumeration.all_partial_orders", "enumeration",
           "all_partial_orders", leaf=False),
    Target("enumeration.dense_subsets", "enumeration", "dense_subsets",
           leaf=True),
    Target("topology.from_preorder", "topology", "FiniteTopology.from_preorder",
           leaf=True),
    # pass_s on towers and nothing on cohomology, where only
    # puncture_quotient runs (inside puncture_cohomology)
    Target("tower.check_uniform_continuity", "tower",
           "check_uniform_continuity", leaf=False),
    Target("tower.enumerate_threads", "tower", "enumerate_threads",
           leaf=False),
    Target("tower.is_uniform_covering", "tower", "is_uniform_covering",
           leaf=False),
    Target("tower.verify_tower", "tower", "verify_tower", leaf=False),
    Target("tower.puncture_quotient", "tower", "puncture_quotient",
           leaf=False),
    # pass_s and item_ms_p90 on cohomology, item_ms_p50 there (small sheaf
    # matrices); pass_s on index, which must not get worse when
    # cohomology improves
    Target("linalg.rref", "linalg", "rref", leaf=True,
           before=_count_rref_input),
    Target("linalg.rank", "linalg", "rank", leaf=True),
    Target("linalg.kernel_basis", "linalg", "kernel_basis", leaf=True),
    Target("linalg.solve_many", "linalg", "solve_many", leaf=True),
    # pass_s on cohomology
    Target("gtop.sheaf_cohomology", "gtop", "sheaf_cohomology", leaf=False),
    Target("gtop.cech_cohomology", "gtop", "cech_cohomology", leaf=False),
    Target("gtop.simplicial_cohomology", "gtop", "simplicial_cohomology",
           leaf=False),
    # pass_s on index; partial_fractions is also bound in dmod by name
    Target("dmod.index_report", "dmod", "index_report", leaf=False),
    Target("dmod.irregularity", "dmod", "irregularity", leaf=False),
    Target("dmod.DiffOp.apply", "dmod", "DiffOp.apply", leaf=True),
    Target("poly.partial_fractions", "poly", "partial_fractions", leaf=True),
    Target("poly.Polynomial", "poly", "Polynomial.__init__", leaf=True),
    # pass_s and item_ms_p90 on uniformities
    Target("quniform.tukey_to_weil", "quniform", "tukey_to_weil", leaf=False,
           scoped=True),
    Target("quniform.weil_to_tukey", "quniform", "weil_to_tukey", leaf=False),
    Target("relations.Relation", "relations", "Relation.__init__", leaf=True,
           before=_count_tukey_relation),
    # item_ms_p50 on uniformities
    Target("quniform.check_quniformity", "quniform", "check_quniformity",
           leaf=True),
    Target("quniform.pervin", "quniform", "pervin", leaf=True),
    Target("quniform.kunzi", "quniform", "kunzi", leaf=True),
    Target("quniform.topology_from", "quniform", "topology_from", leaf=True),
)

# Counters beyond calls, self time and errors.  max_bits is a maximum;
# the others are sums.
EXTRA = {"linalg.rref.cells": "count", "linalg.rref.max_bits": "bits",
         "quniform.tukey_to_weil.relations": "count"}
MAX_EXTRA = frozenset({"linalg.rref.max_bits"})


def metric_units():
    """Metric name -> unit for everything `Tracer.counters` reports."""
    out = {}
    for t in TARGETS:
        out[t.name + ".calls"] = "count"
        out[t.name + ".self_s"] = "s"
        out[t.name + ".errors"] = "count"
    out.update(EXTRA)
    return out


class Tracer:
    """Counters and spans for one traced run.  `reset` starts a new phase
    (set-up or one pass); `counters` reads the phase so far."""

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self._stats = {t.name: [0, 0.0, 0] for t in self.targets}
        self.extra = dict.fromkeys(EXTRA, 0)
        self.depth = {t.name: 0 for t in self.targets if t.scoped}
        self.spans = []
        self.keep_spans = False
        self._origin = time.perf_counter()
        self._next_id = 1
        self._item = None
        # frames are [child_time, span_id]; the base frame never pops
        self._stack = [[0.0, None]]
        self._restore = []

    # installation

    def install(self, lib):
        """Wrap every target in the layer modules held by `lib`."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in sorted(sys.modules.items())
                   if n.startswith("unifkit.") and m is not None]
        for t in self.targets:
            mod = getattr(lib, t.module)
            owner_name, _, attr = t.attr.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(t, raw.__func__))
                else:
                    new = self._wrap(t, raw)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            raw = getattr(mod, attr)
            new = self._wrap(t, raw)
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is raw:
                        self._restore.append((m, key, raw))
                        setattr(m, key, new)

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    def _wrap(self, target, fn):
        stat = self._stats[target.name]
        stack = self._stack
        clock = time.perf_counter
        before = target.before
        tracer = self
        if target.leaf:
            def leaf_wrapper(*args, **kwargs):
                t0 = clock()
                if before is not None:
                    before(tracer, args)
                frame = [0.0, stack[-1][1]]
                stack.append(frame)
                t1 = clock()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    stat[2] += 1
                    raise
                finally:
                    t2 = clock()
                    stack.pop()
                    stat[0] += 1
                    stat[1] += t2 - t1 - frame[0]
                    stack[-1][0] += t2 - t0
            return leaf_wrapper

        name = target.name
        depth = self.depth if target.scoped else None

        def span_wrapper(*args, **kwargs):
            t0 = clock()
            if before is not None:
                before(tracer, args)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1][1]
            frame = [0.0, sid]
            stack.append(frame)
            if depth is not None:
                depth[name] += 1
            t1 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat[2] += 1
                raise
            finally:
                t2 = clock()
                if depth is not None:
                    depth[name] -= 1
                stack.pop()
                stat[0] += 1
                stat[1] += t2 - t1 - frame[0]
                stack[-1][0] += t2 - t0
                if tracer.keep_spans:
                    tracer.spans.append((sid, parent, tracer._item, name,
                                         t1 - tracer._origin,
                                         t2 - tracer._origin))
        return span_wrapper

    # items and phases

    def begin_item(self, index, kind):
        """Open the root span of one benchmark item; spans below it carry
        its index."""
        sid = self._next_id
        self._next_id = sid + 1
        self._item = index
        self._stack.append([0.0, sid])
        return (sid, kind, time.perf_counter())

    def end_item(self, token):
        sid, kind, start = token
        end = time.perf_counter()
        self._stack.pop()
        if self.keep_spans:
            self.spans.append((sid, None, self._item, "item." + kind,
                               start - self._origin, end - self._origin))
        self._item = None

    def reset(self):
        for stat in self._stats.values():
            stat[0] = 0
            stat[1] = 0.0
            stat[2] = 0
        for key in self.extra:
            self.extra[key] = 0

    def counters(self):
        """Metric name -> value for the phase since the last reset."""
        out = {}
        for name, (calls, self_s, errors) in self._stats.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
            out[name + ".errors"] = errors
        out.update(self.extra)
        return out
