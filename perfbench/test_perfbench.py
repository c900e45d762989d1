"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# counters later changes may rest a count claim on
EXACT_COUNTS = ("linalg.rref.cells", "linalg.rref.calls",
                "gtop.GCoveringSystem.is_g_covering.calls",
                "quniform.tukey_to_weil.relations",
                "tower.check_uniform_continuity.calls")


def setup_inputs(name, seed):
    return workloads.setup(run.load_library(), name, seed)


def first_of_each_kind(items, k=3):
    seen = {}
    out = []
    for item in items:
        if seen.get(item.kind, 0) < k:
            seen[item.kind] = seen.get(item.kind, 0) + 1
            out.append(item)
    return out


def test_benchmark_json_names_match_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    want = dict(tracing.metric_units(), **{"trace.overhead": "ratio"})
    assert per_layer == want


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_per_seed_and_change_with_it(name):
    a = setup_inputs(name, 7)
    b = setup_inputs(name, 7)
    c = setup_inputs(name, 8)
    assert a.problems == [] and c.problems == []
    assert a.fingerprint == b.fingerprint
    assert [i.kind for i in a.items] == [i.kind for i in b.items]
    assert a.fingerprint != c.fingerprint
    # the seed picks members of each stratum, never the composition
    assert sorted(i.kind for i in a.items) == sorted(i.kind for i in c.items)
    assert len(a.items) % 10 == 5


FRESH = {
    # workload -> (constructor, which items must build one)
    "sites": ("gtop.DensePair.__init__", None),
    "towers": ("tower.CoveringTower.__init__", None),
    "cohomology": ("gtop.PosetSheaf.__init__", None),
    "index": ("dmod.ConnectionSpec.__init__", "report"),
    "uniformities": ("quniform.QUniformity.__init__", None),
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_pass_builds_fresh_objects(name):
    ctor, kind = FRESH[name]
    module, attr = ctor.split(".", 1)
    tracer = tracing.Tracer([tracing.Target(ctor, module, attr, leaf=True)])
    lib = run.load_library()
    items = first_of_each_kind(workloads.setup(lib, name, 3).items)
    built = []
    tracer.install(lib)
    try:
        with run.ReferenceClock() as ref:
            for _ in range(2):
                tracer.reset()
                assert run.run_pass(items, ref).failures == []
                built.append(tracer.counters()[ctor + ".calls"])
    finally:
        tracer.uninstall()
    need = sum(1 for i in items if kind is None or i.kind == kind)
    assert built[0] == built[1] >= need


def test_raising_and_wrong_items_are_failures_with_their_location():
    lib = run.load_library()
    base = lib.enumeration.standard_base(2)
    top = lib.topology.FiniteTopology.from_opens(base, [[], ["x1"],
                                                        ["x0", "x1"]])
    items = [
        workloads.Item("ok", lambda d: 1, lambda d, out: None, None),
        workloads.Item("raises", lambda d: lib.gtop.DensePair(top, ["x0"]),
                       lambda d, out: None, None),
        workloads.Item("wrong", lambda d: 2,
                       lambda d, out: "got %d" % out, None),
    ]
    with run.ReferenceClock() as ref:
        res = run.run_pass(items, ref)
    assert len(res.latencies) == 3
    raised, wrong = res.failures
    assert raised["kind"] == "raises"
    assert raised["type"] == "ValueError"
    assert raised["where"].startswith("unifkit/gtop.py:")
    assert raised["where"].endswith(" in __init__")
    assert raised["message"] == "subset is not dense"
    assert wrong == {"type": "wrong answer", "message": "got 2",
                     "kind": "wrong"}
    attempted, failures = run.tally([res], [])
    assert (attempted, len(failures)) == (3, 2)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat_exactly(name):
    with run.ReferenceClock() as ref:
        # no time left after the first pass, so each run makes one pass
        first, inputs, passes = run.traced_run(name, 5, 0, ref,
                                               tracing.Tracer())
        second, _, _ = run.traced_run(name, 5, 0, ref, tracing.Tracer())
    assert len(passes) == 1
    assert inputs.problems == [] and passes[0].failures == []
    counts = [k for k in first if not k.endswith(".self_s")]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert all(k in first for k in EXACT_COUNTS)


def run_cli(workload, trace, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, env=env, capture_output=True, text=True,
        timeout=300, check=True)
    lines = out.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_command_line_result_and_counts_across_processes():
    rec, res = run_cli("uniformities", 0, 0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert rec["items_per_pass"] == {"check": 18, "round_trip": 5,
                                     "pervin": 1, "kunzi": 1}
    assert rec["fail_ratio"] == 0.0

    traced = [run_cli("uniformities", 1, h)[1]["metrics"] for h in (1, 2)]
    assert set(traced[0]) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = [k for k, v in traced[0].items() if v["unit"] != "s"
              and k != "trace.overhead"]
    assert [traced[0][k] for k in counts] == [traced[1][k] for k in counts]
    assert traced[0]["quniform.tukey_to_weil.relations"]["value"] > 0
