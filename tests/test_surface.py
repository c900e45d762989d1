"""The public surface of the library is what its commands, acceptance
criteria and benchmark reach.  A module-level public function or class,
or a public method of a module-level class, that no library module and
no benchmark module names is reached by tests alone; the only such names
allowed are in KEPT, each with its reason."""

import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "unifkit").glob("*.py"))
BENCHMARK = sorted(p for p in (ROOT / "perfbench").glob("*.py")
                   if not p.name.startswith("test_"))

KEPT = {
    "symmetrize": "a five-line builder of symmetric uniformities that "
                  "three test files use; moving it would remove nothing",
    "QUniformity.discrete": "a test fixture: the diagonal quasi-"
                            "uniformity on a base, one line",
    "FiniteTopology.discrete": "a test fixture: the discrete topology on "
                               "a base, one line",
    "Relation.transitive_closure": "a tested relation operation that the "
                                   "tests use as the oracle for "
                                   "reflexive_transitive_closure",
}


def _names(tree):
    """The names a module uses, as (names, bare).  names holds variables,
    attributes, imports, and the last part of dotted identifier strings,
    with which the benchmark's tracer addresses methods.  bare holds
    undotted identifier strings, which getattr on a module can turn into
    a module-level name but not into a method.  A method that shares a
    public function's name counts as a use of it, so the scan can miss
    an unreached name but never flags a reached one."""
    names, bare = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and all(part.isidentifier() for part in node.value.split("."))):
            _, dot, tail = node.value.rpartition(".")
            (names if dot else bare).add(tail)
    return names, bare


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def unreached():
    """Unreached module-level names, and unreached public methods of
    module-level classes as Class.method."""
    trees = {p: ast.parse(p.read_text()) for p in LIBRARY + BENCHMARK}
    names, bare = set(), set()
    for tree in trees.values():
        n, b = _names(tree)
        names |= n
        bare |= b
    out = set()
    for p in LIBRARY:
        for node in _public(trees[p].body):
            if node.name not in names | bare:
                out.add(node.name)
            if isinstance(node, ast.ClassDef):
                out.update("%s.%s" % (node.name, m.name)
                           for m in _public(node.body) if m.name not in names)
    return out


def test_only_kept_public_names_go_unreached():
    assert unreached() == set(KEPT)


def test_tracer_targets_resolve():
    """Every name the benchmark's tracer wraps exists: a module attribute,
    or an entry in its class's __dict__, which is what the tracer
    patches."""
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for t in tracing.TARGETS:
        owner_name, _, attr = t.attr.rpartition(".")
        owner = importlib.import_module("unifkit." + t.module)
        if owner_name:
            owner = vars(owner).get(owner_name)
        if owner is None or attr not in vars(owner):
            missing.append(t.name)
    assert missing == []
