"""Acceptance gate: the full criteria suite, one verdict line each.

The suite runs once per session; each test then checks its own line.
Budgets are wall-clock and generous, but a slow machine can still trip
them, in which case the verdict line says so.
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest

from unifkit import acceptance, gtop, linalg
from unifkit.acceptance import CRITERIA, run_all


@pytest.fixture(scope="module")
def verdicts():
    lines = []
    all_ok = run_all(out=lines.append)
    table = {}
    for line in lines:
        m = re.match(r"criterion\s+(\d+) (PASS|FAIL) ", line)
        assert m, line
        table[int(m.group(1))] = (m.group(2), line)
    assert set(table) == {num for num, _, _, _ in CRITERIA}
    assert all_ok == all(v == "PASS" for v, _ in table.values())
    return table


def _check(verdicts, num):
    verdict, line = verdicts[num]
    print(line)
    assert verdict == "PASS", line


def test_criterion_01_entourage_cores(verdicts):
    _check(verdicts, 1)
    assert "16187 bases, 8687 validated, 349 round trips" in verdicts[1][1]


def test_criterion_02_topology_compat(verdicts):
    _check(verdicts, 2)


def test_criterion_03_trace_opens(verdicts):
    _check(verdicts, 3)


def test_criterion_04_site_axioms(verdicts):
    _check(verdicts, 4)


def test_criterion_05_nerve_vs_direct(verdicts):
    _check(verdicts, 5)
    assert "13 pairs, 208 sheaves" in verdicts[5][1]


def test_criterion_05_names_the_covering_that_fails_to_glue(monkeypatch):
    pairs = []

    def fails_on_the_third_sheaf(pair, f):
        pairs.append(pair)
        if len(pairs) == 3:
            return False, (pair.x_mask, (pair.x_mask,))
        return True, None

    monkeypatch.setattr(gtop, "check_gluing", fails_on_the_third_sheaf)
    ok, detail = acceptance._c5()
    assert len(pairs) == 3
    x = pairs[-1].x_mask
    assert (ok, detail) == (False, "gluing fails on %r: U %d, family (%d,)"
                            % (sorted(pairs[-1].x_labels), x, x))


def test_criterion_06_disk_towers(verdicts):
    _check(verdicts, 6)


def test_criterion_07_tangential_cohomology(verdicts):
    _check(verdicts, 7)


def test_criterion_08_residue_towers(verdicts):
    _check(verdicts, 8)


def test_criterion_09_index_formula(verdicts):
    _check(verdicts, 9)


def test_criterion_10_irregularity_values(verdicts):
    _check(verdicts, 10)


def test_crash_line_names_type_and_innermost_frame(monkeypatch):
    def inconsistent():
        one = Fraction(1)
        linalg.solve_many([[one], [one]], [[one, one + one]])

    monkeypatch.setattr(acceptance, "CRITERIA",
                        ((7, "raises inside the library", inconsistent, 60),))
    lines = []
    assert not run_all(out=lines.append)
    [line] = lines
    m = re.fullmatch(r"criterion  7 FAIL raises inside the library "
                     r"\(crashed: ValueError at unifkit/linalg\.py:(\d+) in "
                     r"solve_many: inconsistent system; \d+\.\ds, budget 60s\)",
                     line)
    assert m, line
    src = Path(linalg.__file__).read_text().splitlines()
    assert "raise ValueError" in src[int(m.group(1)) - 1]


@pytest.mark.parametrize("criteria", [[], (), set()])
def test_empty_selection_is_an_error(criteria):
    lines = []
    with pytest.raises(ValueError, match="^no criterion selected$"):
        run_all(criteria=criteria, out=lines.append)
    assert lines == []
