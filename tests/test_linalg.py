"""Exact linear algebra against a plain Fraction Gauss-Jordan oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unifkit import linalg
from unifkit.tower import make_tower, puncture_quotient


def oracle_rref(m):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    rows = [[Fraction(x) for x in r] for r in m]
    nr = len(rows)
    nc = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
INTS = st.integers(-9, 9)
KINDS = {"fraction": FRACTIONS, "int": INTS,
         "mixed": st.one_of(FRACTIONS, INTS)}


def entries(zero_share, kind="fraction"):
    """Entries of one kind (Fractions, ints, or both mixed within a
    row), zero with probability zero_share / 4; a zero is 0 or
    Fraction(0) as the kind says."""
    entry = KINDS[kind]
    zero = st.just(0) if kind == "int" else st.sampled_from(
        (Fraction(0), 0) if kind == "mixed" else (Fraction(0),))
    return st.integers(0, 3).flatmap(
        lambda k: zero if k < zero_share else entry)


@st.composite
def matrices(draw, max_rows=8, max_cols=8):
    nr = draw(st.integers(0, max_rows))
    nc = draw(st.integers(0, max_cols))
    zero_share = draw(st.integers(0, 4))
    entry = entries(zero_share, draw(st.sampled_from(sorted(KINDS))))
    return [[draw(entry) for _ in range(nc)] for _ in range(nr)]


def mat_vec(a, v):
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in a]


def check_against_oracle(m):
    rows, pivots = linalg.rref(m)
    want_rows, want_pivots = oracle_rref(m)
    assert pivots == want_pivots
    assert rows == want_rows
    assert all(type(x) is Fraction for row in rows for x in row)
    rank = len(want_pivots) if m and m[0] else 0
    assert linalg.rank(m) == rank
    ncols = len(m[0]) if m else 0
    basis = linalg.kernel_basis(m, ncols)
    assert len(basis) == ncols - rank
    for v in basis:
        assert all(type(x) is Fraction for x in v)
        assert all(x == 0 for x in mat_vec(m, v))
    if basis:
        assert linalg.rank(basis) == len(basis)


@settings(max_examples=400, deadline=None)
@given(matrices())
def test_rref_rank_kernel_match_the_oracle(m):
    check_against_oracle(m)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_kernel_vector_of_a_free_column_ends_there(m):
    ncols = len(m[0]) if m else 0
    _, pivots = oracle_rref(m)
    free = [c for c in range(ncols) if c not in pivots]
    basis = linalg.kernel_basis(m, ncols)
    assert len(basis) == len(free)
    for c, v in zip(free, basis):
        assert [v[k] for k in free] == [int(k == c) for k in free]
        assert max(k for k, x in enumerate(v) if x) == c


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_pivot_columns_do_not_depend_on_the_row_order(m, data):
    shuffled = data.draw(st.permutations(m))
    _, want = oracle_rref(m)
    assert linalg.rref(shuffled)[1] == linalg.rref(m)[1] == want
    assert linalg.rank(shuffled) == len(want)
    assert linalg.rref(shuffled) == linalg.rref(m)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_two_row_groups_read_both_ranks_from_one_elimination(m, data):
    # the index oracle's one elimination: after the first group of rows
    # the pivots count its rank, and the second group brings them to the
    # pivot columns of the whole matrix, whichever rows go first
    order = data.draw(st.permutations(range(len(m))))
    cut = data.draw(st.integers(0, len(m)))
    first = [m[i] for i in order[:cut]]
    rows = [linalg._cleared(e) for e in linalg._entries(m)]
    pivots = {}
    for i in order[:cut]:
        linalg._insert(pivots, rows[i])
    assert len(pivots) == linalg.rank(first) == len(oracle_rref(first)[1])
    for i in order[cut:]:
        linalg._insert(pivots, rows[i])
    assert sorted(pivots) == linalg.rref(m)[1] == oracle_rref(m)[1]


@settings(max_examples=300, deadline=None)
@given(matrices(), st.data())
def test_sparse_rank_matches_the_dense_rank(m, data):
    # rows given as their nonzero entries, zeros dropped, in any order
    rows = [{c: x for c, x in enumerate(row) if x}
            for row in data.draw(st.permutations(m))]
    assert linalg.sparse_rank(rows) == linalg.rank(m) \
        == len(oracle_rref(m)[1])


@settings(max_examples=200, deadline=None)
@given(matrices(max_rows=6, max_cols=6), st.data())
def test_solve_many_solves_consistent_and_rejects_inconsistent(a, data):
    if not a or not a[0]:
        return
    nc = len(a[0])
    xs = data.draw(st.lists(st.lists(entries(1), min_size=nc, max_size=nc),
                            min_size=1, max_size=3))
    bs = [mat_vec(a, x) for x in xs]
    sols = linalg.solve_many(a, bs)
    assert len(sols) == len(bs)
    for v, b in zip(sols, bs):
        assert len(v) == nc
        assert all(type(x) is Fraction for x in v)
        assert mat_vec(a, v) == b
    # a right-hand side off the column span, if the span is not everything
    if linalg.rank(a) < len(a):
        left = linalg.kernel_basis(linalg.transpose(a), len(a))[0]
        pos = next(i for i, x in enumerate(left) if x)
        bad = [Fraction(int(i == pos)) for i in range(len(a))]
        with pytest.raises(ValueError):
            linalg.solve_many(a, bs + [bad])


F = Fraction


@pytest.mark.parametrize("m", [
    [],
    [[], [], []],
    [[F(0)] * 4 for _ in range(3)],
    [[F(0), F(0)], [F(3, 2), F(-1, 4)], [F(0), F(0)]],
    [[F(2, 3), F(0), F(-5), F(1, 6)]],
    [[F(0)], [F(-7, 5)], [F(2)]],
    [[F(0)], [F(0)]],
    [[F(1)]],
])
def test_edge_shapes(m):
    check_against_oracle(m)


def test_malformed_shapes_raise():
    for bad in ([[1], [1, 2]], [[1, 2], [1]], [[F(1), F(2)], []]):
        with pytest.raises(ValueError):
            linalg.rank(bad)
        with pytest.raises(ValueError):
            linalg.rref(bad)
        with pytest.raises(ValueError):
            linalg.kernel_basis(bad)
        with pytest.raises(ValueError):
            linalg.solve_many(bad, [[1] * len(bad)])
        with pytest.raises(ValueError):
            linalg.matmul(bad, [[1], [1]])
        with pytest.raises(ValueError):
            linalg.matmul([[1, 1]], bad)
    with pytest.raises(ValueError):
        linalg.kernel_basis([[1], [1, 2]], 2)
    with pytest.raises(ValueError):
        linalg.kernel_basis([[1, 2]], 3)
    with pytest.raises(ValueError):
        linalg.matmul([[1, 2, 3]], [])
    with pytest.raises(ValueError):
        linalg.matmul([[1, 2]], [[1, 2, 3]])
    with pytest.raises(ValueError):
        linalg.solve_many([[1, 2], [3, 4]], [[1, 2, 3]])
    # shapes without entries stay legal
    assert linalg.matmul([], [[1]]) == []
    assert linalg.matmul([[]], []) == [[]]
    assert linalg.matmul([[1], [2]], [[]]) == [[], []]
    assert linalg.kernel_basis([], 2) == [[1, 0], [0, 1]]
    assert linalg.rank([[], []]) == 0


def test_inconsistent_system_raises():
    a = [[F(1), F(2)], [F(2), F(4)]]
    assert linalg.solve_many(a, [[F(3), F(6)]]) == [[F(3), F(0)]]
    with pytest.raises(ValueError):
        linalg.solve_many(a, [[F(3), F(6)], [F(1), F(1)]])


def test_puncture_circle_differential_has_rank_127():
    top, _ = puncture_quotient(make_tower("sectorial_disk", 6))
    points, edges = top.strict_chains()
    assert len(points) == len(edges) == 128
    index = {c: k for k, c in enumerate(points)}
    d0 = linalg.zeros(len(edges), len(points))
    for r, (a, b) in enumerate(edges):
        d0[r][index[(b,)]] += 1
        d0[r][index[(a,)]] -= 1
    assert linalg.rank(d0) == 127
    assert len(linalg.kernel_basis(d0)) == 1
