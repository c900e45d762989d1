"""Exact linear algebra over the rationals on one sparse integer kernel.

Matrices are lists of equal-length rows of ints or Fractions.  The
kernel sees each row as its nonzero entries {column: int}, multiplied by
the lcm of their denominators, so a row combination touches only the
columns where either row is nonzero; the 0/+-1 differentials of the
order complexes have a few entries per row.  Rows are inserted one at a
time by _insert, the one row-insertion entry point, fed by one loop,
_echelon, which clears each row given as its nonzero entries {column:
rational}: read off a matrix by _entries, or arriving sparse (the
coboundaries of gtop, through sparse_rank).  A caller that holds sparse
integer rows (dmod._OracleSession.window_dims) calls _insert itself.  A
row whose leading column already holds a pivot row with pivot p has its
leading entry f cleared by cross-multiplication, row := (p/g)*row -
(f/g)*pivot_row with g = gcd(p, f), and is divided by its content (the
gcd of its entries), until its leading column is new (it becomes a pivot
row there) or it vanishes.  Every row therefore stays the primitive
integer vector along the row that elimination over Q would give, so
entry sizes stay bounded by the matching minors (Bareiss 1968).

The pivot rows span the row space and have distinct leading columns,
so they are a row echelon basis of it, and the leading columns of any
echelon basis of a row space are the pivot columns of its reduced row
echelon form: column c is a leading column exactly when it is not in
the span of the columns before it.  So the pivot columns come out the
same whatever the order the rows are inserted in.  One
back-substitution clears every pivot column in the other pivot rows
and serves rref, kernel_basis and solve_many; results leave the kernel
as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

ZERO = Fraction(0)
ONE = Fraction(1)


def zeros(r, c):
    return [[ZERO] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def _width(m, ncols=None):
    """The length every row of m shares (ncols, if given, must agree;
    a matrix without rows has width ncols or 0).  Raises ValueError on
    ragged rows."""
    widths = set(map(len, m))
    if ncols is not None:
        widths.add(ncols)
    if len(widths) > 1:
        raise ValueError("rows of unequal length %s" % sorted(widths))
    return widths.pop() if widths else 0


def matmul(a, b):
    inner = _width(a)
    if a and inner != len(b):
        raise ValueError("shape mismatch: %d columns against %d rows"
                         % (inner, len(b)))
    rc = _width(b)
    out = zeros(len(a), rc)
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik:
                brow = b[k]
                orow = out[i]
                for j in range(rc):
                    orow[j] += aik * brow[j]
    return out


def _cleared(entries):
    """The rational entries {column: nonzero x} as {column: int}, scaled
    by the lcm of their denominators."""
    den = lcm(*[x.denominator for x in entries.values()])
    return {c: x.numerator * (den // x.denominator)
            for c, x in entries.items()}


def _entries(m):
    """Each row of the dense matrix m as its nonzero entries."""
    return ({c: x for c, x in enumerate(row) if x} for row in m)


def _combine(row, prow, c):
    """row with its entry in column c cleared by the pivot row prow
    (whose entry there is its pivot), divided by its content."""
    p, f = prow[c], row[c]
    g = gcd(p, f)
    a, b = p // g, f // g
    new = {k: a * x for k, x in row.items()} if a != 1 else dict(row)
    for k, y in prow.items():
        x = new.get(k, 0) - b * y
        if x:
            new[k] = x
        else:
            del new[k]
    content = gcd(*new.values())
    if content > 1:
        new = {k: x // content for k, x in new.items()}
    return new


def _insert(pivots, row):
    """Reduce the sparse integer row against pivots, {pivot column:
    pivot row}, and add what is left as a new pivot row at its leading
    column, unless it vanishes."""
    while row:
        c = min(row)
        prow = pivots.get(c)
        if prow is None:
            pivots[c] = row
            return
        row = _combine(row, prow, c)


def _echelon(rows):
    """Insert the rows, each given by its nonzero entries {column:
    rational}, cleared one at a time; returns {pivot column: pivot row},
    the rows sparse and integer with their leading entry at the key."""
    pivots = {}
    for row in rows:
        _insert(pivots, _cleared(row))
    return pivots


def _reduced(pivots):
    """The pivot rows with every other pivot column cleared (each row
    still sparse, integer and primitive), ascending by pivot column.
    Back-substitution from the last pivot: a row reduced earlier holds
    no pivot column but its own, so clearing one column adds no other."""
    done = {}
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for k in [k for k in row if k in done]:
            row = _combine(row, done[k], k)
        done[c] = row
    return [(c, done[c]) for c in sorted(done)]


def rref(m):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    nc = _width(m)
    rows = _reduced(_echelon(_entries(m)))
    out = []
    for c, row in rows:
        dense = [ZERO] * nc
        for k, x in row.items():
            dense[k] = Fraction(x, row[c])
        out.append(dense)
    out.extend([ZERO] * nc for _ in range(len(m) - len(rows)))
    return out, [c for c, _ in rows]


def rank(m):
    _width(m)
    return len(_echelon(_entries(m)))


def sparse_rank(rows):
    """Rank of the matrix whose rows are given by their nonzero entries,
    {column: int or Fraction}, in any order and with no zero fill."""
    return len(_echelon(rows))


def kernel_basis(m, ncols=None):
    """Basis of the right kernel, one vector per free column, ascending.
    The vector of free column c is 1 at c and 0 at the other free
    columns; elsewhere it is nonzero only at pivot columns before c
    (each reduced pivot row holds free columns after its pivot), so c
    is its last nonzero entry."""
    ncols = _width(m, ncols)
    rows = _reduced(_echelon(_entries(m)))
    pivots = {c for c, _ in rows}
    basis = {fc: [ZERO] * ncols for fc in range(ncols) if fc not in pivots}
    for fc, v in basis.items():
        v[fc] = ONE
    for pc, row in rows:
        for k, x in row.items():
            if k != pc:
                basis[k][pc] = Fraction(-x, row[pc])
    return list(basis.values())


def solve_many(a, bs):
    """Solve a x = b for each b in bs; returns list of solutions.
    Raises if some b is outside the column span (callers rely on
    consistency, so that is a real error).  That happens exactly when
    the augmented matrix [a | b_1 ... b_k] has a pivot column past a:
    the first such b is not in the span of the columns before it."""
    nr = len(a)
    nc = _width(a)
    if any(len(b) != nr for b in bs):
        raise ValueError("right-hand side of the wrong length")
    aug = [list(a[i]) + [b[i] for b in bs] for i in range(nr)]
    rows = _reduced(_echelon(_entries(aug)))
    if rows and rows[-1][0] >= nc:
        raise ValueError("inconsistent system")
    sols = [[ZERO] * nc for _ in bs]
    for pc, row in rows:
        for k, x in row.items():
            if k >= nc:
                sols[k - nc][pc] = Fraction(x, row[pc])
    return sols


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]
