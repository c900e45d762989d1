"""Exact linear algebra over the rationals on one integer kernel.

Matrices are lists of rows of Fractions.  Elimination runs
fraction-free on Python ints: each row is multiplied by the lcm of its
denominators, and a pivot row with pivot p clears the entry f of
another row by cross-multiplication, row := (p/g)*row - (f/g)*pivot_row
with g = gcd(p, f), after which the new row is divided by its content
(the gcd of its entries).  Every row therefore stays the primitive
integer vector along the row that elimination over Q would give, so
entry sizes stay bounded by the matching minors.  Rows with a zero in
the pivot column are not touched, which is most rows of the sparse
0/+-1 differentials of the order complexes.  Pivots are the first
nonzero entry in their column; results leave the kernel as Fractions.
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


def matmul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    if not b:
        return [[] for _ in a]
    rc = len(b[0])
    out = zeros(len(a), rc)
    for i, row in enumerate(a):
        for k, aik in enumerate(row):
            if aik:
                brow = b[k]
                orow = out[i]
                for j in range(rc):
                    orow[j] += aik * brow[j]
    return out


def _echelon(m, reduced):
    """Fraction-free elimination of the rational matrix m.  Returns
    (rows, pivot_columns) with rows of ints: the first len(pivot_columns)
    rows are the pivot rows in pivot order, the rest are zero.
    reduced=False stops after the forward phase (row echelon form);
    reduced=True also clears each pivot column above its pivot
    (Gauss-Jordan), so row k divided by its entry in pivot column k is
    row k of the rref."""
    rows = []
    for row in m:
        den = lcm(*[x.denominator for x in row])
        if den == 1:
            rows.append([x.numerator for x in row])
        else:
            rows.append([x.numerator * (den // x.denominator) for x in row])
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
        prow = rows[r]
        p = prow[c]
        for i in range(0 if reduced else r + 1, nr):
            f = rows[i][c]
            if not f or i == r:
                continue
            g = gcd(p, f)
            a, b = p // g, f // g
            new = [a * x - b * y for x, y in zip(rows[i], prow)]
            content = gcd(*new)
            if content > 1:
                new = [x // content for x in new]
            rows[i] = new
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return rows, pivots


def rref(m):
    """Reduced row echelon form. Returns (rows, pivot_columns)."""
    rows, pivots = _echelon(m, True)
    nc = len(rows[0]) if rows else 0
    out = [[Fraction(x, row[c]) if x else ZERO for x in row]
           for row, c in zip(rows, pivots)]
    out.extend([ZERO] * nc for _ in range(len(rows) - len(pivots)))
    return out, pivots


def pivot_columns(m):
    """Pivot columns of the row echelon form, ascending.  Column c is a
    pivot exactly when it is not in the span of the columns before it,
    so the pivots below c count the rank of the first c columns."""
    return _echelon(m, False)[1]


def rank(m):
    return len(pivot_columns(m))


def kernel_basis(m, ncols=None):
    """Basis of the right kernel, one vector per free column."""
    if ncols is None:
        ncols = len(m[0]) if m else 0
    if not m or ncols == 0:
        return [[ONE if i == j else ZERO for j in range(ncols)]
                for i in range(ncols)]
    rows, pivots = _echelon(m, True)
    free = [c for c in range(ncols) if c not in pivots]
    out = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for row, pc in zip(rows, pivots):
            if row[fc]:
                v[pc] = Fraction(-row[fc], row[pc])
        out.append(v)
    return out


def solve_many(a, bs):
    """Solve a x = b for each b in bs; returns list of solutions.
    Raises if some b is outside the column span (callers rely on
    consistency, so that is a real error)."""
    nr = len(a)
    nc = len(a[0]) if a else 0
    k = len(bs)
    aug = [list(a[i]) + [b[i] for b in bs] for i in range(nr)]
    rows, pivots = _echelon(aug, True)
    sols = []
    piv_in_a = [p for p in pivots if p < nc]
    for t in range(k):
        v = [ZERO] * nc
        for row, pc in zip(rows, piv_in_a):
            if row[nc + t]:
                v[pc] = Fraction(row[nc + t], row[pc])
        # verify by multiplication; rref bookkeeping alone can miss an
        # inconsistent right-hand side when several share a bad row
        for i in range(nr):
            if sum((a[i][j] * v[j] for j in range(nc)), ZERO) != bs[t][i]:
                raise ValueError("inconsistent system")
        sols.append(v)
    return sols


def transpose(m):
    if not m:
        return []
    return [list(col) for col in zip(*m)]
