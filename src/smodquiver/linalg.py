"""Exact linear algebra over the rationals.

Dense matrices are lists of rows of Fractions; sparse vectors are dicts
{index: coefficient} that hold only the nonzero entries, each coefficient an
`int` or a `Fraction` (never a float).  Every elimination goes through one
sparse kernel, `Echelon`: the reduced row echelon form of a growing row
space, kept as a map pivot -> row.  A row's pivot is its first nonzero
column, the row is 1 there and every row is 0 at every other pivot, so the
form is the unique RREF of the span whatever order the rows arrive in.
Dividing by a pivot is the only division: a `Fraction` pivot divides as
usual, an `int` pivot of +-1 keeps an integral row integral and any other
`int` pivot goes through `Fraction`.  `rref`, `rank`, `nullspace`, `solve`
and `SpanSolver` are dense entry points to it.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


def qvec(seq):
    return [Fraction(x) for x in seq]


def qmat(rows):
    return [qvec(r) for r in rows]


def zeros(n, m):
    return [[Q0] * m for _ in range(n)]


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def commutator(a, b):
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero_mat(a):
    return all(all(x == 0 for x in row) for row in a)


def sparse_vector(seq):
    """Sparse form {index: Fraction} of a dense sequence."""
    return {j: Fraction(x) for j, x in enumerate(seq) if x}


def denominator_lcm(vectors):
    """The lcm of the denominators of the sparse vectors' coefficients.

    Scaling by it makes every coefficient an integer."""
    return math.lcm(*(c.denominator for v in vectors for c in v.values()))


def dense_vector(v, n):
    """Dense form, of length n, of a sparse vector."""
    out = [Q0] * n
    for j, x in v.items():
        out[j] = x
    return out


def _axpy(vec, c, other):
    """vec -= c * other, in place on sparse vectors, dropping zeros."""
    for j, x in other.items():
        y = vec.get(j)
        if y is None:
            vec[j] = -c * x
        else:
            y -= c * x
            if y:
                vec[j] = y
            else:
                del vec[j]


class Echelon:
    """Sparse reduced row echelon form of a growing row space.

    `rows` maps each pivot column to the rest of its row (the pivot entry
    itself is an implicit 1).  With `track`, `exprs` maps each pivot to its
    row as a combination of the generators, the added vectors that enlarged
    the span, numbered in the order they were kept.
    """

    def __init__(self, track=False):
        self.rows = {}
        self.exprs = {} if track else None
        self.n_kept = 0
        # columns any row has held off its pivot: a new pivot outside this
        # set needs no back-substitution
        self._touched = set()

    def reduce(self, v):
        """Return (residual, combo) with v = residual + sum combo[g] * gen_g.

        The residual is zero at every pivot; combo is empty unless tracking.
        """
        red = dict(v)
        combo = {}
        for p in red.keys() & self.rows.keys():
            c = red.pop(p)
            _axpy(red, c, self.rows[p])
            if self.exprs is not None:
                _axpy(combo, -c, self.exprs[p])
        return red, combo

    def add(self, v):
        """Add a spanning vector; returns True if it enlarged the span."""
        red, combo = self.reduce(v)
        if not red:
            return False
        q = min(red)
        pv = red.pop(q)
        if type(pv) is int and pv in (1, -1):
            # a pivot of +-1 is its own inverse, so an integral row stays integral
            row = {j: x * pv for j, x in red.items()}
        else:
            if type(pv) is int:
                pv = Fraction(pv)   # int / int would be a float
            row = {j: x / pv for j, x in red.items()}
        if self.exprs is not None:
            inv = pv if type(pv) is int else Q1 / pv
            expr = {g: -c * inv for g, c in combo.items()}
            expr[self.n_kept] = inv
        if q in self._touched:
            for p, other in self.rows.items():
                c = other.pop(q, None)
                if c is not None:
                    _axpy(other, c, row)
                    if self.exprs is not None:
                        _axpy(self.exprs[p], c, expr)
        self.rows[q] = row
        self._touched.update(row)
        if self.exprs is not None:
            self.exprs[q] = expr
        self.n_kept += 1
        return True

    def coords(self, v):
        """v as a combination {generator: coef} (tracking only), or None."""
        red, combo = self.reduce(v)
        return None if red else combo

    def kernel(self, cols):
        """Right kernel basis of the rows over the columns `cols`.

        One sparse vector per non-pivot column j of `cols`, in that order:
        1 at j (its first key) and minus the rows' entries in column j at
        their pivots.  `cols` must hold every column the rows touch.
        """
        neg = {}
        for p, row in self.rows.items():
            for j, x in row.items():
                neg.setdefault(j, {})[p] = -x
        out = []
        for j in cols:
            if j not in self.rows:
                v = {j: Q1}
                v.update(neg.get(j, ()))
                out.append(v)
        return out


def _echelon(mat):
    ech = Echelon()
    for row in mat:
        ech.add(sparse_vector(row))
    return ech


def rref(mat):
    """Reduced row echelon form of a dense matrix; returns (rref, pivots)."""
    if not mat:
        return [], []
    cols = len(mat[0])
    ech = _echelon(mat)
    pivots = sorted(ech.rows)
    red = [dense_vector({p: Q1, **ech.rows[p]}, cols) for p in pivots]
    red += [[Q0] * cols for _ in range(len(mat) - len(pivots))]
    return red, pivots


def rank(mat):
    return len(_echelon(mat).rows)


def nullspace(mat):
    """Basis of the right kernel of `mat` (list of column vectors)."""
    if not mat:
        return []
    cols = len(mat[0])
    return [dense_vector(v, cols) for v in _echelon(mat).kernel(range(cols))]


def solve(mat, rhs):
    """One solution x of mat*x = rhs, or None if inconsistent."""
    if not mat:
        return [] if all(x == 0 for x in rhs) else None
    cols = len(mat[0])
    ech = _echelon(row[:] + [b] for row, b in zip(mat, rhs))
    if cols in ech.rows:
        return None
    x = [Q0] * cols
    for p, row in ech.rows.items():
        x[p] = row.get(cols, Q0)
    return x


class SpanSolver:
    """Incremental row-space membership/coordinate queries on dense vectors.

    Feed spanning vectors with `add`; vectors that enlarge the span are
    retained as generators.  `coords(v)` expresses v in the retained
    generators, or returns None if v is outside the span.
    """

    def __init__(self, dim):
        self.dim = dim
        self._ech = Echelon(track=True)

    def add(self, v):
        """Add a spanning vector; returns True if it enlarged the span."""
        return self._ech.add(sparse_vector(v))

    def coords(self, v):
        """Coordinates of v in the retained generators, or None."""
        combo = self._ech.coords(sparse_vector(v))
        return None if combo is None else dense_vector(combo, self._ech.n_kept)

    def contains(self, v):
        return self.coords(v) is not None
