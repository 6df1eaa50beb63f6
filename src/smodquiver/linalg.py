"""Exact linear algebra over the rationals.

Sparse vectors are dicts {index: coefficient} that hold only the nonzero
entries, each coefficient an `int` or a `Fraction` (never a float); sparse
operators are dicts {(row, col): coefficient}.  Every elimination goes
through one sparse kernel, `Echelon`: the reduced row echelon form of a
growing row space, kept as a map pivot -> row.  A row's pivot is its first
nonzero column, the row is 1 there and every row is 0 at every other pivot,
so the form is the unique RREF of the span whatever order the rows arrive
in.  Dividing by a pivot is the only division: a `Fraction` pivot divides as
usual, an `int` pivot of +-1 keeps an integral row integral and any other
`int` pivot goes through `Fraction`.
"""

from __future__ import annotations

import math
from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


def qvec(seq):
    return [Fraction(x) for x in seq]


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


def op_lines(op):
    """Rows and columns of an operator {(row, col): x}, as lists of pairs."""
    rows, cols = {}, {}
    for (r, c), x in op.items():
        rows.setdefault(r, []).append((c, x))
        cols.setdefault(c, []).append((r, x))
    return rows, cols


def op_mul(a, b):
    """Product of operators {(row, col): x}; it may hold zero entries."""
    brows, _ = op_lines(b)
    out = {}
    for (r, t), x in a.items():
        for c, y in brows.get(t, ()):
            out[(r, c)] = out.get((r, c), 0) + x * y
    return out


def op_commutator(a, b):
    """ab - ba, without zero entries."""
    out = op_mul(a, b)
    for key, x in op_mul(b, a).items():
        out[key] = out.get(key, 0) - x
    return {key: x for key, x in out.items() if x}


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
