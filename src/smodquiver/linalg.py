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

`fractions` is imported where a `Fraction` is first built: on division by a
pivot other than +-1, or in `exact` on a non-integral input.  Work over
`int` never loads it.
"""

from __future__ import annotations

import math


def exact(x):
    """x as an `int` when it is integral, else as a `Fraction`; an `int` is
    returned as it is."""
    if type(x) is int:
        return x
    from fractions import Fraction

    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def integral(maps):
    """The dicts, all scaled by the lcm of their values' denominators, with
    `int` values: a list of dicts with the same keys."""
    maps = list(maps)
    scale = math.lcm(*(c.denominator for m in maps for c in m.values()))
    return [{k: c.numerator * (scale // c.denominator) for k, c in m.items()}
            for m in maps]


def op_lines(op):
    """Rows and columns of an operator {(row, col): x}, as lists of pairs."""
    rows, cols = {}, {}
    for (r, c), x in op.items():
        rows.setdefault(r, []).append((c, x))
        cols.setdefault(c, []).append((r, x))
    return rows, cols


def op_apply(op, v):
    """op(v) of an operator and a sparse vector, without zero entries."""
    out = {}
    for (r, c), x in op.items():
        if c in v:
            out[r] = out.get(r, 0) + x * v[c]
    return {r: x for r, x in out.items() if x}


def op_mul_add(out, a, brows, c=1):
    """out += c * ab, in place, for operators a and b, b given by its rows
    (`op_lines(b)[0]`).  out holds the rows of the sum, {row: {col: x}},
    and may be left holding zero entries."""
    for (r, t), x in a.items():
        row = brows.get(t)
        if row:
            cx = c * x
            dst = out.setdefault(r, {})
            for col, y in row:
                dst[col] = dst.get(col, 0) + cx * y
    return out


def _op_of_rows(rows):
    """The operator {(row, col): x} with rows {row: {col: x}}, without zero
    entries."""
    return {(r, c): x for r, row in rows.items() for c, x in row.items() if x}


def op_sum(terms):
    """sum c * op over the (c, op) pairs, without zero entries."""
    out = {}
    for c, op in terms:
        for key, x in op.items():
            out[key] = out.get(key, 0) + c * x
    return {key: x for key, x in out.items() if x}


def op_commutator(a, b):
    """ab - ba, without zero entries."""
    out = op_mul_add({}, a, op_lines(b)[0])
    return _op_of_rows(op_mul_add(out, b, op_lines(a)[0], -1))


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
                from fractions import Fraction

                pv = Fraction(pv)   # int / int would be a float
            row = {j: x / pv for j, x in red.items()}
        if self.exprs is not None:
            inv = pv if type(pv) is int else 1 / pv
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
                v = {j: 1}
                v.update(neg.get(j, ()))
                out.append(v)
        return out
