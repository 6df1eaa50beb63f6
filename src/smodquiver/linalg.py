"""Exact linear algebra over the rationals: `exact` and `Echelon`, the one
kernel that the spec level (`pathalg`) and the table level share.

Sparse vectors are dicts {index: coefficient} that hold only the nonzero
entries, each coefficient an `int` or a `Fraction` (never a float).  Every
elimination goes through one sparse kernel, `Echelon`: the reduced row
echelon form of a growing row space, kept as a map pivot -> row.  A row's
pivot is its first nonzero column, the row is 1 there and every row is 0 at
every other pivot, so the form is the unique RREF of the span whatever
order the rows arrive in, and a vector's coordinates in the rows are its
entries at the pivots.  Dividing by a pivot is the only division: a
`Fraction` pivot divides as usual, an `int` pivot of +-1 keeps an integral
row integral and any other `int` pivot goes through `Fraction`.

`fractions` is imported where a `Fraction` is first built: on division by a
pivot other than +-1, or in `exact` on a non-integral input.  Work over
`int` never loads it.
"""

from __future__ import annotations


def exact(x):
    """x as an `int` when it is integral, else as a `Fraction`; an `int` is
    returned as it is."""
    if type(x) is int:
        return x
    from fractions import Fraction

    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


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
    itself is an implicit 1).
    """

    def __init__(self):
        self.rows = {}
        # columns any row has held off its pivot: a new pivot outside this
        # set needs no back-substitution
        self._touched = set()

    def reduce(self, v):
        """The residual of v: v minus its entry at each pivot times that
        pivot's row, zero at every pivot."""
        red = dict(v)
        for p in red.keys() & self.rows.keys():
            _axpy(red, red.pop(p), self.rows[p])
        return red

    def add(self, v):
        """Add a spanning vector; returns True if it enlarged the span."""
        red = self.reduce(v)
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
        if q in self._touched:
            for other in self.rows.values():
                c = other.pop(q, None)
                if c is not None:
                    _axpy(other, c, row)
        self.rows[q] = row
        self._touched.update(row)
        return True

    def coords(self, v):
        """v in the rows, {pivot: v[pivot]} in pivot order, or None when v
        is outside the span."""
        if self.reduce(v):
            return None
        return {p: v[p] for p in sorted(v.keys() & self.rows.keys())}

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
