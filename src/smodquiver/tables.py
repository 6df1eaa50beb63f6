"""Commutative algebras given by explicit structure constants.

This is the table level of the package, what `tkk-check` parses and checks
before the TKK construction: the JSON table format, the exact product, the
unit, and the multilinearized Jordan identity.

Coefficients are exact: `int` or `Fraction`, never a float.  Identities are
checked on basis tuples after full multilinearization, which is equivalent
over an infinite field.  The Jordan identity check runs over `int`: every
term of the linearized identity is a product of three structure constants,
so scaling the table by the lcm L of its denominators multiplies each side
by L**3 and leaves the verdict unchanged.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .linalg import Q0, Q1, Echelon, dense_vector, denominator_lcm, sparse_vector

# ---------------------------------------------------------------------------
# JSON wire format


def _exponent(s):
    """Magnitude of the decimal exponent of a string such as '1.5e-3'.

    0 when there is none or it is malformed (Fraction then rejects it).
    """
    _, e, exp = s.lower().partition("e")
    try:
        return abs(int(exp)) if e else 0
    except ValueError:
        return 0


def _rational(x):
    """A JSON integer, finite JSON number or Fraction string, exactly.

    Fraction expands a string's exponent into an integer with that many
    digits, so the exponent gets the bound Python already puts on integer
    digit strings (`sys.get_int_max_str_digits()`; 0, or an interpreter
    without the limit, means none).
    """
    if type(x) is bool or not isinstance(x, (int, float, str)):
        raise ValueError(f"bad rational {x!r}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if isinstance(x, str) and limit and _exponent(x) > limit:
        raise ValueError(f"bad rational {x[:40]!r}: exponent exceeds the "
                         f"integer digit limit {limit}")
    try:
        return Fraction(x)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad rational {x!r}: {exc}") from exc


def table_from_dict(data: dict) -> StructureConstants:
    """Structure constants from {"dim": n, "products": rows}.

    `dim` must be a JSON integer >= 1 and `products` exactly n rows of n
    vectors of n rationals, the vector in row i, column j being e_i * e_j.
    """
    if not isinstance(data, dict):
        raise ValueError("table must be a JSON object")
    n = data["dim"]
    if type(n) is not int:   # a bool, a float or a string is a parse error
        raise ValueError(f"'dim' must be an integer, not {n!r}")
    if n < 1:
        raise ValueError(f"'dim' must be at least 1, not {n}")
    rows = data["products"]
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ValueError(f"'products' must be {n} rows of {n} vectors")
    table = []
    for row in rows:
        for v in row:
            if not (isinstance(v, list) and len(v) == n):
                raise ValueError(f"product entry {v!r} is not a {n}-vector")
        table.append([[_rational(x) for x in v] for v in row])
    return StructureConstants(table)


# ---------------------------------------------------------------------------
# explicit structure constants


def _sparse_table(table):
    """table[i][j] as the sparse vector {k: x} of the product e_i * e_j."""
    return tuple(tuple(sparse_vector(v) for v in row) for row in table)


def _table_product(table, x, y):
    """Product of sparse vectors x and y through a sparse table."""
    out = {}
    for i, xi in x.items():
        row = table[i]
        for j, yj in y.items():
            for k, c in row[j].items():
                out[k] = out.get(k, 0) + xi * yj * c
    return {k: c for k, c in out.items() if c}


def _integral_table(table):
    """The sparse table times the lcm of its denominators, over int."""
    scale = denominator_lcm(v for row in table for v in row)
    return tuple(tuple({k: c.numerator * (scale // c.denominator)
                        for k, c in v.items()} for v in row) for row in table)


def table_bits(sc):
    """dim^2 times the bit length of the largest entry of the table scaled
    to integers: the size of one operator L_i were every entry that long."""
    return sc.dim ** 2 * max((abs(c).bit_length()
                              for row in _integral_table(sc.sparse)
                              for v in row for c in v.values()), default=0)


class StructureConstants:
    """Commutative product on k^n: c[i][j] is the vector e_i * e_j.

    `sparse` holds the same table as sparse vectors {k: x}."""

    def __init__(self, table):
        self.c = tuple(tuple(tuple(Fraction(x) for x in v) for v in row)
                       for row in table)
        self.dim = len(self.c)
        for i in range(self.dim):
            if len(self.c[i]) != self.dim:
                raise ValueError("table is not square")
            for j in range(self.dim):
                if len(self.c[i][j]) != self.dim:
                    raise ValueError("entries must be n-vectors")
                if self.c[i][j] != self.c[j][i]:
                    raise ValueError("table is not commutative")
        self.sparse = _sparse_table(self.c)
        self._jordan = None   # verdict of check_jordan_identity, once known

    def mul(self, x, y):
        xy = _table_product(self.sparse, sparse_vector(x), sparse_vector(y))
        return dense_vector(xy, self.dim)

    def left_mult_matrix(self, i):
        """Matrix of x -> e_i * x."""
        return [[self.c[i][j][k] for j in range(self.dim)] for k in range(self.dim)]

    def __eq__(self, other):
        return isinstance(other, StructureConstants) and self.c == other.c


def find_unit(sc: StructureConstants):
    """The unit element as a vector, or None.

    The unit u solves u * e_i = e_i for every i: one equation per (i, k)
    over the columns 0..n-1, with its right-hand side in column n.
    """
    n = sc.dim
    ech = Echelon()
    for i in range(n):
        for k in range(n):
            row = {j: sc.c[j][i][k] for j in range(n) if sc.c[j][i][k]}
            if k == i:
                row[n] = Q1
            ech.add(row)
    if n in ech.rows:
        return None
    x = [Q0] * n
    for p, row in ech.rows.items():
        x[p] = row.get(n, Q0)
    return x


def check_jordan_identity(sc: StructureConstants) -> bool:
    """Full multilinearization of ((a*a)*b)*a = (a*a)*(b*a) on basis tuples.

    The check runs once per instance over the sparse table scaled to `int`
    (the identity is homogeneous of degree 3 in the table); the verdict is
    kept on `sc`.
    """
    if sc._jordan is None:
        sc._jordan = _jordan_identity(_integral_table(sc.sparse))
    return sc._jordan


def _times_basis(t, v, b):
    """v * e_b through a sparse table."""
    out = {}
    for i, x in v.items():
        for k, c in t[i][b].items():
            out[k] = out.get(k, 0) + x * c
    return out


def _jordan_identity(t):
    n = len(t)
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                # the cyclic shifts (p, q, r) of (x, y, z), as (e_p e_q, r)
                shifts = ((t[x][y], z), (t[y][z], x), (t[z][x], y))
                for b in range(n):
                    # sum over the shifts of ((e_p e_q) e_b) e_r - (e_p e_q)(e_b e_r)
                    acc = {}
                    for pq, r in shifts:
                        left = _times_basis(t, _times_basis(t, pq, b), r)
                        for k, c in left.items():
                            acc[k] = acc.get(k, 0) + c
                        for k, c in _table_product(t, pq, t[b][r]).items():
                            acc[k] = acc.get(k, 0) - c
                    if any(acc.values()):
                        return False
    return True
