"""Commutative algebras given by explicit structure constants.

This is the table level of the package, what `tkk-check` parses and checks
before the TKK construction: the JSON table format, the left
multiplications L_i through which every product goes, the unit, and the
multilinearized Jordan identity in operator form.

Coefficients are exact: `int` where integral, `Fraction` only where not,
never a float.  Identities are checked on basis tuples after full
multilinearization, which is equivalent over an infinite field.  The Jordan
identity check runs over `int`: every term of the linearized identity is a
product of three structure constants, so scaling the table by the lcm L of
its denominators multiplies each side by L**3 and leaves the verdict
unchanged.
"""

from __future__ import annotations

import sys

from .linalg import Echelon, exact, integral, op_lines, op_mul_add, op_sum

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
    """A JSON integer, finite JSON number or Fraction string, exactly, as
    `linalg.exact` makes it.

    A JSON integer is returned as it is, and a string without underscores
    that `int` reads is one `Fraction` reads to the same integer, so no
    `Fraction` is built for it (`Fraction` reads underscores only from
    Python 3.11 on).  `Fraction` reads the rest; it expands a string's
    exponent into an integer with that many digits, so the exponent gets
    the bound Python already puts on integer digit strings
    (`sys.get_int_max_str_digits()`; 0, or an interpreter without the
    limit, means none).
    """
    if type(x) is int:
        return x
    if type(x) is bool or not isinstance(x, (int, float, str)):
        raise ValueError(f"bad rational {x!r}")
    if isinstance(x, str):
        if "_" not in x:
            try:
                return int(x)
            except ValueError:
                pass
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and _exponent(x) > limit:
            raise ValueError(f"bad rational {x[:40]!r}: exponent exceeds the "
                             f"integer digit limit {limit}")
    try:
        return exact(x)
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


def table_bits(sc):
    """dim^2 times the bit length of the largest entry of the table scaled
    to integers: the size of one operator L_i were every entry that long."""
    return sc.dim ** 2 * max((abs(c).bit_length() for op in integral(sc.ops)
                              for c in op.values()), default=0)


class StructureConstants:
    """Commutative product on k^n: c[i][j] is the vector e_i * e_j.

    `c` holds every entry once, as `linalg.exact` makes it: an `int` when
    it is integral, else a `Fraction`.  `ops[i]` is the left multiplication
    L_i as a sparse operator {(k, j): x} on those entries, its column j the
    product e_i * e_j; every product of table elements goes through them.
    """

    def __init__(self, table):
        self.c = tuple(tuple(tuple(exact(x) for x in v) for v in row)
                       for row in table)
        n = self.dim = len(self.c)
        for i in range(n):
            if len(self.c[i]) != n:
                raise ValueError("table is not square")
            for j in range(n):
                if len(self.c[i][j]) != n:
                    raise ValueError("entries must be n-vectors")
                if self.c[i][j] != self.c[j][i]:
                    raise ValueError("table is not commutative")
        self.ops = tuple({(k, j): x for j in range(n)
                          for k, x in enumerate(self.c[i][j]) if x}
                         for i in range(n))
        self._jordan = None   # verdict of check_jordan_identity, once known

    def __eq__(self, other):
        return isinstance(other, StructureConstants) and self.c == other.c


def find_unit(sc: StructureConstants):
    """The unit element as a vector, or None.

    The unit u solves u * e_i = L_i u = e_i for every i: one equation per
    row k of L_i over the columns 0..n-1, with its right-hand side in
    column n.
    """
    n = sc.dim
    ech = Echelon()
    for i, op in enumerate(sc.ops):
        rows, _ = op_lines(op)
        for k in range(n):
            row = dict(rows.get(k, ()))
            if k == i:
                row[n] = 1
            ech.add(row)
    if n in ech.rows:
        return None
    x = [0] * n
    for p, row in ech.rows.items():
        x[p] = row.get(n, 0)
    return x


def check_jordan_identity(sc: StructureConstants) -> bool:
    """Full multilinearization of ((a*a)*b)*a = (a*a)*(b*a), in operator form.

    For each basis triple the sum over its cyclic shifts (p, q, r) of
    [L_r, L_{e_p e_q}] vanishes; column b of that sum is the identity on the
    basis tuple with e_b in the place of b.  The check runs once per
    instance over the operators scaled to `int` (the identity is
    homogeneous of degree 3 in the table); the verdict is kept on `sc`.
    """
    if sc._jordan is None:
        sc._jordan = _jordan_identity(integral(sc.ops))
    return sc._jordan


def _jordan_identity(ops):
    n = len(ops)
    lines = [op_lines(op) for op in ops]
    # L_{e_p e_q} for p <= q, from column q of L_p
    prod = {(p, q): op_sum((x, ops[k]) for k, x in lines[p][1].get(q, ()))
            for p in range(n) for q in range(p, n)}
    # each operator split into rows once, for every product it enters
    prod_rows = {pq: op_lines(op)[0] for pq, op in prod.items()}
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                acc = {}
                for pq, r in (((x, y), z), ((y, z), x), ((x, z), y)):
                    op_mul_add(acc, ops[r], prod_rows[pq])
                    op_mul_add(acc, prod[pq], lines[r][0], -1)
                if any(c for row in acc.values() for c in row.values()):
                    return False
    return True
