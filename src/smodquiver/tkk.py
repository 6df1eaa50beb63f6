"""The explicit TKK construction on a table of structure constants.

`tkk_construct` realizes g = g_{-1} + g_0 + g_1 with g_{-1} the algebra J,
g_0 the span of left multiplications and their commutators inside End(J),
and g_1 a copy of J, the vector v standing for the map {x v y}; the product
map P is the unit's.  The distinguished triple is (unit, -L_unit, P).
Everything is verified: grading, Jacobi, triple identities.
`minimality_check` and the round trip `jordan_from_short_pair`
(x*y = [[f,x],y]) complete what `tkk-check` reports; the table itself comes
from `tables`.

The spec-level counterpart, from a `JordanSpec` to its graded Lie datum
without structure constants, is `jordan.lie_datum_of_spec`.
"""

from __future__ import annotations

from .linalg import (Echelon, exact, integral, op_apply, op_commutator,
                     op_lines, op_sum)
from .tables import StructureConstants, check_jordan_identity, find_unit

MAX_EXPLICIT_DIM = 16
# bound on `tables.table_bits`: each identity-check term multiplies three
# entries, so its cost grows with their length
MAX_TABLE_BITS = 2 ** 14


class JacobiFails(ArithmeticError):
    """The constructed bracket is not a Lie bracket (bad input or bug)."""


class NotUnital(ValueError):
    pass


# ---------------------------------------------------------------------------
# explicit construction


class ShortGradedLie:
    """Graded Lie algebra on basis g_{-1} | g_0 | g_1 with sparse brackets."""

    __slots__ = ("dims", "bracket", "triple")

    def __init__(self, dims: tuple, bracket: dict, triple: tuple):
        self.dims = dims            # (d_-1, d_0, d_1)
        self.bracket = bracket      # (i, j) with i < j -> {k: coeff}
        self.triple = triple        # (e, h, f) as full coordinate vectors

    @property
    def total_dim(self):
        return sum(self.dims)

    def degree(self, i):
        n, d0, _ = self.dims
        return -1 if i < n else 0 if i < n + d0 else 1

    def bracket_basis(self, i, j):
        if i == j:
            return {}
        if i < j:
            return self.bracket.get((i, j), {})
        return {k: -c for k, c in self.bracket.get((j, i), {}).items()}

    def bracket_vec(self, u, v):
        """[u, v] of sparse vectors {index: coeff}."""
        out = {}
        for i, ui in u.items():
            for j, vj in v.items():
                for k, c in self.bracket_basis(i, j).items():
                    out[k] = out.get(k, 0) + ui * vj * c
        return {k: c for k, c in out.items() if c}

    def check_grading(self):
        for (i, j), vec in self.bracket.items():
            d = self.degree(i) + self.degree(j)
            for k, c in vec.items():
                if c and self.degree(k) != d:
                    return False
        return True

    def check_jacobi(self):
        """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0 for every
        basis triple i < j < k.

        Each term is quadratic in the brackets, so they are scaled to `int`
        by the lcm L of their denominators (every sum scales by L**2).  The
        terms are then scattered into their triples: [[e_a,e_b],e_c] with
        a < b enters the triple sorted(a, b, c) with sign -1 when a < c < b
        (it is then -[[e_k,e_i],e_j]) and +1 otherwise.  A triple whose three
        brackets vanish gets no term and holds trivially.
        """
        # ad[i][j] = [e_i, e_j] scaled to int, for every bracket, both signs
        ad = {}
        for (i, j), vec in zip(self.bracket, integral(self.bracket.values())):
            ad.setdefault(i, {})[j] = vec
            ad.setdefault(j, {})[i] = {k: -c for k, c in vec.items()}
        acc = {}  # (i, j, k) -> the sum of its terms, a sparse vector
        for a, ad_a in ad.items():
            for b, vec in ad_a.items():
                if b < a:
                    continue
                for t, x in vec.items():
                    for c, tc in ad.get(t, {}).items():
                        if b < c:
                            triple, y = (a, b, c), x
                        elif c < a:
                            triple, y = (c, a, b), x
                        elif a < c < b:
                            triple, y = (a, c, b), -x
                        else:
                            continue
                        dst = acc.setdefault(triple, {})
                        for s, d in tc.items():
                            dst[s] = dst.get(s, 0) + y * d
        return not any(any(v.values()) for v in acc.values())

    def check_triple(self):
        """e in g_{-1}, h in g_0, f in g_1 with [e,f]=h, [h,e]=-e, [h,f]=f."""
        e, h, f = ({k: c for k, c in enumerate(v) if c} for v in self.triple)
        return (self.bracket_vec(e, f) == h
                and self.bracket_vec(h, e) == {k: -c for k, c in e.items()}
                and self.bracket_vec(h, f) == f)


def _op_key(op, n):
    """An operator {(row, col): x} as one sparse vector, key row * n + col."""
    return {r * n + c: x for (r, c), x in op.items()}


def tkk_construct(sc: StructureConstants) -> ShortGradedLie:
    """Short-graded Lie algebra of a unital algebra given by its table.

    Operators are sparse {(row, col): x}, and g_0 is spanned in one tracking
    `Echelon` over their flattened entries.  g_1 is a copy of J: the vector
    v stands for the map B_v(x, y) = {x v y} = (xv)y + x(vy) - v(xy), so the
    product map P is B_unit and L_a.P = -B_{e_a}.  Its basis is the vectors
    an n-column tracking `Echelon` keeps from unit, -e_0, ..., -e_{n-1}.
    Every T in g_0 is L_{Te} plus a derivation (Jacobson 1968, ch. I), so
    [T, B_v] = B_{Tv - 2(Te)v}, and [B_v, x] is the operator
    [L_x, L_v] + L_{xv}.  L_a is the table's `sc.ops[a]`, whose integral
    entries are `int`, and integral unit coordinates are kept as `int`, so on
    an integral table the arithmetic stays over `int` up to the first pivot
    other than +-1.
    """
    n = sc.dim
    if n > MAX_EXPLICIT_DIM:
        raise ValueError(f"explicit construction bounded at dim {MAX_EXPLICIT_DIM}")
    if not check_jordan_identity(sc):
        raise ValueError("structure constants fail the defining identity")
    unit = find_unit(sc)
    if unit is None:
        raise NotUnital("algebra has no identity element")
    unit = {i: exact(u) for i, u in enumerate(unit) if u}
    ops = sc.ops   # L_i: column j is the vector e_i * e_j

    def lmul(v):
        """L_v of a sparse vector v."""
        return op_sum((c, ops[k]) for k, c in v.items())

    # g_0: span of L_a and [L_a, L_b]
    g0 = Echelon(track=True)
    comms = tuple(op_commutator(ops[i], ops[j])
                  for i in range(n) for j in range(i + 1, n))
    g0_ops = [op for op in ops + comms if g0.add(_op_key(op, n))]

    # g_1: B_v for the kept v of unit, -e_0, ..., -e_{n-1}; they span J
    g1 = Echelon(track=True)
    g1_vecs = [v for v in [unit] + [{a: -1} for a in range(n)] if g1.add(v)]

    d0, d1 = len(g0_ops), len(g1_vecs)
    total = n + d0 + d1
    bracket = {}

    def put(i, j, vec):
        """[e_i, e_j] = vec, for i < j."""
        vec = {k: c for k, c in vec.items() if c}
        if vec:
            bracket[(i, j)] = vec

    def g0_coords(op):
        """Coordinates in g (generator t is basis vector n + t)."""
        c = g0.coords(_op_key(op, n))
        if c is None:
            raise JacobiFails("operator outside the constructed degree-0 span")
        return {n + t: x for t, x in sorted(c.items())}

    def g1_coords(v):
        return {n + d0 + t: x for t, x in sorted(g1.coords(v).items())}

    # [x, L] = -L(x)
    for a, op in enumerate(g0_ops):
        _, cols = op_lines(op)
        for i in range(n):
            put(i, n + a, {k: -c for k, c in sorted(cols.get(i, ()))})
    # [x, B_v] = [L_v, L_x] - L_{xv}, an operator in g_0
    for b, v in enumerate(g1_vecs):
        lv = lmul(v)
        for i in range(n):
            op = op_sum(((1, op_commutator(lv, ops[i])),
                         (-1, lmul(op_apply(ops[i], v)))))
            put(i, n + d0 + b, g0_coords(op))
    # [L, L'] and [T, B_v] = B_{Tv - 2(Te)v}
    for a, op in enumerate(g0_ops):
        for b in range(a + 1, d0):
            put(n + a, n + b, g0_coords(op_commutator(op, g0_ops[b])))
        shifted = op_sum(((1, op), (-2, lmul(op_apply(op, unit)))))
        for b, v in enumerate(g1_vecs):
            put(n + a, n + d0 + b, g1_coords(op_apply(shifted, v)))

    def dense(vec):
        return tuple(vec.get(k, 0) for k in range(total))

    # e = unit, h = -L_unit and f = P = B_unit, the first kept vector of g_1
    hvec = g0_coords(lmul({i: -u for i, u in unit.items()}))
    triple = (dense(unit), dense(hvec), dense({n + d0: 1}))
    g = ShortGradedLie((n, d0, d1), bracket, triple)
    if not (g.check_grading() and g.check_triple() and g.check_jacobi()):
        raise JacobiFails("constructed bracket fails verification")
    return g


def jordan_from_short_pair(g: ShortGradedLie) -> StructureConstants:
    """Product x*y = [[f,x],y] on g_{-1}, from the stored triple."""
    n = g.dims[0]
    f = {k: c for k, c in enumerate(g.triple[2]) if c}
    table = []
    for i in range(n):
        fx = g.bracket_vec(f, {i: 1})
        row = []
        for j in range(n):
            res = g.bracket_vec(fx, {j: 1})
            if any(k >= n for k in res):
                raise JacobiFails("[[f,x],y] leaves degree -1")
            row.append(tuple(res.get(k, 0) for k in range(n)))
        table.append(row)
    return StructureConstants(table)


def minimality_check(g: ShortGradedLie) -> bool:
    """[g_{-1}, g_1] spans g_0 and the center is zero."""
    n, d0, d1 = g.dims
    total = g.total_dim
    span = Echelon()
    for i in range(n):
        for b in range(n + d0, total):
            vec = g.bracket_basis(i, b)
            if any(k < n or k >= n + d0 for k in vec):
                return False
            span.add({k - n: c for k, c in vec.items() if c})
    if len(span.rows) != d0:
        return False
    # the center is the kernel of x -> ([x, e_j])_j: one row per (j, k),
    # holding the coefficient of e_k in [e_i, e_j] at column i
    ad_rows = {}
    for (i, j), vec in g.bracket.items():
        for k, c in vec.items():
            if c:
                ad_rows.setdefault((j, k), {})[i] = c
                ad_rows.setdefault((i, k), {})[j] = -c
    ad = Echelon()
    for row in ad_rows.values():
        ad.add(row)
    return len(ad.rows) == total
