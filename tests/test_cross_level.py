"""The explicit TKK against the spec level.

For a simple J and J (x) k[e_1..e_m] with e_i e_j = 0, the explicit
construction `tkk_construct` on a structure-constant table and the spec
level (`jordan` -> `catalog`) are computed apart.  The spec is the ideal of
J with a unital radical of the adjoint label at multiplicity m: each level
of the TKK of the table is the graded piece of the kind's adjoint plus, for
each radical entry, its multiplicity times the piece of its label.  The
spin factor with m null vectors is the same comparison with the radical
label `LrV(1)`.
"""

from fractions import Fraction

import pytest

from helpers import matrix_plus, spin_factor
from smodquiver import catalog as C
from smodquiver import jordan as J
from smodquiver import tables as TB
from smodquiver import tkk as T

# tables up to this dimension, the explicit construction's bound
MAX_DIM = 16


def sym_plus(n):
    """Symmetric n x n matrices with x o y = (xy + yx) / 2, on the basis
    E_ii and E_ij + E_ji (i < j)."""
    basis = [(i, j) for i in range(n) for j in range(i, n)]
    index = {b: k for k, b in enumerate(basis)}

    def matrix(b):
        i, j = b
        return {(i, j): 1, (j, i): 1}

    d = len(basis)
    t = [[[0] * d for _ in range(d)] for _ in range(d)]
    for p, a in enumerate(basis):
        for q, b in enumerate(basis):
            prod = {}
            for x, y in ((matrix(a), matrix(b)), (matrix(b), matrix(a))):
                for (i, k), u in x.items():
                    for (k2, j), v in y.items():
                        if k == k2:
                            prod[i, j] = prod.get((i, j), 0) + Fraction(u * v, 2)
            # a symmetric matrix in the basis: its upper triangle
            for (i, j), c in prod.items():
                if i <= j:
                    t[p][q][index[i, j]] = c
    return t


# quaternion units 1, i, j, k: QMUL[a][b] = (sign, c) with e_a e_b = sign e_c
QMUL = [[(1, 0), (1, 1), (1, 2), (1, 3)],
        [(1, 1), (-1, 0), (1, 3), (-1, 2)],
        [(1, 2), (-1, 3), (-1, 0), (1, 1)],
        [(1, 3), (1, 2), (-1, 1), (-1, 0)]]


def quaternion_plus(n):
    """Hermitian n x n quaternion matrices with x o y = xy + yx, on the
    basis E_ii and q E_ij + conj(q) E_ji (i < j, q = 1, i, j, k).  The
    entries are integers and the unit is I/2."""
    basis = [(i, i, 0) for i in range(n)] + [
        (i, j, q) for i in range(n) for j in range(i + 1, n) for q in range(4)]
    index = {b: k for k, b in enumerate(basis)}

    def matrix(b):
        """{(row, col): {unit: coefficient}}"""
        i, j, q = b
        if i == j:
            return {(i, i): {0: 1}}
        return {(i, j): {q: 1}, (j, i): {q: 1 if q == 0 else -1}}

    d = len(basis)
    t = [[[0] * d for _ in range(d)] for _ in range(d)]
    for p, a in enumerate(basis):
        for r, b in enumerate(basis):
            prod = {}
            for x, y in ((matrix(a), matrix(b)), (matrix(b), matrix(a))):
                for (i, k), u in x.items():
                    for (k2, j), v in y.items():
                        if k != k2:
                            continue
                        entry = prod.setdefault((i, j), [0] * 4)
                        for qa, ca in u.items():
                            for qb, cb in v.items():
                                sign, q = QMUL[qa][qb]
                                entry[q] += sign * ca * cb
            # a hermitian matrix in the basis: its diagonal and upper triangle
            for (i, j), entry in prod.items():
                for q, c in enumerate(entry):
                    if i <= j and c:
                        t[p][r][index[i, j, q]] = c
    return t


def dual_numbers(table, m):
    """J (x) k[e_1..e_m] with e_i e_j = 0, on the basis x (x) 1 then
    x (x) e_i, block by block."""
    n = len(table)
    d = n * (m + 1)
    t = [[[0] * d for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for k, c in enumerate(table[a][b]):
                # (a (x) f)(b (x) g) = ab (x) fg, and fg = 0 unless f or g is 1
                for i in range(m + 1):
                    t[a][i * n + b][i * n + k] = c
                    t[i * n + a][b][i * n + k] = c
    return t


# the simple J: its ideal in a spec, its table, and its kind's adjoint label
SIMPLES = {
    "field": (J.Field(), [[[1]]], "ad"),
    **{f"spin{d}": (J.Bilinear(d), spin_factor(d), "LrV(2)")
       for d in (3, 4, 5, 6, 8)},
    "sym3": (J.Hermitian(1, 3), sym_plus(3), "ad"),
    "m3-plus": (J.Hermitian(2, 3), matrix_plus(3), "ad"),
    "h3-quaternion": (J.Hermitian(4, 3), quaternion_plus(3), "ad"),
}

# every m with a table of at most MAX_DIM dimensions
CASES = [(name, m) for name, (_, table, _) in SIMPLES.items()
         for m in range(MAX_DIM // len(table))]


def _spec_levels(ideal, adjoint, label, m):
    """dim g_-1, g_0, g_1 of the spec's graded Lie datum: the ideal, whose
    kind's adjoint is the label `adjoint`, with a unital radical of `label`
    at multiplicity m."""
    radical = (J.Unital(0, label, m),) if m else ()
    datum = J.lie_datum_of_spec(J.JordanSpec((ideal,), radical))
    kind, = datum.summands
    return tuple(C.graded_piece_dim4(kind, adjoint, 4 * level) + sum(
        e.w_dim * C.graded_piece_dim4(kind, e.labels[0], 4 * level)
        for e in datum.radical) for level in (-1, 0, 1))


def _tkk_dims(table):
    return tuple(T.tkk_construct(TB.StructureConstants(table)).dims)


def _explicit_levels(table, m):
    """dim g_-1, g_0, g_1 of the TKK of the table of J (x) k[e_1..e_m]."""
    return _tkk_dims(dual_numbers(table, m))


@pytest.mark.parametrize("name,m", CASES, ids=[f"{n}-m{m}" for n, m in CASES])
def test_explicit_tkk_matches_spec_level(name, m):
    ideal, table, label = SIMPLES[name]
    assert _explicit_levels(table, m) == _spec_levels(ideal, label, label, m)


def spin_null(d, m):
    """spin_d plus null vectors f_1..f_m after its basis: 1 f_k = f_k,
    e_i f_k = 0 and f_k f_l = 0."""
    n = d + m
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for a, row in enumerate(spin_factor(d)):
        for b, v in enumerate(row):
            t[a][b][:d] = v
    for k in range(d, n):
        t[0][k][k] = t[k][0][k] = 1
    return t


# every spin factor up to dimension 8 with m >= 1 null vectors, d + m <= MAX_DIM
SPIN_NULL = [(d, m) for d in range(3, 9) for m in range(1, MAX_DIM - d + 1)]


@pytest.mark.parametrize("d,m", SPIN_NULL,
                         ids=[f"spin{d}-null{m}" for d, m in SPIN_NULL])
def test_spin_with_null_vectors_matches_spec_level(d, m):
    assert _tkk_dims(spin_null(d, m)) == \
        _spec_levels(J.Bilinear(d), "LrV(2)", "LrV(1)", m)


def test_spot_values():
    # so(7) is 5 + 11 + 5, doubled by one e
    assert _explicit_levels(spin_factor(5), 1) == (10, 22, 10)
    assert _spec_levels(J.Bilinear(5), "LrV(2)", "LrV(2)", 1) == (10, 22, 10)
    assert len(CASES) == 36 and ("m3-plus", 0) in CASES
    # H_3 over the quaternions: so(12), 15 + 36 + 15
    assert _explicit_levels(quaternion_plus(3), 0) == (15, 36, 15)
    assert _spec_levels(J.Hermitian(4, 3), "ad", "ad", 0) == (15, 36, 15)
    # spin_d with m null vectors: so(d + 2) plus m copies of its standard
    # module, graded 1 + d + 1
    assert _tkk_dims(spin_null(3, 1)) == (4, 7, 4)
    assert _tkk_dims(spin_null(6, 2)) == (8, 28, 8)
    assert len(SPIN_NULL) == 63 and (8, 8) in SPIN_NULL


def test_quaternionic_h3_is_minimal_and_round_trips():
    sc = TB.StructureConstants(quaternion_plus(3))
    assert TB.check_jordan_identity(sc)
    g = T.tkk_construct(sc)
    assert T.minimality_check(g)
    assert T.jordan_from_short_pair(g) == sc
