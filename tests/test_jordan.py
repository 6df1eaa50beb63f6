"""Specs, identities, modules and the Peirce split."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from helpers import (direct_sum, random_commutative_table, random_rational,
                     ref_check_birepresentation, ref_mat_mul, ref_peirce_split)
from smodquiver import jordan as J
from smodquiver import reference as R
from smodquiver import tables as TB


def sym2_table():
    # basis E11, E22, X = E12+E21 of the symmetric 2x2 matrices, a*b = ab+ba
    return TB.StructureConstants([
        [[2, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 2, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [2, 2, 0]],
    ])


# -- spec validation ---------------------------------------------------------


def test_validate_ok():
    spec = J.JordanSpec((J.Hermitian(2, 4),))
    assert J.validate_spec(spec).ok


def test_validate_trivial_radical():
    spec = J.JordanSpec((J.Field(),), (J.Unital(0, "trivial"),))
    rep = J.validate_spec(spec)
    assert not rep.ok and any("trivial" in v for v in rep.violations)


def test_validate_hermitian_n():
    rep = J.validate_spec(J.JordanSpec((J.Hermitian(4, 2),)))
    assert not rep.ok and any("n >= 3" in v for v in rep.violations)
    rep = J.validate_spec(J.JordanSpec((J.Hermitian(3, 4),)))
    assert not rep.ok and any("1, 2 or 4" in v for v in rep.violations)


def test_validate_bilinear_dim():
    rep = J.validate_spec(J.JordanSpec((J.Bilinear(2),)))
    assert not rep.ok


def test_validate_bad_label_and_indices():
    rep = J.validate_spec(J.JordanSpec((J.Field(),), (J.Unital(0, "S2V"),)))
    assert not rep.ok
    rep = J.validate_spec(J.JordanSpec((J.Field(),), (J.Unital(3, "ad"),)))
    assert not rep.ok
    rep = J.validate_spec(
        J.JordanSpec((J.Field(), J.Field()),
                     (J.TensorOfSpecial(0, "L", 0, "L"),)))
    assert not rep.ok  # tensor factors must live on distinct ideals


def test_validate_albert_has_no_half_simples():
    rep = J.validate_spec(
        J.JordanSpec((J.Albert(), J.Field()),
                     (J.TensorOfSpecial(0, "V", 1, "L"),)))
    assert not rep.ok
    assert J.validate_spec(J.JordanSpec((J.Albert(),), (J.Unital(0, "ad"),))).ok


def test_unitalize():
    spec = J.JordanSpec((J.Field(),), (), unital=False)
    u = J.unitalize(spec)
    assert u.unital and len(u.ideals) == 2
    assert J.unitalize(u) == u
    empty = J.unitalize(J.JordanSpec((), (), unital=False))
    assert empty.ideals == (J.Field(),)


def test_spec_json_round_trip():
    spec = J.JordanSpec(
        (J.Hermitian(1, 3), J.Bilinear(5), J.Field()),
        (J.Unital(0, "ad", 2), J.TensorOfSpecial(2, "L", 0, "V")),
        True)
    blob = json.dumps(J.spec_to_dict(spec))
    assert J.spec_from_dict(json.loads(blob)) == spec


# -- identities --------------------------------------------------------------


def test_jordan_identity_field():
    assert TB.check_jordan_identity(TB.StructureConstants([[[1]]]))


def test_jordan_identity_m2plus():
    m2 = R.plus_product(R.matrix_algebra_table(2))
    assert TB.check_jordan_identity(m2)


def test_jordan_identity_fails():
    # e1*e1 = e2, e2*e2 = e1, e1*e2 = 0: direct expansion at a = b = e2 gives
    # ((a*a)*b)*a = (e1*e2)*e2 = 0 but (a*a)*(b*a) = e1*e1 = e2.
    bad = TB.StructureConstants([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])

    def mul(x, y):
        return bad.mul(x, y)

    a = b = [Fraction(0), Fraction(1)]
    aa = mul(a, a)
    lhs = mul(mul(aa, b), a)
    rhs = mul(aa, mul(b, a))
    assert lhs == [Fraction(0), Fraction(0)]
    assert rhs == [Fraction(0), Fraction(1)]
    assert not TB.check_jordan_identity(bad)


def test_plus_product_requires_associative():
    # a commutative but non-associative table
    table = [[[0, 1], [1, 0]], [[1, 0], [1, 1]]]
    with pytest.raises(R.NotAssociative):
        R.plus_product(table)


def test_plus_product_commutative_double():
    # associative commutative: k x k; symmetrization doubles the table
    table = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    sc = R.plus_product(table)
    assert sc.c[0][0] == (Fraction(2), Fraction(0))
    assert TB.check_jordan_identity(sc)


def test_plus_product_on_random_associative_tables():
    # upper triangular 2x2 matrices: basis E11, E22, E12
    dim = 3
    table = [[[0] * dim for _ in range(dim)] for _ in range(dim)]

    def put(i, j, k):
        table[i][j][k] = 1

    put(0, 0, 0)   # E11 E11
    put(1, 1, 1)   # E22 E22
    put(0, 2, 2)   # E11 E12 = E12
    put(2, 1, 2)   # E12 E22 = E12
    sc = R.plus_product(table)
    assert TB.check_jordan_identity(sc)


# -- birepresentations -------------------------------------------------------


def test_regular_birep_is_module():
    for sc in (TB.StructureConstants([[[1]]]), sym2_table(),
               R.plus_product(R.matrix_algebra_table(2))):
        assert TB.check_jordan_identity(sc)
        assert R.check_birepresentation(R.regular_birep(sc))


def test_zero_module():
    sc = sym2_table()
    zero = R.BiRepresentation(sc, [[[Fraction(0)] * 2 for _ in range(2)]
                                   for _ in range(sc.dim)])
    assert R.check_birepresentation(zero)


def test_tensor_of_specials_is_module():
    # two copies of the defining special action of M2+ on k^2, glued on k^2(x)k^2
    m2 = R.plus_product(R.matrix_algebra_table(2))

    def unit_mat(i, j):
        m = [[Fraction(0)] * 2 for _ in range(2)]
        m[i][j] = Fraction(1)
        return m

    sigma = [unit_mat(i, j) for i in range(2) for j in range(2)]

    def kron(a, b):
        n = len(a) * len(b)
        out = [[Fraction(0)] * n for _ in range(n)]
        for i, ra in enumerate(a):
            for j, va in enumerate(ra):
                if va:
                    for k, rb in enumerate(b):
                        for l, vb in enumerate(rb):
                            out[i * len(b) + k][j * len(b) + l] = va * vb
        return out

    eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    mats = [[[x + y for x, y in zip(r1, r2)]
             for r1, r2 in zip(kron(s, eye), kron(eye, s))] for s in sigma]
    rep = R.BiRepresentation(m2, mats)
    assert R.check_birepresentation(rep)


def test_birep_fails_on_random_noncommuting():
    sc = TB.StructureConstants([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    mats = [[[Fraction(0), Fraction(1)], [Fraction(0), Fraction(0)]],
            [[Fraction(0), Fraction(0)], [Fraction(1), Fraction(0)]]]
    rep = R.BiRepresentation(sc, mats)
    # direct violation of the triple identity at (a, b, c) = (e1, e1, e2)
    assert not R.check_birepresentation(rep)


# -- Peirce split ------------------------------------------------------------


def test_peirce_identity_action():
    sc = TB.StructureConstants([[[1]]])
    d = 3
    eye = [[Fraction(1 if i == j else 0) for j in range(d)] for i in range(d)]
    rep = R.BiRepresentation(sc, [eye])
    ps = R.peirce_split(rep, 0)
    assert ps.dims == (0, 0, d)


def test_peirce_half_action_is_special():
    sc = TB.StructureConstants([[[1]]])
    d = 2
    half = [[Fraction(1, 2) if i == j else Fraction(0) for j in range(d)]
            for i in range(d)]
    rep = R.BiRepresentation(sc, [half])
    ps = R.peirce_split(rep, 0)
    assert ps.dims == (0, d, 0)
    # one-sided law rho(a*b) = rho(a)rho(b)+rho(b)rho(a) on the half part
    lhs = rep.rho(sc.c[0][0])
    square = ref_mat_mul(half, half)
    assert lhs == [[x + x for x in row] for row in square]


def test_peirce_rejects_third_eigenvalue():
    sc = TB.StructureConstants([[[1]]])
    third = [[Fraction(1, 3)]]
    rep = R.BiRepresentation(sc, [third])
    with pytest.raises(R.CubicIdentityFails):
        R.peirce_split(rep, 0)


def test_peirce_requires_unit():
    sc = TB.StructureConstants([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    rep = R.regular_birep(sc)
    with pytest.raises(ValueError):
        R.peirce_split(rep, 0)  # e1 is idempotent but not the unit
    ps = R.peirce_split(rep, [Fraction(1), Fraction(1)])
    assert sum(ps.dims) == 2


def test_peirce_sums_to_dim_on_regular_reps():
    for sc in (sym2_table(), R.plus_product(R.matrix_algebra_table(2))):
        unit = TB.find_unit(sc)
        ps = R.peirce_split(R.regular_birep(sc), unit)
        assert sum(ps.dims) == sc.dim
        assert ps.dims[2] == sc.dim  # regular module is unital


# -- the sparse module checks against the dense reference in helpers ---------


def _random_matrix(rng, d, density):
    return [[random_rational(rng) if rng.random() < density else Fraction(0)
             for _ in range(d)] for _ in range(d)]


def _conjugated_scalar(rng, eigenvalues):
    """P diag(eigenvalues) P^-1, P unitriangular so P^-1 = I - N + N^2."""
    d = len(eigenvalues)
    eye = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    nil = [[random_rational(rng) if j < i else Fraction(0) for j in range(d)]
           for i in range(d)]
    nil2 = ref_mat_mul(nil, nil)
    p = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(eye, nil)]
    p_inv = [[a - b + c for a, b, c in zip(r1, r2, r3)]
             for r1, r2, r3 in zip(eye, nil, nil2)]
    diag = [[x if i == j else Fraction(0) for j in range(d)]
            for i, x in enumerate(eigenvalues)]
    return ref_mat_mul(ref_mat_mul(p, diag), p_inv)


def _outcome(fn, *args):
    """fn(*args), or the type of the ValueError/ArithmeticError it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


def test_module_checks_match_dense_reference():
    rng = random.Random(20261018)
    tables = [TB.StructureConstants([[[1]]]), sym2_table(),
              R.plus_product(R.matrix_algebra_table(2)),
              TB.StructureConstants(direct_sum([[[1]]], [[[1]]]))]
    tables += [TB.StructureConstants(random_commutative_table(rng, n, density))
               for n in (1, 2, 3) for density in (0.2, 0.5, 1.0) for _ in range(2)]
    cases = []   # (representation, the e handed to peirce_split)
    for sc in tables:
        unit = TB.find_unit(sc)
        e = 0 if unit is None else unit
        regular = R.regular_birep(sc)
        cases.append((regular, e))
        # the regular representation perturbed at one entry
        mats = [[row[:] for row in m] for m in regular.matrices]
        i, r, c = (rng.randrange(sc.dim) for _ in range(3))
        mats[i][r][c] += random_rational(rng)
        cases.append((R.BiRepresentation(sc, mats), e))
        d = rng.randint(1, 3)
        cases.append((R.BiRepresentation(
            sc, [_random_matrix(rng, d, 0.4) for _ in range(sc.dim)]), e))
    field = TB.StructureConstants([[[1]]])
    for d in (1, 2, 3):
        for eigenvalues in itertools.combinations_with_replacement(
                (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(1, 3)), d):
            rho_e = _conjugated_scalar(rng, eigenvalues)
            cases.append((R.BiRepresentation(field, [rho_e]), 0))
    verdicts, splits = [], []
    for rep, e in cases:
        verdict = R.check_birepresentation(rep)
        assert verdict == ref_check_birepresentation(rep)
        verdicts.append(verdict)
        split = _outcome(R.peirce_split, rep, e)
        assert split == _outcome(ref_peirce_split, rep, e)
        splits.append(split)
    assert True in verdicts and False in verdicts
    assert R.CubicIdentityFails in splits and ValueError in splits
    assert any(isinstance(s, R.PeirceSplit) and s.dims[1] and s.dims[2]
               for s in splits)
