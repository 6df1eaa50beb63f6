"""Specs, identities and the symmetrized product."""

import json
from fractions import Fraction

import pytest

from smodquiver import jordan as J
from smodquiver import reference as R
from smodquiver import tables as TB


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
        return R.table_mul(bad, x, y)

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
