"""Graded Lie construction, classification map, central extensions."""

from fractions import Fraction

import pytest

from smodquiver import catalog as C
from smodquiver import jordan as J
from smodquiver import quiver as Q
from smodquiver import reference as R
from smodquiver import tables as TB
from smodquiver import tkk as T


def field_sc():
    return TB.StructureConstants([[[1]]])


def two_fields_sc():
    return TB.StructureConstants([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])


def sym2_sc():
    return TB.StructureConstants([
        [[2, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 2, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [2, 2, 0]],
    ])


def m2_sc():
    return R.plus_product(R.matrix_algebra_table(2))


# -- explicit construction ---------------------------------------------------


def test_field_gives_rank_one_short_algebra():
    g = T.tkk_construct(field_sc())
    assert g.dims == (1, 1, 1)
    assert g.check_grading() and g.check_jacobi() and g.check_triple()
    assert T.minimality_check(g)


def test_two_fields_commuting_pieces():
    g = T.tkk_construct(two_fields_sc())
    assert g.dims == (2, 2, 2)
    assert T.minimality_check(g)
    # the two coordinate lines commute
    for i in (0, 1):
        assert g.bracket_basis(i, 1 - i) == {}


def test_sym2_dimension_count():
    g = T.tkk_construct(sym2_sc())
    assert g.total_dim == 10  # n(2n+1) at n = 2
    assert g.dims[0] == 3 and g.dims[0] == g.dims[2]
    assert T.minimality_check(g)


def test_m2_dimension_count():
    g = T.tkk_construct(m2_sc())
    assert g.total_dim == 15  # sl(4)
    assert g.dims == (4, 7, 4)
    assert T.minimality_check(g)


def test_dim_identity():
    for sc in (field_sc(), two_fields_sc(), sym2_sc(), m2_sc()):
        g = T.tkk_construct(sc)
        assert g.dims[1] + 2 * sc.dim == g.total_dim


def test_round_trip_exact():
    for sc in (field_sc(), two_fields_sc(), sym2_sc(), m2_sc()):
        g = T.tkk_construct(sc)
        assert T.jordan_from_short_pair(g) == sc


def test_half_entries_give_exact_coefficients():
    # spin4 on the basis 2 e_0, e_1, e_2, e_3: entries 2 and 1/2
    products = [[["0"] * 4 for _ in range(4)] for _ in range(4)]
    products[0][0][0] = "2"
    for i in range(1, 4):
        products[0][i][i] = products[i][0][i] = "2"
        products[i][i][0] = "1/2"
    sc = TB.table_from_dict({"dim": 4, "products": products})
    g = T.tkk_construct(sc)
    assert g.dims == (4, 7, 4)
    coefficients = [c for vec in g.bracket.values() for c in vec.values()]
    coefficients += [c for vec in g.triple for c in vec]
    assert {type(c) for c in coefficients} <= {int, Fraction}
    assert Fraction(1, 2) in coefficients
    assert T.minimality_check(g)
    assert T.jordan_from_short_pair(g) == sc


def test_round_trip_on_handbuilt_rank_one():
    # basis: e (deg -1), h (deg 0), f (deg 1); [h,e]=-e, [h,f]=f, [e,f]=h
    one = Fraction(1)
    bracket = {(0, 1): {0: one}, (0, 2): {1: one}, (1, 2): {2: one}}
    g = T.ShortGradedLie((1, 1, 1), bracket,
                         ((one, 0, 0), (0, one, 0), (0, 0, one)))
    assert g.check_grading() and g.check_jacobi() and g.check_triple()
    sc = T.jordan_from_short_pair(g)
    assert sc == field_sc()


def test_grading_check_fails_on_a_misgraded_bracket():
    # [e, f] = f lies in degree 1, not in degree 0
    one = Fraction(1)
    g = T.ShortGradedLie((1, 1, 1), {(0, 2): {2: one}},
                         ((one, 0, 0), (0, one, 0), (0, 0, one)))
    assert not g.check_grading()


def test_round_trip_refuses_a_product_outside_degree_minus_one():
    # [e, h] = f makes [[f, e], e] = [e, h] = f, of degree 1
    one = Fraction(1)
    g = T.ShortGradedLie((1, 1, 1), {(0, 1): {2: one}, (0, 2): {1: one}},
                         ((one, 0, 0), (0, one, 0), (0, 0, one)))
    with pytest.raises(T.JacobiFails, match="leaves degree -1"):
        T.jordan_from_short_pair(g)


def test_minimality_fails_with_central_line():
    g = T.tkk_construct(field_sc())
    # append a central degree-0 basis vector: no brackets touch index 3
    bigger = T.ShortGradedLie((1, 2, 1), dict(g.bracket), g.triple)
    # reindex: old f lived at index 2; shift it to 3
    bracket = {}
    remap = {0: 0, 1: 1, 2: 3}
    for (i, j), vec in g.bracket.items():
        bracket[(remap[i], remap[j])] = {remap[k]: c for k, c in vec.items()}
    e, h, f = g.triple

    def shift(v):
        return (v[0], v[1], Fraction(0), v[2])

    bigger = T.ShortGradedLie((1, 2, 1), bracket,
                              (shift(e), shift(h), shift(f)))
    assert bigger.check_grading() and bigger.check_jacobi()
    assert not T.minimality_check(bigger)


def test_minimality_fails_abelian():
    g = T.ShortGradedLie((1, 1, 1), {}, ((Fraction(1), 0, 0),) * 3)
    assert not T.minimality_check(g)


def bilinear_form_algebra(d):
    """k*1 + V with 1 the unit and v*u = f(v,u)*1, f the standard form."""
    c = [[[Fraction(0)] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        c[0][i][i] = c[i][0][i] = Fraction(1)
    c[0][0] = [Fraction(0)] * d
    c[0][0][0] = Fraction(1)
    for i in range(1, d):
        c[i][i][0] = Fraction(1)
    return TB.StructureConstants(c)


def test_bilinear_form_algebras_match_classification():
    # the explicit construction lands on so(d+2), the same kind the
    # classification map assigns to a bilinear ideal of dimension d
    for d in (3, 4, 5):
        sc = bilinear_form_algebra(d)
        assert TB.check_jordan_identity(sc)
        g = T.tkk_construct(sc)
        n = d + 2
        assert g.total_dim == n * (n - 1) // 2
        assert T.minimality_check(g)
        assert T.jordan_from_short_pair(g) == sc
        kind = J.kind_of_ideal(J.Bilinear(d))
        assert kind.size == n


def test_not_unital_rejected():
    # the 1-dim algebra with zero product has no unit
    sc = TB.StructureConstants([[[0]]])
    with pytest.raises(T.NotUnital):
        T.tkk_construct(sc)


def test_non_jordan_table_rejected():
    # commutative, but e1*e1 = e2, e2*e2 = e1 fails the Jordan identity
    sc = TB.StructureConstants([[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    with pytest.raises(ValueError) as info:
        T.tkk_construct(sc)
    assert str(info.value) == "structure constants fail the defining identity"


def test_dimension_bound():
    big = TB.StructureConstants(
        [[[1 if i == j == k else 0 for k in range(17)]
          for j in range(17)] for i in range(17)])
    with pytest.raises(ValueError):
        T.tkk_construct(big)


# -- classification map ------------------------------------------------------


def test_kind_of_ideal():
    assert J.kind_of_ideal(J.Field()) == C.SL2
    assert J.kind_of_ideal(J.Hermitian(1, 3)) == C.SP(6)
    assert J.kind_of_ideal(J.Hermitian(2, 3)) == C.SL(6)
    assert J.kind_of_ideal(J.Hermitian(4, 3)) == C.SO1(12)
    assert J.kind_of_ideal(J.Bilinear(5)) == C.SO2(7)   # odd dim -> odd so
    assert J.kind_of_ideal(J.Bilinear(4)) == C.SO2(6)   # even dim -> even so
    assert J.kind_of_ideal(J.Albert()) == C.E7


def test_lie_datum_basic():
    spec = J.JordanSpec((J.Hermitian(2, 3),), (J.Unital(0, "ad"),))
    d = J.lie_datum_of_spec(spec)
    assert d.summands == (C.SL(6),)
    assert d.radical == (J.RadicalEntry((0,), ("ad",), 1),)


def test_lie_datum_merges_identical_entries():
    spec = J.JordanSpec((J.Hermitian(1, 3), J.Field()),
                        (J.TensorOfSpecial(1, "L", 0, "V"),
                         J.TensorOfSpecial(0, "V", 1, "L")))
    d = J.lie_datum_of_spec(spec)
    assert len(d.radical) == 1
    assert d.radical[0].w_dim == 2
    assert d.radical[0].support == (0, 1)


def test_lie_datum_of_a_non_unital_spec_is_that_of_its_unitalization():
    spec = J.JordanSpec((J.Hermitian(1, 3),), (J.Unital(0, "ad"),),
                        unital=False)
    d = J.lie_datum_of_spec(spec)
    assert d == J.lie_datum_of_spec(J.unitalize(spec))
    assert d.summands == (C.SP(6), C.SL2)
    # validated as given: index 1 is the field ideal that unitalizing adds
    spec = J.JordanSpec((J.Field(),), (J.Unital(1, "ad"),), unital=False)
    assert J.lie_datum_of_spec(J.unitalize(spec)).summands == (C.SL2, C.SL2)
    with pytest.raises(J.SpecError, match="radical 0: ideal index out of range"):
        J.lie_datum_of_spec(spec)


def test_lie_datum_rejects_invalid():
    with pytest.raises(J.SpecError):
        J.lie_datum_of_spec(J.JordanSpec((J.Hermitian(4, 2),)))


# -- central extensions ------------------------------------------------------


def _report(ideals, radical):
    return Q.assemble(J.JordanSpec(ideals, radical))


def test_centext_skew_base_pairing():
    # W (x) L (x) V over sl2+so1(12): skew x (classically symmetric) gives a
    # skew pairing on the base, the trivial sits in Lambda^2(base), and the
    # center is S^2(W)
    for k, expect in ((1, 1), (2, 3), (3, 6)):
        rep = _report((J.Field(), J.Hermitian(4, 3)),
                      (J.TensorOfSpecial(0, "L", 1, "V", mult=k),))
        assert rep.centext_total == expect


def test_centext_symmetric_base_pairing():
    # W (x) L (x) V over sl2+sp(6): skew x (classically skew) gives a
    # symmetric pairing on the base, so the center is Lambda^2(W)
    for k, expect in ((1, 0), (2, 1), (3, 3)):
        rep = _report((J.Field(), J.Hermitian(1, 3)),
                      (J.TensorOfSpecial(0, "L", 1, "V", mult=k),))
        assert rep.centext_total == expect


def test_centext_dual_pair():
    for k, l in ((1, 1), (2, 1), (3, 2)):
        rep = _report((J.Field(), J.Hermitian(2, 3)),
                      (J.TensorOfSpecial(0, "L", 1, "V", mult=k),
                       J.TensorOfSpecial(0, "L", 1, "V*", mult=l)))
        assert dict(rep.centext_pairs).get((0, 1)) == k * l
        assert rep.centext_total == k * l


def test_centext_shared_support():
    # four entries on one sl(6) ideal, in entry order L2V, S2V, S2V*, ad:
    # S2V and S2V* are the one dual pair, W (x) W' = 2 * 3; ad is symmetric,
    # so Lambda^2(W) = 1; L2V, whose dual L2V* is absent, adds nothing
    rep = _report((J.Hermitian(2, 3),),
                  (J.Unital(0, "ad", 2), J.Unital(0, "S2V", 2),
                   J.Unital(0, "S2V*", 3), J.Unital(0, "L2V", 2)))
    assert [g.labels for g in rep.groups] == [
        ("L2V",), ("S2V",), ("S2V*",), ("ad",)]
    assert rep.centext_pairs == (((1, 2), 6), ((3, 3), 1))
    assert rep.centext_total == 7


def test_centext_clifford_shape():
    # W (x) V over so2(7): center Lambda^2(W)
    for k, expect in ((1, 0), (2, 1), (3, 3)):
        rep = _report((J.Bilinear(5),), (J.Unital(0, "LrV(1)", mult=k),))
        assert rep.centext_total == expect


def test_centext_against_direct_character_computation():
    # independent route: decompose Lambda^2 of the full radical character
    from smodquiver import weights as W

    kinds = (J.Field(), J.Hermitian(1, 3))
    k = 2
    rep = _report(kinds, (J.TensorOfSpecial(0, "L", 1, "V", mult=k),))
    comp = W.composite(C.SL2.root_system(), C.SP(6).root_system())
    l = R.weight_multiplicities(C.SL2.root_system(), (2, 0))
    v = R.weight_multiplicities(C.SP(6).root_system(), (2, 0, 0))
    mults = {}
    for w1, m1 in l.mults.items():
        for w2, m2 in v.mults.items():
            mults[w1 + w2] = mults.get(w1 + w2, 0) + k * m1 * m2
    rad = R.Character(comp, mults)
    s2, l2 = R.ext_sym_square(rad)
    assert R.trivial_multiplicity(l2) == rep.centext_total
