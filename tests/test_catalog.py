"""Catalog contents, membership criteria, restriction and duality tables."""

from fractions import Fraction

import pytest

from smodquiver import catalog as C
from smodquiver import oracles
from smodquiver import reference as R
from smodquiver import weights as W


def names(labels):
    return [l.name for l in labels]


def eigenvalues(kind, lam):
    """The h-eigenvalues on V_lam, as the levels of its graded pieces."""
    return {Fraction(k, 4) for k in W.graded_pieces4(
        kind.root_system(), lam, kind.cocharacter())}


def test_half_simples_per_kind():
    assert names(C.s_half_simples(C.SL2)) == ["L"]
    assert names(C.s_half_simples(C.SP(6))) == ["V"]
    assert names(C.s_half_simples(C.SL(6))) == ["V", "V*"]
    assert names(C.s_half_simples(C.SO1(12))) == ["V"]
    assert names(C.s_half_simples(C.E7)) == []
    assert names(C.s_half_simples(C.SO2(7))) == ["Gamma"]
    assert names(C.s_half_simples(C.SO2(10))) == ["Gamma+", "Gamma-"]


def test_one_simples_per_kind():
    assert names(C.s_one_simples(C.SL2)) == ["ad"]
    assert names(C.s_one_simples(C.SP(6))) == ["ad", "L2V"]
    assert names(C.s_one_simples(C.SL(6))) == ["ad", "S2V", "S2V*", "L2V",
                                               "L2V*"]
    assert names(C.s_one_simples(C.SO1(16))) == ["ad", "S2V"]
    assert names(C.s_one_simples(C.SO1(12))) == ["ad", "S2V", "Gamma+"]
    assert names(C.s_one_simples(C.SO2(7))) == ["LrV(1)", "LrV(2)", "LrV(3)"]
    assert names(C.s_one_simples(C.SO2(8))) == ["LrV(1)", "LrV(2)", "LrV(3)",
                                                "Lambda+", "Lambda-"]
    assert names(C.s_one_simples(C.SO2(10))) == ["LrV(1)", "LrV(2)", "LrV(3)",
                                                 "LrV(4)", "Lambda+", "Lambda-"]
    assert names(C.s_one_simples(C.E7)) == ["ad"]


def test_half_membership_invariant():
    for kind in (C.SL2, C.SP(6), C.SL(6), C.SO1(12), C.SO2(7), C.SO2(8)):
        for lab in C.s_half_simples(kind):
            assert eigenvalues(kind, lab.weight) == R.HALF
        for lab in C.s_one_simples(kind):
            assert eigenvalues(kind, lab.weight) != R.HALF
            assert R.is_s_one(kind, lab.weight)


def test_graded_pieces4_half_examples():
    assert eigenvalues(C.SP(6), (2, 0, 0)) == R.HALF
    assert eigenvalues(C.SP(6), (4, 0, 0)) != R.HALF       # adjoint
    assert eigenvalues(C.SL(6), (2, 2, 0, 0, 0, 0)) != R.HALF  # {-1,0,1}


def test_graded_pieces4_eigenvalue_examples():
    half = {Fraction(1, 2), Fraction(-1, 2)}
    assert eigenvalues(C.SL(6), (2, 0, 0, 0, 0, 0)) == half
    assert eigenvalues(C.SO2(7), (1, 1, 1)) == half
    assert eigenvalues(C.SO1(8), (2, 2, 0, 0)) == {
        Fraction(-1), Fraction(0), Fraction(1)}


@pytest.mark.parametrize("kind, lam", [
    (C.SL(6), (0, 2, 0, 0, 0, 0)),
    (C.SO2(7), (1, -1, 0)),
    (C.SP(6), (0, 2, 0)),
])
def test_graded_pieces4_refuses_non_dominant(kind, lam):
    with pytest.raises(W.NotDominant):
        eigenvalues(kind, lam)


def test_cocharacter_pairs_roots_short():
    for kind in (C.SL2, C.SP(6), C.SL(6), C.SO1(12), C.SO2(7), C.SO2(8)):
        sys = kind.root_system()
        h2 = kind.cocharacter()
        vals = {Fraction(W.ip4(a, h2), 4) for a in W.positive_roots(sys)}
        assert vals <= {Fraction(-1), Fraction(0), Fraction(1)}


def test_restriction_examples():
    assert C.restrict_s(C.SP(6), "V", "ad") == {"V": 1}
    assert C.restrict_s(C.SL(6), "V", "V") == {}
    assert C.restrict_s(C.SO2(7), "Gamma", "Gamma") == {"tr": 1}
    assert C.restrict_s(C.SO2(8), "Gamma+", "LrV(1)") == {"Gamma-": 1}
    assert C.restrict_s(C.SO1(12), "V", "Gamma+") == {}


def test_restriction_multiplicity_free_on_catalog():
    for kind in (C.SP(6), C.SL(6), C.SO2(7), C.SO2(8)):
        for m in C.s_half_simples(kind):
            for n in C.s_one_simples(kind) + C.s_half_simples(kind):
                res = C.restrict_s(kind, m.name, n.name)
                nontr = [k for k in res if k != "tr"]
                assert len(nontr) <= 1
                assert all(v == 1 for v in res.values())


def test_duality_form_examples():
    assert C.duality_form(C.SL2, "L") == C.FormData("L", "skew")
    assert C.duality_form(C.SP(6), "V") == C.FormData("V", "symmetric")
    assert C.duality_form(C.SO1(12), "V") == C.FormData("V", "skew")
    assert C.duality_form(C.SL(6), "V") == C.FormData("V*", "none")
    assert C.duality_form(C.SO2(10), "Gamma+") == C.FormData("Gamma-", "none")
    # so2(16): rank 8 = 0 mod 4 -> symmetric; so2(12): rank 6 = 2 mod 4 -> skew
    assert C.duality_form(C.SO2(16), "Gamma+").parity == "symmetric"
    assert C.duality_form(C.SO2(12), "Gamma+").parity == "skew"
    # so2(9): B4, 4 = 0 mod 4 -> symmetric; so2(11): B5 -> skew
    assert C.duality_form(C.SO2(9), "Gamma").parity == "symmetric"
    assert C.duality_form(C.SO2(11), "Gamma").parity == "skew"


def test_dual_label_matches_table():
    for kind in (C.SL2, C.SP(6), C.SL(6), C.SO1(12), C.SO2(7), C.SO2(8),
                 C.SO2(10)):
        for lab in C.s_half_simples(kind):
            assert C.dual_label(kind, lab.name) == \
                C.duality_form(kind, lab.name).dual


def test_parity_discrepancies_are_exactly_the_documented_ones():
    assert R.parity_discrepancies(C.SP(6)) == [("V", "symmetric", "skew")]
    assert R.parity_discrepancies(C.SO1(12)) == [("V", "skew", "symmetric")]
    for kind in (C.SL2, C.SL(6), C.SO2(7), C.SO2(8), C.SO2(9), C.SO2(10),
                 C.SO2(11), C.SO2(12)):
        assert R.parity_discrepancies(kind) == []


def test_so12_extra_spinor_has_short_grading():
    lab = dict((l.name, l) for l in C.s_one_simples(C.SO1(12)))["Gamma+"]
    evs = eigenvalues(C.SO1(12), lab.weight)
    assert evs == {Fraction(-1), Fraction(0), Fraction(1)}
    assert W.weyl_dim(C.SO1(12).root_system(), lab.weight) == 32


def test_graded_piece_dims():
    # standard so2 module: one-dimensional top piece (singular shape)
    # levels in quarter units: 4 is eigenvalue 1, 2 is 1/2
    assert C.graded_piece_dim4(C.SO2(7), "LrV(1)", 4) == 1
    assert C.graded_piece_dim4(C.SO2(8), "LrV(1)", 4) == 1
    # sp(6) adjoint: top piece is n(n+1)/2 = 6
    assert C.graded_piece_dim4(C.SP(6), "ad", 4) == 6
    # half pieces of half simples
    assert C.graded_piece_dim4(C.SL2, "L", 2) == 1
    assert C.graded_piece_dim4(C.SP(6), "V", 2) == 3


def test_unknown_labels_raise():
    with pytest.raises(C.UnknownLabel):
        C.restrict_s(C.SP(6), "V", "Gamma+")
    with pytest.raises(C.UnknownLabel):
        C.duality_form(C.SP(6), "Gamma")


def test_kind_guards():
    with pytest.raises(ValueError):
        C.SP(5)
    with pytest.raises(ValueError):
        C.SO1(10)
    with pytest.raises(ValueError):
        C.SO2(3)


def test_walk_bound_is_exact(monkeypatch):
    # so(15) has dimension 105 and its spinor Gamma dimension 128; the cached
    # entry points are bypassed so that every call checks the bound (level
    # 1/2 is 2 in quarter units).  The graded pieces check the module's
    # dimension; the root system checks the kind's own, so restrict_s, which
    # walks no weights, answers under any bound the kind itself meets
    kind, half = C.SO2(15), 2
    monkeypatch.setattr(C, "MAX_WALKED_DIM", 128)
    assert C.graded_piece_dim4.__wrapped__(kind, "Gamma", half) == 64
    assert C.restrict_s.__wrapped__(kind, "Gamma", "LrV(3)") == {"Gamma": 1}
    monkeypatch.setattr(C, "MAX_WALKED_DIM", 127)
    with pytest.raises(C.ModuleTooLarge):
        C.graded_piece_dim4.__wrapped__(kind, "Gamma", half)
    monkeypatch.setattr(C, "MAX_WALKED_DIM", 105)
    assert C.restrict_s.__wrapped__(kind, "Gamma", "LrV(3)") == {"Gamma": 1}
    monkeypatch.setattr(C, "MAX_WALKED_DIM", 104)
    with pytest.raises(C.ModuleTooLarge):
        C.restrict_s.__wrapped__(kind, "Gamma", "LrV(3)")


def test_largest_accepted_kind_is_at_the_bound():
    # a bilinear(d) ideal gives so2(d + 2): bilinear(360) gives so(362), of
    # dimension 65 341, and bilinear(361) so(363), of dimension 65 703
    assert C.SO2(362).root_system().rank == 181
    with pytest.raises(C.ModuleTooLarge):
        C.SO2(363).root_system()


@pytest.mark.parametrize("kind", oracles.appendix_kinds(12) + [C.SL2],
                         ids=str)
def test_every_half_simple_is_minuscule(kind):
    # restrict_s reads tensor products off the minuscule rule: a half simple
    # whose dominant character held a second weight would get wrong arrows
    sys = kind.root_system()
    for lab in C.s_half_simples(kind):
        assert R.dominant_character(sys, lab.weight) == {lab.weight: 1}, \
            lab.name
