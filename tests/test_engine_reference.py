"""The dominant-weight character engine against the full-weight-set reference.

The reference engine in `helpers` enumerates every weight by saturation BFS
with Fraction root-cone tests, decomposes by leading-term subtraction of full
characters, and squares a character by indexed pair enumeration.  Every
catalog kind of rank <= 4 is checked label by label and pair by pair.
"""

from fractions import Fraction
from math import comb

import pytest

from helpers import (ref_character, ref_decompose_character,
                     ref_dominant_character, ref_fs_indicator, ref_orbit,
                     ref_tensor_decompose)
from smodquiver import catalog as C
from smodquiver import weights as W
from smodquiver.weights import Character, RootSystem

SMALL_KINDS = [C.SL2, C.SP(4), C.SP(6), C.SP(8), C.SL(4), C.SO1(8)] + \
    [C.SO2(n) for n in range(4, 10)]


def _labels(kind):
    return [lab.name for lab in C.s_half_simples(kind) + C.s_one_simples(kind)]


def _ref_restrict(kind, m_name, n_name):
    sys = kind.root_system()
    cm = ref_character(sys, C.half_weight(kind, m_name))
    cn = ref_character(sys, C.any_weight(kind, n_name))
    out = {}
    for lam, mult in ref_tensor_decompose(cm, cn).items():
        evs = {Fraction(W.ip4(w, kind.cocharacter()), 4)
               for w in ref_character(sys, lam).mults}
        if W.is_trivial_weight(sys, lam):
            out["tr"] = out.get("tr", 0) + mult
        elif evs == C.HALF:
            out[C._name_of_half_weight(kind, lam)] = \
                out.get(C._name_of_half_weight(kind, lam), 0) + mult
    return out


@pytest.mark.parametrize("kind", SMALL_KINDS, ids=str)
def test_characters_match_reference(kind):
    sys = kind.root_system()
    assert sys.rank <= 4
    for name in _labels(kind):
        lam = C.any_weight(kind, name)
        dom = W.dominant_character(sys, lam)
        assert dom == ref_dominant_character(sys, lam), name
        assert list(dom) == list(ref_dominant_character(sys, lam)), name
        for w in dom:
            orbit = W._orbit(sys, w)
            assert len(orbit) == len(set(orbit)) == W._orbit_size(sys, w)
            assert set(orbit) == ref_orbit(sys, w)
        ch = W.weight_multiplicities(sys, lam)
        assert ch.mults == ref_character(sys, lam).mults, name
        assert W.decompose_character(ch) == {W.normalize_dominant(sys, lam): 1}
        assert W.fs_indicator(sys, lam) == ref_fs_indicator(sys, lam), name
        h2 = kind.cocharacter()
        assert W.grading_values(sys, lam, h2) == W.eigenvalue_set(ch, h2) == \
            {Fraction(W.ip4(w, h2), 4) for w in ref_character(sys, lam).mults}


@pytest.mark.parametrize("kind", SMALL_KINDS, ids=str)
def test_tensor_products_match_reference(kind):
    sys = kind.root_system()
    for m_name in [lab.name for lab in C.s_half_simples(kind)]:
        cm = W.weight_multiplicities(sys, C.half_weight(kind, m_name))
        for n_name in _labels(kind):
            cn = W.weight_multiplicities(sys, C.any_weight(kind, n_name))
            expected = ref_tensor_decompose(cm, cn)
            assert W.tensor_decompose(cm, cn) == expected, (m_name, n_name)
            assert W.tensor_decompose(cn, cm) == expected, (n_name, m_name)
            product = W.char_product(cm, cn)
            assert W.decompose_character(product) == expected
            assert C.restrict_s(kind, m_name, n_name) == \
                _ref_restrict(kind, m_name, n_name), (m_name, n_name)


def test_non_decomposable_contract():
    a1 = RootSystem("A", 1)
    lopsided = Character(a1, {(2, 0): 1})
    virtual = Character(a1, {(4, 0): 1, (0, 4): 1})   # ad minus trivial
    for c in (lopsided, virtual):
        with pytest.raises(W.NonDecomposable):
            ref_decompose_character(c)
        with pytest.raises(W.NonDecomposable):
            W.decompose_character(c)
    v = W.weight_multiplicities(a1, (2, 0))
    with pytest.raises(W.NonDecomposable):
        W.tensor_decompose(v, lopsided)


def test_tensor_decompose_checks_both_factors_restrict_s_skips(monkeypatch):
    # the larger factor is the one not Weyl invariant, in either order;
    # restrict_s multiplies irreducible characters and never runs the test
    a1 = RootSystem("A", 1)
    v = W.weight_multiplicities(a1, (2, 0))
    skewed = Character(a1, {(4, 0): 1, (2, 2): 1, (0, 4): 2})
    for pair in ((v, skewed), (skewed, v)):
        with pytest.raises(W.NonDecomposable):
            W.tensor_decompose(*pair)

    def never(c):
        raise AssertionError("restrict_s re-checked Weyl invariance")

    monkeypatch.setattr(W, "is_weyl_invariant", never)
    assert C.restrict_s.__wrapped__(C.SL(4), "V", "ad") == \
        _ref_restrict(C.SL(4), "V", "ad")


def test_b7_spinor_times_top_exterior_power():
    # Gamma (x) Lambda^7 V over so(15): 8 constituents, no product character
    b7 = RootSystem("B", 7)
    gamma = W.weight_multiplicities(b7, (1,) * 7)
    l7 = W.weight_multiplicities(b7, (2,) * 7)
    dec = W.tensor_decompose(gamma, l7)
    assert len(dec) == 8
    assert sum(m * W.weyl_dim(b7, lam) for lam, m in dec.items()) == \
        2 ** 7 * comb(15, 7)


def test_restrict_s_so17_past_the_product_cap():
    # the product character would hold 256 x 6561 weight points
    assert C.restrict_s(C.SO2(17), "Gamma", "LrV(8)") == {"Gamma": 1}
