"""The dominant-weight character engine against the full-weight-set reference.

The reference engine in `helpers` enumerates every weight by saturation BFS
with Fraction root-cone tests, decomposes by leading-term subtraction of full
characters, and squares a character by indexed pair enumeration.  Every
catalog kind of rank <= 4 is checked label by label and pair by pair.  For
the appendix kinds of rank 5-7 the public full-character helpers are the
reference.
"""

import itertools
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from helpers import (ref_character, ref_decompose_character,
                     ref_dominant_character, ref_fs_indicator,
                     ref_fs_indicator_adams, ref_grading_values, ref_orbit,
                     ref_tensor_decompose)
from smodquiver import catalog as C
from smodquiver import oracles
from smodquiver import reference as R
from smodquiver import weights as W
from smodquiver.reference import Character
from smodquiver.weights import RootSystem, composite

SMALL_KINDS = [C.SL2, C.SP(4), C.SP(6), C.SP(8), C.SL(4), C.SO1(8)] + \
    [C.SO2(n) for n in range(4, 10)]


def _labels(kind):
    return [lab.name for lab in C.s_half_simples(kind) + C.s_one_simples(kind)]


def _ref_restrict(kind, m_name, n_name, character=ref_character,
                  decompose=ref_tensor_decompose):
    """restrict_s from full characters: `character(sys, lam)` and
    `decompose(c1, c2)` default to the reference engine."""
    sys = kind.root_system()
    cm = character(sys, C.half_weight(kind, m_name))
    cn = character(sys, C.any_weight(kind, n_name))
    out = {}
    for lam, mult in decompose(cm, cn).items():
        if W.is_trivial_weight(sys, lam):
            out["tr"] = out.get("tr", 0) + mult
        elif R.eigenvalue_set(character(sys, lam),
                              kind.cocharacter()) == R.HALF:
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
        ch = R.weight_multiplicities(sys, lam)
        assert ch.mults == ref_character(sys, lam).mults, name
        assert R.decompose_character(ch) == {W.normalize_dominant(sys, lam): 1}
        assert W.fs_indicator(sys, lam) == ref_fs_indicator(sys, lam), name
        h2 = kind.cocharacter()
        assert W.grading_values(sys, lam, h2) == R.eigenvalue_set(ch, h2) == \
            {Fraction(W.ip4(w, h2), 4) for w in ref_character(sys, lam).mults}


@pytest.mark.parametrize("kind", SMALL_KINDS, ids=str)
def test_tensor_products_match_reference(kind):
    sys = kind.root_system()
    for m_name in [lab.name for lab in C.s_half_simples(kind)]:
        cm = R.weight_multiplicities(sys, C.half_weight(kind, m_name))
        for n_name in _labels(kind):
            cn = R.weight_multiplicities(sys, C.any_weight(kind, n_name))
            expected = ref_tensor_decompose(cm, cn)
            assert R.tensor_decompose(cm, cn) == expected, (m_name, n_name)
            assert R.tensor_decompose(cn, cm) == expected, (n_name, m_name)
            product = R.char_product(cm, cn)
            assert R.decompose_character(product) == expected
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
            R.decompose_character(c)
    v = R.weight_multiplicities(a1, (2, 0))
    with pytest.raises(W.NonDecomposable):
        R.tensor_decompose(v, lopsided)


def test_tensor_decompose_checks_both_factors_restrict_s_skips(monkeypatch):
    # the larger factor is the one not Weyl invariant, in either order;
    # restrict_s multiplies irreducible characters and never runs the test
    a1 = RootSystem("A", 1)
    v = R.weight_multiplicities(a1, (2, 0))
    skewed = Character(a1, {(4, 0): 1, (2, 2): 1, (0, 4): 2})
    for pair in ((v, skewed), (skewed, v)):
        with pytest.raises(W.NonDecomposable):
            R.tensor_decompose(*pair)

    def never(c):
        raise AssertionError("restrict_s re-checked Weyl invariance")

    monkeypatch.setattr(R, "is_weyl_invariant", never)
    assert C.restrict_s.__wrapped__(C.SL(4), "V", "ad") == \
        _ref_restrict(C.SL(4), "V", "ad")


def test_b7_spinor_times_top_exterior_power():
    # Gamma (x) Lambda^7 V over so(15): 8 constituents, no product character
    b7 = RootSystem("B", 7)
    gamma = R.weight_multiplicities(b7, (1,) * 7)
    l7 = R.weight_multiplicities(b7, (2,) * 7)
    dec = R.tensor_decompose(gamma, l7)
    assert len(dec) == 8
    assert sum(m * W.weyl_dim(b7, lam) for lam, m in dec.items()) == \
        2 ** 7 * comb(15, 7)


def test_restrict_s_so17_past_the_product_cap():
    # the product character would hold 256 x 6561 weight points
    assert C.restrict_s(C.SO2(17), "Gamma", "LrV(8)") == {"Gamma": 1}


# -- past rank 4: the public full-character route is the reference ----------
#
# restrict_s, classical_parity and graded_piece_dim never list the weights of
# a product or keep a full character; here weight_multiplicities,
# tensor_decompose, ext_sym_square and trivial_multiplicity rebuild every
# answer from full characters for each appendix kind of rank 5-7.

WIDE_KINDS = [k for k in oracles.appendix_kinds(7)
              if k.root_system().rank >= 5]

# ext_sym_square squares the character pointwise, so its cost is the square
# of the number of weights; past this many it would take tens of seconds
SQUARE_POINTS = 400


def _self_dual(sys, lam):
    lam_n = W.normalize_dominant(sys, lam)
    return W.dual_weight(sys, lam_n) == lam_n


def _central_parity(sys, lam):
    """Parity of the form on a self-dual V_lam from the central element
    exp(2 pi i rho-check), which acts by (-1)^<lam, 2 rho-check>
    (Bourbaki, Lie, ch. VIII, section 7): symmetric exactly when it is even."""
    pairing = 0
    for a in W.positive_roots(sys):
        k, rem = divmod(2 * W.ip4(lam, a), W.ip4(a, a))
        assert rem == 0
        pairing += k
    return "skew" if pairing % 2 else "symmetric"


@pytest.mark.parametrize("kind", WIDE_KINDS, ids=str)
def test_restrict_s_matches_full_characters(kind):
    assert 5 <= kind.root_system().rank <= 7
    for m_name in [lab.name for lab in C.s_half_simples(kind)]:
        for n_name in _labels(kind):
            assert C.restrict_s(kind, m_name, n_name) == _ref_restrict(
                kind, m_name, n_name, R.weight_multiplicities,
                R.tensor_decompose), (m_name, n_name)


@pytest.mark.parametrize("kind", WIDE_KINDS, ids=str)
def test_parity_and_graded_pieces_match_full_characters(kind):
    sys = kind.root_system()
    h2 = kind.cocharacter()
    for name in _labels(kind):
        lam = C.any_weight(kind, name)
        ch = R.weight_multiplicities(sys, lam)
        levels = R.eigenvalue_set(ch, h2)
        for level in levels:
            assert C.graded_piece_dim(kind, name, level) == sum(
                m for w, m in ch.mults.items()
                if Fraction(W.ip4(w, h2), 4) == level), (name, level)
        assert sum(C.graded_piece_dim(kind, name, level)
                   for level in levels) == W.weyl_dim(sys, lam), name
        if not _self_dual(sys, lam):
            assert C.classical_parity(kind, name) == "none", name
            continue
        parity = C.classical_parity(kind, name)
        assert parity == _central_parity(sys, lam), name
        if len(ch.mults) <= SQUARE_POINTS:
            s2, l2 = R.ext_sym_square(ch)
            forms = (R.trivial_multiplicity(s2), R.trivial_multiplicity(l2))
            assert forms == {"symmetric": (1, 0), "skew": (0, 1)}[parity], name


_SO17 = (C.SO2(17), "Gamma", "LrV(8)")


def _so17_answers():
    kind, gamma, top = _SO17
    return (C.restrict_s.__wrapped__(kind, gamma, top),
            C.classical_parity.__wrapped__(kind, gamma),
            C.classical_parity.__wrapped__(kind, top),
            C.graded_piece_dim4.__wrapped__(kind, gamma, 2),
            C.graded_piece_dim4.__wrapped__(kind, top, 0))


def test_catalog_path_builds_no_full_character(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a full character was built")

    monkeypatch.setattr(R, "weight_multiplicities", never)
    monkeypatch.setattr(R, "Character", never)
    # 256 x 6561 weights in the factors, 11440 in the level-0 piece of LrV(8)
    assert _so17_answers() == ({"Gamma": 1}, "symmetric", "symmetric",
                               128, 11440)


def test_grading_and_parity_build_no_character(monkeypatch):
    # both answers come from the highest weight alone: no dominant
    # character, no weight stream, no Brauer-Klimyk product
    def never(*args, **kwargs):
        raise AssertionError("a character was built")

    for name in ("dominant_character", "_weights", "_brauer_klimyk"):
        monkeypatch.setattr(W, name, never)
    for kind in oracles.appendix_kinds(7):
        for name in _labels(kind):
            lam = C.any_weight(kind, name)
            evs = C.grading_eigenvalues(kind, lam)
            assert C.is_s_half.__wrapped__(kind, lam) == (evs == R.HALF)
            assert R.is_s_one(kind, lam) == (name in {
                lab.name for lab in C.s_one_simples(kind)})
            assert C.classical_parity.__wrapped__(kind, name) in (
                "symmetric", "skew", "none")


def test_catalog_path_memory_bound():
    # building the full weight sets of Gamma and LrV(8) over so(17) peaks
    # at about 2.4 MB and copying them at 1.3 MB; streaming them peaks near
    # 0.4 MB
    kind, gamma, top = _SO17
    sys = kind.root_system()
    for name in (gamma, top):
        W.dominant_character(sys, C.any_weight(kind, name))
    tracemalloc.start()
    try:
        _so17_answers()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# -- grading values and indicators from the highest weight ------------------
#
# `grading_values` and `fs_indicator` read lam alone; the character routes
# they replaced (dominant character against the Weyl orbit of h, and the
# Adams operation with a Brauer-Klimyk square) are the references.

CATALOG_KINDS = oracles.appendix_kinds(8) + [C.SL2]


def _fundamental_weights(sys):
    """Doubled fundamental weights of a simple system."""
    r, fam = sys.rank, sys.family
    if fam == "A":
        return [(2,) * i + (0,) * (r + 1 - i) for i in range(1, r + 1)]
    out = [(2,) * i + (0,) * (r - i) for i in range(1, r + 1)]
    if fam == "B":
        out[-1] = (1,) * r
    elif fam == "D":
        out[-2:] = [(1,) * (r - 1) + (-1,), (1,) * r]
    return out


def _small_dominant_weights(sys, max_dim):
    """Every dominant weight whose module has dimension <= max_dim; adding
    a fundamental weight raises the dimension, so the search stops."""
    zero = (0,) * sys.ambient
    seen, todo = {zero}, [zero]
    while todo:
        lam = todo.pop()
        for om in _fundamental_weights(sys):
            mu = tuple(x + y for x, y in zip(lam, om))
            if mu not in seen and W.weyl_dim(sys, mu) <= max_dim:
                seen.add(mu)
                todo.append(mu)
    return sorted(seen)


# short gradings beyond the catalog's: for all but the composite one
# dom(-h) != dom(h), so the bottom of the string is not minus its top
EXTRA_GRADINGS = [
    (RootSystem("A", 2), (2, 0, 0)),
    (RootSystem("A", 3), (2, 2, 0, 0)),
    (RootSystem("D", 3), (1, 1, 1)),
    (RootSystem("D", 5), (1, 1, 1, 1, 1)),
    (composite(RootSystem("A", 1), RootSystem("B", 2)), (1, -1, 2, 0)),
]


def test_catalog_labels_match_character_routes():
    labels = 0
    for kind in CATALOG_KINDS:
        sys, h2 = kind.root_system(), kind.cocharacter()
        for name in _labels(kind):
            lam = C.any_weight(kind, name)
            assert W.grading_values(sys, lam, h2) == \
                ref_grading_values(sys, lam, h2), (kind, name)
            assert W.fs_indicator(sys, lam) == \
                ref_fs_indicator_adams(sys, lam), (kind, name)
            labels += 1
    assert labels == 134


@pytest.mark.parametrize(
    "kind", [k for k in CATALOG_KINDS if k.root_system().rank <= 4], ids=str)
def test_small_weights_match_character_routes(kind):
    # over sl(2) the reference grows as the cube of the dimension
    sys, h2 = kind.root_system(), kind.cocharacter()
    weights = _small_dominant_weights(sys, 100 if sys.rank == 1 else 800)
    assert len(weights) > 10
    for lam in weights:
        assert W.grading_values(sys, lam, h2) == \
            ref_grading_values(sys, lam, h2), lam
        assert W.fs_indicator(sys, lam) == ref_fs_indicator_adams(sys, lam), lam


@pytest.mark.parametrize("sys, h2", EXTRA_GRADINGS, ids=str)
def test_asymmetric_short_gradings_match(sys, h2):
    parts = sys.components if hasattr(sys, "components") else (sys,)
    max_dim = 200 if len(parts) == 1 else 25
    dom = [_small_dominant_weights(c, max_dim) for c in parts]
    for combo in itertools.product(*dom):
        lam = tuple(x for part in combo for x in part)
        assert W.grading_values(sys, lam, h2) == \
            ref_grading_values(sys, lam, h2), lam


@pytest.mark.parametrize("kind", CATALOG_KINDS, ids=str)
def test_grading_values_refuse_a_long_grading(kind):
    sys = kind.root_system()
    lam = C.any_weight(kind, _labels(kind)[0])
    with pytest.raises(ValueError, match="not a short grading"):
        W.grading_values(sys, lam, tuple(2 * x for x in kind.cocharacter()))
