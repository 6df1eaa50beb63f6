"""The highest-weight answers against the character routes of `reference`.

`weights` and `catalog` answer from the highest weight alone.  The oracles
here walk weights: `reference`'s full characters (`weight_multiplicities`,
`tensor_decompose`, `ext_sym_square`, `trivial_multiplicity`) and, in
`helpers`, the routes the highest-weight answers replaced
(`ref_grading_values`, `ref_fs_indicator_adams`, `ref_graded_pieces4`,
`ref_restrict_walk`).  Every catalog kind of rank <= 4 is checked label by
label and pair by pair, the appendix kinds of rank 5-7 through the full
characters, and the catalog labels up to rank 8 through the replaced routes.
"""

import itertools
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from helpers import (bench_module, ref_fs_indicator_adams, ref_graded_pieces4,
                     ref_grading_values, ref_restrict_walk)
from smodquiver import catalog as C
from smodquiver import jordan as J
from smodquiver import oracles
from smodquiver import reference as R
from smodquiver import weights as W
from smodquiver.reference import Character
from smodquiver.weights import RootSystem, composite

SMALL_KINDS = [C.SL2, C.SP(4), C.SP(6), C.SP(8), C.SL(4), C.SO1(8)] + \
    [C.SO2(n) for n in range(4, 10)]

# the trivial multiplicities of (S^2, Lambda^2) for each indicator
FORMS = {1: (1, 0), -1: (0, 1), 0: (0, 0)}


def _labels(kind):
    return [lab.name for lab in C.s_half_simples(kind) + C.s_one_simples(kind)]


def _half_names(kind):
    return [lab.name for lab in C.s_half_simples(kind)]


def _eigenvalues(sys, lam, h2):
    """The h-eigenvalues on V_lam (true values), as the levels of its
    graded pieces."""
    return {Fraction(k, 4) for k in W.graded_pieces4(sys, lam, h2)}


def _ref_restrict(kind, m_name, n_name):
    """restrict_s from the full characters of `reference`."""
    sys = kind.root_system()
    cm = R.weight_multiplicities(sys, C.half_weight(kind, m_name))
    cn = R.weight_multiplicities(sys, C.any_weight(kind, n_name))
    names = {lab.weight: lab.name for lab in C.s_half_simples(kind)}
    out = {}
    for lam, mult in R.tensor_decompose(cm, cn).items():
        if R.is_trivial_weight(sys, lam):
            out["tr"] = out.get("tr", 0) + mult
        elif R.eigenvalue_set(R.weight_multiplicities(sys, lam),
                              kind.cocharacter()) == R.HALF:
            out[names[lam]] = out.get(names[lam], 0) + mult
    return out


@pytest.mark.parametrize("kind", SMALL_KINDS, ids=str)
def test_characters_match_reference(kind):
    sys = kind.root_system()
    assert sys.rank <= 4
    h2 = kind.cocharacter()
    for name in _labels(kind):
        lam = C.any_weight(kind, name)
        for w in R.dominant_character(sys, lam):
            orbit = R._orbit(sys, w)
            assert len(orbit) == len(set(orbit)) == R._orbit_size(sys, w)
        ch = R.weight_multiplicities(sys, lam)
        assert ch.mass() == W.weyl_dim(sys, lam), name
        assert R.decompose_character(ch) == {W.normalize_dominant(sys, lam): 1}
        indicator = W.fs_indicator(sys, lam)
        assert indicator == ref_fs_indicator_adams(sys, lam), name
        s2, l2 = R.ext_sym_square(ch)
        assert (R.trivial_multiplicity(s2), R.trivial_multiplicity(l2)) == \
            FORMS[indicator], name
        assert _eigenvalues(sys, lam, h2) == R.eigenvalue_set(ch, h2) == \
            ref_grading_values(sys, lam, h2), name
        for level4, dim in ref_graded_pieces4(sys, lam, h2).items():
            assert C.graded_piece_dim4(kind, name, level4) == dim, name


@pytest.mark.parametrize("kind", SMALL_KINDS, ids=str)
def test_tensor_products_match_reference(kind):
    sys = kind.root_system()
    for m_name in [lab.name for lab in C.s_half_simples(kind)]:
        cm = R.weight_multiplicities(sys, C.half_weight(kind, m_name))
        for n_name in _labels(kind):
            cn = R.weight_multiplicities(sys, C.any_weight(kind, n_name))
            expected = R.decompose_character(R.char_product(cm, cn))
            assert R.tensor_decompose(cm, cn) == expected, (m_name, n_name)
            assert R.tensor_decompose(cn, cm) == expected, (n_name, m_name)
            assert C.restrict_s(kind, m_name, n_name) == \
                _ref_restrict(kind, m_name, n_name) == \
                ref_restrict_walk(kind, m_name, n_name), (m_name, n_name)


def test_non_decomposable_contract():
    a1 = RootSystem("A", 1)
    lopsided = Character(a1, {(2, 0): 1})
    virtual = Character(a1, {(4, 0): 1, (0, 4): 1})   # ad minus trivial
    for c in (lopsided, virtual):
        with pytest.raises(R.NonDecomposable):
            R.decompose_character(c)
    v = R.weight_multiplicities(a1, (2, 0))
    with pytest.raises(R.NonDecomposable):
        R.tensor_decompose(v, lopsided)


def test_tensor_decompose_checks_both_factors_restrict_s_skips(monkeypatch):
    # the larger factor is the one not Weyl invariant, in either order;
    # restrict_s multiplies irreducible characters and never runs the test
    a1 = RootSystem("A", 1)
    v = R.weight_multiplicities(a1, (2, 0))
    skewed = Character(a1, {(4, 0): 1, (2, 2): 1, (0, 4): 2})
    for pair in ((v, skewed), (skewed, v)):
        with pytest.raises(R.NonDecomposable):
            R.tensor_decompose(*pair)

    def never(c):
        raise AssertionError("restrict_s re-checked Weyl invariance")

    expected = _ref_restrict(C.SL(4), "V", "ad")
    monkeypatch.setattr(R, "is_weyl_invariant", never)
    assert C.restrict_s.__wrapped__(C.SL(4), "V", "ad") == expected


def test_b7_spinor_times_top_exterior_power():
    # Gamma (x) Lambda^7 V over so(15): 8 constituents, no product character
    b7 = RootSystem("B", 7)
    gamma = R.weight_multiplicities(b7, (1,) * 7)
    l7 = R.weight_multiplicities(b7, (2,) * 7)
    dec = R.tensor_decompose(gamma, l7)
    assert len(dec) == 8
    assert sum(m * W.weyl_dim(b7, lam) for lam, m in dec.items()) == \
        2 ** 7 * comb(15, 7)


# the kinds of the criterion-8 ideal pool, which the benchmark's spec sweep
# draws from
POOL_KINDS = [J.kind_of_ideal(J.spec_from_dict({"ideals": [ideal]}).ideals[0])
              for ideal, _, _ in bench_module("corpus").IDEAL_POOL]


@pytest.mark.parametrize("kind", list(dict.fromkeys(
    oracles.appendix_kinds(8) + POOL_KINDS)), ids=str)
def test_restrict_s_matches_the_weight_walk(kind):
    # the minuscule rule against the Brauer-Klimyk walk it replaced
    for m_name in _half_names(kind):
        for n_name in _labels(kind):
            assert C.restrict_s.__wrapped__(kind, m_name, n_name) == \
                ref_restrict_walk(kind, m_name, n_name), (m_name, n_name)


def test_restrict_s_so17_past_the_product_cap():
    # the product character would hold 256 x 6561 weight points
    assert C.restrict_s(C.SO2(17), "Gamma", "LrV(8)") == {"Gamma": 1}


# -- past rank 4: the public full-character route is the reference ----------
#
# restrict_s, classical_parity and graded_piece_dim4 never list the weights of
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


@pytest.mark.parametrize("kind", WIDE_KINDS, ids=str)
def test_restrict_s_matches_full_characters(kind):
    assert 5 <= kind.root_system().rank <= 7
    for m_name in [lab.name for lab in C.s_half_simples(kind)]:
        for n_name in _labels(kind):
            assert C.restrict_s(kind, m_name, n_name) == _ref_restrict(
                kind, m_name, n_name), (m_name, n_name)


@pytest.mark.parametrize("kind", WIDE_KINDS, ids=str)
def test_parity_and_graded_pieces_match_full_characters(kind):
    sys = kind.root_system()
    h2 = kind.cocharacter()
    for name in _labels(kind):
        lam = C.any_weight(kind, name)
        ch = R.weight_multiplicities(sys, lam)
        levels = R.eigenvalue_set(ch, h2)
        for level in levels:
            assert C.graded_piece_dim4(kind, name, 4 * level) == sum(
                m for w, m in ch.mults.items()
                if Fraction(W.ip4(w, h2), 4) == level), (name, level)
        assert sum(C.graded_piece_dim4(kind, name, 4 * level)
                   for level in levels) == W.weyl_dim(sys, lam), name
        if not _self_dual(sys, lam):
            assert C.classical_parity(kind, name) == "none", name
            continue
        parity = C.classical_parity(kind, name)
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


# the weight walk, which only `reference` holds
WALK = ("dominant_character", "_weights", "_orbit", "_orbit_size",
        "_dot_dominant", "_chamber", "_constituents", "_racah_speiser")


def test_grading_and_parity_build_no_character(monkeypatch):
    # every answer comes from the highest weight alone: no dominant
    # character, no weight stream, no dot action
    def never(*args, **kwargs):
        raise AssertionError("a character was built")

    for name in WALK:
        assert not hasattr(W, name) and not hasattr(C, name), name
        monkeypatch.setattr(R, name, never)
    for kind in oracles.appendix_kinds(7):
        for name in _labels(kind):
            lam = C.any_weight(kind, name)
            evs = _eigenvalues(kind.root_system(), lam, kind.cocharacter())
            assert (evs == R.HALF) == (name in _half_names(kind))
            assert R.is_s_one(kind, lam) == (name in {
                lab.name for lab in C.s_one_simples(kind)})
            assert C.classical_parity.__wrapped__(kind, name) in (
                "symmetric", "skew", "none")
            for m_name in _half_names(kind):
                assert set(C.restrict_s.__wrapped__(
                    kind, m_name, name).values()) <= {1}


def test_catalog_path_memory_bound():
    # building the full weight sets of Gamma and LrV(8) over so(17) peaks
    # at about 2.4 MB and copying them at 1.3 MB; the answers read the
    # highest weights alone and keep no dominant character either
    tracemalloc.start()
    try:
        _so17_answers()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak


# -- grading values and indicators from the highest weight ------------------
#
# `graded_pieces4` and `fs_indicator` read lam alone; the character routes
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
            assert _eigenvalues(sys, lam, h2) == \
                ref_grading_values(sys, lam, h2), (kind, name)
            assert W.fs_indicator(sys, lam) == \
                ref_fs_indicator_adams(sys, lam), (kind, name)
            labels += 1
    assert labels == 134


def _assert_eigenvalues(sys, lam, h2):
    """graded_pieces4 against the character route: the same eigenvalues
    where they span at most 2, ValueError where they span more.  Returns
    whether the pieces exist."""
    ref = ref_grading_values(sys, lam, h2)
    if max(ref) - min(ref) > 2:
        with pytest.raises(ValueError, match="span more than 2"):
            W.graded_pieces4(sys, lam, h2)
        return False
    assert _eigenvalues(sys, lam, h2) == ref, lam
    return True


@pytest.mark.parametrize(
    "kind", [k for k in CATALOG_KINDS if k.root_system().rank <= 4], ids=str)
def test_small_weights_match_character_routes(kind):
    # over sl(2) the reference grows as the cube of the dimension
    sys, h2 = kind.root_system(), kind.cocharacter()
    weights = _small_dominant_weights(sys, 100 if sys.rank == 1 else 800)
    assert len(weights) > 10
    for lam in weights:
        _assert_eigenvalues(sys, lam, h2)
        assert W.fs_indicator(sys, lam) == ref_fs_indicator_adams(sys, lam), lam


@pytest.mark.parametrize("sys, h2", EXTRA_GRADINGS, ids=str)
def test_asymmetric_short_gradings_match(sys, h2):
    parts = sys.components if hasattr(sys, "components") else (sys,)
    max_dim = 200 if len(parts) == 1 else 25
    dom = [_small_dominant_weights(c, max_dim) for c in parts]
    short = 0
    for combo in itertools.product(*dom):
        lam = tuple(x for part in combo for x in part)
        # graded pieces, where swapping dom(h) and dom(-h) changes them
        if not _assert_eigenvalues(sys, lam, h2):
            continue
        assert W.graded_pieces4(sys, lam, h2) == \
            ref_graded_pieces4(sys, lam, h2), lam
        short += 1
    assert short >= 6


@pytest.mark.parametrize("kind", CATALOG_KINDS, ids=str)
def test_graded_pieces4_refuses_a_long_grading(kind):
    sys = kind.root_system()
    lam = C.any_weight(kind, _labels(kind)[0])
    with pytest.raises(ValueError, match="not a short grading"):
        W.graded_pieces4(sys, lam, tuple(2 * x for x in kind.cocharacter()))


# -- graded pieces from Levi products --------------------------------------
#
# `graded_pieces4` reads the top pieces of dom(h) and dom(-h) as Levi Weyl
# products and a middle piece as the rest of the Weyl dimension; the weight
# walk `catalog.graded_piece_dim4` did before is the reference.


def test_graded_pieces_match_the_weight_walk():
    assert C.SO1(12) in CATALOG_KINDS
    cases = 0
    for kind in CATALOG_KINDS:
        sys = kind.root_system()
        for name in _labels(kind):
            lam = C.any_weight(kind, name)
            if W.weyl_dim(sys, lam) > C.MAX_WALKED_DIM:
                continue
            walked = ref_graded_pieces4(sys, lam, kind.cocharacter())
            for level4 in range(-8, 9):
                assert C.graded_piece_dim4.__wrapped__(kind, name, level4) \
                    == walked.get(level4, 0), (str(kind), name, level4)
                cases += 1
    assert cases == 2278


def test_graded_pieces_walk_no_weights(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("weights were walked")

    for name in WALK:
        monkeypatch.setattr(R, name, never)
    # the spinor of so(33) has 2^16 weights, at the walk bound
    assert C.graded_piece_dim4.__wrapped__(C.SO2(33), "Gamma", 2) == 32768
    kind, _, top = _SO17
    assert [C.graded_piece_dim4.__wrapped__(kind, top, level4)
            for level4 in (0, 4)] == [11440, 6435]
