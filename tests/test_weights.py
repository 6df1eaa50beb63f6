"""Character engine: dimensions, multiplicities, tensor products, duals.

Expected values are either classical small facts checked by hand, or frozen
outputs of independent enumerations done inside the test (orbit counts, root
counts, pair enumerations).
"""

from fractions import Fraction

import pytest

from smodquiver import reference as R
from smodquiver import weights as W
from smodquiver.reference import Character
from smodquiver.weights import RootSystem, composite

A1 = RootSystem("A", 1)
A2 = RootSystem("A", 2)
A5 = RootSystem("A", 5)
B2 = RootSystem("B", 2)
C2 = RootSystem("C", 2)
C3 = RootSystem("C", 3)
D5 = RootSystem("D", 5)
D6 = RootSystem("D", 6)


def test_weyl_dim_examples():
    assert W.weyl_dim(C3, (2, 2, 0)) == 3 * 5 - 1          # n(2n-1)-1 at n=3
    assert W.weyl_dim(D6, (1,) * 6) == 32                  # half spin
    assert W.weyl_dim(A1, (0, 0)) == 1
    assert W.weyl_dim(A5, (2, 0, 0, 0, 0, 0)) == 6
    assert W.weyl_dim(A5, (4, 2, 2, 2, 2, 0)) == 35        # adjoint of sl(6)


def test_weyl_denominator_is_computed_once_per_system():
    # prod <rho, alpha> depends on the system alone
    sys = RootSystem("B", 6)
    W._weyl_denominator.cache_clear()
    dims = [W.weyl_dim(sys, lam) for lam in
            [(0,) * 6, (2,) + (0,) * 5, (1,) * 6, (2, 2) + (0,) * 4]]
    assert dims == [1, 13, 64, 78]
    info = W._weyl_denominator.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_weyl_dim_requires_dominant():
    with pytest.raises(W.NotDominant):
        W.weyl_dim(C3, (0, 2, 0))


def test_dual_weight_requires_dominant():
    with pytest.raises(W.NotDominant) as info:
        W.dual_weight(C3, (0, 2, 0))
    assert info.value.args == ((0, 2, 0),)


def test_dominant_character_requires_dominant():
    with pytest.raises(W.NotDominant):
        R.dominant_character(C3, (0, 2, 0))


def test_characters_over_different_systems_do_not_combine():
    a = R.weight_multiplicities(A1, (2, 0))
    b = R.weight_multiplicities(A2, (2, 0, 0))
    with pytest.raises(ValueError, match="different systems"):
        R.char_product(a, b)
    with pytest.raises(ValueError, match="different systems"):
        R.tensor_decompose(a, b)


def test_weight_off_the_lattice_is_not_weyl_invariant():
    # (1, 0) pairs with B2's long simple root to a half-integer
    assert not R.is_weyl_invariant(Character(B2, {(1, 0): 1}))


@pytest.mark.parametrize("family, rank, message", [
    ("A", 0, "rank must be positive"),
    ("D", 1, "D requires rank >= 2"),
])
def test_root_system_refuses_a_small_rank(family, rank, message):
    with pytest.raises(ValueError) as info:
        RootSystem(family, rank)
    assert str(info.value) == message


def test_weight_multiplicities_a1_adjoint():
    ch = R.weight_multiplicities(A1, (4, 0))
    assert ch.mults == {(4, 0): 1, (2, 2): 1, (0, 4): 1}


def test_weight_multiplicities_b2_spinor_minuscule():
    # independent oracle: the orbit of (1/2,1/2) under signed permutations
    orbit = {(s1, s2) for s1 in (1, -1) for s2 in (1, -1)}
    ch = R.weight_multiplicities(B2, (1, 1))
    assert ch.mults == {w: 1 for w in orbit}


def test_weight_multiplicities_c3_adjoint_zero_weight():
    # 21 = 18 roots + 3-dim Cartan; Freudenthal must give 3 at weight zero
    ch = R.weight_multiplicities(C3, (4, 0, 0))
    assert ch.mass() == 21
    assert ch.mults[(0, 0, 0)] == 3


def test_mass_conservation_various():
    for sys, lam in [(C3, (2, 2, 0)), (D6, (1,) * 6), (B2, (2, 0)),
                     (A5, (2, 2, 0, 0, 0, 0)), (D5, (2, 2, 0, 0, 0))]:
        ch = R.weight_multiplicities(sys, lam)
        assert ch.mass() == W.weyl_dim(sys, lam)


def test_characters_weyl_invariant():
    for sys, lam in [(C3, (4, 0, 0)), (B2, (1, 1)), (D5, (1, 1, 1, 1, -1)),
                     (A2, (4, 2, 0))]:
        assert R.is_weyl_invariant(R.weight_multiplicities(sys, lam))


def test_tensor_clebsch_gordan():
    v = R.weight_multiplicities(A1, (2, 0))
    dec = R.tensor_decompose(v, v)
    assert dec == {(4, 0): 1, (0, 0): 1}
    dims = sum(W.weyl_dim(A1, lam) * m for lam, m in dec.items())
    assert dims == 4


def test_tensor_c3_standard_with_adjoint():
    v = R.weight_multiplicities(C3, (2, 0, 0))
    ad = R.weight_multiplicities(C3, (4, 0, 0))
    dec = R.tensor_decompose(v, ad)
    assert dec.get((2, 0, 0), 0) >= 1
    total = sum(W.weyl_dim(C3, lam) * m for lam, m in dec.items())
    assert total == 6 * 21


def test_tensor_d6_spinor_pair():
    gp = R.weight_multiplicities(D6, (1,) * 6)
    gm = R.weight_multiplicities(D6, (1,) * 5 + (-1,))
    dec = R.tensor_decompose(gp, gm)
    total = sum(W.weyl_dim(D6, lam) * m for lam, m in dec.items())
    assert total == 32 * 32
    # rank even: no half-graded constituent in Gamma+ (x) Gamma- for the
    # second short grading h = e1
    h2 = (2, 0, 0, 0, 0, 0)
    for lam in dec:
        ch = R.weight_multiplicities(D6, lam)
        evs = R.eigenvalue_set(ch, h2)
        assert evs != {Fraction(1, 2), Fraction(-1, 2)}


def test_tensor_reexpansion_reproduces_product():
    v = R.weight_multiplicities(B2, (2, 0))
    g = R.weight_multiplicities(B2, (1, 1))
    prod = R.char_product(v, g)
    dec = R.decompose_character(prod)
    rebuilt = {}
    for lam, m in dec.items():
        for w, k in R.weight_multiplicities(B2, lam).mults.items():
            rebuilt[w] = rebuilt.get(w, 0) + m * k
    assert rebuilt == prod.mults


def test_dual_weight_examples():
    assert W.dual_weight(A5, (2, 0, 0, 0, 0, 0)) == (2, 2, 2, 2, 2, 0)
    assert W.dual_weight(D5, (1, 1, 1, 1, 1)) == (1, 1, 1, 1, -1)
    assert W.dual_weight(C3, (2, 0, 0)) == (2, 0, 0)


def test_dual_weight_on_a_composite_system():
    # each component's slice of the weight is dualized on its own
    lam = (2, 0, 0, 0, 0, 0) + (1, 1, 1, 1, 1)
    assert W.dual_weight(composite(A5, D5), lam) == \
        (2, 2, 2, 2, 2, 0) + (1, 1, 1, 1, -1)


def test_dual_weight_involution():
    for sys, lam in [(A5, (2, 2, 0, 0, 0, 0)), (D5, (1,) * 5),
                     (D6, (1,) * 6), (C3, (2, 2, 0)), (B2, (1, 1))]:
        assert W.dual_weight(sys, W.dual_weight(sys, lam)) == lam


def test_ext_sym_square_a1():
    v = R.weight_multiplicities(A1, (2, 0))
    s2, l2 = R.ext_sym_square(v)
    assert s2.mass() == 3 and l2.mass() == 1


def test_ext_sym_square_mass_identities():
    for sys, lam in [(C3, (2, 0, 0)), (B2, (1, 1)), (A2, (2, 0, 0))]:
        ch = R.weight_multiplicities(sys, lam)
        d = ch.mass()
        s2, l2 = R.ext_sym_square(ch)
        assert s2.mass() == d * (d + 1) // 2
        assert l2.mass() == d * (d - 1) // 2


def test_ext_square_c2_standard_zero_weight():
    # independent enumeration: pairs of distinct weights of V summing to zero
    ch = R.weight_multiplicities(C2, (2, 0))
    items = sorted(ch.mults)
    count = sum(1 for i in range(len(items)) for j in range(i + 1, len(items))
                if tuple(a + b for a, b in zip(items[i], items[j])) == (0, 0))
    assert count == 2
    _, l2 = R.ext_sym_square(ch)
    assert l2.mults[(0, 0)] == 2


def test_trivial_multiplicity():
    ad = R.weight_multiplicities(A1, (4, 0))
    assert R.trivial_multiplicity(ad) == 0
    v = R.weight_multiplicities(A2, (2, 0, 0))
    vs = R.weight_multiplicities(A2, (2, 2, 0))
    assert R.trivial_multiplicity(R.char_product(v, vs)) == 1
    assert R.trivial_multiplicity(Character(A2, {})) == 0


def test_trivial_multiplicity_product_system_square():
    # Lambda^2(L (x) L') over sl2+sl2 decomposes as ad(x)tr + tr(x)ad:
    # no invariants (the invariant pairing is symmetric); S^2 carries one.
    comp = composite(A1, A1)
    l = R.weight_multiplicities(A1, (2, 0))
    mults = {}
    for w1, m1 in l.mults.items():
        for w2, m2 in l.mults.items():
            mults[w1 + w2] = m1 * m2
    lxl = Character(comp, mults)
    s2, l2 = R.ext_sym_square(lxl)
    assert R.trivial_multiplicity(l2) == 0
    assert R.trivial_multiplicity(s2) == 1


def test_fs_indicator_examples():
    assert W.fs_indicator(RootSystem("B", 4), (1, 1, 1, 1)) == 1
    assert W.fs_indicator(RootSystem("D", 2), (1, 1)) == -1   # m odd
    assert W.fs_indicator(RootSystem("D", 6), (1,) * 6) == -1  # m = 3 odd
    assert W.fs_indicator(RootSystem("D", 4), (1,) * 4) == 1   # m = 2 even
    assert W.fs_indicator(A5, (2, 0, 0, 0, 0, 0)) == 0
    assert W.fs_indicator(C3, (2, 0, 0)) == -1
    assert W.fs_indicator(RootSystem("D", 6), (2, 0, 0, 0, 0, 0)) == 1


def test_fs_nonzero_iff_self_dual():
    cases = [(A5, (2, 0, 0, 0, 0, 0)), (A5, (4, 2, 2, 2, 2, 0)),
             (C3, (2, 2, 0)), (D5, (1,) * 5), (D6, (1,) * 6)]
    for sys, lam in cases:
        self_dual = W.dual_weight(sys, lam) == W.normalize_dominant(sys, lam)
        assert (W.fs_indicator(sys, lam) != 0) == self_dual


def test_grading_eigenvalue_sets():
    # sl(2n) standard against h = (1/2^n, -1/2^n)
    ch = R.weight_multiplicities(A5, (2, 0, 0, 0, 0, 0))
    evs = R.eigenvalue_set(ch, (1, 1, 1, -1, -1, -1))
    assert evs == {Fraction(1, 2), Fraction(-1, 2)}
    # so(2m+1) spinor against h = e1
    ch = R.weight_multiplicities(RootSystem("B", 3), (1, 1, 1))
    assert R.eigenvalue_set(ch, (2, 0, 0)) == {Fraction(1, 2), Fraction(-1, 2)}
    # so1(4n) adjoint against h = (1/2,...,1/2)
    ch = R.weight_multiplicities(RootSystem("D", 4), (2, 2, 0, 0))
    assert R.eigenvalue_set(ch, (1, 1, 1, 1)) == {Fraction(-1), Fraction(0),
                                                  Fraction(1)}


def test_exterior_power_characters_combinatorially():
    # independent oracle: weights of the r-th exterior power of the standard
    # module are sums of r distinct standard weights
    import itertools

    for sys, vweights in [
            (RootSystem("B", 3),
             [(2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0),
              (0, 0, 2), (0, 0, -2), (0, 0, 0)]),
            (RootSystem("D", 4),
             [w for i in range(4) for w in
              (tuple(2 if j == i else 0 for j in range(4)),
               tuple(-2 if j == i else 0 for j in range(4)))])]:
        for r in (2, 3):
            expected = {}
            for combo in itertools.combinations(vweights, r):
                w = tuple(sum(x) for x in zip(*combo))
                expected[w] = expected.get(w, 0) + 1
            lam = (2,) * r + (0,) * (sys.rank - r)
            got = R.weight_multiplicities(sys, lam)
            assert got.mults == expected


def test_character_cap():
    big = Character(A1, {(2 * i, 0): 1 for i in range(1100)})
    with pytest.raises(R.CharacterTooLarge):
        R.char_product(big, big)
