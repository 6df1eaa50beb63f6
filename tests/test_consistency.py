"""Randomized consistency checks linking independent computation routes."""

import itertools
import random
from fractions import Fraction

from helpers import template_algebra

from smodquiver import pathalg as P
from smodquiver import reference as R
from smodquiver import tables as TB
from smodquiver import weights as W
from smodquiver.weights import RootSystem

ONE = Fraction(1)


def test_tensor_product_association_via_characters():
    # ((V (x) V) (x) ad) and (V (x) (V (x) ad)) must give the same multiset
    C3 = RootSystem("C", 3)
    v = R.weight_multiplicities(C3, (2, 0, 0))
    ad = R.weight_multiplicities(C3, (4, 0, 0))
    left = R.decompose_character(R.char_product(R.char_product(v, v), ad))
    right = R.decompose_character(R.char_product(v, R.char_product(v, ad)))
    assert left == right
    total = sum(W.weyl_dim(C3, lam) * m for lam, m in left.items())
    assert total == 6 * 6 * 21


def test_tensor_commutativity_via_characters():
    B3 = RootSystem("B", 3)
    g = R.weight_multiplicities(B3, (1, 1, 1))
    l2 = R.weight_multiplicities(B3, (2, 2, 0))
    assert R.tensor_decompose(g, l2) == R.tensor_decompose(l2, g)


def _random_presentation(rng):
    n_verts = rng.randint(1, 3)
    verts = list(range(n_verts))
    n_arrows = rng.randint(1, 4)
    arrows = [(i, rng.randrange(n_verts), rng.randrange(n_verts))
              for i in range(n_arrows)]
    pairs = [(f, g) for f in range(n_arrows) for g in range(n_arrows)
             if arrows[g][2] == arrows[f][1]]
    # group composable pairs by endpoints so relations stay homogeneous;
    # keep most of them so the quotients stay small
    by_ends = {}
    for f, g in pairs:
        key = (arrows[g][1], arrows[f][2])
        by_ends.setdefault(key, []).append((f, g))
    rels = []
    for bucket in by_ends.values():
        rng.shuffle(bucket)
        chosen = bucket[rng.randint(0, 1):]
        while chosen:
            width = rng.randint(1, min(2, len(chosen)))
            chunk, chosen = chosen[:width], chosen[width:]
            rels.append([(Fraction(rng.choice((1, -1, 2))), p) for p in chunk])
    return verts, arrows, rels


def test_random_presentations_multiply_associatively():
    rng = random.Random(424242)
    built = 0
    while built < 20:
        verts, arrows, rels = _random_presentation(rng)
        try:
            alg = P.PresentedAlgebra(verts, arrows, rels, deg_cap=6)
        except P.NonTerminating:
            continue
        built += 1
        top = alg.top_degree
        triples = [(d1, d2, d3)
                   for d1, d2, d3 in itertools.product(range(1, top + 1),
                                                       repeat=3)
                   if d1 + d2 + d3 <= top]
        for d1, d2, d3 in triples:
            samples = [(rng.randrange(alg.dims(d1)), rng.randrange(alg.dims(d2)),
                        rng.randrange(alg.dims(d3))) for _ in range(30)]
            for i, j, k in samples:
                left, right = {}, {}
                for t, c in alg.mul(d2, j, d3, k):
                    for s, c2 in alg.mul(d1, i, d2 + d3, t):
                        left[s] = left.get(s, 0) + c * c2
                for t, c in alg.mul(d1, i, d2, j):
                    for s, c2 in alg.mul(d1 + d2, t, d3, k):
                        right[s] = right.get(s, 0) + c * c2
                assert {k2: v for k2, v in left.items() if v} == \
                    {k2: v for k2, v in right.items() if v}


def test_multilinearized_check_agrees_with_direct_sampling():
    # if the multilinearized identity holds, no sampled point violates the
    # plain two-variable identity
    rng = random.Random(11)
    points = [[Fraction(rng.randint(-2, 2)) for _ in range(2)]
              for _ in range(12)]
    tables = []
    for _ in range(40):
        c = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
        for i in range(2):
            for j in range(i, 2):
                vec = [Fraction(rng.randint(-1, 1)), Fraction(rng.randint(-1, 1))]
                c[i][j] = vec
                c[j][i] = vec
        tables.append(TB.StructureConstants(c))
    n_jordan = 0
    for sc in tables:
        ok = TB.check_jordan_identity(sc)
        if not ok:
            continue
        n_jordan += 1
        for a in points:
            for b in points:
                aa = sc.mul(a, a)
                lhs = sc.mul(sc.mul(aa, b), a)
                rhs = sc.mul(aa, sc.mul(b, a))
                assert lhs == rhs
    assert n_jordan >= 3  # the sample includes genuine positives


def test_block_algebra_matches_projective_dimensions():
    # vertex projectives of the thick blocks have the module-theoretic sizes
    for k in (1, 2, 3):
        alg = template_algebra("A1_SegreSym", (k,))
        by_src = {0: 0, 1: 0}
        for d in range(alg.top_degree + 1):
            for i in range(alg.dims(d)):
                by_src[alg.src(d, i)] += 1
        assert by_src[0] == 1 + k + k * (k + 1) // 2   # L + W(x)S + S^2(W)(x)L
        assert by_src[1] == 1 + k                      # S + W(x)L
        alg = template_algebra("A1_SegreAlt", (k,))
        by_src = {0: 0, 1: 0}
        for d in range(alg.top_degree + 1):
            for i in range(alg.dims(d)):
                by_src[alg.src(d, i)] += 1
        assert by_src[0] == 1 + k + k * (k - 1) // 2
        assert by_src[1] == 1 + k
    for (k, l) in ((1, 1), (2, 1), (2, 2), (3, 2)):
        alg = template_algebra("A2_Segre", (k, l))
        by_src = {0: 0, 1: 0, 2: 0}
        for d in range(alg.top_degree + 1):
            for i in range(alg.dims(d)):
                by_src[alg.src(d, i)] += 1
        assert by_src[0] == 1 + (k + l) + k * l        # the hub projective
        assert by_src[1] == 1 + l
        assert by_src[2] == 1 + k


def test_clifford_even_dims_match_graded_exterior():
    for k in (1, 2, 3, 4):
        alg = template_algebra("CliffordEven", (k,))
        # two copies of the exterior algebra, split by the two idempotents
        assert alg.total_dim() == 2 * 2 ** k
        binom = [1]
        for d in range(1, k + 1):
            binom.append(binom[-1] * (k - d + 1) // d)
        assert alg.hilbert() == tuple(2 * b for b in binom)


def test_clifford_odd_dims_match_truncated_square_free():
    for k in (1, 2, 3, 4):
        alg = template_algebra("CliffordOdd", (k,))
        assert alg.total_dim() == 2 ** k
