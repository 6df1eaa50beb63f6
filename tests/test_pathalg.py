"""Basis extraction, products, resolutions, linearity certificates."""

import random
import tracemalloc
from fractions import Fraction
from math import comb

import pytest

from helpers import template_algebra

from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R
from smodquiver.linalg import Echelon

ONE = Fraction(1)


def a1_algebra():
    # alpha: 0 -> 1, beta: 1 -> 0, relation alpha.beta = 0
    return P.PresentedAlgebra([0, 1], [(0, 0, 1), (1, 1, 0)],
                              [[(ONE, (0, 1))]])


# -- basis extraction --------------------------------------------------------


def test_exterior_algebra_hilbert():
    assert R.ext_algebra(2).hilbert() == (1, 2, 1)
    assert R.ext_algebra(3).hilbert() == (1, 3, 3, 1)


def test_a1_dimensions():
    alg = a1_algebra()
    assert alg.hilbert() == (2, 2, 1)
    assert alg.dims_by_pair(2) == {(0, 0): 1}  # the surviving beta.alpha path


def test_algebra_with_no_arrows_lists_degree_1():
    assert P.PresentedAlgebra([0, 1], [], []).hilbert() == (2, 0)


def test_zero_relations_two_cycle():
    alg = P.PresentedAlgebra([0, 1], [(0, 0, 1), (1, 1, 0)],
                             [[(ONE, (0, 1))], [(ONE, (1, 0))]])
    assert alg.total_dim() == 4


def test_dimensions_independent_of_presentation_order():
    base = template_algebra("A1_SegreSym", (3,))
    rels = []
    for rel in Q.relations_of("A1_SegreSym", (3,)):
        fam = {"alpha": [0, 1, 2], "beta": [3, 4, 5]}
        rels.append([(c, (fam[f][i], fam[g][j]))
                     for c, ((f, i), (g, j)) in rel])
    rng = random.Random(7)
    for _ in range(3):
        rng.shuffle(rels)
        arrows = [(i, 0, 1) for i in range(3)] + [(3 + i, 1, 0) for i in range(3)]
        rng.shuffle(arrows)
        other = P.PresentedAlgebra([0, 1], arrows, rels)
        assert other.hilbert() == base.hilbert()


def test_relation_naming_an_unknown_arrow_is_refused():
    with pytest.raises(P.PresentationError, match="unknown arrow"):
        P.PresentedAlgebra([0, 1], [(0, 0, 1)], [[(1, (0, 7))]])
    with pytest.raises(P.PresentationError, match="unknown arrow"):
        P.PresentedAlgebra([0, 1], [(0, 0, 1)], [[(1, (7, 0))]])


# arrows a: 0 -> 1, b: 1 -> 0 and c: 0 -> 1
_ABC = ([0, 1], [(0, 0, 1), (1, 1, 0), (2, 0, 1)])


@pytest.mark.parametrize("relation,message", [
    ([(1, (0, 7))], "path (0, 7) names an unknown arrow 7"),
    ([(1, (7, 8))], "path (7, 8) names an unknown arrow 7"),
    ([(1, (7, 2))], "path (7, 2) names an unknown arrow 7"),
    ([(1, (0, 2))], "non-composable path (0, 2)"),
    ([(1, (0,))], "relations start at path length 2"),
    ([(1, (0, 1, 9))], "path (0, 1, 9) names an unknown arrow 9"),
    ([(1, (0, 2, 1))], "non-composable path (0, 2, 1)"),
    ([(1, (0, 2, 9))], "non-composable path (0, 2, 9)"),
    ([(0, (7, 2))], "path (7, 2) names an unknown arrow 7"),
    ([(1, (0,)), (1, (0, 1))], "relation terms must share length"),
])
def test_malformed_relations_report_the_first_fault(relation, message):
    # the path is read from the outermost arrow in: the first fault is
    # reported, an unknown arrow only when the pairs before it compose.  A
    # zero coefficient is checked too
    with pytest.raises(P.PresentationError) as info:
        P.PresentedAlgebra(*_ABC, [relation])
    assert str(info.value) == message
    # the same quadratic path as the second of two terms
    if len(relation) == 1 and len(relation[0][1]) == 2:
        with pytest.raises(P.PresentationError) as info:
            P.PresentedAlgebra(*_ABC, [[(1, relation[0][1])] + relation])
        assert str(info.value) == message


def test_first_malformed_relation_is_the_one_reported():
    with pytest.raises(P.PresentationError, match="non-composable"):
        P.PresentedAlgebra(*_ABC, [[(1, (0, 2))], [(1, (0, 9))]])
    with pytest.raises(P.PresentationError, match="unknown arrow 9"):
        P.PresentedAlgebra(*_ABC, [[(1, (0, 9))], [(1, (0, 2))]])


def test_zero_monomial_is_kept_but_kills_nothing():
    # a1_algebra with 0 * beta.alpha beside alpha.beta = 0
    alg = P.PresentedAlgebra([0, 1], [(0, 0, 1), (1, 1, 0)],
                             [[(ONE, (0, 1))], [(0, (1, 0))]])
    assert alg.relations == [((1, (0, 1)),), ((0, (1, 0)),)]
    assert alg.hilbert() == a1_algebra().hilbert() == (2, 2, 1)
    assert alg.dims_by_pair(2) == {(0, 0): 1}


def test_relations_may_be_generators():
    listed = P.PresentedAlgebra(*_ABC, [[(1, (1, 0))], [(1, (0, 1)),
                                                        (-1, (2, 1))]])
    rels = (((c, iter(p)) for c, p in terms) for terms in listed.relations)
    lazy = P.PresentedAlgebra(*_ABC, rels)
    assert lazy.relations == listed.relations
    assert lazy.hilbert() == listed.hilbert()
    for d in range(listed.top_degree + 1):
        assert lazy.dims_by_pair(d) == listed.dims_by_pair(d)


def test_empty_relation_is_refused():
    with pytest.raises(P.PresentationError, match="no terms"):
        P.PresentedAlgebra([0, 1], [(0, 0, 1), (1, 1, 0)], [[]])


def test_non_terminating_detected():
    # a free loop never dies
    with pytest.raises(P.NonTerminating):
        P.PresentedAlgebra([0], [(0, 0, 0)], [], deg_cap=6)


def test_mul_associativity_spot():
    alg = template_algebra("CliffordEven", (2,))
    for d1 in range(alg.top_degree + 1):
        for d2 in range(alg.top_degree + 1 - d1):
            for d3 in range(alg.top_degree + 1 - d1 - d2):
                for i in range(alg.dims(d1)):
                    for j in range(alg.dims(d2)):
                        for k in range(alg.dims(d3)):
                            left = {}
                            for t, c in alg.mul(d2, j, d3, k):
                                for s, c2 in alg.mul(d1, i, d2 + d3, t):
                                    left[s] = left.get(s, 0) + c * c2
                            right = {}
                            for t, c in alg.mul(d1, i, d2, j):
                                for s, c2 in alg.mul(d1 + d2, t, d3, k):
                                    right[s] = right.get(s, 0) + c * c2
                            left = {k2: v for k2, v in left.items() if v}
                            right = {k2: v for k2, v in right.items() if v}
                            assert left == right


def test_extraction_keeps_no_list_of_the_composable_pairs():
    # L (x) V over field x hermitian(1, 3), mult 36: degree 3 has 72 x 666
    # composable pairs, no normal word and dimension 0, so it is not built,
    # and extraction peaks at about 1.6 MB.  Building it with the pairs as
    # the elimination columns peaked at about 4.5 MB, and with a list of the
    # pairs and an integer index beside them at about 6.7 MB (Python 3.11)
    spec = J.spec_from_dict({
        "ideals": [{"kind": "field"}, {"kind": "hermitian", "comp": 1, "n": 3}],
        "radical": [{"kind": "tensor", "a": {"ideal": 0, "label": "L"},
                     "b": {"ideal": 1, "label": "V"}, "mult": 36}],
        "unital": True})
    rep = Q.assemble(spec)
    tracemalloc.start()
    try:
        alg = P.from_presentation(rep.quiver, rep.relations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.hilbert() == (2, 72, 666)
    assert peak < 2_500_000, peak


# -- products ----------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 10))
def test_auxiliary_algebras_are_polynomial_and_exterior(k):
    # the multiplicity algebras of the Segre blocks, checked against closed
    # forms rather than against another presentation
    for cap in range(4 if k < 5 else 2):
        sym = R.sym_algebra(k, cap)
        assert sym.vertices == (0,)
        assert sym.hilbert()[:cap + 1] == tuple(
            comb(k + d - 1, d) for d in range(cap + 1))
        assert not any(sym.hilbert()[cap + 1:])
        if cap >= 2:
            for i in range(k):
                for j in range(k):
                    assert sym.mul(1, i, 1, j) == sym.mul(1, j, 1, i) != ()
    ext = R.ext_algebra(k)   # k >= 8 is past the default degree cap
    assert ext.hilbert() == tuple(comb(k, d) for d in range(k + 1))
    for i in range(k):
        assert ext.mul(1, i, 1, i) == ()
        for j in range(i + 1, k):
            ij = ext.mul(1, i, 1, j)
            assert ij and ext.mul(1, j, 1, i) == tuple((t, -c) for t, c in ij)


def test_segre_hilbert_is_hadamard():
    # Koszul first factors on one to three vertices, a semisimple one and a
    # truncated polynomial algebra; second factors S(W) truncated at caps
    # 0-4 and Lambda(W), for dim W up to 4
    firsts = [a1_algebra(), R.ext_algebra(2), R.ext_algebra(3),
              R.sym_algebra(2, 3), P.PresentedAlgebra([0, 1], [], [])]
    firsts += [template_algebra(kind, wdims) for kind, wdims in (
        ("A1_SegreSym", (2,)), ("A1_SegreAlt", (2,)), ("CliffordOdd", (2,)),
        ("CliffordEven", (2,)), ("A2_Segre", (1, 1)))]
    seconds = [R.sym_algebra(k, cap) for k in (1, 2, 3) for cap in range(5)]
    seconds += [R.ext_algebra(k) for k in (1, 2, 3, 4)] + [R.sym_algebra(4, 1)]
    for a in firsts:
        for b in seconds:
            seg = R.segre_product(a, b)
            top = min(a.top_degree, b.top_degree)
            # degree top + 1 of A or of B is 0, and so is the product's
            for d in range(top + 2):
                n = b.dims(d)
                assert seg.dims_by_pair(d) == {
                    ends: m * n for ends, m in a.dims_by_pair(d).items()
                    if n}, (a.hilbert(), b.hilbert(), d)
            assert seg.hilbert() == tuple(
                a.dims(d) * b.dims(d) for d in range(top + 1))


def test_segre_matches_direct_presentations():
    a1 = a1_algebra()
    for kind, b in (("A1_SegreSym", R.sym_algebra(2, 3)),
                    ("A1_SegreAlt", R.ext_algebra(2))):
        seg = R.segre_product(a1, b)
        direct = template_algebra(kind, (2,))
        top = max(seg.top_degree, direct.top_degree)
        for d in range(top + 1):
            assert seg.dims(d) == direct.dims(d)
            assert seg.dims_by_pair(d) == direct.dims_by_pair(d)


def test_segre_w3_matches():
    a1 = a1_algebra()
    for kind, b in (("A1_SegreSym", R.sym_algebra(3, 3)),
                    ("A1_SegreAlt", R.ext_algebra(3))):
        seg = R.segre_product(a1, b)
        direct = template_algebra(kind, (3,))
        for d in range(max(seg.top_degree, direct.top_degree) + 1):
            assert seg.dims(d) == direct.dims(d)


def test_segre_with_trivial_grading():
    a1 = a1_algebra()
    seg = R.segre_product(a1, R.sym_algebra(1, 0))  # k in degree 0 only
    assert seg.hilbert() == (2, 0)   # degree 1 is listed, as with no arrows


def test_pi_product():
    e1 = P.PresentedAlgebra([0], [(0, 0, 0)], [[(ONE, (0, 0))]])
    e2 = P.PresentedAlgebra([0], [(1, 0, 0)], [[(ONE, (1, 1))]])
    pp = R.pi_product(e1, e2)
    assert pp.hilbert() == (1, 2)
    assert pp.total_dim() == 3


def test_pi_product_with_semisimple():
    a = a1_algebra()
    semi = P.PresentedAlgebra([0, 1], [], [])
    pp = R.pi_product(a, semi)
    assert pp.hilbert() == a.hilbert()


def test_pi_product_vertex_mismatch():
    a = a1_algebra()
    b = P.PresentedAlgebra([0], [(0, 0, 0)], [[(ONE, (0, 0))]])
    with pytest.raises(P.VertexMismatch):
        R.pi_product(a, b)


# -- resolutions -------------------------------------------------------------


def test_exterior_resolution_betti():
    res = P.minimal_resolution(R.ext_algebra(2), 0, hom_cap=5)
    assert res.is_linear()
    assert [res.betti_number(i, i) for i in range(6)] == [1, 2, 3, 4, 5, 6]


def test_semisimple_resolution():
    semi = P.PresentedAlgebra([0, 1], [], [])
    res = P.minimal_resolution(semi, 0, hom_cap=5)
    # the first syzygy is zero: nothing past P_0
    assert res.betti == {(0, 0): {0: 1}}


def test_a2_quotient_first_syzygies():
    # vertices 0=L, 1=S (thick W side in), 2=S* ; (k,l) = (2,1)
    alg = template_algebra("A2_Segre", (2, 1))
    # S-side projective has radical = one copy of the L-simple in degree 1:
    # its degree-1 part is b_{1,1}, and it is the whole first syzygy
    res1 = P.minimal_resolution(alg, 1, hom_cap=2)
    assert res1.betti[(1, 1)] == {0: 1}
    assert res1.betti_number(1, 2) == 0
    # S*-side: k copies
    res2 = P.minimal_resolution(alg, 2, hom_cap=2)
    assert res2.betti[(1, 1)] == {0: 2}
    assert res2.betti_number(1, 2) == 0
    # L-side: first syzygy covered by k copies of P(S) and l of P(S*),
    # second syzygy (kl copies of the L-simple) in degree 2
    res0 = P.minimal_resolution(alg, 0, hom_cap=2)
    assert res0.betti[(1, 1)] == {1: 2, 2: 1}
    assert res0.betti[(2, 2)] == {0: 2}


def test_koszul_certificates_for_templates():
    for kind, dims in (("A1_SegreSym", (1,)), ("A1_SegreSym", (2,)),
                       ("A1_SegreSym", (3,)), ("A1_SegreAlt", (1,)),
                       ("A1_SegreAlt", (2,)), ("A1_SegreAlt", (3,)),
                       ("A2_Segre", (1, 1)), ("A2_Segre", (2, 1)),
                       ("CliffordOdd", (2,)), ("CliffordEven", (2,))):
        alg = template_algebra(kind, dims)
        ok, _ = P.koszul_check(alg, hom_cap=5)
        assert ok, (kind, dims)


def test_koszul_for_exterior():
    for k in (1, 2, 3):
        ok, _ = P.koszul_check(R.ext_algebra(k), hom_cap=5)
        assert ok


def test_koszul_for_zero_relations_quiver():
    spec = J.JordanSpec((J.Hermitian(2, 3),), (J.Unital(0, "ad"),))
    rep = Q.assemble(spec)
    alg = P.from_presentation(rep.quiver, rep.relations)
    ok, _ = P.koszul_check(alg, hom_cap=5)
    assert ok


def test_koszul_on_mixed_assembled_report():
    # multiple blocks glued with vanishing cross products stay linear
    spec = J.JordanSpec((J.Field(), J.Hermitian(1, 3), J.Bilinear(5)),
                        (J.TensorOfSpecial(0, "L", 1, "V", 2),
                         J.Unital(1, "ad"),
                         J.Unital(2, "LrV(1)", 2)))
    rep = Q.assemble(spec)
    assert {b.kind for b in rep.blocks} == \
        {"A1_SegreSym", "ZeroRelations", "CliffordOdd"}
    alg = P.from_presentation(rep.quiver, rep.relations)
    ok, _ = P.koszul_check(alg, hom_cap=4)
    assert ok


def test_cubic_control_case_not_linear():
    # arrows a: 1->2, b: 2->3, c: 3->4 with the cubic monomial c.b.a = 0:
    # the second syzygy of the vertex-1 simple sits in degree 3
    ctrl = P.PresentedAlgebra([1, 2, 3, 4], [(0, 1, 2), (1, 2, 3), (2, 3, 4)],
                              [[(ONE, (2, 1, 0))]])
    res = P.minimal_resolution(ctrl, 1, hom_cap=3)
    assert res.betti.get((2, 3)) == {4: 1}
    assert not res.is_linear()
    ok, _ = P.koszul_check(ctrl, hom_cap=3)
    assert not ok


def test_cube_zero_for_small_singular_multiplicity():
    # assembled algebras with all singular multiplicities <= 2 die in degree 3
    specs = [
        J.JordanSpec((J.Bilinear(5),), (J.Unital(0, "LrV(1)", 2),)),
        J.JordanSpec((J.Bilinear(6),), (J.Unital(0, "LrV(1)", 2),)),
        J.JordanSpec((J.Field(), J.Hermitian(1, 3)),
                     (J.TensorOfSpecial(0, "L", 1, "V", 2),)),
    ]
    for spec in specs:
        rep = Q.assemble(spec)
        alg = P.from_presentation(rep.quiver, rep.relations)
        assert alg.dims(3) == 0
    # control: three copies of the singular component survive in degree 3
    rep = Q.assemble(J.JordanSpec((J.Bilinear(5),),
                                  (J.Unital(0, "LrV(1)", 3),)))
    alg = P.from_presentation(rep.quiver, rep.relations)
    assert alg.dims(3) == 1  # top of the symmetric truncated cube


# -- exact numbers -----------------------------------------------------------

# one assembled spec per block kind: Segre sym, zero relations and Clifford
# odd together, then Segre alt, Clifford even, A2 Segre, Clifford odd alone
TEMPLATE_SPECS = [
    J.JordanSpec((J.Field(), J.Hermitian(1, 3), J.Bilinear(5)),
                 (J.TensorOfSpecial(0, "L", 1, "V", 2), J.Unital(1, "ad"),
                  J.Unital(2, "LrV(1)", 2))),
    J.JordanSpec((J.Field(), J.Hermitian(4, 3)),
                 (J.TensorOfSpecial(0, "L", 1, "V", 2),)),
    J.JordanSpec((J.Field(), J.Field()), (J.TensorOfSpecial(0, "L", 1, "L", 2),)),
    J.JordanSpec((J.Field(), J.Hermitian(2, 3)),
                 (J.TensorOfSpecial(0, "L", 1, "V", 2),
                  J.TensorOfSpecial(0, "L", 1, "V*", 1))),
    J.JordanSpec((J.Field(),), (J.Unital(0, "ad", 3),)),
]


def _betti_tables(alg):
    _, tables = P.koszul_check(alg, hom_cap=4)
    return {v: res.betti for v, res in tables.items()}


@pytest.mark.parametrize("spec", TEMPLATE_SPECS)
def test_integral_templates_stay_int(spec, monkeypatch):
    kernels = []

    class RecordingEchelon(Echelon):
        def kernel(self, cols):
            out = super().kernel(cols)
            kernels.extend(out)
            return out

    monkeypatch.setattr(P, "Echelon", RecordingEchelon)
    rep = Q.assemble(spec)
    alg = P.from_presentation(rep.quiver, rep.relations)
    assert all(type(c) is int for terms in alg.relations for c, _ in terms)
    for d1 in range(alg.top_degree + 1):
        for d2 in range(alg.top_degree + 1 - d1):
            for i in range(alg.dims(d1)):
                for j in range(alg.dims(d2)):
                    assert all(type(c) is int for _, c in alg.mul(d1, i, d2, j))
    # koszul_check counts these PBW tables and builds no kernel, so the
    # kernels come from the resolutions themselves
    for v in alg.vertices:
        P.minimal_resolution(alg, v, 4)
    assert kernels
    assert all(type(c) is int for v in kernels for c in v.values())


@pytest.mark.parametrize("scale", [Fraction(1, 2), 3])
@pytest.mark.parametrize("spec", TEMPLATE_SPECS)
def test_scaled_relations_give_the_same_algebra(spec, scale):
    # non-unit pivots take the Fraction branch of the elimination
    rep = Q.assemble(spec)
    alg = P.from_presentation(rep.quiver, rep.relations)
    scaled = P.from_presentation(
        rep.quiver, [Q.Relation(tuple((c * scale, p) for c, p in r.terms))
                     for r in rep.relations])
    assert scaled.hilbert() == alg.hilbert()
    for d in range(alg.top_degree + 1):
        assert scaled.dims_by_pair(d) == alg.dims_by_pair(d)
    assert _betti_tables(scaled) == _betti_tables(alg)
