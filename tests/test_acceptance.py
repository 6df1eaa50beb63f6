"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each criterion prints a pass line (bypassing capture) so a plain pytest run
shows the per-criterion verdicts.
"""

import random
import time
from fractions import Fraction

from conftest import report_line
from helpers import RefSpanSolver

from smodquiver import catalog as C
from smodquiver import oracles
from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R
from smodquiver import tables as TB
from smodquiver import tkk as T
from smodquiver import weights as W


def _report(line):
    report_line(line)


def shape(spec):
    """(vertex labels, arrow label pairs with group/wdim) of the assembly."""
    rep = Q.assemble(spec)
    v = {x.vid: f"c{x.color}:{x.label}" for x in rep.quiver.vertices}
    verts = sorted(v.values())
    arrows = sorted((v[a.src], v[a.dst], a.group, a.w_dim)
                    for a in rep.quiver.arrows)
    return rep, verts, arrows


# -- criterion 1: Table 1 golden suite ---------------------------------------


def test_criterion_1_table1_golden():
    t0 = time.time()
    H1, H2, H4, B = J.Hermitian, None, None, J.Bilinear

    def loop(label):
        return [(label, label, 0, 1)]

    cases = [
        # row 1: one loop vertex
        (J.JordanSpec((H1(1, 3),), (J.Unital(0, "ad"),)),
         ["c0:V"], loop("c0:V")),
        (J.JordanSpec((H1(1, 3),), (J.Unital(0, "L2V"),)),
         ["c0:V"], loop("c0:V")),
        (J.JordanSpec((H1(4, 3),), (J.Unital(0, "ad"),)),
         ["c0:V"], loop("c0:V")),
        (J.JordanSpec((H1(4, 3),), (J.Unital(0, "S2V"),)),
         ["c0:V"], loop("c0:V")),
        (J.JordanSpec((B(5),), (J.Unital(0, "LrV(2)"),)),
         ["c0:Gamma"], loop("c0:Gamma")),
        # so1(12) x Gamma+: inert, no arrows
        (J.JordanSpec((H1(4, 3),), (J.Unital(0, "Gamma+"),)),
         ["c0:V"], []),
        # row 2: two loops
        (J.JordanSpec((H1(2, 3),), (J.Unital(0, "ad"),)),
         ["c0:V", "c0:V*"],
         [("c0:V", "c0:V", 0, 1), ("c0:V*", "c0:V*", 0, 1)]),
        (J.JordanSpec((B(6),), (J.Unital(0, "LrV(2)"),)),
         ["c0:Gamma+", "c0:Gamma-"],
         [("c0:Gamma+", "c0:Gamma+", 0, 1), ("c0:Gamma-", "c0:Gamma-", 0, 1)]),
        # row 3: 2-cycle for odd exterior powers
        (J.JordanSpec((B(6),), (J.Unital(0, "LrV(1)"),)),
         ["c0:Gamma+", "c0:Gamma-"],
         [("c0:Gamma+", "c0:Gamma-", 0, 1), ("c0:Gamma-", "c0:Gamma+", 0, 1)]),
        (J.JordanSpec((B(6),), (J.Unital(0, "LrV(3)"),)),
         ["c0:Gamma+", "c0:Gamma-"],
         [("c0:Gamma+", "c0:Gamma-", 0, 1), ("c0:Gamma-", "c0:Gamma+", 0, 1)]),
        # row 4: so2(4m) x Lambda+-: loop plus isolated vertex
        (J.JordanSpec((B(6),), (J.Unital(0, "Lambda+"),)),
         ["c0:Gamma+", "c0:Gamma-"], loop("c0:Gamma+")),
        (J.JordanSpec((B(6),), (J.Unital(0, "Lambda-"),)),
         ["c0:Gamma+", "c0:Gamma-"], loop("c0:Gamma-")),
        # row 5: non-self-dual radical, single arrow
        (J.JordanSpec((H1(2, 3),), (J.Unital(0, "L2V"),)),
         ["c0:V", "c0:V*"], [("c0:V*", "c0:V", 0, 1)]),
        (J.JordanSpec((H1(2, 3),), (J.Unital(0, "S2V"),)),
         ["c0:V", "c0:V*"], [("c0:V*", "c0:V", 0, 1)]),
        (J.JordanSpec((B(8),), (J.Unital(0, "Lambda+"),)),
         ["c0:Gamma+", "c0:Gamma-"], [("c0:Gamma-", "c0:Gamma+", 0, 1)]),
        (J.JordanSpec((B(8),), (J.Unital(0, "Lambda-"),)),
         ["c0:Gamma+", "c0:Gamma-"], [("c0:Gamma+", "c0:Gamma-", 0, 1)]),
    ]
    for spec, want_verts, want_arrows in cases:
        rep, verts, arrows = shape(spec)
        assert verts == sorted(want_verts), spec
        assert arrows == sorted(want_arrows), spec
    # inertness of the so1(12) spinor component is reported
    rep, _, _ = shape(J.JordanSpec((H1(4, 3),), (J.Unital(0, "Gamma+"),)))
    assert any("inert" in n for n in rep.notes)
    dt = time.time() - t0
    assert dt < 60
    _report(f"[acceptance] criterion 1 (Table 1 golden suite): PASS ({dt:.1f}s)")


# -- criterion 2: Table 2 golden suite ---------------------------------------


def test_criterion_2_table2_golden():
    t0 = time.time()
    H, B, F = J.Hermitian, J.Bilinear, J.Field
    cases = [
        # row 1: both self-dual -> 2-cycle, zero relations
        (J.JordanSpec((H(1, 3), B(5)), (J.TensorOfSpecial(0, "V", 1, "Gamma"),)),
         ["c0:V", "c1:Gamma"],
         [("c0:V", "c1:Gamma", 0, 1), ("c1:Gamma", "c0:V", 0, 1)],
         "ZeroRelations", 0),
        # row 2: S1 -> S2 and S2* -> S1
        (J.JordanSpec((H(1, 3), H(2, 3)), (J.TensorOfSpecial(0, "V", 1, "V"),)),
         ["c0:V", "c1:V", "c1:V*"],
         [("c0:V", "c1:V", 0, 1), ("c1:V*", "c0:V", 0, 1)],
         "ZeroRelations", 0),
        # row 3: 2-cycle plus isolated spinor partner
        (J.JordanSpec((H(1, 3), B(6)), (J.TensorOfSpecial(0, "V", 1, "Gamma+"),)),
         ["c0:V", "c1:Gamma+", "c1:Gamma-"],
         [("c0:V", "c1:Gamma+", 0, 1), ("c1:Gamma+", "c0:V", 0, 1)],
         "ZeroRelations", 1),
        # row 4: two dual pairs
        (J.JordanSpec((H(2, 3), H(2, 3)), (J.TensorOfSpecial(0, "V", 1, "V"),)),
         ["c0:V", "c0:V*", "c1:V", "c1:V*"],
         [("c0:V*", "c1:V", 0, 1), ("c1:V*", "c0:V", 0, 1)],
         "ZeroRelations", 0),
        # row 5: so2(4m) with a dual-pair partner
        (J.JordanSpec((B(6), H(2, 3)), (J.TensorOfSpecial(0, "Gamma+", 1, "V"),)),
         ["c0:Gamma+", "c0:Gamma-", "c1:V", "c1:V*"],
         [("c0:Gamma+", "c1:V", 0, 1), ("c1:V*", "c0:Gamma+", 0, 1)],
         "ZeroRelations", 1),
        # row 6: two so2(4m) factors: 2-cycle plus two isolated vertices
        (J.JordanSpec((B(6), B(6)), (J.TensorOfSpecial(0, "Gamma+", 1, "Gamma+"),)),
         ["c0:Gamma+", "c0:Gamma-", "c1:Gamma+", "c1:Gamma-"],
         [("c0:Gamma+", "c1:Gamma+", 0, 1), ("c1:Gamma+", "c0:Gamma+", 0, 1)],
         "ZeroRelations", 2),
    ]
    for spec, want_verts, want_arrows, want_kind, want_isolated in cases:
        rep, verts, arrows = shape(spec)
        assert verts == sorted(want_verts), spec
        assert arrows == sorted(want_arrows), spec
        assert len(rep.blocks) == 1
        assert rep.blocks[0].kind == want_kind
        assert rep.blocks[0].isolated == want_isolated
    dt = time.time() - t0
    assert dt < 60
    _report(f"[acceptance] criterion 2 (Table 2 golden suite): PASS ({dt:.1f}s)")


# -- criterion 3: relation suite at dim W = 2 --------------------------------


def _normalize_rel(terms):
    """Scale so the lexicographically-smallest path has coefficient 1."""
    lead = min(terms, key=lambda t: t[1])[0]
    return frozenset((c / lead, p) for c, p in terms)


def _rel_set(kind, wdims):
    return {_normalize_rel(rel) for rel in Q.relations_of(kind, wdims)}


def test_criterion_3_relation_suite():
    t0 = time.time()
    one = Fraction(1)
    a, b = "alpha", "beta"
    # reference two-index form (thin names alpha,gamma = alpha(x)w_i and
    # beta,delta): delta.alpha = beta.gamma and alpha.beta = gamma.delta
    #   = gamma.beta = alpha.delta = 0
    reference_sym = {
        _normalize_rel(((one, ((b, 1), (a, 0))), (-one, ((b, 0), (a, 1))))),
        frozenset({(one, ((a, 0), (b, 0)))}),
        frozenset({(one, ((a, 1), (b, 1)))}),
        frozenset({(one, ((a, 1), (b, 0)))}),
        frozenset({(one, ((a, 0), (b, 1)))}),
    }
    assert _rel_set("A1_SegreSym", (2,)) == reference_sym
    # the alternating variant adds the zero diagonals and flips the sign
    reference_alt = {
        _normalize_rel(((one, ((b, 1), (a, 0))), (one, ((b, 0), (a, 1))))),
        frozenset({(one, ((b, 0), (a, 0)))}),
        frozenset({(one, ((b, 1), (a, 1)))}),
        frozenset({(one, ((a, 0), (b, 0)))}),
        frozenset({(one, ((a, 1), (b, 1)))}),
        frozenset({(one, ((a, 1), (b, 0)))}),
        frozenset({(one, ((a, 0), (b, 1)))}),
    }
    assert _rel_set("A1_SegreAlt", (2,)) == reference_alt
    # loop block: loops alpha, beta with squares zero and the commuting
    # product alpha.beta = beta.alpha
    e = "ell"
    reference_odd = {
        frozenset({(one, ((e, 0), (e, 0)))}),
        frozenset({(one, ((e, 1), (e, 1)))}),
        _normalize_rel(((one, ((e, 0), (e, 1))), (-one, ((e, 1), (e, 0))))),
    }
    assert _rel_set("CliffordOdd", (2,)) == reference_odd
    _report("[acceptance] criterion 3a (A1/Clifford-odd relation sets at "
            "dim W = 2): PASS")

    # A2 case, (dim W, dim W') = (2, 1): the relation set comes from the
    # product structure of the block; a circulating variant listing draws
    # the second W-arrow (eta) into the wrong vertex pair, and is matched
    # here up to its two documented divergences.
    mine = _rel_set("A2_Segre", (2, 1))
    al, be, ga, de = "alpha", "beta", "gamma", "delta"
    reference_zeros = [
        ((be, 0), (al, 0)),   # beta.alpha
        ((de, 0), (ga, 0)),   # delta.gamma
        ((be, 0), (ga, 0)),   # beta.gamma
        ((de, 0), (al, 0)),   # delta.alpha
        ((de, 0), (al, 1)),   # delta.ksi
        ((be, 0), (al, 1)),   # beta.ksi
        ((de, 1), (al, 0)),   # eta.alpha  (variant reading: eta = delta_2)
        ((de, 1), (ga, 0)),   # eta.gamma
    ]
    for z in reference_zeros:
        assert frozenset({(one, z)}) in mine
    # the two nonzero chains: alpha.beta = gamma.delta and its W-partner
    # (the variant garbles the second one into "ksi.eta = alpha.beta")
    assert frozenset({(one, ((al, 0), (be, 0))),
                      (-one, ((ga, 0), (de, 0)))}) in mine
    assert frozenset({(one, ((al, 1), (be, 0))),
                      (-one, ((ga, 0), (de, 1)))}) in mine
    # exactly one relation beyond the variant list: the missing eta.ksi zero
    extra = mine - {frozenset({(one, z)}) for z in reference_zeros} - {
        frozenset({(one, ((al, 0), (be, 0))), (-one, ((ga, 0), (de, 0)))}),
        frozenset({(one, ((al, 1), (be, 0))), (-one, ((ga, 0), (de, 1)))})}
    assert extra == {frozenset({(one, ((de, 1), (al, 1)))})}
    _report("[acceptance] criterion 3b (A2 relations vs the variant "
            "listing, divergences documented): PASS")

    # Clifford-even, dim W = 2: derived from the graded exterior algebra;
    # the diagonal-pairing variant is recovered by the arrow change of
    # basis (beta, delta) -> (delta, -beta), except its gamma.delta = 0
    # item, which contradicts its own alpha.beta = gamma.delta.
    template = Q.relations_of("CliffordEven", (2,))
    pairs = [(("a", i), ("b", j)) for i in range(2) for j in range(2)] + \
            [(("b", i), ("a", j)) for i in range(2) for j in range(2)]
    idx = {p: t for t, p in enumerate(pairs)}
    span = RefSpanSolver(len(pairs))
    for rel in template:
        vec = [Fraction(0)] * len(pairs)
        for c, p in rel:
            vec[idx[p]] += c
        span.add(vec)

    def gauged(sym):
        # variant letters in the gauge beta = b_1, delta = -b_0
        name, i = sym
        if name == "alpha":
            return ("a", 0), 1
        if name == "gamma":
            return ("a", 1), 1
        if name == "beta":
            return ("b", 1), 1
        return ("b", 0), -1  # delta

    def variant_relation(outer, inner, outer2=None, inner2=None):
        vec = [Fraction(0)] * len(pairs)
        (p1, s1), (p2, s2) = gauged(outer), gauged(inner)
        vec[idx[(p1, p2)]] += s1 * s2
        if outer2 is not None:
            (q1, t1), (q2, t2) = gauged(outer2), gauged(inner2)
            vec[idx[(q1, q2)]] -= t1 * t2
        return vec

    consistent = [
        variant_relation(("beta", 0), ("alpha", 0), ("delta", 0), ("gamma", 0)),
        variant_relation(("alpha", 0), ("beta", 0), ("gamma", 0), ("delta", 0)),
        variant_relation(("beta", 0), ("gamma", 0)),
        variant_relation(("gamma", 0), ("beta", 0)),
        variant_relation(("delta", 0), ("alpha", 0)),
    ]
    for vec in consistent:
        assert span.coords(vec) is not None
    # the variant's sixth item gamma.delta = 0 contradicts its own
    # alpha.beta = gamma.delta (nonzero); it lies outside the relation span
    bad = variant_relation(("gamma", 0), ("delta", 0))
    assert span.coords(bad) is None
    rep = Q.assemble(J.JordanSpec((J.Bilinear(6),),
                                  (J.Unital(0, "LrV(1)", 2),)))
    assert any("inconsistent" in n for n in rep.notes)
    _report("[acceptance] criterion 3c (Clifford-even vs graded exterior "
            "derivation, variant discrepancy reported): PASS")

    # block-template membership: which algebras hit which template
    F, H, B = J.Field, J.Hermitian, J.Bilinear
    rows = [
        # row 1: A1 o S(W)
        (J.JordanSpec((F(), H(1, 3)), (J.TensorOfSpecial(0, "L", 1, "V", 2),)),
         "A1_SegreSym"),
        (J.JordanSpec((F(), B(7)), (J.TensorOfSpecial(0, "L", 1, "Gamma", 2),)),
         "A1_SegreSym"),   # so2(9) = so2(8m+1)
        (J.JordanSpec((F(), B(5)), (J.TensorOfSpecial(0, "L", 1, "Gamma", 2),)),
         "A1_SegreSym"),   # so2(7) = so2(8m+7)
        (J.JordanSpec((F(), B(6)), (J.TensorOfSpecial(0, "L", 1, "Gamma+", 2),)),
         "A1_SegreSym"),   # so2(8) = so2(8m)
        # row 2: A1 o Lambda(W)
        (J.JordanSpec((F(), H(4, 3)), (J.TensorOfSpecial(0, "L", 1, "V", 2),)),
         "A1_SegreAlt"),
        (J.JordanSpec((F(), B(9)), (J.TensorOfSpecial(0, "L", 1, "Gamma", 2),)),
         "A1_SegreAlt"),   # so2(11) = so2(8m+3)
        (J.JordanSpec((F(), B(11)), (J.TensorOfSpecial(0, "L", 1, "Gamma", 2),)),
         "A1_SegreAlt"),   # so2(13) = so2(8m+5)
        (J.JordanSpec((F(), B(10)), (J.TensorOfSpecial(0, "L", 1, "Gamma+", 2),)),
         "A1_SegreAlt"),   # so2(12) = so2(8m+4)
        # row 3: A2 quotient
        (J.JordanSpec((F(), H(2, 3)),
                      (J.TensorOfSpecial(0, "L", 1, "V", 2),
                       J.TensorOfSpecial(0, "L", 1, "V*"))), "A2_Segre"),
        (J.JordanSpec((F(), B(8)),
                      (J.TensorOfSpecial(0, "L", 1, "Gamma+", 2),
                       J.TensorOfSpecial(0, "L", 1, "Gamma-"))), "A2_Segre"),
        # rows 4-5: Clifford blocks
        (J.JordanSpec((B(5),), (J.Unital(0, "LrV(1)", 2),)), "CliffordOdd"),
        (J.JordanSpec((B(6),), (J.Unital(0, "LrV(1)", 2),)), "CliffordEven"),
        (J.JordanSpec((F(), F()), (J.TensorOfSpecial(0, "L", 1, "L", 2),)),
         "CliffordEven"),
    ]
    for spec, want in rows:
        rep = Q.assemble(spec)
        kinds = {b.kind for b in rep.blocks}
        assert kinds == {want}, (spec, kinds)
    dt = time.time() - t0
    _report("[acceptance] criterion 3d (block-template membership): "
            f"PASS ({dt:.1f}s)")


# -- criterion 4: tensor-restriction oracle -----------------------------------


def test_criterion_4_tensor_restriction_oracle():
    t0 = time.time()
    kinds = [C.SL(6), C.SP(6), C.SO1(12), C.SO2(5), C.SO2(7), C.SO2(9),
             C.SO2(8), C.SO2(10), C.SO2(12)]
    total = 0
    for kind in kinds:
        checks = oracles.tensor_checks(kind) + oracles.dimension_checks(kind)
        for name, ok in checks:
            assert ok, f"{kind}: {name}"
        total += len(checks)
    dt = time.time() - t0
    assert dt < 600
    _report(f"[acceptance] criterion 4 (tensor-restriction oracle, {total} "
            f"identities over 9 algebras): PASS ({dt:.1f}s)")


# -- criterion 5: duality oracle ---------------------------------------------


def test_criterion_5_duality_oracle():
    t0 = time.time()
    kinds = [C.SL2, C.SL(6), C.SP(6), C.SO1(12), C.SO2(5), C.SO2(7), C.SO2(9),
             C.SO2(11), C.SO2(13), C.SO2(8), C.SO2(12), C.SO2(16), C.SO2(10)]
    for kind in kinds:
        for name, ok in oracles.duality_checks(kind):
            assert ok, f"{kind}: {name}"
    # the table/engine discrepancy is exactly the documented one
    assert R.parity_discrepancies(C.SP(6)) == [("V", "symmetric", "skew")]
    assert R.parity_discrepancies(C.SP(8)) == [("V", "symmetric", "skew")]
    assert R.parity_discrepancies(C.SO1(12)) == [("V", "skew", "symmetric")]
    assert R.parity_discrepancies(C.SO1(16)) == [("V", "skew", "symmetric")]
    # spinor rows and sl(2): engine agrees with the table
    for kind in (C.SL2, C.SO2(5), C.SO2(7), C.SO2(9), C.SO2(11), C.SO2(13),
                 C.SO2(8), C.SO2(12), C.SO2(16), C.SO2(10), C.SO2(14)):
        assert R.parity_discrepancies(kind) == []
    dt = time.time() - t0
    _report(f"[acceptance] criterion 5 (duality/form oracle): PASS ({dt:.1f}s)")


# -- criterion 6: explicit graded Lie oracle ---------------------------------


def test_criterion_6_tkk_oracle():
    t0 = time.time()
    field = TB.StructureConstants([[[1]]])
    two = TB.StructureConstants([[[1, 0], [0, 0]], [[0, 0], [0, 1]]])
    sym2 = TB.StructureConstants([
        [[2, 0, 0], [0, 0, 0], [0, 0, 1]],
        [[0, 0, 0], [0, 2, 0], [0, 0, 1]],
        [[0, 0, 1], [0, 0, 1], [2, 2, 0]],
    ])
    m2 = R.plus_product(R.matrix_algebra_table(2))
    expected_dims = {1: 3, 2: 6, 3: 10, 4: 15}
    for sc in (field, two, sym2, m2):
        g = T.tkk_construct(sc)  # raises if Jacobi or the triple fails
        assert g.check_jacobi() and g.check_grading() and g.check_triple()
        assert T.minimality_check(g)
        assert T.jordan_from_short_pair(g) == sc
        assert g.total_dim == expected_dims[sc.dim]
    dt = time.time() - t0
    assert dt < 10
    _report(f"[acceptance] criterion 6 (graded Lie oracle): PASS ({dt:.1f}s)")


# -- criterion 7: linearity certificates -------------------------------------


def test_criterion_7_koszul_certificates():
    t0 = time.time()
    from helpers import template_algebra

    cases = [("A1_SegreSym", (k,)) for k in (1, 2, 3)]
    cases += [("A1_SegreAlt", (k,)) for k in (1, 2, 3)]
    cases += [("A2_Segre", (1, 1)), ("A2_Segre", (2, 1))]
    cases += [("CliffordEven", (2,))]
    for kind, dims in cases:
        alg = template_algebra(kind, dims)
        tables = P.koszul_check(alg, hom_cap=5)
        assert all(r.is_linear() for r in tables.values()), (kind, dims)
    for k in (1, 2, 3):
        tables = P.koszul_check(R.ext_algebra(k), hom_cap=5)
        assert all(r.is_linear() for r in tables.values())
    # reference exact sequences for the A2 quotient, Betti degree by degree
    for (k, l) in ((1, 1), (2, 1)):
        alg = template_algebra("A2_Segre", (k, l))
        res_s = R.minimal_resolution(alg, 1, hom_cap=2)   # vertex e1 = [S]
        assert res_s.betti[(1, 1)] == {0: l}
        assert res_s.betti_number(1, 2) == 0
        res_sstar = R.minimal_resolution(alg, 2, hom_cap=2)
        assert res_sstar.betti[(1, 1)] == {0: k}
        assert res_sstar.betti_number(1, 2) == 0
        res_l = R.minimal_resolution(alg, 0, hom_cap=2)   # vertex e2 = [L]
        assert res_l.betti[(1, 1)] == {1: k, 2: l}
        assert res_l.betti[(2, 2)] == {0: k * l}
    dt = time.time() - t0
    assert dt < 120
    _report(f"[acceptance] criterion 7 (linearity certificates): PASS ({dt:.1f}s)")


# -- criterion 8: structural invariants over random specs --------------------


IDEAL_POOL = [J.Field(), J.Bilinear(3), J.Bilinear(4), J.Bilinear(5),
              J.Bilinear(6), J.Bilinear(7), J.Bilinear(8), J.Bilinear(10),
              J.Hermitian(1, 3), J.Hermitian(1, 4), J.Hermitian(1, 6),
              J.Hermitian(2, 3), J.Hermitian(4, 3)]


def random_spec(rng):
    from smodquiver.jordan import kind_of_ideal

    ideals = tuple(rng.choice(IDEAL_POOL)
                   for _ in range(rng.randint(1, 3)))
    kinds = [kind_of_ideal(i) for i in ideals]
    radical = []
    for _ in range(rng.randint(0, 4)):
        mult = rng.randint(1, 3)
        tensorable = [i for i, k in enumerate(kinds)
                      if C.s_half_simples(k)]
        if rng.random() < 0.5 and len(set(tensorable)) >= 2 and \
                len({kinds[i] for i in tensorable}) >= 1 and len(tensorable) >= 2:
            i, j = rng.sample(tensorable, 2)
            la = rng.choice(C.s_half_simples(kinds[i])).name
            lb = rng.choice(C.s_half_simples(kinds[j])).name
            radical.append(J.TensorOfSpecial(i, la, j, lb, mult))
        else:
            i = rng.randrange(len(ideals))
            labels = C.s_one_simples(kinds[i])
            radical.append(J.Unital(i, rng.choice(labels).name, mult))
    return J.JordanSpec(ideals, tuple(radical))


def test_criterion_8_structural_invariants():
    t0 = time.time()
    rng = random.Random(20250810)
    n_checked = 0
    while n_checked < 200:
        spec = random_spec(rng)
        if not J.validate_spec(spec).ok:
            continue
        n_checked += 1
        rep = Q.assemble(spec)
        thin = {t.tid: t for t in rep.quiver.thin}
        # quadraticity and cycles
        for rel in rep.relations:
            for coef, path in rel:
                assert len(path) == 2
                f, g = path
                assert thin[f].src == thin[g].dst
            if len(rel) > 1:
                for coef, (f, g) in rel:
                    assert thin[g].src == thin[f].dst
        # arrow bound: per ordered vertex pair, at most one arrow per group
        seen = {}
        for a in rep.quiver.arrows:
            key = (a.src, a.dst)
            seen.setdefault(key, set())
            assert a.group not in seen[key]
            seen[key].add(a.group)
            assert len(seen[key]) <= len(rep.groups)
        # coloring conditions
        per_color = {}
        for v in rep.quiver.vertices:
            per_color.setdefault(v.color, 0)
            per_color[v.color] += 1
        assert all(c <= 2 for c in per_color.values())
        per_group = {}
        for a in rep.quiver.arrows:
            per_group.setdefault(a.group, []).append(a)
        for arrows in per_group.values():
            assert len(arrows) <= 2
            if len(arrows) == 2:
                assert arrows[0].src != arrows[1].src
                assert arrows[0].dst != arrows[1].dst
        # wildness flag
        assert rep.wild == any(g.w_dim >= 3 for g in rep.groups)
        # cube-zero whenever every singular group has multiplicity <= 2
        if all(g.w_dim <= 2 for g in rep.groups if g.singular):
            alg = P.from_presentation(rep.quiver, rep.relations)
            assert alg.dims(3) == 0, spec
    dt = time.time() - t0
    assert dt < 300
    _report(f"[acceptance] criterion 8 (structural invariants over "
            f"{n_checked} random specs): PASS ({dt:.1f}s)")


# -- criterion 9: central extension dimensions -------------------------------


def _direct_centext(kinds, bases, wdims):
    """Independent route: trivial multiplicity of the alternating square of
    the full radical character over the composite system."""
    import itertools

    systems = [k.root_system() for k in kinds]
    comp = W.composite(*systems)
    total = {}
    for base, wd in zip(bases, wdims):
        factors = [R.weight_multiplicities(k.root_system(),
                                           C.any_weight(k, name)).mults
                   for k, name in zip(kinds, base)]
        for assignment in itertools.product(*[f.items() for f in factors]):
            w = tuple(x for part, _ in assignment for x in part)
            m = wd
            for _, c in assignment:
                m *= c
            total[w] = total.get(w, 0) + m
    rad = R.Character(comp, total)
    _, l2 = R.ext_sym_square(rad)
    return R.trivial_multiplicity(l2)


def test_criterion_9_central_extension_dims():
    t0 = time.time()
    F, H = J.Field, J.Hermitian
    # shape (a): base with an invariant symmetric form on the S factor
    # (classically: the so1 standard module) -> dim S^2(W)
    for k in (1, 2, 3):
        spec = J.JordanSpec((F(), H(4, 3)),
                            (J.TensorOfSpecial(0, "L", 1, "V", k),))
        rep = Q.assemble(spec)
        assert rep.centext_total == k * (k + 1) // 2
        direct = _direct_centext((C.SL2, C.SO1(12)), [("L", "V")], [k])
        assert direct == rep.centext_total
    # shape (b): skew S factor (classically: the sp standard) -> dim L^2(W)
    for k in (1, 2, 3):
        spec = J.JordanSpec((F(), H(1, 3)),
                            (J.TensorOfSpecial(0, "L", 1, "V", k),))
        rep = Q.assemble(spec)
        assert rep.centext_total == k * (k - 1) // 2
        direct = _direct_centext((C.SL2, C.SP(6)), [("L", "V")], [k])
        assert direct == rep.centext_total
    # shape (c): dual pair -> dim W * dim W'
    for (k, l) in ((1, 1), (2, 1), (3, 2), (2, 3)):
        spec = J.JordanSpec((F(), H(2, 3)),
                            (J.TensorOfSpecial(0, "L", 1, "V", k),
                             J.TensorOfSpecial(0, "L", 1, "V*", l)))
        rep = Q.assemble(spec)
        assert rep.centext_total == k * l
        direct = _direct_centext((C.SL2, C.SL(6)), [("L", "V"), ("L", "V*")],
                                 [k, l])
        assert direct == rep.centext_total
    dt = time.time() - t0
    _report(f"[acceptance] criterion 9 (central extension dimensions): "
            f"PASS ({dt:.1f}s)")
