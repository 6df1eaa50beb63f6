"""Radical groups, arrows, block classification, relation templates."""

import pytest

from helpers import bench_module
from smodquiver import catalog as C
from smodquiver import jordan as J
from smodquiver import oracles as O
from smodquiver import quiver as Q
from smodquiver import reference as R


def datum(ideals, radical):
    return J.lie_datum_of_spec(J.JordanSpec(ideals, radical))


def build(ideals, radical):
    return Q.assemble(J.JordanSpec(ideals, radical))


def varrows(rep):
    v = {x.vid: f"c{x.color}:{x.label}" for x in rep.quiver.vertices}
    return sorted((v[a.src], v[a.dst], a.group, a.w_dim)
                  for a in rep.quiver.arrows)


# -- radical groups ----------------------------------------------------------


def test_group_merging_and_wdim():
    d = datum((J.Field(), J.Hermitian(1, 3)),
              (J.TensorOfSpecial(0, "L", 1, "V"),
               J.TensorOfSpecial(0, "L", 1, "V"),))
    gs = Q.group_radical(d)
    assert len(gs) == 1 and gs[0].w_dim == 2


def test_group_types_and_singularity():
    d = datum((J.Hermitian(2, 3), J.Bilinear(5), J.Field()),
              (J.Unital(0, "ad"), J.Unital(1, "LrV(1)"),
               J.TensorOfSpecial(2, "L", 0, "V")))
    gs = Q.group_radical(d)
    by_labels = {g.labels: g for g in gs}
    assert by_labels[("ad",)].rtype == "II"
    assert not by_labels[("ad",)].singular
    assert by_labels[("LrV(1)",)].singular      # standard module, second grading
    assert by_labels[("V", "L")].rtype == "I" or by_labels[("V", "L")].rtype == "I"


def test_type_one_singular_iff_two_sl2():
    d = datum((J.Field(), J.Field()), (J.TensorOfSpecial(0, "L", 1, "L"),))
    assert Q.group_radical(d)[0].singular
    d = datum((J.Field(), J.Hermitian(1, 3)),
              (J.TensorOfSpecial(0, "L", 1, "V"),))
    assert not Q.group_radical(d)[0].singular


def test_sl2_adjoint_group_is_singular():
    # ad over sl(2) is the standard module of so(3) with its short grading
    d = datum((J.Field(),), (J.Unital(0, "ad"),))
    assert Q.group_radical(d)[0].singular


# -- arrows ------------------------------------------------------------------


def test_two_loops_for_sl_adjoint():
    rep = build((J.Hermitian(2, 3),), (J.Unital(0, "ad"),))
    assert varrows(rep) == [("c0:V", "c0:V", 0, 1), ("c0:V*", "c0:V*", 0, 1)]


def test_two_cycle_for_odd_exterior_power():
    rep = build((J.Bilinear(6),), (J.Unital(0, "LrV(1)"),))
    assert varrows(rep) == [("c0:Gamma+", "c0:Gamma-", 0, 1),
                            ("c0:Gamma-", "c0:Gamma+", 0, 1)]


def test_empty_radical_gives_isolated_vertices():
    rep = build((J.Hermitian(1, 3), J.Bilinear(5)), ())
    assert varrows(rep) == []
    assert len(rep.quiver.vertices) == 2


def test_inert_component():
    rep = build((J.Hermitian(4, 3),), (J.Unital(0, "Gamma+"),))
    assert varrows(rep) == []
    assert rep.groups[0].inert
    assert any("inert" in n for n in rep.notes)


def test_arrow_count_bounded_by_groups():
    rep = build((J.Hermitian(1, 3),),
                (J.Unital(0, "ad"), J.Unital(0, "L2V")))
    counts = {}
    for a in rep.quiver.arrows:
        counts[(a.src, a.dst)] = counts.get((a.src, a.dst), 0) + 1
    assert all(c <= len(rep.groups) for c in counts.values())
    assert counts[(0, 0)] == 2  # two loops on V, one per group color


# -- classification ----------------------------------------------------------


_CLIFFORD_EVEN_NOTE = (
    "relations use the alternating pairing of the graded exterior algebra; "
    "the diagonal-pairing variant of this block is the same algebra in a "
    "different arrow basis, except for its inconsistent gamma*delta item")


def classify(ideals, radical, q=0):
    d = datum(ideals, radical)
    return Q.classify_block(d, Q.group_radical(d), Q.dual_partners(d), q)


def test_classify_a1_variants():
    # the standard modules of sp and so1: table parity, and a note naming
    # the character engine's
    assert classify((J.Field(), J.Hermitian(1, 3)),
                    (J.TensorOfSpecial(0, "L", 1, "V"),)) == (
        "A1_SegreSym", (0,), "Table2:row1",
        ("classification used table parity 'symmetric' for (sp(6),V); "
         "character engine computes 'skew'",))
    assert classify((J.Field(), J.Hermitian(4, 3)),
                    (J.TensorOfSpecial(0, "L", 1, "V"),)) == (
        "A1_SegreAlt", (0,), "Table2:row1",
        ("classification used table parity 'skew' for (so1(12),V); "
         "character engine computes 'symmetric'",))
    # spinor cases: so2(9) (B4, symmetric) and so2(11) (B5, skew), where
    # table and engine agree
    assert classify((J.Field(), J.Bilinear(7)),
                    (J.TensorOfSpecial(0, "L", 1, "Gamma"),)) == (
        "A1_SegreSym", (0,), "Table2:row1", ())
    assert classify((J.Field(), J.Bilinear(9)),
                    (J.TensorOfSpecial(0, "L", 1, "Gamma"),)) == (
        "A1_SegreAlt", (0,), "Table2:row1", ())


def _self_dual_a1_cases():
    """(ideal, kind, S) for each self-dual half simple S of the sp, so1 and
    so2 ideals, each the S side of an A1 block with the field's L."""
    ideals = ([J.Hermitian(1, n) for n in range(3, 13)]
              + [J.Hermitian(4, n) for n in range(3, 7)]
              + [J.Bilinear(d) for d in range(3, 24)])
    for ideal in ideals:
        kind = J.kind_of_ideal(ideal)
        for lab in C.s_half_simples(kind):
            if C.duality_form(kind, lab.name).dual == lab.name:
                yield ideal, kind, lab.name


def test_a1_template_and_parity_note_follow_the_table():
    templates = {"symmetric": "A1_SegreSym", "skew": "A1_SegreAlt"}
    noted = set()
    for ideal, kind, sname in _self_dual_a1_cases():
        rep = build((J.Field(), ideal), (J.TensorOfSpecial(0, "L", 1, sname),))
        (block,) = rep.blocks
        assert block.kind == templates[C.duality_form(kind, sname).parity]
        exception = O.PARITY_EXCEPTIONS.get((kind.series, sname))
        if exception is None:
            assert block.notes == (), (kind, sname)
        else:
            table, engine = exception
            assert block.notes == (
                f"classification used table parity '{table}' for "
                f"({kind},{sname}); character engine computes '{engine}'",)
            noted.add((kind.series, sname))
        assert rep.notes == block.notes
    assert noted == set(O.PARITY_EXCEPTIONS)


def test_classify_a2_pairs():
    ideals = (J.Field(), J.Hermitian(2, 3))
    radical = (J.TensorOfSpecial(0, "L", 1, "V", 2),
               J.TensorOfSpecial(0, "L", 1, "V*"))
    for q in (0, 1):
        assert classify(ideals, radical, q) == (
            "A2_Segre", (0, 1), "A2 block (dual-pair quotient)", ())


def test_classify_a2_requires_partner():
    assert classify((J.Field(), J.Hermitian(2, 3)),
                    (J.TensorOfSpecial(0, "L", 1, "V"),)) == (
        "ZeroRelations", (0,), "Table2:row2", ())


def test_classify_clifford():
    assert classify((J.Bilinear(5),), (J.Unital(0, "LrV(1)"),)) == (
        "CliffordOdd", (0,), "Table1:row1 (loop)", ())
    assert classify((J.Bilinear(6),), (J.Unital(0, "LrV(1)"),)) == (
        "CliffordEven", (0,), "Table1:row3 (2-cycle)", (_CLIFFORD_EVEN_NOTE,))
    assert classify((J.Field(), J.Field()),
                    (J.TensorOfSpecial(0, "L", 1, "L"),)) == (
        "CliffordEven", (0,), "so(4) alias Clifford block",
        (_CLIFFORD_EVEN_NOTE,))
    assert classify((J.Field(),), (J.Unital(0, "ad"),)) == (
        "CliffordOdd", (0,), "Table1:row1 (loop)", ())


def test_classify_nonsingular_type2_zero():
    assert classify((J.Hermitian(1, 3),), (J.Unital(0, "ad"),)) == (
        "ZeroRelations", (0,), "Table1:row1 (loop)", ())


# -- relation templates ------------------------------------------------------


def _paths(template):
    out = []
    for rel in template:
        out.append(tuple((str(c), p) for c, p in rel))
    return out


def test_template_a1_sym_w1():
    t = Q.relations_of("A1_SegreSym", (1,))
    assert _paths(t) == [(("1", (("alpha", 0), ("beta", 0))),)]


def test_template_a1_sym_w2():
    t = Q.relations_of("A1_SegreSym", (2,))
    zeros = [r for r in t if len(r) == 1]
    binos = [r for r in t if len(r) == 2]
    assert len(zeros) == 4 and len(binos) == 1
    (c1, p1), (c2, p2) = binos[0]
    assert p1 == (("beta", 0), ("alpha", 1))
    assert p2 == (("beta", 1), ("alpha", 0))
    assert c1 == -c2


def test_template_a1_alt_w2_diagonals_zero():
    t = Q.relations_of("A1_SegreAlt", (2,))
    zeros = {r[0][1] for r in t if len(r) == 1}
    assert (("beta", 0), ("alpha", 0)) in zeros
    assert (("beta", 1), ("alpha", 1)) in zeros
    binos = [r for r in t if len(r) == 2]
    assert len(binos) == 1
    (c1, _), (c2, _) = binos[0]
    assert c1 == c2


def test_template_clifford_odd():
    t = Q.relations_of("CliffordOdd", (2,))
    zeros = {r[0][1] for r in t if len(r) == 1}
    assert zeros == {(("ell", 0), ("ell", 0)), (("ell", 1), ("ell", 1))}
    binos = [r for r in t if len(r) == 2]
    assert len(binos) == 1  # ell0 ell1 = ell1 ell0


def test_template_clifford_even_counts():
    for k in (1, 2, 3):
        t = Q.relations_of("CliffordEven", (k,))
        zeros = [r for r in t if len(r) == 1]
        binos = [r for r in t if len(r) == 2]
        assert len(zeros) == 2 * k
        assert len(binos) == k * (k - 1)


def test_zero_relations_have_no_template():
    # `_bind_block` lists a ZeroRelations block's composable pairs itself
    for kind in ("ZeroRelations", "Wild"):
        with pytest.raises(ValueError, match="unknown block kind"):
            Q.relations_of(kind, (1,))


def test_template_a2_counts():
    t = Q.relations_of("A2_Segre", (2, 1))
    zeros = [r for r in t if len(r) == 1]
    binos = [r for r in t if len(r) == 2]
    assert len(zeros) == 9 and len(binos) == 2


def test_wildness_flag():
    # wild iff some radical isomorphism class has multiplicity >= 3
    assert build((J.Hermitian(1, 3),), (J.Unital(0, "ad", 3),)).wild
    assert not build((J.Hermitian(1, 3),), (J.Unital(0, "ad", 2),)).wild
    # two components of one class merge into one group of multiplicity 4
    assert build((J.Hermitian(1, 3),), (J.Unital(0, "ad", 2),
                                        J.Unital(0, "ad", 2))).wild
    assert not build((J.Hermitian(1, 3),), ()).wild


# -- assembled reports -------------------------------------------------------


def test_relations_are_quadratic_cycles():
    rep = build((J.Field(), J.Hermitian(1, 3)),
                (J.TensorOfSpecial(0, "L", 1, "V", 2),))
    thin = {t.tid: t for t in rep.quiver.thin}
    for rel in rep.relations:
        for coef, (f, g) in rel:
            assert thin[f].src == thin[g].dst  # composable
        if len(rel) > 1:
            for coef, (f, g) in rel:
                assert thin[g].src == thin[f].dst  # cycles


def test_coloring_conditions():
    rep = build((J.Hermitian(2, 3), J.Bilinear(6), J.Field()),
                (J.Unital(0, "ad"), J.Unital(1, "LrV(1)"),
                 J.TensorOfSpecial(2, "L", 0, "V")))
    colors = {}
    for v in rep.quiver.vertices:
        colors.setdefault(v.color, []).append(v)
    assert all(len(vs) <= 2 for vs in colors.values())
    by_group = {}
    for a in rep.quiver.arrows:
        by_group.setdefault(a.group, []).append(a)
    for arrows in by_group.values():
        assert len(arrows) <= 2
        if len(arrows) == 2:
            assert arrows[0].src != arrows[1].src
            assert arrows[0].dst != arrows[1].dst


def test_report_round_trip():
    rep = build((J.Field(), J.Hermitian(2, 3)),
                (J.TensorOfSpecial(0, "L", 1, "V", 2),
                 J.TensorOfSpecial(0, "L", 1, "V*")))
    data = Q.report_to_dict(rep)
    assert R.report_from_dict(data) == rep


def test_assemble_unitalizes_first():
    spec = J.JordanSpec((J.Hermitian(1, 3),), (J.Unital(0, "ad"),),
                        unital=False)
    rep = Q.assemble(spec)
    # the adjoined field summand contributes an extra vertex color
    assert rep.summands == ("sp(6)", "sl(2)")
    assert sorted((v.color, v.label) for v in rep.quiver.vertices) == \
        [(0, "V"), (1, "L")]
    assert rep.spec["unital"] is True


def test_assemble_classifies_each_ideal_once(monkeypatch):
    corpus = bench_module("corpus")
    specs = [J.spec_from_dict(d) for d in corpus.generate(
        lambda d: J.validate_spec(J.spec_from_dict(d)).ok)]
    n_ideals = sum(len(spec.ideals) for spec in specs)
    assert n_ideals == 394
    calls = []
    classify_ideal = J._classify_ideal
    monkeypatch.setattr(J, "_classify_ideal",
                        lambda ideal: calls.append(ideal) or classify_ideal(ideal))
    for spec in specs:
        Q.assemble(spec)
    assert len(calls) == n_ideals
    # a non-unital spec: its one ideal, then the field ideal it gains
    calls.clear()
    Q.assemble(J.JordanSpec((J.Hermitian(1, 3),), (), unital=False))
    assert calls == [J.Hermitian(1, 3), J.Field()]


def test_isolated_counts():
    rep = build((J.Bilinear(6),), (J.Unital(0, "Lambda+"),))
    assert [b.isolated for b in rep.blocks] == [1]


def test_nonzero_products_confined_to_singular_style_blocks():
    # dropping zero-relation groups must not disturb the relation-bearing
    # blocks: every multi-term relation lives inside an A1/A2/Clifford block,
    # and those blocks keep the same relation sets when the inert material
    # is removed from the spec
    full = build((J.Field(), J.Hermitian(1, 3), J.Hermitian(2, 3)),
                 (J.TensorOfSpecial(0, "L", 1, "V", 2),   # A1 block
                  J.Unital(2, "ad"),                      # zero-relations
                  J.Unital(1, "L2V")))                    # zero-relations
    bearing = {b.kind: b for b in full.blocks if b.kind != "ZeroRelations"}
    assert set(bearing) == {"A1_SegreSym"}
    for rel in full.relations:
        if len(rel) > 1:
            tids = {t for _, p in rel for t in p}
            assert tids <= set(bearing["A1_SegreSym"].thin_ids)
    reduced = build((J.Field(), J.Hermitian(1, 3)),
                    (J.TensorOfSpecial(0, "L", 1, "V", 2),))
    full_block = bearing["A1_SegreSym"]
    red_block = next(b for b in reduced.blocks if b.kind == "A1_SegreSym")
    assert _rel_shapes(full, full_block) == _rel_shapes(reduced, red_block)


def _rel_shapes(rep, block):
    """A block's relations with each thin arrow named by its W index and
    the labels of its ends."""
    thin = {t.tid: t for t in rep.quiver.thin}

    def key(tid):
        t = thin[tid]
        return (t.w_index, rep.quiver.vertices[t.src].label,
                rep.quiver.vertices[t.dst].label)

    return sorted(
        tuple(sorted((str(c), key(f), key(g)) for c, (f, g) in r))
        for r in block.relations)


@pytest.mark.parametrize("comp, labels, kind", [
    (1, ("V",), "A1_SegreSym"),
    (4, ("V",), "A1_SegreAlt"),
    (2, ("V", "V*"), "A2_Segre"),
], ids=["A1_SegreSym", "A1_SegreAlt", "A2_Segre"])
def test_segre_relations_do_not_depend_on_summand_order(comp, labels, kind):
    # the template families are bound from the sl(2) summand's vertex L,
    # so the block is the same whether the field ideal comes first or last
    shapes = []
    for ideals in ((J.Field(), J.Hermitian(comp, 3)),
                   (J.Hermitian(comp, 3), J.Field())):
        f = ideals.index(J.Field())
        rep = build(ideals, tuple(J.TensorOfSpecial(1 - f, lab, f, "L", 2)
                                  for lab in labels))
        block, = (b for b in rep.blocks if b.kind == kind)
        shapes.append(_rel_shapes(rep, block))
    assert shapes[0] == shapes[1]


def test_albert_summand_contributes_no_vertices():
    rep = build((J.Albert(), J.Field()),
                (J.Unital(0, "ad"), J.Unital(1, "ad")))
    # only the sl2 summand has half simples; the e7 component is inert
    assert [(v.color, v.label) for v in rep.quiver.vertices] == [(1, "L")]
    inert = [g for g in rep.groups if g.inert]
    assert len(inert) == 1 and inert[0].labels == ("ad",)
    # the sl2 adjoint acts as the so(3) standard module: one vertex block
    kinds = {b.kind for b in rep.blocks if not rep.groups[b.groups[0]].inert}
    assert kinds == {"CliffordOdd"}


def test_clifford_even_alias_dims():
    # sl2 x sl2 with a tripled tensor radical: the block algebra is the
    # two-vertex graded exterior carrier, total dim 2 * 2^3
    from smodquiver import pathalg as P

    rep = build((J.Field(), J.Field()),
                (J.TensorOfSpecial(0, "L", 1, "L", 3),))
    alg = P.from_presentation(rep.quiver, rep.relations)
    assert alg.hilbert() == (2, 6, 6, 2)
    assert alg.total_dim() == 16


def test_block_vertex_overlap_allowed():
    # two A1-type blocks share the sl2 vertex; cross products vanish
    rep = build((J.Field(), J.Hermitian(1, 3), J.Bilinear(5)),
                (J.TensorOfSpecial(0, "L", 1, "V"),
                 J.TensorOfSpecial(0, "L", 2, "Gamma")))
    assert len(rep.blocks) == 2
    shared = set(rep.blocks[0].vertices) & set(rep.blocks[1].vertices)
    assert len(shared) == 1
    thin = {t.tid: t for t in rep.quiver.thin}
    cross = [r for r in rep.relations
             if len(r) == 1
             and len({_block_of(rep, t) for t in r[0][1]}) == 2]
    # every composable cross-block pair is killed
    b0, b1 = rep.blocks
    expected = 0
    for x in b0.thin_ids + b1.thin_ids:
        for y in b0.thin_ids + b1.thin_ids:
            if _block_of(rep, x) != _block_of(rep, y) and \
                    thin[x].src == thin[y].dst:
                expected += 1
    assert len(cross) == expected > 0


def _block_of(rep, tid):
    for i, b in enumerate(rep.blocks):
        if tid in b.thin_ids:
            return i
    raise AssertionError(tid)
