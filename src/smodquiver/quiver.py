"""Assembly of the module-category quiver with quadratic relations.

Pipeline: JordanSpec -> LieDatum -> radical groups -> colored quiver ->
block classification -> relation templates -> QuiverReport, and the
report's renderings: the JSON dict, the building-block table, DOT and text.

Conventions:
  * vertices are colored by summand index, sorted by (color, catalog order);
  * one thick arrow per (radical group, direction), carrying the multiplicity
    space dimension; thin arrows expand W-indices and are sorted by
    (group, w_index, src, dst);
  * a product (f, g) in a relation means the path "g then f"; every relation
    is homogeneous of path length 2;
  * arrow direction: j -> k whenever the half simple at k occurs in the
    restriction of (L_j (x) group module), matching the block shape tables
    emitted by the blocks command.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from . import catalog, jordan
from .catalog import SL2

# bound on thin arrows plus composable thin-arrow pairs: every relation is
# one such pair or a combination of two, so this bounds the report's size
MAX_QUIVER_SIZE = 40_000


class TooManyRelations(RuntimeError):
    """The quiver's thin arrows and composable pairs exceed MAX_QUIVER_SIZE."""


Vertex = namedtuple("Vertex", "vid color label")

ThickArrow = namedtuple("ThickArrow", "aid src dst group w_dim")

ThinArrow = namedtuple("ThinArrow", "tid src dst group w_index")


# arrows: the thick arrows; thin: their expansion, in a fixed order
Quiver = namedtuple("Quiver", "vertices arrows thin")


# rtype: "I" | "II"; parity: normative (table-based) parity of the base
# module; engine_parity: classical parity per the character engine
RadicalGroup = namedtuple(
    "RadicalGroup",
    "index support labels w_dim rtype singular parity engine_parity inert",
    defaults=(False,))

# kind: ZeroRelations | A1_SegreSym | A1_SegreAlt | A2_Segre | CliffordOdd
# | CliffordEven; groups: radical group indices; vertices: vertex ids touched
# by the block's arrows; isolated: number of quiver vertices outside the block;
# relations: each a tuple of terms ((coef, (tid_outer, tid_inner)), ...),
# coef an int or a Fraction
Block = namedtuple(
    "Block",
    "kind groups vertices thin_ids relations isolated descriptor notes")

# summands: printable kind names; groups: RadicalGroup; relations: the block
# relations in block order, then the cross-block zeros; centext_pairs:
# ((q, q2), dim) sorted
QuiverReport = namedtuple(
    "QuiverReport",
    "schema_version spec summands groups quiver blocks relations wild "
    "centext_pairs centext_total notes")


# ---------------------------------------------------------------------------
# radical groups


def group_radical(datum: jordan.LieDatum):
    """Radical entries with singularity and form parities attached."""
    groups = []
    for q, e in enumerate(datum.radical):
        kinds = [datum.summands[i] for i in e.support]
        tensor = len(e.support) == 2
        engine = [catalog.classical_parity(k, l) for k, l in zip(kinds, e.labels)]
        engine_parity = catalog.parity_product(*engine) if tensor else engine[0]
        if tensor:
            # both h-eigenvalue-1/2 pieces, the level in quarter units, are lines
            singular = [catalog.graded_piece_dim4(k, l, 2)
                        for k, l in zip(kinds, e.labels)] == [1, 1]
            # a half simple that is not self-dual has table parity "none"
            parity = catalog.parity_product(*(catalog.duality_form(k, l).parity
                                              for k, l in zip(kinds, e.labels)))
        else:
            # the h-eigenvalue-1 piece
            singular = catalog.graded_piece_dim4(kinds[0], e.labels[0], 4) == 1
            # a label that is not self-dual already has classical parity "none"
            parity = engine_parity
        groups.append(RadicalGroup(q, e.support, e.labels, e.w_dim,
                                   "I" if tensor else "II",
                                   singular, parity, engine_parity))
    return groups


def dual_partners(datum: jordan.LieDatum):
    """{q: q2} for each two distinct radical entries on one support whose
    base modules are dual.  Only a support that carries two entries or more
    has its labels dualized, so an e7 label, alone on its ideal, never is."""
    entries = datum.radical
    index = {(e.support, e.labels): q for q, e in enumerate(entries)}
    shared = Counter(e.support for e in entries)
    partners = {}
    for q, e in enumerate(entries):
        if shared[e.support] > 1:
            duals = tuple(catalog.dual_label(datum.summands[i], l)
                          for i, l in zip(e.support, e.labels))
            if index.get((e.support, duals), q) != q:
                partners[q] = index[e.support, duals]
    return partners


def central_extension(groups, partners):
    """The universal central extension of the radical, ((q, q2), dim) with
    q <= q2 in order: S^2(W) or Lambda^2(W) inside a group W(x)M, as M's
    engine parity is skew or symmetric, and W (x) W' across a dual pair."""
    pairs = []
    for g in groups:
        k = g.w_dim
        dim = {"skew": k * (k + 1) // 2,
               "symmetric": k * (k - 1) // 2}.get(g.engine_parity, 0)
        if dim:
            pairs.append(((g.index, g.index), dim))
        q2 = partners.get(g.index, -1)
        if q2 > g.index:
            pairs.append(((g.index, q2), k * groups[q2].w_dim))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# vertices and arrows


def arrows_of(datum: jordan.LieDatum, groups):
    """Colored quiver: half simples per summand, one thick arrow per
    (group, direction)."""
    vertices = []
    vid_of = {}
    for color, kind in enumerate(datum.summands):
        for lab in catalog.s_half_simples(kind):
            v = Vertex(len(vertices), color, lab.name)
            vertices.append(v)
            vid_of[(color, lab.name)] = v.vid

    arrows = []
    inert = set()
    for g in groups:
        endpoints = []
        if g.rtype == "I":
            (i, j) = g.support
            (la, lb) = g.labels
            ki, kj = datum.summands[i], datum.summands[j]
            endpoints = [
                (vid_of[(i, catalog.dual_label(ki, la))], vid_of[(j, lb)]),
                (vid_of[(j, catalog.dual_label(kj, lb))], vid_of[(i, la)]),
            ]
        else:
            i = g.support[0]
            kind = datum.summands[i]
            for lab in catalog.s_half_simples(kind):
                res = catalog.restrict_s(kind, lab.name, g.labels[0])
                targets = sorted(t for t in res if t != "tr")
                assert len(targets) <= 1, "restriction is multiplicity free"
                for t in targets:
                    assert res[t] == 1
                    endpoints.append((vid_of[(i, lab.name)], vid_of[(i, t)]))
        if not endpoints:
            inert.add(g.index)
        for src, dst in sorted(endpoints):
            arrows.append((g.index, src, dst, g.w_dim))

    arrows.sort()
    thick = tuple(ThickArrow(aid, src, dst, grp, w)
                  for aid, (grp, src, dst, w) in enumerate(arrows))
    size = _quiver_size(thick)
    if size > MAX_QUIVER_SIZE:
        raise TooManyRelations(f"{size} thin arrows and composable pairs "
                               f"exceed the quiver bound {MAX_QUIVER_SIZE}")
    thin_sorted = sorted((a.group, wi, a.src, a.dst, a.aid)
                         for a in thick for wi in range(a.w_dim))
    thin = tuple(ThinArrow(tid, src, dst, grp, wi)
                 for tid, (grp, wi, src, dst, _) in enumerate(thin_sorted))
    new_groups = [g._replace(inert=True) if g.index in inert else g
                  for g in groups]
    return Quiver(tuple(vertices), thick, thin), new_groups


def _quiver_size(thick):
    """Thin arrows plus thin-arrow pairs (x, y) with x composable after y,
    read off the W dimensions of the thick arrows."""
    out_dim, in_dim = {}, {}
    for a in thick:
        out_dim[a.src] = out_dim.get(a.src, 0) + a.w_dim
        in_dim[a.dst] = in_dim.get(a.dst, 0) + a.w_dim
    return sum(out_dim.values()) + sum(
        w * in_dim.get(v, 0) for v, w in out_dim.items())


# ---------------------------------------------------------------------------
# block classification


def classify_block(datum, groups, partners, q):
    """The block of group q: its kind, its group indices, its descriptor (the
    paper's table row) and its notes.  An A1 block's template follows the
    table parity of its S side, and a note says where the character engine
    computes another; an A2 block pairs q with its entry of `partners`."""
    g = groups[q]
    kinds = [datum.summands[i] for i in g.support]
    notes = []
    if g.inert:
        notes.append(f"group {q} ({'/'.join(g.labels)}) induces no arrows; "
                     "retained as inert")
    kind, qidx = "ZeroRelations", (q,)
    if g.rtype == "II":
        descriptor = ("inert component" if g.inert
                      else _table1_row(kinds[0], g.labels[0]))
        if g.singular and kinds[0].series in ("so2", "sl2"):
            odd = kinds[0] == SL2 or kinds[0].size % 2 == 1
            kind = "CliffordOdd" if odd else "CliffordEven"
    elif kinds == [SL2, SL2]:
        kind, descriptor = "CliffordEven", "so(4) alias Clifford block"
    else:
        classes = tuple(sorted(_kind_class(k) for k in kinds))
        row = {("A", "A"): 1, ("A", "B"): 2, ("A", "C"): 3,
               ("B", "B"): 4, ("B", "C"): 5, ("C", "C"): 6}.get(classes)
        descriptor = f"Table2:row{row}" if row else ""
        if SL2 in kinds:
            s_side = 1 - kinds.index(SL2)
            skind, sname = kinds[s_side], g.labels[s_side]
            form = catalog.duality_form(skind, sname)
            if form.dual == sname:
                kind = ("A1_SegreSym" if form.parity == "symmetric"
                        else "A1_SegreAlt")
                engine = catalog.classical_parity(skind, sname)
                if form.parity != engine:
                    notes.append(f"classification used table parity "
                                 f"'{form.parity}' for ({skind},{sname}); "
                                 f"character engine computes '{engine}'")
            elif q in partners:
                kind, qidx = "A2_Segre", tuple(sorted((q, partners[q])))
                descriptor = "A2 block (dual-pair quotient)"
    if kind == "CliffordEven":
        notes.append("relations use the alternating pairing of the graded "
                     "exterior algebra; the diagonal-pairing variant of this "
                     "block is the same algebra in a different arrow basis, "
                     "except for its inconsistent gamma*delta item")
    return kind, qidx, descriptor, tuple(notes)


def _kind_class(kind):
    if kind.series in ("sl2", "sp", "so1"):
        return "A"
    if kind.series == "so2" and kind.size % 2 == 1:
        return "A"
    if kind.series == "sl":
        return "B"
    if kind.series == "so2" and kind.size % 4 == 2:
        return "B"
    return "C"   # so2 of size 0 mod 4; an e7 group is inert, so never classed


def _table1_row(kind, label):
    """The Table 1 row of a type II group on `label` that induces arrows."""
    cls = _kind_class(kind)
    if cls == "A":
        return "Table1:row1 (loop)"
    if label == "ad" and kind.series == "sl":
        return "Table1:row2 (two loops)"
    if label.startswith("LrV("):
        r = int(label[4:-1])
        return ("Table1:row2 (two loops)" if r % 2 == 0
                else "Table1:row3 (2-cycle)")
    if label.startswith("Lambda"):
        return ("Table1:row4 (loop + isolated)" if cls == "C"
                else "Table1:row5 (single arrow)")
    return "Table1:row5 (single arrow)"


# ---------------------------------------------------------------------------
# relation templates


def _zeros(f, fs, g, gs):
    """f_i g_j = 0 for every i in fs and j in gs."""
    return [((1, ((f, i), (g, j))),) for i in fs for j in gs]


def _products(pairs, sign, squares, k):
    """For each i < k: f_i g_i = 0 for each pair (f, g) when `squares`, then
    f_i g_j + sign * f_j g_i = 0 for each j > i."""
    rels = []
    for i in range(k):
        if squares:
            rels += [((1, ((f, i), (g, i))),) for f, g in pairs]
        for j in range(i + 1, k):
            rels += [((1, ((f, i), (g, j))), (sign, ((f, j), (g, i))))
                     for f, g in pairs]
    return rels


def relations_of(block_kind, w_dims):
    """Quadratic relation templates over symbolic arrows (family, w_index).

    A term (coef, ((f, i), (g, j))) stands for coef * (f_i composed after
    g_j).  Families: A1 -> alpha: [L]->[S], beta: [S]->[L]; A2 -> alpha:
    [S*]->[L] and delta: [L]->[S] over W, beta: [L]->[S*] and gamma:
    [S]->[L] over W'; CliffordOdd -> loops ell; CliffordEven -> a: v+ -> v-,
    b: v- -> v+.  ZeroRelations has no template: its relations are every
    composable pair, which `_bind_block` lists itself.
    """
    if block_kind == "A2_Segre":
        k, l = w_dims
        rels = []
        for j in range(l):
            for i in range(k):
                rels.append(((1, (("beta", j), ("alpha", i))),))
                rels.append(((1, (("delta", i), ("gamma", j))),))
            rels += _zeros("beta", (j,), "gamma", range(l))
        rels += _zeros("delta", range(k), "alpha", range(k))
        for i in range(k):
            for j in range(l):
                rels.append(((1, (("alpha", i), ("beta", j))),
                             (-1, (("gamma", j), ("delta", i)))))
        return tuple(rels)
    k = w_dims[0]
    if block_kind == "A1_SegreSym":
        return tuple(_zeros("alpha", range(k), "beta", range(k))
                     + _products((("beta", "alpha"),), -1, False, k))
    if block_kind == "A1_SegreAlt":
        return tuple(_zeros("alpha", range(k), "beta", range(k))
                     + _products((("beta", "alpha"),), 1, True, k))
    if block_kind == "CliffordOdd":
        return tuple(_products((("ell", "ell"),), -1, True, k))
    if block_kind == "CliffordEven":
        return tuple(_products((("a", "b"), ("b", "a")), 1, True, k))
    raise ValueError(f"unknown block kind {block_kind!r}")


# ---------------------------------------------------------------------------
# binding templates to actual arrows


def _thin_by_thick(quiver):
    out = {}
    for t in quiver.thin:
        # thin arrows of one thick arrow share (group, src, dst); quiver.thin
        # is in tid order, so each list is sorted
        out.setdefault((t.group, t.src, t.dst), []).append(t.tid)
    return out


# template families by block kind and the place of the arrow's group in the
# block: (the family of the thick arrow leaving the anchor, of the other one);
# the anchor is the block's first vertex labelled L, else its first vertex
_FAMILIES = {("A1_SegreSym", 0): ("alpha", "beta"),
             ("A1_SegreAlt", 0): ("alpha", "beta"),
             ("A2_Segre", 0): ("delta", "alpha"),
             ("A2_Segre", 1): ("beta", "gamma"),
             ("CliffordOdd", 0): ("ell", "ell"),
             ("CliffordEven", 0): ("a", "b")}


def _bind_block(groups, quiver, kind, qidx, thin_map):
    """Instantiate the relation template on the block's thin arrows."""
    thick = [a for a in quiver.arrows if a.group in qidx]
    thin_ids = sorted(t.tid for t in quiver.thin if t.group in qidx)
    vertex_ids = tuple(sorted({a.src for a in thick} | {a.dst for a in thick}))
    if kind == "ZeroRelations":
        rels = _zero_relations(quiver, thin_ids, [thin_ids])
    else:
        anchor = next((v for v in vertex_ids if quiver.vertices[v].label == "L"),
                      vertex_ids[0])
        families = {}
        for a in thick:
            leaving, other = _FAMILIES[kind, qidx.index(a.group)]
            families[leaving if a.src == anchor else other] = \
                thin_map[(a.group, a.src, a.dst)]
        rels = [tuple((coef, (families[f][i], families[g][j]))
                      for coef, ((f, i), (g, j)) in rel)
                for rel in relations_of(kind, tuple(groups[q].w_dim for q in qidx))]
    return vertex_ids, tuple(thin_ids), tuple(rels)


def _zero_relations(quiver, outer_ids, inner):
    """One monomial relation per composable pair (x after y), x in outer_ids
    and y in each id list of inner in turn."""
    outer_at = {}
    for x in outer_ids:
        outer_at.setdefault(quiver.thin[x].src, []).append(x)
    return [((1, (x, y)),) for ids in inner
            for y in ids for x in outer_at.get(quiver.thin[y].dst, ())]


# ---------------------------------------------------------------------------
# full pipeline


def assemble(spec: jordan.JordanSpec) -> QuiverReport:
    """Full pipeline from a JordanSpec to the quiver-with-relations report."""
    datum = jordan.lie_datum_of_spec(spec)
    groups = group_radical(datum)
    partners = dual_partners(datum)
    quiver, groups = arrows_of(datum, groups)
    thin_map = _thin_by_thick(quiver)

    blocks = []
    claimed = set()
    total_vertices = len(quiver.vertices)
    for g in groups:
        if g.index in claimed:
            continue
        kind, qidx, descriptor, bnotes = classify_block(datum, groups, partners, g.index)
        claimed.update(qidx)
        vertex_ids, thin_ids, rels = _bind_block(
            groups, quiver, kind, qidx, thin_map)
        blocks.append(Block(kind, qidx, vertex_ids, thin_ids, rels,
                            total_vertices - len(vertex_ids), descriptor,
                            bnotes))

    all_rels = [r for b in blocks for r in b.relations]
    # cross-block compositions vanish
    for b1 in blocks:
        all_rels.extend(_zero_relations(
            quiver, b1.thin_ids, [b.thin_ids for b in blocks if b is not b1]))

    centext = central_extension(groups, partners)
    return QuiverReport(
        schema_version=1,
        spec=jordan.spec_to_dict(jordan.unitalize(spec)),
        summands=tuple(str(k) for k in datum.summands),
        groups=tuple(groups),
        quiver=quiver,
        blocks=tuple(blocks),
        relations=tuple(all_rels),
        # some radical isomorphism class has multiplicity >= 3
        wild=any(g.w_dim >= 3 for g in groups),
        centext_pairs=centext,
        centext_total=sum(dim for _, dim in centext),
        notes=tuple(n for b in blocks for n in b.notes),
    )


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(rep: QuiverReport) -> dict:
    """The report as a JSON-ready dict.  Block relations are the prefix of
    `rep.relations` in block order, so each is rendered once: a block's
    relation lists, term dicts included, are shared with `relations`."""
    rels = [[{"coef": str(c), "path": list(p)} for c, p in r]
            for r in rep.relations]
    taken = iter(rels)
    return {
        "schemaVersion": rep.schema_version,
        "spec": rep.spec,
        "summands": list(rep.summands),
        "groups": [{"index": g.index, "support": list(g.support),
                    "labels": list(g.labels), "wDim": g.w_dim,
                    "type": g.rtype, "singular": g.singular,
                    "parity": g.parity, "engineParity": g.engine_parity,
                    "inert": g.inert} for g in rep.groups],
        "vertices": [{"id": v.vid, "color": v.color, "label": v.label}
                     for v in rep.quiver.vertices],
        "arrows": [{"id": a.aid, "src": a.src, "dst": a.dst,
                    "group": a.group, "wDim": a.w_dim}
                   for a in rep.quiver.arrows],
        "thinArrows": [{"id": t.tid, "src": t.src, "dst": t.dst,
                        "group": t.group, "wIndex": t.w_index}
                       for t in rep.quiver.thin],
        "blocks": [{"kind": b.kind, "groups": list(b.groups),
                    "vertices": list(b.vertices),
                    "thinArrows": list(b.thin_ids),
                    "relations": [next(taken) for _ in b.relations],
                    "isolated": b.isolated,
                    "descriptor": b.descriptor,
                    "notes": list(b.notes)} for b in rep.blocks],
        "relations": rels,
        "wild": rep.wild,
        "centext": {"pairs": [{"groups": list(k), "dim": v}
                              for k, v in rep.centext_pairs],
                    "total": rep.centext_total},
        "notes": list(rep.notes),
    }


def blocks_to_dict(rep: QuiverReport) -> dict:
    """The building-block table: one row per block, vertices by name."""
    rows = []
    for b in rep.blocks:
        rows.append({
            "kind": b.kind,
            "descriptor": b.descriptor,
            "groups": list(b.groups),
            "vertices": [f"c{rep.quiver.vertices[v].color}:"
                         f"{rep.quiver.vertices[v].label}" for v in b.vertices],
            "isolated": b.isolated,
            "relations": len(b.relations),
            "notes": list(b.notes),
        })
    return {"schemaVersion": rep.schema_version, "blocks": rows,
            "wild": rep.wild, "centextTotal": rep.centext_total}


# ---------------------------------------------------------------------------
# text renderings


def emit_dot(rep: QuiverReport) -> str:
    """DOT rendering of a report; relations become comments."""
    lines = ["digraph quiver {"]
    for v in rep.quiver.vertices:
        lines.append(f'  v{v.vid} [label="c{v.color}:{v.label}"];')
    for t in rep.quiver.thin:
        style = ", style=dashed" if t.group % 2 == 1 else ""
        lines.append(f'  v{t.src} -> v{t.dst} [label="g{t.group}w{t.w_index}"'
                     f'{style}];')
    lines.append("}")
    for rel in rep.relations:
        parts = []
        for coef, (f, g) in rel:
            prefix = "+" if coef >= 0 else "-"
            mag = abs(coef)
            coefs = "" if mag == 1 else f"{mag}*"
            parts.append(f"{prefix} {coefs}t{f}.t{g}")
        lines.append("// relation: " + " ".join(parts) + " = 0")
    return "\n".join(lines) + "\n"


def emit_text(rep: QuiverReport) -> str:
    """Plain-text rendering of a report."""
    lines = ["summands: " + ", ".join(rep.summands)]
    for v in rep.quiver.vertices:
        lines.append(f"  vertex v{v.vid}: color {v.color}, {v.label}")
    for a in rep.quiver.arrows:
        lines.append(f"  arrow a{a.aid}: v{a.src} -> v{a.dst} "
                     f"(group {a.group}, W dim {a.w_dim})")
    for b in rep.blocks:
        desc = f" [{b.descriptor}]" if b.descriptor else ""
        lines.append(f"block {b.kind}{desc}: groups {list(b.groups)}, "
                     f"vertices {list(b.vertices)}, isolated {b.isolated}, "
                     f"{len(b.relations)} relations")
    lines.append(f"wild: {str(rep.wild).lower()}")
    lines.append(f"central extension dim: {rep.centext_total}")
    for n in rep.notes:
        lines.append(f"note: {n}")
    return "\n".join(lines) + "\n"


def emit_blocks_text(data: dict) -> str:
    """Plain-text rendering of a `blocks_to_dict` table, one line a block."""
    lines = []
    for r in data["blocks"]:
        desc = f" [{r['descriptor']}]" if r["descriptor"] else ""
        lines.append(f"{r['kind']}{desc}: vertices "
                     f"{', '.join(r['vertices']) or '(none)'}; "
                     f"isolated {r['isolated']}; {r['relations']} relations")
    return "\n".join(lines) + "\n"
