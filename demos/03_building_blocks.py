"""From algebra specs to quivers with relations.

Assembles a sample of specs covering every building-block shape: loops,
two-cycles, the isolated spinor partners, the thick-arrow blocks with
nonzero relations, and the wild flag.  Prints the DOT rendering for one of
them.
"""

from smodquiver import jordan as J
from smodquiver import quiver as Q

SPECS = [
    ("sp(6) with its adjoint radical",
     J.JordanSpec((J.Hermitian(1, 3),), (J.Unital(0, "ad"),))),
    ("sl(6) with adjoint radical (two loops)",
     J.JordanSpec((J.Hermitian(2, 3),), (J.Unital(0, "ad"),))),
    ("so(8), second grading, standard radical (2-cycle)",
     J.JordanSpec((J.Bilinear(6),), (J.Unital(0, "LrV(1)"),))),
    ("so(8) with a half exterior power (loop + isolated vertex)",
     J.JordanSpec((J.Bilinear(6),), (J.Unital(0, "Lambda+"),))),
    ("sl2 x sp(6) with a doubled tensor radical (thick block)",
     J.JordanSpec((J.Field(), J.Hermitian(1, 3)),
                  (J.TensorOfSpecial(0, "L", 1, "V", 2),))),
    ("sl2 x sl(6), dual pair of tensor radicals (three-vertex block)",
     J.JordanSpec((J.Field(), J.Hermitian(2, 3)),
                  (J.TensorOfSpecial(0, "L", 1, "V", 2),
                   J.TensorOfSpecial(0, "L", 1, "V*"),))),
    ("a wild one: three copies of the same component",
     J.JordanSpec((J.Hermitian(1, 3),), (J.Unital(0, "ad", 3),))),
]

for title, spec in SPECS:
    rep = Q.assemble(spec)
    vtx = {v.vid: f"c{v.color}:{v.label}" for v in rep.quiver.vertices}
    print(f"== {title}")
    print("   vertices:", ", ".join(vtx.values()) or "(none)")
    for a in rep.quiver.arrows:
        print(f"   {vtx[a.src]} -> {vtx[a.dst]}  (group {a.group},"
              f" thickness {a.w_dim})")
    for b in rep.blocks:
        tag = f" [{b.descriptor}]" if b.descriptor else ""
        print(f"   block {b.kind}{tag}: {len(b.relations)} relations,"
              f" {b.isolated} isolated vertices")
    print("   wild:", rep.wild, "| central extension dim:", rep.centext_total)
    print()

print("DOT rendering of the dual-pair block:")
print(Q.emit_dot(Q.assemble(SPECS[5][1])))
