"""Graded resolutions and linearity certificates.

Resolves the vertex simples of a few presented algebras with the reference
`minimal_resolution`, counts the Betti tables of an assembled block from its
PBW certificate, and shows a deliberately non-quadratic control case whose
resolution fails linearity at the second step.
"""

from fractions import Fraction

from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R

ONE = Fraction(1)


def betti_row(res, cap):
    return [res.betti_number(i, i) for i in range(cap + 1)]


# exterior algebra on two generators: Betti numbers grow linearly
lam2 = P.PresentedAlgebra([0], [(0, 0, 0), (1, 0, 0)],
                          [[(ONE, (0, 0))], [(ONE, (1, 1))],
                           [(ONE, (0, 1)), (ONE, (1, 0))]])
res = R.minimal_resolution(lam2, 0, hom_cap=5)
print("exterior algebra on 2 generators: hilbert", lam2.hilbert())
print("   diagonal Betti numbers:", betti_row(res, 5),
      "| linear:", res.is_linear())

# an assembled thick block
spec = J.JordanSpec((J.Field(), J.Hermitian(2, 3)),
                    (J.TensorOfSpecial(0, "L", 1, "V", 2),
                     J.TensorOfSpecial(0, "L", 1, "V*"),))
rep = Q.assemble(spec)
alg = P.from_presentation(rep.quiver, rep.relations)
print("\ndual-pair block: hilbert", alg.hilbert())
tables = P.koszul_check(alg, hom_cap=5)
print("   linear resolutions up to step 5:",
      all(r.is_linear() for r in tables.values()))
for v, r in sorted(tables.items()):
    print(f"   simple at vertex {v}: betti {betti_row(r, 5)}")

# Segre products against polynomial and exterior multiplicity algebras
a1 = P.PresentedAlgebra([0, 1], [(0, 0, 1), (1, 1, 0)], [[(ONE, (0, 1))]])
for name, b in (("S(W), dim W = 2", R.sym_algebra(2, 3)),
                ("Lambda(W), dim W = 2", R.ext_algebra(2))):
    seg = R.segre_product(a1, b)
    print(f"\nSegre with {name}: hilbert {seg.hilbert()}")

# control: a cubic monomial relation breaks linearity at step 2
ctrl = P.PresentedAlgebra([1, 2, 3, 4], [(0, 1, 2), (1, 2, 3), (2, 3, 4)],
                          [[(ONE, (2, 1, 0))]])
res = R.minimal_resolution(ctrl, 1, hom_cap=3)
print("\ncubic control case: betti entries", dict(sorted(res.betti.items())))
print("   linear:", res.is_linear(), " (the (2,3) entry is the obstruction)")
