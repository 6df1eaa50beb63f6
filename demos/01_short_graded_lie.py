"""Short-graded Lie algebras from small commutative algebras.

Walks the explicit construction for four classical inputs and checks, for
each one: the Jacobi identity, minimality ([g_-1, g_1] = g_0 and trivial
center), and the exact round trip back to the original multiplication table
via x*y = [[f, x], y].
"""

from smodquiver import reference, tables, tkk

ALGEBRAS = {}

# the ground field: e*e = e
ALGEBRAS["k"] = tables.StructureConstants([[[1]]])

# two orthogonal copies of the field
ALGEBRAS["k + k"] = tables.StructureConstants(
    [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])

# symmetric 2x2 matrices under a*b = ab + ba, basis E11, E22, E12+E21
ALGEBRAS["Sym2+"] = tables.StructureConstants([
    [[2, 0, 0], [0, 0, 0], [0, 0, 1]],
    [[0, 0, 0], [0, 2, 0], [0, 0, 1]],
    [[0, 0, 1], [0, 0, 1], [2, 2, 0]],
])

# full 2x2 matrices, symmetrized
ALGEBRAS["M2+"] = reference.plus_product(reference.matrix_algebra_table(2))

for name, sc in ALGEBRAS.items():
    print(f"== {name} (dim {sc.dim})")
    print("   satisfies the defining identity:",
          tables.check_jordan_identity(sc))
    g = tkk.tkk_construct(sc)
    print(f"   graded dims {g.dims}, total {g.total_dim}")
    print("   minimal:", tkk.minimality_check(g))
    print("   round trip recovers the table:",
          tkk.jordan_from_short_pair(g) == sc)
    print()

print("Dimension cross-check: Sym_n+ gives n(2n+1):",
      ALGEBRAS["Sym2+"].dim, "->", tkk.tkk_construct(ALGEBRAS["Sym2+"]).total_dim,
      "= 2*(2*2+1) =", 2 * 5)
