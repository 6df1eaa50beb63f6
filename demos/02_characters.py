"""A tour of the exact character engine.

Dimensions via the Weyl product formula, weight multiplicities via the
Freudenthal recursion on dominant weights, tensor decomposition by
Brauer-Klimyk, duals, invariant-form indicators, and grading eigenvalues.
"""

from smodquiver import reference as R
from smodquiver import weights as W
from smodquiver.weights import RootSystem

C3 = RootSystem("C", 3)
D6 = RootSystem("D", 6)

print("dim of the sp(6) module with highest weight w2:",
      W.weyl_dim(C3, (2, 2, 0)))
print("dim of a half-spin module of so(12):", W.weyl_dim(D6, (1,) * 6))

ad = R.weight_multiplicities(C3, (4, 0, 0))
print("\nsp(6) adjoint: mass", ad.mass(),
      "zero-weight multiplicity", ad.mults[(0, 0, 0)])

v = R.weight_multiplicities(C3, (2, 0, 0))
print("\nV (x) ad over sp(6) decomposes as:")
for lam, m in sorted(R.tensor_decompose(v, ad).items()):
    print(f"   {m} x V_{lam} (dim {W.weyl_dim(C3, lam)})")

print("\nduals: w1 of sl(6) ->",
      W.dual_weight(RootSystem("A", 5), (2, 0, 0, 0, 0, 0)))
print("half-spin of so(10) ->", W.dual_weight(RootSystem("D", 5), (1,) * 5))

print("\ninvariant-form indicators (+1 symmetric / -1 skew / 0 none):")
for label, sys, lam in [
        ("sp(6) standard", C3, (2, 0, 0)),
        ("so(9) spinor", RootSystem("B", 4), (1, 1, 1, 1)),
        ("so(12) half-spin", D6, (1,) * 6),
        ("sl(6) standard", RootSystem("A", 5), (2, 0, 0, 0, 0, 0))]:
    print(f"   {label}: {W.fs_indicator(sys, lam)}")

print("\ngrading eigenvalues of the so(12) standard module against e1:",
      sorted(R.eigenvalue_set(R.weight_multiplicities(D6, (2, 0, 0, 0, 0, 0)),
                              (2, 0, 0, 0, 0, 0))))
print("... and of a half-spin module:",
      sorted(R.eigenvalue_set(R.weight_multiplicities(D6, (1,) * 6),
                              (2, 0, 0, 0, 0, 0))))
