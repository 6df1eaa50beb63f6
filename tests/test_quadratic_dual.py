"""Numerical Koszulity of the certified algebras through their quadratic duals.

For a quadratic algebra A = T(V)/(R) on a quiver, the quadratic dual A^! is
T(V*)/(R^perp): the arrows reversed, and in each vertex pair the relations
orthogonal to R in the dual basis of length-2 paths.  When A is Koszul, the
matrix Hilbert series satisfy H_A(t) . H_{A^!}(-t)^T = I
(Beilinson-Ginzburg-Soergel 1996, section 2; Polishchuk-Positselski,
Quadratic Algebras, ch. 2).  A^! is often infinite dimensional, so its
dimensions are computed degree by degree up to the homological cap as
paths modulo the two-sided ideal, and the identity is checked up to there.

The same dimensions predict the Betti numbers of a Koszul algebra: the
linear resolution of the simple at v has b_{i,i}(w) equal to the number
of length-i paths of A^! from w to v, `truncated_dims(...)[i][(w, v)]`
(BGS 1996, Thm 2.6.1).
"""

import pytest

from helpers import (assert_dual_hilbert_identity, quadratic_dual,
                     template_algebra, truncated_dims)
from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R

HOM_CAP = 5

# the algebras acceptance criterion 7 certifies as linear up to HOM_CAP
CERTIFIED = ([("A1_SegreSym", (k,)) for k in (1, 2, 3)]
             + [("A1_SegreAlt", (k,)) for k in (1, 2, 3)]
             + [("A2_Segre", (1, 1)), ("A2_Segre", (2, 1)),
                ("CliffordEven", (2,))]
             + [("lam", (k,)) for k in (1, 2, 3)])


_F = {"kind": "field"}


def _tensor(la, lb, mult):
    return {"kind": "tensor", "a": {"ideal": 0, "label": la},
            "b": {"ideal": 1, "label": lb}, "mult": mult}


# assembled specs: field + ad x 6, and the a2-segre dual pair block
ASSEMBLED = {
    "ad6": {"ideals": [_F], "radical": [
        {"kind": "unital", "ideal": 0, "label": "ad", "mult": 6}]},
    "a2-segre": {"ideals": [_F, {"kind": "hermitian", "comp": 2, "n": 3}],
                 "radical": [_tensor("L", "V", 2), _tensor("L", "V*", 2)]},
}


def _algebra(kind, dims):
    return (R.ext_algebra(dims[0]) if kind == "lam"
            else template_algebra(kind, dims))


def _assembled(name):
    rep = Q.assemble(J.spec_from_dict(ASSEMBLED[name]))
    return P.from_presentation(rep.quiver, rep.relations)


@pytest.mark.parametrize("kind,dims", CERTIFIED)
def test_hilbert_series_of_quadratic_dual(kind, dims):
    alg = _algebra(kind, dims)
    tables = P.koszul_check(alg, hom_cap=HOM_CAP)
    assert all(r.is_linear() for r in tables.values())
    assert_dual_hilbert_identity(alg, HOM_CAP)


def test_truncated_dims_agree_with_basis_extraction():
    """The ideal-rank route gives the presented algebra's own dimensions."""
    for kind, dims in CERTIFIED:
        alg = _algebra(kind, dims)
        got = truncated_dims(alg.vertices, alg.arrows, alg.relations, HOM_CAP)
        assert got == [alg.dims_by_pair(d) for d in range(HOM_CAP + 1)]


@pytest.mark.parametrize(
    "alg", [pytest.param((kind, dims), id=f"{kind}{dims}")
            for kind, dims in CERTIFIED]
    + [pytest.param(name, id=name) for name in sorted(ASSEMBLED)])
def test_betti_numbers_of_quadratic_dual(alg):
    """The minimal resolution's linear Betti numbers are the dimensions of
    the quadratic dual, computed without resolving anything."""
    alg = _assembled(alg) if isinstance(alg, str) else _algebra(*alg)
    h_dual = truncated_dims(*quadratic_dual(alg), HOM_CAP)
    for v in alg.vertices:
        res = R.minimal_resolution(alg, v, HOM_CAP)
        assert res.is_linear(), v
        for i in range(HOM_CAP + 1):
            want = {w: h_dual[i].get((w, v), 0) for w in alg.vertices}
            assert res.betti.get((i, i), {}) == {
                w: n for w, n in want.items() if n}, (v, i)
