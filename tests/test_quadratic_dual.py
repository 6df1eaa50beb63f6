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

from fractions import Fraction

import pytest

from helpers import lam, template_algebra
from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver.linalg import Echelon

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
    return lam(dims[0]) if kind == "lam" else template_algebra(kind, dims)


def _assembled(name):
    rep = Q.assemble(J.spec_from_dict(ASSEMBLED[name]))
    return P.from_presentation(rep.quiver, rep.relations)


def _paths(arrows, length):
    """Composable arrow tuples of the given length, outermost first;
    `arrows` maps arrow id -> (src, dst)."""
    out = [()]
    for _ in range(length):
        out = [(aid,) + p for p in out for aid, (src, _) in arrows.items()
               if not p or src == arrows[p[0]][1]]
    return out


def truncated_dims(vertices, arrows, relations, cap):
    """dims[d][(src, dst)] of T(V)/(R) for d <= cap, by ideal ranks."""
    arrows = {aid: (src, dst) for aid, src, dst in arrows}
    dims = [{(v, v): 1 for v in vertices}]
    for d in range(1, cap + 1):
        paths = _paths(arrows, d)
        ends = {p: (arrows[p[-1]][0], arrows[p[0]][1]) for p in paths}
        index = {p: i for i, p in enumerate(paths)}
        spans = {}
        for i in range(d - 1):
            for outer in _paths(arrows, i):
                for inner in _paths(arrows, d - 2 - i):
                    for terms in relations:
                        row = {}
                        for c, mid in terms:
                            p = outer + tuple(mid) + inner
                            if p in index:
                                row[index[p]] = row.get(index[p], 0) + c
                        row = {k: Fraction(c) for k, c in row.items() if c}
                        if row:
                            pair = ends[paths[next(iter(row))]]
                            spans.setdefault(pair, Echelon()).add(row)
        counts = {}
        for p in paths:
            counts[ends[p]] = counts.get(ends[p], 0) + 1
        for pair, ech in spans.items():
            counts[pair] -= len(ech.rows)
        dims.append({pair: n for pair, n in counts.items() if n})
    return dims


def quadratic_dual(alg):
    """(vertices, arrows, relations) of A^!: arrow a becomes a*: dst -> src,
    and the length-2 path (f, g) pairs with (g*, f*)."""
    arrows = [(("*", aid), dst, src) for aid, src, dst in alg.arrows]
    src = {aid: s for aid, s, _ in alg.arrows}
    dst = {aid: t for aid, _, t in alg.arrows}
    by_pair = {}
    for f, _, _ in alg.arrows:
        for g, _, _ in alg.arrows:
            if src[f] == dst[g]:
                by_pair.setdefault((src[g], dst[f]), []).append((f, g))
    relations = []
    for pair, basis in sorted(by_pair.items(), key=repr):
        index = {fg: j for j, fg in enumerate(basis)}
        ech = Echelon()
        for terms in alg.relations:
            row = {index[p]: c for c, p in terms if p in index}
            if row:
                ech.add(row)
        for v in ech.kernel(range(len(basis))):
            relations.append(tuple(
                (c, (("*", basis[j][1]), ("*", basis[j][0])))
                for j, c in sorted(v.items())))
    return alg.vertices, arrows, relations


@pytest.mark.parametrize("kind,dims", CERTIFIED)
def test_hilbert_series_of_quadratic_dual(kind, dims):
    alg = _algebra(kind, dims)
    assert P.koszul_check(alg, hom_cap=HOM_CAP)[0]
    h_a = [alg.dims_by_pair(d) for d in range(HOM_CAP + 1)]
    h_dual = truncated_dims(*quadratic_dual(alg), HOM_CAP)
    verts = alg.vertices
    for d in range(HOM_CAP + 1):
        for x in verts:
            for z in verts:
                # (H_A(t) . H_{A^!}(-t)^T)[x][z] at t^d
                coef = sum((-1) ** j * h_a[d - j].get((x, y), 0)
                           * h_dual[j].get((z, y), 0)
                           for j in range(d + 1) for y in verts)
                assert coef == (1 if d == 0 and x == z else 0), (d, x, z)


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
        res = P.minimal_resolution(alg, v, HOM_CAP)
        assert res.is_linear(), v
        for i in range(HOM_CAP + 1):
            want = {w: h_dual[i].get((w, v), 0) for w in alg.vertices}
            assert res.betti.get((i, i), {}) == {
                w: n for w, n in want.items() if n}, (v, i)
