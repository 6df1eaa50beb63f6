"""Relation intake against the reference route in `helpers`.

`PresentedAlgebra.__init__` takes a quadratic relation with one term on a
direct route and stores it as its pair; `helpers.RefIntakeAlgebra` sends
every relation through the one general loop, so a monomial becomes a spread
whose degree-2 row has one entry.  Both must give the same relations record,
Hilbert series, certificate, dimensions between vertices and products up to
degree 3, and raise the same exception with the same message.
"""

import random
from fractions import Fraction

import pytest

from helpers import (TEMPLATES, RefIntakeAlgebra, bench_module,
                     template_algebra)
from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R

# a: 0 -> 1 and b: 1 -> 2, so (1, 0), b after a, is the one composable pair
_AB = ([0, 1, 2], [(0, 0, 1), (1, 1, 2)])


def _state(alg):
    """What the intake decides; the relations by repr, so that an `int`
    and a `Fraction` coefficient differ."""
    top = min(alg.top_degree, 3)
    products = {(d1, i, d2, j): alg.mul(d1, i, d2, j)
                for d1 in range(top + 1) for d2 in range(top + 1 - d1)
                for i in range(alg.dims(d1)) for j in range(alg.dims(d2))}
    return (repr(alg.relations), alg.hilbert(), alg.pbw,
            [alg.dims_by_pair(d) for d in range(alg.top_degree + 1)],
            products)


def _assert_same(vertices, arrows, relations, deg_cap=8):
    alg = P.PresentedAlgebra(vertices, arrows, relations, deg_cap)
    assert _state(alg) == _state(RefIntakeAlgebra(vertices, arrows, relations,
                                                  deg_cap))
    return alg


def _error(cls, relations):
    with pytest.raises(Exception) as info:
        cls(*_AB, relations)
    return type(info.value), str(info.value)


def test_corpus_algebras_match_the_reference():
    """The criterion-8 corpus specs whose singular W dimensions are <= 2;
    every monomial of theirs takes the direct route."""
    corpus = bench_module("corpus")
    specs = corpus.generate(lambda d: J.validate_spec(J.spec_from_dict(d)).ok)
    compared = monomials = 0
    for data in specs:
        rep = Q.assemble(J.spec_from_dict(data))
        if any(g.w_dim > 2 for g in rep.groups if g.singular):
            continue
        alg = _assert_same([v.vid for v in rep.quiver.vertices],
                           [(t.tid, t.src, t.dst) for t in rep.quiver.thin],
                           rep.relations)
        compared += 1
        monomials += len(alg._monomials)
    assert (compared, monomials) == (176, 4171)


@pytest.mark.parametrize("scale", [1, 3, Fraction(1, 2)])
@pytest.mark.parametrize("kind,dims", TEMPLATES + [("lam", (3,))])
def test_templates_match_the_reference(kind, dims, scale):
    alg = (R.ext_algebra(dims[0]) if kind == "lam"
           else template_algebra(kind, dims))
    _assert_same(alg.vertices, alg.arrows,
                 [[(c * scale, p) for c, p in terms] for terms in alg.relations])


def test_random_algebras_match_the_reference():
    """One vertex, two loops, relations of one to three terms of length 2
    or 3, coefficients 0 included: one-term relations of either length and
    coefficient meet the multi-term ones.  Where extraction does not end
    below the cap, both routes must say so."""
    rng = random.Random(23)
    compared = 0
    for _ in range(150):
        rels = []
        for _ in range(rng.randint(3, 6)):
            length = rng.choice((2, 2, 3))
            paths = {tuple(rng.randrange(2) for _ in range(length))
                     for _ in range(rng.choice((1, 1, 2, 3)))}
            rels.append([(rng.choice([0, -1, 1, 2, Fraction(1, 2)]), p)
                         for p in paths])
        try:
            _assert_same([0], [(0, 0, 0), (1, 0, 0)], rels, deg_cap=6)
        except P.NonTerminating:
            with pytest.raises(P.NonTerminating):
                RefIntakeAlgebra([0], [(0, 0, 0), (1, 0, 0)], rels, 6)
            continue
        compared += 1
    assert compared >= 50


@pytest.mark.parametrize("relation,error,message", [
    ([(1, (9, 0))], P.PresentationError, "path (9, 0) names an unknown arrow 9"),
    ([(1, (1, 9))], P.PresentationError, "path (1, 9) names an unknown arrow 9"),
    ([(1, (0, 1))], P.PresentationError, "non-composable path (0, 1)"),
    ([(1, (0,))], P.PresentationError, "relations start at path length 2"),
    ([(1, ([1], 0))], TypeError, "unhashable type: 'list'"),
    ([(1, (1, 0), 2)], ValueError, "too many values to unpack (expected 2)"),
    ([("x", (1, 0))], ValueError, "Invalid literal for Fraction: 'x'"),
], ids=["unknown-outer", "unknown-inner", "non-composable", "short",
        "unhashable", "long-term", "bad-coef"])
def test_one_term_faults_raise_as_the_reference(relation, error, message):
    got = _error(P.PresentedAlgebra, [relation])
    assert got == _error(RefIntakeAlgebra, [relation])
    assert got == (error, message)


def test_zero_coefficient_kills_nothing():
    alg = _assert_same(*_AB, [[(0, (1, 0))]])
    assert alg.relations == [((0, (1, 0)),)]
    assert alg.hilbert() == P.PresentedAlgebra(*_AB, []).hilbert() == (3, 2, 1)


def test_generator_relations_and_paths_match_the_reference():
    def lazy():
        return (((c, iter(p)) for c, p in terms)
                for terms in [[(1, (1, 0))], [(2, (1, 0))]])

    listed = _state(P.PresentedAlgebra(*_AB, [[(1, (1, 0))], [(2, (1, 0))]]))
    assert _state(P.PresentedAlgebra(*_AB, lazy())) == listed
    assert _state(RefIntakeAlgebra(*_AB, lazy())) == listed
