"""Basis extraction against the reference route in `helpers`.

`PresentedAlgebra` reads each relation spread off its stored classes and
sets the pairs that single-term rows kill aside before the elimination;
`helpers.RefPresentedAlgebra` spreads through `mul` and eliminates every
row.  The RREF of the spreads is unique, so the bases, the classes of every
spanning pair, S and the dimensions must agree exactly.

A quadratic algebra with no normal word of length d >= 3 is 0 in degree d
and skips its elimination; the reference eliminates every degree, so each
comparison checks the skip too.
"""

import random
from fractions import Fraction

import pytest

from helpers import (TEMPLATES, RefPresentedAlgebra, bench_module,
                     change_arrow_basis, template_algebra)
from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R


def _state(cls, vertices, arrows, relations, deg_cap):
    """Everything extraction decides, every deferred degree built first, or
    the NonTerminating message."""
    try:
        alg = cls(vertices, arrows, relations, deg_cap)
    except P.NonTerminating as exc:
        return str(exc)
    by_pair = [alg.dims_by_pair(d) for d in range(alg.top_degree + 1)]
    return (alg.hilbert(), by_pair, alg.pbw, alg._leading, alg._basis_pairs,
            alg._classes)


def _assert_same(vertices, arrows, relations, deg_cap=8):
    got = _state(P.PresentedAlgebra, vertices, arrows, relations, deg_cap)
    assert got == _state(RefPresentedAlgebra, vertices, arrows, relations,
                         deg_cap)
    return got


def _presentation(alg, scale=1):
    return (alg.vertices, alg.arrows,
            [[(c * scale, p) for c, p in terms] for terms in alg.relations],
            alg.deg_cap)


def test_corpus_algebras_match_the_reference():
    """The criterion-8 corpus specs whose singular W dimensions are <= 2."""
    corpus = bench_module("corpus")
    specs = corpus.generate(lambda d: J.validate_spec(J.spec_from_dict(d)).ok)
    compared = 0
    for data in specs:
        rep = Q.assemble(J.spec_from_dict(data))
        if any(g.w_dim > 2 for g in rep.groups if g.singular):
            continue
        got = _assert_same(*_presentation(P.from_presentation(rep.quiver,
                                                              rep.relations)))
        assert len(got[0]) <= 3   # A_3 = 0 on every corpus algebra
        compared += 1
    assert compared == 176


@pytest.mark.parametrize("scale", [1, 3, Fraction(1, 2)])
@pytest.mark.parametrize("kind,dims", TEMPLATES + [("lam", (3,))])
def test_templates_match_the_reference(kind, dims, scale):
    alg = (R.ext_algebra(dims[0]) if kind == "lam"
           else template_algebra(kind, dims))
    _assert_same(*_presentation(alg, scale))


@pytest.mark.parametrize("seed", range(3))
def test_clifford_odd_in_another_arrow_basis_matches_the_reference(seed):
    alg = change_arrow_basis(template_algebra("CliffordOdd", (3,)),
                             random.Random(seed))
    assert _assert_same(*_presentation(alg))[2] is None   # no certificate


def test_cubic_control_matches_the_reference():
    # arrows a: 1->2, b: 2->3, c: 3->4 with the cubic monomial c.b.a = 0
    got = _assert_same([1, 2, 3, 4], [(0, 1, 2), (1, 2, 3), (2, 3, 4)],
                       [[(1, (2, 1, 0))]])
    assert got[0] == (4, 3, 2)


def test_mixed_lengths_match_the_reference():
    """One vertex, two loops, two quadratic and two cubic relations of one
    or two terms each: the cubic rows spread through degree-2 classes."""
    rng = random.Random(11)
    compared = 0
    for _ in range(60):
        rels = []
        for length in (2, 2, 3, 3):
            terms = {tuple(rng.randrange(2) for _ in range(length)):
                     rng.choice([-1, 1, 2]) for _ in range(rng.randint(1, 2))}
            rels.append([(c, p) for p, c in terms.items()])
        got = _assert_same([0], [(0, 0, 0), (1, 0, 0)], rels, deg_cap=6)
        compared += not isinstance(got, str)
    assert compared >= 20


def test_long_relations_match_the_reference():
    """A path quiver 0 -> 1 -> ... -> 6 with two parallel arrows at each
    step, so every algebra is finite, and relations of lengths 2 to 5: the
    rows of length 4 and 5 spread through tails of two and three arrows."""
    rng = random.Random(29)
    # arrows 2s and 2s + 1 run from s to s + 1
    arrows = [(2 * s + b, s, s + 1) for s in range(6) for b in range(2)]
    for _ in range(40):
        rels = []
        for length in (2, 3, 4, 4, 5):
            start = rng.randrange(7 - length)
            # a path lists its arrows outermost first
            terms = {tuple(2 * s + rng.randrange(2)
                           for s in reversed(range(start, start + length))):
                     rng.choice([-1, 1, 2]) for _ in range(rng.randint(1, 2))}
            rels.append([(c, p) for p, c in terms.items()])
        _assert_same(range(7), arrows, rels)


def test_random_algebras_match_the_reference():
    """One vertex, three loops, relations of one to three terms: single-term
    rows kill pairs that the other rows still hold."""
    rng = random.Random(17)
    pairs = [(f, g) for f in range(3) for g in range(3)]
    compared = 0
    for _ in range(200):
        rels = [[(rng.choice([-1, 1, 2, Fraction(1, 2)]), p)
                 for p in rng.sample(pairs, rng.randint(1, 3))]
                for _ in range(rng.randint(2, 7))]
        got = _assert_same([0], [(i, 0, 0) for i in range(3)], rels,
                           deg_cap=6)
        compared += not isinstance(got, str)
    assert compared >= 50


# -- degrees without normal words ------------------------------------------


@pytest.mark.parametrize("mult", range(6, 25, 6))
def test_l_tensor_v_matches_the_reference(mult, monkeypatch):
    rep = Q.assemble(J.spec_from_dict({
        "ideals": [{"kind": "field"}, {"kind": "hermitian", "comp": 1, "n": 3}],
        "radical": [{"kind": "tensor", "a": {"ideal": 0, "label": "L"},
                     "b": {"ideal": 1, "label": "V"}, "mult": mult}],
        "unital": True}))
    eliminated = []
    real = P.PresentedAlgebra._relation_rows

    def recording(self, d):
        eliminated.append(d)
        return real(self, d)

    monkeypatch.setattr(P.PresentedAlgebra, "_relation_rows", recording)
    alg = P.from_presentation(rep.quiver, rep.relations)
    # degree 3 has no normal word, so it is not eliminated
    assert eliminated == [2]
    assert alg.hilbert() == (2, 2 * mult, mult * (mult + 1) // 2)
    _assert_same(*_presentation(alg))

