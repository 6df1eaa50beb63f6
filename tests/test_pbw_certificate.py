"""The PBW certificate of `pathalg` against the routes it replaces.

`koszul_check` counts the Betti tables of an algebra whose relations are a
quadratic Groebner basis and raises `NoCertificate` on every other one;
`reference.minimal_resolution` is the reference for the tables, and it
resolves the algebras without the certificate.  A PBW algebra is
extracted only up to degree 3 and its higher dimensions are counted; the
reference for those is the full extraction, with the certificate switched
off.
"""

import random
from fractions import Fraction

import pytest

from helpers import bench_module, change_arrow_basis, template_algebra
from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R

HOM_CAP = 4
ONE = Fraction(1)

# the template algebras of test_quadratic_dual.py, CliffordOdd, and
# CliffordEven(3) and (4): two vertices and degree 3 nonzero
TEMPLATES = ([("A1_SegreSym", (k,)) for k in (1, 2, 3)]
             + [("A1_SegreAlt", (k,)) for k in (1, 2, 3)]
             + [("A2_Segre", (1, 1)), ("A2_Segre", (2, 1))]
             + [("CliffordEven", (k,)) for k in (2, 3, 4)]
             + [("CliffordOdd", (k,)) for k in (2, 3)]
             + [("lam", (k,)) for k in (1, 2, 3)])


def _algebra(kind, dims):
    return (R.ext_algebra(dims[0]) if kind == "lam"
            else template_algebra(kind, dims))


def _cubic_control():
    # arrows a: 1->2, b: 2->3, c: 3->4 with the cubic monomial c.b.a = 0
    return P.PresentedAlgebra([1, 2, 3, 4], [(0, 1, 2), (1, 2, 3), (2, 3, 4)],
                              [[(ONE, (2, 1, 0))]])


def _resolved(alg):
    """The verdict and Betti tables of the minimal resolutions."""
    tables = {v: R.minimal_resolution(alg, v, HOM_CAP) for v in alg.vertices}
    return (all(r.is_linear() for r in tables.values()),
            {v: r.betti for v, r in tables.items()})


def _checked(alg):
    """The verdict and Betti tables counted from the certificate."""
    tables = P.koszul_check(alg, HOM_CAP)
    return (all(r.is_linear() for r in tables.values()),
            {v: r.betti for v, r in tables.items()})


@pytest.fixture
def resolutions(monkeypatch):
    """The vertices `minimal_resolution` is called on, in order."""
    calls = []
    real = R.minimal_resolution

    def recording(alg, vertex, hom_cap=5):
        calls.append(vertex)
        return real(alg, vertex, hom_cap)

    monkeypatch.setattr(R, "minimal_resolution", recording)
    return calls


def _extracted(make):
    """What `make()` gives with the certificate switched off: the hilbert
    series, the basis by degree and every product, or the NonTerminating
    message."""
    saved = P.PresentedAlgebra._certificate
    P.PresentedAlgebra._certificate = lambda self: None
    try:
        return _everything(make)
    finally:
        P.PresentedAlgebra._certificate = saved


def _everything(make):
    try:
        alg = make()
    except P.NonTerminating as exc:
        return str(exc)
    top = alg.top_degree
    return (alg.hilbert(),
            [[(alg.src(d, i), alg.dst(d, i)) for i in range(alg.dims(d))]
             for d in range(top + 1)],
            {(d1, i, d2, j): alg.mul(d1, i, d2, j)
             for d1 in range(top + 1) for d2 in range(top + 1 - d1)
             for i in range(alg.dims(d1)) for j in range(alg.dims(d2))})


# -- the certificate route against the resolutions ---------------------------


@pytest.mark.parametrize("kind,dims", TEMPLATES)
def test_templates_take_the_certificate_route(kind, dims, resolutions):
    alg = _algebra(kind, dims)
    assert alg.pbw is not None
    got = _checked(alg)
    assert resolutions == []
    assert got == _resolved(alg)
    assert got[0]


def test_corpus_takes_the_certificate_route():
    """The criterion-8 corpus specs whose singular W dimensions are <= 2."""
    corpus = bench_module("corpus")
    specs = corpus.generate(lambda d: J.validate_spec(J.spec_from_dict(d)).ok)
    compared = 0
    for data in specs:
        rep = Q.assemble(J.spec_from_dict(data))
        if any(g.w_dim > 2 for g in rep.groups if g.singular):
            continue
        alg = P.from_presentation(rep.quiver, rep.relations)
        assert alg.pbw is not None, data
        assert _checked(alg) == _resolved(alg), data
        compared += 1
    assert compared == 176


def test_certificate_is_sound_on_random_algebras():
    """Whatever passes the certificate resolves linearly, with the counted
    tables: one vertex, three loops, relations of one or two terms."""
    rng = random.Random(17)
    pairs = [(f, g) for f in range(3) for g in range(3)]
    certified = 0
    for _ in range(300):
        rels = [[(rng.choice([-1, 1, 2]), p)
                 for p in rng.sample(pairs, rng.randint(1, 2))]
                for _ in range(rng.randint(3, 7))]
        try:
            alg = P.PresentedAlgebra([0], [(i, 0, 0) for i in range(3)], rels,
                                     deg_cap=6)
        except P.NonTerminating:
            continue
        if alg.pbw is not None:
            certified += 1
            assert _checked(alg) == _resolved(alg) and _checked(alg)[0], rels
    assert certified >= 5


# -- without the certificate: koszul_check refuses, the reference resolves ---


@pytest.mark.parametrize("seed", range(3))
def test_fallback_on_clifford_odd_in_another_arrow_basis(seed, resolutions):
    base = template_algebra("CliffordOdd", (3,))
    alg = change_arrow_basis(base, random.Random(seed))
    assert alg.pbw is None
    assert alg.hilbert() == base.hilbert()
    with pytest.raises(P.NoCertificate):
        P.koszul_check(alg, HOM_CAP)
    ok, tables = _resolved(alg)
    assert resolutions == list(alg.vertices)
    # Koszul all the same, with the tables of the PBW presentation
    assert ok
    assert (ok, tables) == _checked(base)


def test_fallback_on_the_cubic_control(resolutions):
    alg = _cubic_control()
    assert alg.pbw is None
    with pytest.raises(P.NoCertificate):
        P.koszul_check(alg, HOM_CAP)
    ok, tables = _resolved(alg)
    assert resolutions == list(alg.vertices)
    assert not ok
    assert tables[1][(2, 3)] == {4: 1}


# -- dimensions counted above degree 3 ----------------------------------------


def _ad(mult, deg_cap=8):
    rep = Q.assemble(J.JordanSpec((J.Field(),), (J.Unital(0, "ad", mult),)))
    return lambda: P.from_presentation(rep.quiver, rep.relations, deg_cap)


@pytest.mark.parametrize("deg_cap", range(1, 10))
def test_counted_dimensions_match_extraction_on_ad7(deg_cap):
    # ad x 7 has hilbert (1, 7, 21, 35, 35, 21, 7, 1): the cap decides
    make = _ad(7, deg_cap)
    got = _everything(make)
    assert got == _extracted(make)
    if deg_cap >= 8:
        assert make().pbw is not None


def test_counted_dimensions_match_extraction():
    makes = [lambda: R.ext_algebra(4),
             lambda: template_algebra("CliffordOdd", (4,)),
             lambda: template_algebra("CliffordEven", (4,))]
    rng = random.Random(5)
    for _ in range(40):
        rels = [[(rng.choice([-1, 1]), (rng.randrange(2), rng.randrange(2)))
                 for _ in range(rng.randint(1, 2))]
                for _ in range(rng.randint(1, 3))]
        makes.append(lambda rels=rels: P.PresentedAlgebra(
            [0], [(0, 0, 0), (1, 0, 0)], rels, deg_cap=6))
    deferred = 0
    for make in makes:
        got = _everything(make)
        assert got == _extracted(make)
        deferred += isinstance(got, str) or len(got[0]) > 4
    assert deferred >= 10


def test_deferred_degrees_are_built_on_first_use():
    alg = _ad(7)()
    assert alg.pbw is not None
    assert alg.hilbert() == (1, 7, 21, 35, 35, 21, 7, 1)
    assert len(alg._src) == 4        # degrees 0..3 only
    alg.mul(2, 0, 3, 0)
    assert len(alg._src) == 6        # degrees 4 and 5, for the product
    alg.src(7, 0)
    assert len(alg._src) == 8
