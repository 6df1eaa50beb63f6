"""The sparse explicit TKK layer against the dense reference in helpers.

The construction must give the same dims, brackets and triple, and the
identity, Jacobi and minimality checks the same verdicts, on the tables the
paper's oracle uses and on seeded perturbations of them (mostly not Jordan,
so the checks' failing branches are compared too)."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (direct_sum, jordan_in_random_basis, matrix_plus,
                     ref_check_jacobi, ref_check_jordan_identity,
                     ref_minimality_check, ref_tkk_construct, spin_factor)
from smodquiver import reference as R
from smodquiver import tables as TB
from smodquiver import tkk as T

TABLES = {
    "field": [[[1]]],
    "k+k": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "sym2+": [[[2, 0, 0], [0, 0, 0], [0, 0, 1]],
              [[0, 0, 0], [0, 2, 0], [0, 0, 1]],
              [[0, 0, 1], [0, 0, 1], [2, 2, 0]]],
    "m2+": R.plus_product(R.matrix_algebra_table(2)).c,
    "m3+": R.plus_product(R.matrix_algebra_table(3)).c,
    **{f"spin{n}": spin_factor(n) for n in range(3, 9)},
    "m2+ + spin5": direct_sum(matrix_plus(2), spin_factor(5)),
}


def _outcome(construct, sc):
    try:
        g = construct(sc)
    except (T.JacobiFails, T.NotUnital, ValueError) as exc:
        return type(exc), None
    return None, g


@pytest.mark.parametrize("name", sorted(TABLES))
def test_construction_matches_dense_reference(name):
    g = T.tkk_construct(TB.StructureConstants(TABLES[name]))
    ref = ref_tkk_construct(TB.StructureConstants(TABLES[name]))
    assert g.dims == ref.dims
    assert g.bracket == ref.bracket
    assert g.triple == ref.triple
    assert T.minimality_check(g) is ref_minimality_check(ref) is True
    assert g.check_jacobi() is ref_check_jacobi(ref) is True


def _perturbed(table, rng):
    """table with one symmetric pair of entries moved by a nonzero rational."""
    n = len(table)
    t = [[list(v) for v in row] for row in table]
    i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
    delta = rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)])
    t[i][j][k] += delta
    if i != j:
        t[j][i][k] += delta
    return t


@pytest.mark.parametrize("name", sorted(TABLES))
def test_identity_verdicts_on_perturbed_tables(name):
    rng = random.Random(f"perturb {name}")
    verdicts = []
    for _ in range(4):
        table = _perturbed(TABLES[name], rng)
        ok = TB.check_jordan_identity(TB.StructureConstants(table))
        assert ok == ref_check_jordan_identity(TB.StructureConstants(table))
        verdicts.append(ok)
        if ok and len(table) <= 5:
            exc, g = _outcome(T.tkk_construct, TB.StructureConstants(table))
            ref_exc, ref = _outcome(ref_tkk_construct, TB.StructureConstants(table))
            assert exc == ref_exc
            if g is not None:
                assert (g.dims, g.bracket, g.triple) == \
                    (ref.dims, ref.bracket, ref.triple)
    if len(TABLES[name]) > 2:
        assert not all(verdicts)


def test_identity_verdict_is_kept_on_the_instance(monkeypatch):
    sc = TB.StructureConstants(spin_factor(4))
    assert TB.check_jordan_identity(sc)
    monkeypatch.setattr(TB, "_jordan_identity", None)  # a second run would fail
    assert TB.check_jordan_identity(sc)
    assert T.tkk_construct(sc).dims == (4, 7, 4)


@pytest.mark.parametrize("name", ["field", "sym2+", "m2+", "spin4", "spin5"])
def test_jacobi_and_minimality_verdicts_on_perturbed_brackets(name):
    g = T.tkk_construct(TB.StructureConstants(TABLES[name]))
    rng = random.Random(f"bracket {name}")
    keys = sorted(g.bracket)
    for _ in range(6):
        bracket = {key: dict(vec) for key, vec in g.bracket.items()}
        key = rng.choice(keys)
        if rng.random() < 0.3:
            del bracket[key]
        else:
            k = rng.randrange(g.total_dim)
            vec = bracket[key]
            vec[k] = vec.get(k, Fraction(0)) + rng.choice([1, -1, 2])
        h = T.ShortGradedLie(g.dims, bracket, g.triple)
        assert h.check_jacobi() == ref_check_jacobi(h)
        assert T.minimality_check(h) == ref_minimality_check(h)


# -- the integer kernels against the dense references --------------------------
#
# The identity check scales the table, and the Jacobi check the brackets, by
# the lcm of their denominators and works over int.  Rescaling a basis vector
# by a rational keeps either identity true and brings in mixed denominators;
# moving one structure constant mostly breaks it.

_NONZERO = [Fraction(x) for x in ("1", "-1", "2", "-3", "1/2", "-2/3", "3/4",
                                   "5/6", "-7/5")]
_SMALL = [TABLES[name] for name in ("field", "k+k", "sym2+", "m2+", "spin3",
                                    "spin4")]
_SMALL += [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]],
           direct_sum([[[1]]], spin_factor(3))]


def _rebased(table, d):
    """The algebra on the basis f_i = d_i e_i.

    f_i f_j is the sum over k of (d_i d_j / d_k) c_ijk f_k."""
    n = len(table)
    return [[[d[i] * d[j] / d[k] * Fraction(table[i][j][k]) for k in range(n)]
             for j in range(n)] for i in range(n)]


def _assert_identity_verdicts_agree(table):
    ok = TB.check_jordan_identity(TB.StructureConstants(table))
    assert ok == ref_check_jordan_identity(TB.StructureConstants(table))
    return ok


def _rebased_and_perturbed(rng):
    """A small Jordan table on a rescaled basis, moved at up to two entries."""
    table = rng.choice(_SMALL)
    table = _rebased(table, [rng.choice(_NONZERO) for _ in table])
    for _ in range(rng.choice([0, 0, 1, 2])):
        table = _perturbed(table, rng)
    return table


def test_integral_identity_check_matches_reference_seeded():
    rng = random.Random("integral identity")
    verdicts = set()
    for _ in range(60):
        verdicts.add(_assert_identity_verdicts_agree(_rebased_and_perturbed(rng)))
    for _ in range(40):   # random commutative tables: almost all fail
        n = rng.randint(1, 4)
        table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                for k in range(n):
                    if rng.random() < 0.4:
                        table[i][j][k] = table[j][i][k] = rng.choice(_NONZERO)
        verdicts.add(_assert_identity_verdicts_agree(table))
    assert verdicts == {True, False}


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_integral_identity_check_matches_reference_property(rng):
    _assert_identity_verdicts_agree(_rebased_and_perturbed(rng))


def _rescaled_bracket(g, d):
    """g's brackets on the basis f_i = d_i e_i; still a Lie algebra."""
    return {(i, j): {k: d[i] * d[j] / d[k] * c for k, c in vec.items()}
            for (i, j), vec in g.bracket.items()}


def _perturbed_bracket(g, rng):
    """g on a rescaled basis, then with one bracket moved or dropped."""
    bracket = _rescaled_bracket(g, [rng.choice(_NONZERO)
                                    for _ in range(g.total_dim)])
    kind = rng.choice(["rescaled", "moved", "moved", "dropped"])
    key = rng.choice(sorted(bracket))
    if kind == "dropped":
        del bracket[key]
    elif kind == "moved":
        k = rng.randrange(g.total_dim)
        bracket[key][k] = bracket[key].get(k, 0) + rng.choice(_NONZERO)
    return T.ShortGradedLie(g.dims, bracket, g.triple)


@pytest.mark.parametrize("table", [
    spin_factor(8), matrix_plus(3), direct_sum(matrix_plus(2), spin_factor(5))],
    ids=["spin8", "m3-plus", "m2-plus+spin5"])
def test_scatter_jacobi_matches_reference_seeded(table):
    g = T.tkk_construct(TB.StructureConstants(table))
    rng = random.Random(f"scatter jacobi {len(table)} {g.dims}")
    verdicts = set()
    for _ in range(12):
        h = _perturbed_bracket(g, rng)
        ok = h.check_jacobi()
        assert ok == ref_check_jacobi(h)
        verdicts.add(ok)
    assert verdicts == {True, False}


@functools.lru_cache(maxsize=None)
def _small_lie(name):
    return T.tkk_construct(TB.StructureConstants(TABLES[name]))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["field", "k+k", "sym2+", "m2+", "spin4"]),
       st.randoms(use_true_random=False))
def test_scatter_jacobi_matches_reference_property(name, rng):
    h = _perturbed_bracket(_small_lie(name), rng)
    assert h.check_jacobi() == ref_check_jacobi(h)


# -- Jordan tables in a random basis --------------------------------------------
#
# An integer change of basis keeps a table Jordan and unital, but its entries
# become dense Fractions and its unit is no basis vector, so T e is no basis
# vector either and the -2(Te)v term of [T, B_v] = B_{Tv - 2(Te)v} is
# exercised on every degree-0 basis element.  The dense reference takes 1 to
# 5 s on one such table of dimension 5 or 6, so it is compared up to
# dimension 4; above that the construction's own checks (grading, triple and
# Jacobi, run inside it), minimality and the round trip stand alone.


@settings(max_examples=15, deadline=None)
@given(jordan_in_random_basis(max_dim=4))
def test_construction_in_a_random_basis_matches_dense_reference(table):
    sc = TB.StructureConstants(table)
    g = T.tkk_construct(sc)
    ref = ref_tkk_construct(TB.StructureConstants(table))
    assert (g.dims, g.bracket, g.triple) == (ref.dims, ref.bracket, ref.triple)
    assert T.minimality_check(g)
    assert T.jordan_from_short_pair(g) == sc


@settings(max_examples=4, deadline=None)
@given(jordan_in_random_basis(min_dim=5))
def test_construction_in_a_random_basis_checks_itself_at_dims_5_and_6(table):
    sc = TB.StructureConstants(table)
    g = T.tkk_construct(sc)
    assert g.dims[0] == g.dims[2] == len(table)
    assert T.minimality_check(g)
    assert T.jordan_from_short_pair(g) == sc
