"""The sparse explicit TKK layer against the dense reference in helpers.

The construction must give the same dims, brackets and triple, and the
identity, Jacobi and minimality checks the same verdicts, on the tables the
paper's oracle uses and on seeded perturbations of them (mostly not Jordan,
so the checks' failing branches are compared too)."""

import random
from fractions import Fraction

import pytest

from helpers import (direct_sum, matrix_plus, ref_check_jacobi,
                     ref_check_jordan_identity, ref_minimality_check,
                     ref_tkk_construct, spin_factor)
from smodquiver import jordan as J
from smodquiver import tkk as T

TABLES = {
    "field": [[[1]]],
    "k+k": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "sym2+": [[[2, 0, 0], [0, 0, 0], [0, 0, 1]],
              [[0, 0, 0], [0, 2, 0], [0, 0, 1]],
              [[0, 0, 1], [0, 0, 1], [2, 2, 0]]],
    "m2+": J.plus_product(J.matrix_algebra_table(2)).c,
    "m3+": J.plus_product(J.matrix_algebra_table(3)).c,
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
    g = T.tkk_construct(J.StructureConstants(TABLES[name]))
    ref = ref_tkk_construct(J.StructureConstants(TABLES[name]))
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
        ok = J.check_jordan_identity(J.StructureConstants(table))
        assert ok == ref_check_jordan_identity(J.StructureConstants(table))
        verdicts.append(ok)
        if ok and len(table) <= 5:
            exc, g = _outcome(T.tkk_construct, J.StructureConstants(table))
            ref_exc, ref = _outcome(ref_tkk_construct, J.StructureConstants(table))
            assert exc == ref_exc
            if g is not None:
                assert (g.dims, g.bracket, g.triple) == \
                    (ref.dims, ref.bracket, ref.triple)
    if len(TABLES[name]) > 2:
        assert not all(verdicts)


def test_identity_verdict_is_kept_on_the_instance(monkeypatch):
    sc = J.StructureConstants(spin_factor(4))
    assert J.check_jordan_identity(sc)
    monkeypatch.setattr(J, "_jordan_identity", None)  # a second run would fail
    assert J.check_jordan_identity(sc)
    assert T.tkk_construct(sc).dims == (4, 7, 4)


@pytest.mark.parametrize("name", ["field", "sym2+", "m2+", "spin4", "spin5"])
def test_jacobi_and_minimality_verdicts_on_perturbed_brackets(name):
    g = T.tkk_construct(J.StructureConstants(TABLES[name]))
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
