import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (RefSpanSolver, direct_sum, random_commutative_table,
                     random_rational, ref_mul, ref_nullspace, ref_rref,
                     ref_solve)
from smodquiver import tables as TB
from smodquiver.linalg import (Echelon, dense_vector, op_commutator, op_mul,
                               sparse_vector)
from smodquiver.reference import qvec


def _qmat(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _echelon(mat, track=False):
    ech = Echelon(track=track)
    for row in mat:
        ech.add(sparse_vector(row))
    return ech


def _assert_same(mat, query):
    """Echelon agrees with the dense reference on one matrix: the RREF rows
    and pivots, the rank, the kernel, and the coordinates of every row and
    of `query` in the generators kept."""
    cols = len(query)
    red, pivots = ref_rref(mat)
    ech = _echelon(mat)
    assert sorted(ech.rows) == pivots
    assert [dense_vector({p: 1, **ech.rows[p]}, cols) for p in pivots] \
        == red[:len(pivots)]
    assert all(not any(row) for row in red[len(pivots):])
    # with no rows every column is free; ref_nullspace needs a row to size it
    assert [dense_vector(v, cols) for v in ech.kernel(range(cols))] \
        == (ref_nullspace(mat) if mat else _qmat(
            [[int(i == j) for j in range(cols)] for i in range(cols)]))
    new, ref = Echelon(track=True), RefSpanSolver(cols)
    for row in mat:
        assert new.add(sparse_vector(row)) == ref.add(row)
    for v in mat + [query]:
        combo = new.coords(sparse_vector(v))
        assert (None if combo is None else dense_vector(combo, new.n_kept)) \
            == ref.coords(v)


def test_rref_and_rank():
    m = _qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    ech = _echelon(m)
    assert sorted(ech.rows) == [0, 1]
    assert ech.rows == {0: {2: 1}, 1: {2: 1}}
    _assert_same(m, qvec([1, 1, 2]))


def test_nullspace():
    m = _qmat([[1, 2, 3], [2, 4, 6]])
    ns = _echelon(m).kernel(range(3))
    assert len(ns) == 2
    for v in ns:
        assert all(sum(c * v.get(j, 0) for j, c in enumerate(row)) == 0
                   for row in m)
    _assert_same(m, qvec([0, 3, -2]))


def test_echelon_coords():
    s = Echelon(track=True)
    assert s.add({0: 1, 2: 1})
    assert s.add({1: 1, 2: 1})
    assert not s.add({0: 1, 1: 1, 2: 2})
    assert s.coords({0: 2, 1: 3, 2: 5}) == {0: 2, 1: 3}
    assert s.coords({2: 1}) is None
    _assert_same(_qmat([[1, 0, 1], [0, 1, 1], [1, 1, 2]]), qvec([2, 3, 5]))


def test_op_mul():
    a = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}
    b = {(0, 1): 1, (1, 0): 1}
    assert op_mul(a, b) == {(0, 0): 2, (0, 1): 1, (1, 0): 4, (1, 1): 3}
    assert op_commutator(a, b) == {(0, 0): -1, (0, 1): -3, (1, 0): 3, (1, 1): 1}
    assert op_commutator(a, a) == {}


def _random_vector(rng, n, density):
    return [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            if rng.random() < density else Fraction(0) for _ in range(n)]


def test_kernel_matches_dense_reference_seeded():
    rng = random.Random(20251018)
    shapes = [(0, 0), (0, 3), (1, 0), (3, 0), (1, 1), (1, 7), (7, 1), (4, 4),
              (6, 9), (9, 6), (10, 12), (12, 10)]
    for rows, cols in shapes:
        for density in (0.0, 0.05, 0.2, 0.5, 1.0):
            for _ in range(3):
                mat = [_random_vector(rng, cols, density) for _ in range(rows)]
                _assert_same(mat, _random_vector(rng, cols, density))
    # later rows are combinations of earlier ones, so spans stop growing
    base = [_random_vector(rng, 10, 0.3) for _ in range(5)]
    mixed = base + [[a + 2 * b for a, b in zip(base[0], base[3])],
                    [a - b for a, b in zip(base[1], base[4])]]
    _assert_same(mixed, [a - 3 * b for a, b in zip(base[2], base[0])])
    # the augmented systems [A | b] of a solvable and an inconsistent system
    _assert_same(_qmat([[2, 0, 4], [0, 3, 9]]), qvec([1, 1, 5]))
    _assert_same(_qmat([[1, 1, 1], [1, 1, 2]]), qvec([0, 0, 1]))


@st.composite
def _systems(draw):
    """Sparse rational matrices with a query vector (mat, query), empty and
    all-zero included."""
    nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                        st.integers(1, 4))

    def vector(n):
        out = [Fraction(0)] * n
        for j in sorted(draw(st.sets(st.integers(0, max(n - 1, 0)),
                                     max_size=n))):
            out[j] = draw(nonzero)
        return out

    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    return [vector(cols) for _ in range(rows)], vector(cols)


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_kernel_matches_dense_reference_property(system):
    _assert_same(*system)


# -- exactness on int input ----------------------------------------------------


def _exact(vec):
    return all(type(x) in (int, Fraction) for x in vec.values())


def test_echelon_stays_exact_on_int_pivots():
    # pivots 2 and -3: int / int would be a float, so these go through Fraction
    vectors = [{0: 2, 1: 1, 3: 4}, {1: -3, 2: 1}, {0: 4, 1: -1, 2: 1, 3: 8}]
    ech, ref = Echelon(track=True), Echelon(track=True)
    for v in vectors:
        assert ech.add(v) == ref.add({j: Fraction(x) for j, x in v.items()})
    assert sorted(ech.rows) == [0, 1]
    assert ech.rows == ref.rows == {0: {2: Fraction(1, 6), 3: 2},
                                    1: {2: Fraction(-1, 3)}}
    assert all(type(x) is Fraction for row in ech.rows.values()
               for x in row.values())
    assert all(_exact(e) for e in ech.exprs.values())
    assert ech.coords({0: 2, 1: -2, 2: 1, 3: 4}) == {0: 1, 1: 1}
    assert ech.coords({0: 1}) is None
    kernel = ech.kernel(range(4))
    assert kernel == ref.kernel(range(4)) == [
        {2: 1, 0: Fraction(-1, 6), 1: Fraction(1, 3)}, {3: 1, 0: -2}]
    assert all(_exact(v) for v in kernel)
    for v in kernel:   # exactly zero on every input row
        for row in vectors:
            assert sum(x * v.get(j, 0) for j, x in row.items()) == 0


def test_echelon_unit_int_pivot_keeps_the_row_integral():
    ech = Echelon(track=True)
    assert ech.add({0: -1, 1: 3, 2: -2})
    assert ech.add({1: 1, 2: 5})
    assert ech.rows == {0: {2: 17}, 1: {2: 5}}
    assert all(type(x) is int for row in ech.rows.values()
               for x in row.values())
    assert all(type(x) is int for e in ech.exprs.values() for x in e.values())
    assert ech.coords({0: 1, 1: -2, 2: 7}) == {0: -1, 1: 1}


# -- the table level: L_i, the product and the unit against dense routines -----


def _unit_system(sc):
    """u * e_i = e_i for every i, as dense rows over u and right-hand sides."""
    n = sc.dim
    rows = [[sc.c[j][i][k] for j in range(n)] for i in range(n) for k in range(n)]
    rhs = [Fraction(int(k == i)) for i in range(n) for k in range(n)]
    return rows, rhs


def _adjoin_unit(t):
    """The table t with a unit e_0 adjoined: e_0 e_i = e_i."""
    n = len(t) + 1

    def product(i, j):
        if i == 0 or j == 0:
            return [Fraction(int(k == i + j)) for k in range(n)]
        return [Fraction(0)] + list(t[i - 1][j - 1])

    return [[product(i, j) for j in range(n)] for i in range(n)]


def _seeded_tables():
    rng = random.Random(7)
    tables = [[[[1]]], [[[0]]], direct_sum([[[1]]], [[[1]]])]
    for n in (1, 2, 3):
        for density in (0.1, 0.4, 1.0):
            tables += [random_commutative_table(rng, n, density),
                       random_commutative_table(rng, n + 1, density)]
            unital = _adjoin_unit(random_commutative_table(rng, n, density))
            tables += [unital, direct_sum(unital, [[[1]]])]
    return [TB.StructureConstants(t) for t in tables]


def test_operators_and_product_match_dense_products():
    rng = random.Random(8)
    for sc in _seeded_tables():
        n = sc.dim
        for i in range(n):
            # column j of L_i is e_i * e_j, integral entries as int
            basis_i = [Fraction(int(t == i)) for t in range(n)]
            cols = [ref_mul(sc.c, basis_i, [Fraction(int(t == j)) for t in range(n)])
                    for j in range(n)]
            assert sc.ops[i] == {(k, j): col[k] for j, col in enumerate(cols)
                                 for k in range(n) if col[k]}
            assert all(type(x) is int for x in sc.ops[i].values()
                       if x.denominator == 1)
        for _ in range(3):
            x, y = ([random_rational(rng) if rng.random() < 0.6 else Fraction(0)
                     for _ in range(n)] for _ in range(2))
            assert sc.mul(x, y) == ref_mul(sc.c, x, y)


def test_find_unit_matches_dense_solve():
    units = []
    for sc in _seeded_tables():
        unit = TB.find_unit(sc)
        assert unit == ref_solve(*_unit_system(sc))
        units.append(unit)
    assert any(u is None for u in units)
    assert sum(u is not None for u in units) >= 20
