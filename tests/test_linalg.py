import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import RefSpanSolver, ref_nullspace, ref_rref, ref_solve
from smodquiver.linalg import (Echelon, SpanSolver, mat_mul, nullspace, qmat, rank,
                               rref, solve)


def test_rref_and_rank():
    m = qmat([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2


def test_nullspace():
    m = qmat([[1, 2, 3], [2, 4, 6]])
    ns = nullspace(m)
    assert len(ns) == 2
    for v in ns:
        assert all(x == 0 for x in (sum(c * x for c, x in zip(row, v))
                                    for row in m))


def test_solve():
    m = qmat([[2, 0], [0, 3]])
    assert solve(m, [Fraction(4), Fraction(9)]) == [Fraction(2), Fraction(3)]
    assert solve(qmat([[1, 1], [1, 1]]), [Fraction(1), Fraction(2)]) is None


def test_span_solver_coords():
    s = SpanSolver(3)
    assert s.add([1, 0, 1])
    assert s.add([0, 1, 1])
    assert not s.add([1, 1, 2])
    c = s.coords([2, 3, 5])
    assert c == [Fraction(2), Fraction(3)]
    assert s.coords([0, 0, 1]) is None


def test_mat_mul():
    a = qmat([[1, 2], [3, 4]])
    b = qmat([[0, 1], [1, 0]])
    assert mat_mul(a, b) == qmat([[2, 1], [4, 3]])


# -- the sparse kernel against the dense reference in helpers ----------------


def _assert_same(mat, rhs, query):
    """Every entry point agrees with the dense reference on one system."""
    red, pivots = ref_rref(mat)
    assert rref(mat) == (red, pivots)
    assert rank(mat) == len(pivots)
    assert nullspace(mat) == ref_nullspace(mat)
    assert solve(mat, rhs) == ref_solve(mat, rhs)
    new, ref = SpanSolver(len(query)), RefSpanSolver(len(query))
    for row in mat:
        assert new.add(row) == ref.add(row)
    for v in mat + [query]:
        assert new.coords(v) == ref.coords(v)


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
                _assert_same(mat, _random_vector(rng, rows, density),
                             _random_vector(rng, cols, density))
    # later rows are combinations of earlier ones, so spans stop growing
    base = [_random_vector(rng, 10, 0.3) for _ in range(5)]
    mixed = base + [[a + 2 * b for a, b in zip(base[0], base[3])],
                    [a - b for a, b in zip(base[1], base[4])]]
    _assert_same(mixed, [Fraction(1)] * len(mixed),
                 [a - 3 * b for a, b in zip(base[2], base[0])])


@st.composite
def _systems(draw):
    """Sparse rational systems (mat, rhs, query), empty and all-zero included."""
    nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                        st.integers(1, 4))

    def vector(n):
        out = [Fraction(0)] * n
        for j in sorted(draw(st.sets(st.integers(0, max(n - 1, 0)),
                                     max_size=n))):
            out[j] = draw(nonzero)
        return out

    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 7))
    return [vector(cols) for _ in range(rows)], vector(rows), vector(cols)


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
