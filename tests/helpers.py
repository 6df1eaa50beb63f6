"""Shared builders for the test suite."""

import os
import types
from fractions import Fraction
from pathlib import Path

from hypothesis import strategies as st

from smodquiver import catalog as C
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R
from smodquiver import tkk as T
from smodquiver import weights as W
from smodquiver.linalg import Echelon, exact

ONE = Fraction(1)
SRC = Path(__file__).resolve().parent.parent / "src"
BENCH = SRC.parent / "perfbench"


def src_env():
    """The environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def bench_module(name):
    """The benchmark's module `perfbench/<name>.py`, executed from its source
    so that nothing is written next to it; tests only read its inputs."""
    path = BENCH / f"{name}.py"
    mod = types.ModuleType(name)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         mod.__dict__)
    return mod


# the benchmark's inputs and table builders: a test input is the one it runs
WORKLOADS = bench_module("workloads")
spin_factor = WORKLOADS.spin_factor
matrix_plus = WORKLOADS.matrix_plus
direct_sum = WORKLOADS.direct_sum


# (block kind, W dimensions) of the template algebras that the reference
# extraction and intake are compared on
TEMPLATES = ([("A1_SegreSym", (k,)) for k in (1, 2, 3)]
             + [("A1_SegreAlt", (k,)) for k in (1, 2, 3)]
             + [("A2_Segre", dims) for dims in ((1, 1), (2, 1), (2, 3))]
             + [("CliffordEven", (k,)) for k in (2, 3, 4)]
             + [("CliffordOdd", (k,)) for k in (2, 3, 4)])


def template_algebra(kind, wdims):
    """Instantiate a relation template on a concrete quiver.

    Vertex conventions: A1/CliffordEven use 0 = [L]/[v+], 1 = [S]/[v-];
    A2 uses 0 = [L], 1 = [S], 2 = [S*].
    """
    k = wdims[0]
    if kind in ("A1_SegreSym", "A1_SegreAlt"):
        arrows = [(i, 0, 1) for i in range(k)] + [(k + i, 1, 0) for i in range(k)]
        fam = {"alpha": list(range(k)), "beta": [k + i for i in range(k)]}
        verts = [0, 1]
    elif kind == "CliffordOdd":
        arrows = [(i, 0, 0) for i in range(k)]
        fam = {"ell": list(range(k))}
        verts = [0]
    elif kind == "CliffordEven":
        arrows = [(i, 0, 1) for i in range(k)] + [(k + i, 1, 0) for i in range(k)]
        fam = {"a": list(range(k)), "b": [k + i for i in range(k)]}
        verts = [0, 1]
    elif kind == "A2_Segre":
        k, l = wdims
        arrows = ([(i, 2, 0) for i in range(k)]                 # alpha: S* -> L
                  + [(k + i, 0, 1) for i in range(k)]           # delta: L -> S
                  + [(2 * k + j, 0, 2) for j in range(l)]       # beta: L -> S*
                  + [(2 * k + l + j, 1, 0) for j in range(l)])  # gamma: S -> L
        fam = {"alpha": list(range(k)),
               "delta": [k + i for i in range(k)],
               "beta": [2 * k + j for j in range(l)],
               "gamma": [2 * k + l + j for j in range(l)]}
        verts = [0, 1, 2]
    else:
        raise ValueError(kind)
    rels = []
    for rel in Q.relations_of(kind, tuple(wdims)):
        rels.append([(c, (fam[f][i], fam[g][j]))
                     for c, ((f, i), (g, j)) in rel])
    return P.PresentedAlgebra(verts, arrows, rels)


# ---------------------------------------------------------------------------
# reference character routes: the weight walks the highest-weight answers of
# `weights` and `catalog` replaced, built on `reference`'s weight walk and
# dot action


def ref_grading_values(sys, lam, h2):
    """Pairings <w, h> over the weights of V_lam (true values), from the
    dominant character against the Weyl orbit of h: <w(mu), h> equals
    <mu, w^-1(h)>."""
    hs = R._orbit(sys, h2)
    return {Fraction(W.ip4(mu, h), 4)
            for mu in R.dominant_character(sys, lam) for h in hs}


def ref_graded_pieces4(sys, lam, h2):
    """{4<w, h>: dimension} of the h-eigenspaces of V_lam, by walking every
    weight, as `catalog.graded_piece_dim4` did before it read the pieces
    off Levi products."""
    out = {}
    for w, m in R._weights(sys, lam):
        level4 = W.ip4(w, h2)
        out[level4] = out.get(level4, 0) + m
    return out


def ref_brauer_klimyk(sys, top, items):
    """Constituents of V_top (x) V, V given by its (weight, mult) pairs, as
    {dominant weight: mult}: each weight mu of V sends top to the
    dot-reflected top + mu (Brauer-Klimyk), so no product is formed."""
    return R._constituents(sys, R._racah_speiser(
        sys, ((W._add(top, mu), k) for mu, k in items)))


def ref_restrict_walk(kind, m_name, n_name):
    """`catalog.restrict_s` by the weight walk it ran before the minuscule
    rule: the highest weight of the factor of larger Weyl dimension through
    Brauer-Klimyk against every weight of the other."""
    sys = kind.root_system()
    top, other = C.half_weight(kind, m_name), C.any_weight(kind, n_name)
    if W.weyl_dim(sys, top) < W.weyl_dim(sys, other):
        top, other = other, top
    names = {w: name for name, w in C._half_weight_table(kind).items()}
    out = {}
    for lam, mult in ref_brauer_klimyk(sys, top, R._weights(sys, other)).items():
        if R.is_trivial_weight(sys, lam):
            out["tr"] = out.get("tr", 0) + mult
        elif ref_grading_values(sys, lam, kind.cocharacter()) == R.HALF:
            # a half simple missing from the catalog raises KeyError
            out[names[lam]] = out.get(names[lam], 0) + mult
    return out


def ref_fs_indicator_adams(sys, lam):
    """Frobenius-Schur indicator from the Adams operation: the trivial
    multiplicity of psi^2 chi = S^2 - Lambda^2 by one Racah-Speiser pass,
    and that of chi (x) chi = S^2 + Lambda^2 by Brauer-Klimyk."""
    lam_n = W.normalize_dominant(sys, lam)
    if W.dual_weight(sys, lam_n) != lam_n:
        return 0
    psi = R._racah_speiser(sys, ((W._add(w, w), m)
                                 for w, m in R._weights(sys, lam_n)))
    diff = sum(m for mu, m in psi.items() if R.is_trivial_weight(sys, mu))
    total = ref_brauer_klimyk(sys, lam_n, R._weights(sys, lam_n)).get(
        (0,) * sys.ambient, 0)
    ts, tl = (total + diff) // 2, (total - diff) // 2
    assert ts >= 0 and tl >= 0 and ts + tl == 1
    return 1 if ts else -1


# ---------------------------------------------------------------------------
# reference elimination: the dense Fraction routines the package used before
# its sparse echelon kernel, kept as an independent oracle for it


def ref_rref(mat):
    """Reduced row echelon form, in `Fraction`s so that `int` entries never
    divide to floats; returns (rref, pivots)."""
    m = [[Fraction(x) for x in row] for row in mat]
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def ref_nullspace(mat):
    """Basis of the right kernel of `mat` (list of column vectors)."""
    if not mat:
        return []
    cols = len(mat[0])
    red, pivots = ref_rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def ref_solve(mat, rhs):
    """One solution x of mat*x = rhs, or None if inconsistent."""
    if not mat:
        return [] if all(x == 0 for x in rhs) else None
    cols = len(mat[0])
    aug = [row[:] + [b] for row, b in zip(mat, rhs)]
    red, pivots = ref_rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


class RefSpanSolver:
    """Incremental row-space membership/coordinate queries, dense rows.

    Vectors that enlarge the span are retained as generators; `coords(v)`
    expresses v in the retained generators, or returns None.
    """

    def __init__(self, dim):
        self.dim = dim
        self.rows = []          # reduced independent rows
        self.pivot_of_row = []
        self.exprs = []         # exprs[i]: rows[i] as a combo of generators
        self.n_kept = 0

    def _reduce(self, v):
        """Return (red, combo) with v = red + sum combo[j]*generator_j."""
        v = v[:]
        combo = [Fraction(0)] * self.n_kept
        for row, pc, e in zip(self.rows, self.pivot_of_row, self.exprs):
            c = v[pc]
            if c:
                for j in range(self.dim):
                    if row[j]:
                        v[j] -= c * row[j]
                for j, ej in enumerate(e):
                    if ej:
                        combo[j] += c * ej
        return v, combo

    def add(self, v):
        """Add a spanning vector; returns True if it enlarged the span."""
        red, combo = self._reduce([Fraction(x) for x in v])
        pc = next((j for j, x in enumerate(red) if x != 0), None)
        if pc is None:
            return False
        inv = ONE / red[pc]
        for e in self.exprs:
            e.append(Fraction(0))
        new_expr = [-inv * c for c in combo] + [inv]
        self.rows.append([x * inv for x in red])
        self.pivot_of_row.append(pc)
        self.exprs.append(new_expr)
        self.n_kept += 1
        return True

    def coords(self, v):
        """Coordinates of v in the retained generators, or None."""
        red, combo = self._reduce([Fraction(x) for x in v])
        if any(x != 0 for x in red):
            return None
        return combo


# ---------------------------------------------------------------------------
# reference explicit TKK: the dense construction and checks the package used
# before its sparse TKK layer (dense operators and bilinear maps, dense
# StructureConstants products), kept as an oracle for it; the elimination is
# linalg's, which test_linalg checks against the dense routines above


def change_basis(table, p):
    """The table on the basis f_i = sum_j p[j][i] e_j, the columns of the
    invertible matrix p: f_i f_j in e-coordinates, mapped back by p^-1."""
    n = len(table)
    red, _ = ref_rref([[Fraction(x) for x in row] + [ONE if j == i else 0
                                                       for j in range(n)]
                       for i, row in enumerate(p)])
    inv = [row[n:] for row in red]
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            e = [sum(p[a][i] * p[b][j] * table[a][b][k]
                     for a in range(n) for b in range(n)) for k in range(n)]
            out[i][j] = [sum(inv[m][k] * e[k] for k in range(n))
                         for m in range(n)]
    return out


LU_DIAGONAL = (1, -1, 2, -2, 3)


def lu_matrix(n, diagonal, off):
    """p = LU with L lower triangular, its diagonal drawn by diagonal(), and
    U unit upper triangular, the entries off the diagonal drawn by off():
    invertible, with small integer entries."""
    low = [[diagonal() if i == j else off() if j < i else 0 for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else off() if j > i else 0 for j in range(n)]
          for i in range(n)]
    return [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


# unital Jordan tables up to dimension 6, for `jordan_in_random_basis`
JORDAN_TABLES = ([spin_factor(n) for n in range(1, 7)] + [matrix_plus(2)]
                 + [direct_sum(spin_factor(a), spin_factor(b))
                    for a in range(1, 4) for b in range(a, 7 - a)]
                 + [direct_sum(matrix_plus(2), spin_factor(b)) for b in (1, 2)])


@st.composite
def jordan_in_random_basis(draw, min_dim=1, max_dim=6):
    """A table of `JORDAN_TABLES` in the basis of a random `lu_matrix`:
    most entries come out dense `Fraction`s, and the unit is no basis
    vector."""
    table = draw(st.sampled_from([t for t in JORDAN_TABLES
                                  if min_dim <= len(t) <= max_dim]))
    p = lu_matrix(len(table),
                  lambda: draw(st.sampled_from(LU_DIAGONAL)),
                  lambda: draw(st.integers(-1, 1)))
    return change_basis(table, p)


def change_arrow_basis(alg, rng):
    """The quadratic `alg` presented after a change of arrow basis within
    each vertex pair: arrow a stands for sum_b p[a][b] b, p a `lu_matrix`
    drawn from rng.  The algebra is the same up to an isomorphism that
    fixes the vertices, so its Hilbert series and Betti tables are too, but
    its relations are generic and seldom a Groebner basis."""
    by_pair = {}
    for aid, src, dst in alg.arrows:
        by_pair.setdefault((src, dst), []).append(aid)
    sub = {}
    for ids in by_pair.values():
        p = lu_matrix(len(ids), lambda: rng.choice(LU_DIAGONAL),
                      lambda: rng.randint(-1, 1))
        for a, row in zip(ids, p):
            sub[a] = [(c, b) for c, b in zip(row, ids) if c]
    relations = []
    for terms in alg.relations:
        row = {}
        for c, (f, g) in terms:
            for cf, f2 in sub[f]:
                for cg, g2 in sub[g]:
                    row[f2, g2] = row.get((f2, g2), 0) + c * cf * cg
        relations.append([(c, path) for path, c in row.items() if c])
    return P.PresentedAlgebra(alg.vertices, alg.arrows, relations, alg.deg_cap)


# ---------------------------------------------------------------------------
# quadratic duals: for a quadratic algebra A = T(V)/(R) on a quiver, A^! is
# T(V*)/(R^perp), and when A is Koszul the matrix Hilbert series satisfy
# H_A(t) . H_{A^!}(-t)^T = I (Beilinson-Ginzburg-Soergel 1996, section 2)


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


def assert_dual_hilbert_identity(alg, cap):
    """H_A(t) . H_{A^!}(-t)^T = I up to t^cap, for a quadratic `alg`."""
    h_a = [alg.dims_by_pair(d) for d in range(cap + 1)]
    h_dual = truncated_dims(*quadratic_dual(alg), cap)
    verts = alg.vertices
    for d in range(cap + 1):
        for x in verts:
            for z in verts:
                # (H_A(t) . H_{A^!}(-t)^T)[x][z] at t^d
                coef = sum((-1) ** j * h_a[d - j].get((x, y), 0)
                           * h_dual[j].get((z, y), 0)
                           for j in range(d + 1) for y in verts)
                assert coef == (1 if d == 0 and x == z else 0), (d, x, z)


# ---------------------------------------------------------------------------
# reference basis extraction: the route `PresentedAlgebra` took before it
# read relation spreads off its stored classes and set single-term rows
# aside.  Each degree scans every arrow against every basis element of the
# degree below for its composable pairs, spreads each relation tail through
# `mul` one basis element at a time, and sends every row through one
# `Echelon`; the RREF is unique, so the bases, classes and S agree.


class RefPresentedAlgebra(P.PresentedAlgebra):
    """`PresentedAlgebra` with the reference extraction of each degree."""

    def _tail_class(self, path_tail, d0, j):
        """Class of (path_tail composed after basis (d0, j)) as {x: c}."""
        combo = {j: 1}
        d = d0
        for aid in reversed(path_tail):
            apos = self._arrow[aid][0]
            nxt = {}
            for x, c in combo.items():
                for k, c2 in self.mul(1, apos, d, x):
                    nxt[k] = nxt.get(k, 0) + c * c2
            combo = {k: c for k, c in nxt.items() if c}
            d += 1
            if not combo:
                break
        return combo

    def _relation_rows(self, d, index):
        rows = []
        for terms in self.relations:
            length = len(terms[0][1])
            if d < length or self.dims(d - length) == 0:
                continue
            source = self._arrow[terms[0][1][-1]][1]
            for y in range(self.dims(d - length)):
                if self._dst[d - length][y] != source:
                    continue
                row = {}
                for c, p in terms:
                    apos = self._arrow[p[0]][0]
                    tail = self._tail_class(p[1:], d - length, y)
                    for x, c2 in tail.items():
                        key = index[(apos, x)]
                        row[key] = row.get(key, 0) + c * c2
                row = {k: c for k, c in row.items() if c}
                if row:
                    rows.append(row)
        return rows

    def _add_degree(self):
        d = len(self._src)
        pairs = []
        for apos, (aid, src, dst) in enumerate(self.arrows):
            for x in range(self.dims(d - 1)):
                if self._dst[d - 1][x] == src:
                    pairs.append((apos, x))
        index = {p: i for i, p in enumerate(pairs)}
        ech = Echelon()
        for row in self._relation_rows(d, index):
            ech.add(row)
        if d == 2:
            self._leading = frozenset(pairs[p] for p in ech.rows)
        free = [p for p in range(len(pairs)) if p not in ech.rows]
        if not free:
            return 0
        free_pos = {p: t for t, p in enumerate(free)}
        classes = {pairs[p]: ((t, 1),) for t, p in enumerate(free)}
        for pc, row in ech.rows.items():
            if row:
                classes[pairs[pc]] = tuple((free_pos[j], -c)
                                           for j, c in sorted(row.items()))
        basis = [pairs[p] for p in free]
        self._basis_pairs.append(basis)
        self._classes.append(classes)
        self._src.append([self._src[d - 1][x] for _, x in basis])
        self._dst.append([self.arrows[a][2] for a, _ in basis])
        return len(free)


# ---------------------------------------------------------------------------
# reference relation intake: the one loop `PresentedAlgebra.__init__` ran on
# every relation before quadratic one-term relations took their direct
# route.  Every relation, a monomial too, becomes a spread, so degree 2 kills
# a monomial's pair through its one-entry row.


class RefIntakeAlgebra(P.PresentedAlgebra):
    """`PresentedAlgebra` with the reference intake of its relations."""

    def __init__(self, vertices, arrows, relations, deg_cap=8):
        # the parent checks the arrows with no relation, then calls
        # `_build`, which takes the relations in before it builds
        self._ref_relations = relations
        super().__init__(vertices, arrows, (), deg_cap)

    def _build(self):
        arrow = self._arrow
        for rel in self._ref_relations:
            terms = tuple((exact(c), tuple(path)) for c, path in rel)
            if not terms:
                raise P.PresentationError("relation has no terms")
            length = len(terms[0][1])
            if len(terms) > 1 and len({len(p) for _, p in terms}) != 1:
                raise P.PresentationError("relation terms must share length")
            if length < 2:
                raise P.PresentationError("relations start at path length 2")
            split, ends = [], set()
            for c, p in terms:
                try:
                    f = g = arrow[p[0]]
                    tail = []
                    for aid in p[1:]:
                        h = arrow[aid]
                        if g[1] != h[2]:
                            raise P.PresentationError(
                                f"non-composable path {p}")
                        g = h
                        tail.append(h[0])
                except KeyError as exc:
                    raise P.PresentationError(
                        f"path {p} names an unknown arrow {exc}") from None
                ends.add((g[1], f[2]))
                if c:
                    split.append((c, f[0], g[0], tail[-2::-1]))
            if len(ends) != 1:
                raise P.PresentationError(
                    "relation terms must share endpoints")
            self.relations.append(terms)
            self._spreads.append((length, g[1], split))
        self._quadratic = all(spread[0] == 2 for spread in self._spreads)
        super()._build()


def random_rational(rng):
    return rng.choice((ONE, -ONE, Fraction(2), Fraction(1, 2), Fraction(-3, 2)))


def random_commutative_table(rng, n, density):
    """A random commutative table of dimension n: each coordinate of each
    product e_i e_j is nonzero with probability `density`."""
    t = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            t[i][j] = t[j][i] = [random_rational(rng) if rng.random() < density
                                 else Fraction(0) for _ in range(n)]
    return t


def ref_mul(table, x, y):
    n = len(table)
    out = [Fraction(0)] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            for k, ck in enumerate(table[i][j]):
                if ck:
                    out[k] += xi * yj * ck
    return out


def _ref_basis(n, i):
    v = [Fraction(0)] * n
    v[i] = ONE
    return v


def ref_check_jordan_identity(sc):
    """Full multilinearization of ((a*a)*b)*a = (a*a)*(b*a), dense."""
    n, c = sc.dim, sc.c

    def f(x, y, b, z):
        xy = c[x][y]
        left = ref_mul(c, ref_mul(c, xy, _ref_basis(n, b)), _ref_basis(n, z))
        right = ref_mul(c, xy, c[b][z])
        return [l - r for l, r in zip(left, right)]

    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                for b in range(n):
                    acc = f(x, y, b, z)
                    for t, v in enumerate(f(y, z, b, x)):
                        acc[t] += v
                    for t, v in enumerate(f(z, x, b, y)):
                        acc[t] += v
                    if any(acc):
                        return False
    return True


def _ref_mat_vec(a, v):
    return [sum((c * x for c, x in zip(row, v) if c and x), Fraction(0))
            for row in a]


def ref_mat_mul(a, b):
    """Product of dense matrices (lists of rows)."""
    m = len(b[0]) if b else 0
    return [[sum((x * b[t][j] for t, x in enumerate(row) if x), Fraction(0))
             for j in range(m)] for row in a]


def _ref_commutator(a, b):
    return [[x - y for x, y in zip(r1, r2)]
            for r1, r2 in zip(ref_mat_mul(a, b), ref_mat_mul(b, a))]


def _ref_rank(mat):
    return len(ref_rref(mat)[1])


def ref_check_jacobi(g):
    """Jacobi identity on every basis triple, through `bracket_basis`."""
    n = g.total_dim
    for i in range(n):
        for j in range(i + 1, n):
            bij = g.bracket_basis(i, j)
            for k in range(j + 1, n):
                acc = {}
                for t, c in bij.items():
                    for s, d in g.bracket_basis(t, k).items():
                        acc[s] = acc.get(s, Fraction(0)) + c * d
                for t, c in g.bracket_basis(j, k).items():
                    for s, d in g.bracket_basis(t, i).items():
                        acc[s] = acc.get(s, Fraction(0)) + c * d
                for t, c in g.bracket_basis(k, i).items():
                    for s, d in g.bracket_basis(t, j).items():
                        acc[s] = acc.get(s, Fraction(0)) + c * d
                if any(acc.values()):
                    return False
    return True


def ref_unit(sc):
    """The unit of a table, or None: u * e_i = e_i for every i, solved by
    `ref_solve`."""
    n = sc.dim
    rows = [[Fraction(sc.c[j][i][k]) for j in range(n)]
            for i in range(n) for k in range(n)]
    rhs = [Fraction(int(k == i)) for i in range(n) for k in range(n)]
    return ref_solve(rows, rhs)


def ref_tkk_construct(sc):
    """Dense short-graded Lie algebra of a unital algebra given by its table.

    Everything is dense and every elimination is one of the dense ones
    above: the unit comes from `ref_solve`, g_0's basis is the `ref_rref`
    rows of the span of L_a and [L_a, L_b], g_1's basis is the 3-tensors
    B_b(x, y) = {x e_b y}, and coordinates in either basis are solved by a
    `RefSpanSolver` holding it.
    """
    n = sc.dim
    if not ref_check_jordan_identity(sc):
        raise ValueError("structure constants fail the defining identity")
    unit = ref_unit(sc)
    if unit is None:
        raise T.NotUnital("algebra has no identity element")
    zero = Fraction(0)
    lmats = [[[sc.c[i][j][k] for j in range(n)] for k in range(n)]
             for i in range(n)]

    def flatten(t):
        return [x for a in t for b in a for x in b]

    def act(L, B):
        """(L.B)(x,y) = L(B(x,y)) - B(Lx,y) - B(x,Ly)."""
        out = [[_ref_mat_vec(L, B[x][y]) for y in range(n)] for x in range(n)]
        for t in range(n):
            for x in range(n):
                c = L[t][x]
                if not c:
                    continue
                for y in range(n):
                    for k in range(n):
                        if B[t][y][k]:
                            out[x][y][k] -= c * B[t][y][k]
                            out[y][x][k] -= c * B[t][y][k]
        return out

    gens = [[Fraction(x) for row in m for x in row] for m in lmats + [
        _ref_commutator(lmats[i], lmats[j])
        for i in range(n) for j in range(i + 1, n)]]
    red, pivots = ref_rref(gens)
    g0_ops = [[row[r * n:(r + 1) * n] for r in range(n)]
              for row in red[:len(pivots)]]
    g0 = RefSpanSolver(n * n)
    for row in red[:len(pivots)]:
        assert g0.add(row)

    def triple_product(x, b, y):
        """{e_x e_b e_y} = (e_x e_b) e_y + e_x (e_b e_y) - e_b (e_x e_y)."""
        e = [_ref_basis(n, t) for t in (x, b, y)]
        return [p + q - r for p, q, r in zip(
            ref_mul(sc.c, ref_mul(sc.c, e[0], e[1]), e[2]),
            ref_mul(sc.c, e[0], ref_mul(sc.c, e[1], e[2])),
            ref_mul(sc.c, e[1], ref_mul(sc.c, e[0], e[2])))]

    g1_maps = [[[triple_product(x, b, y) for y in range(n)] for x in range(n)]
               for b in range(n)]
    g1 = RefSpanSolver(n ** 3)
    for B in g1_maps:
        assert g1.add(flatten(B))

    d0 = len(g0_ops)
    total = n + d0 + n
    bracket = {}

    def put(i, j, vec):
        vec = {k: c for k, c in vec.items() if c}
        if not vec:
            return
        if i < j:
            bracket[(i, j)] = vec
        else:
            bracket[(j, i)] = {k: -c for k, c in vec.items()}

    def coords(span, v):
        c = span.coords(v)
        if c is None:
            raise T.JacobiFails("element outside the constructed span")
        return c

    for a, L in enumerate(g0_ops):
        for i in range(n):
            put(n + a, i, {k: L[k][i] for k in range(n)})
    for b, B in enumerate(g1_maps):
        for i in range(n):
            op = [B[i][y][k] for k in range(n) for y in range(n)]
            put(n + d0 + b, i, {n + t: c for t, c in enumerate(coords(g0, op))})
    for a, L in enumerate(g0_ops):
        for b in range(a + 1, d0):
            m = _ref_commutator(L, g0_ops[b])
            c = coords(g0, [x for row in m for x in row])
            put(n + a, n + b, {n + t: x for t, x in enumerate(c)})
        for b, B in enumerate(g1_maps):
            c = coords(g1, flatten(act(L, B)))
            put(n + a, n + d0 + b, {n + d0 + t: x for t, x in enumerate(c)})

    evec = [zero] * total
    evec[:n] = unit
    neg_le = [-sum((unit[i] * lmats[i][r][c] for i in range(n)), zero)
              for r in range(n) for c in range(n)]
    hvec = [zero] * total
    hvec[n:n + d0] = coords(g0, neg_le)
    fvec = [zero] * total
    fvec[n + d0:] = coords(g1, flatten([[list(sc.c[i][j]) for j in range(n)]
                                        for i in range(n)]))
    g = T.ShortGradedLie((n, d0, n), bracket,
                         (tuple(evec), tuple(hvec), tuple(fvec)))
    if not (g.check_grading() and g.check_triple() and ref_check_jacobi(g)):
        raise T.JacobiFails("constructed bracket fails verification")
    return g


def ref_minimality_check(g):
    """[g_{-1}, g_1] spans g_0 and the center is zero, on dense matrices."""
    n, d0, d1 = g.dims
    total = g.total_dim
    rows = []
    for i in range(n):
        for b in range(n + d0, total):
            vec = g.bracket_basis(i, b)
            if any(k < n or k >= n + d0 for k in vec):
                return False
            rows.append([Fraction(vec.get(n + t, 0)) for t in range(d0)])
    if _ref_rank(rows) != d0:
        return False
    ad_rows = [[Fraction(g.bracket_basis(i, j).get(k, 0)) for i in range(total)]
               for j in range(total) for k in range(total)]
    return _ref_rank(ad_rows) == total
