"""Shared builders for the test suite."""

import itertools
import os
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R
from smodquiver import tables as TB
from smodquiver import tkk as T
from smodquiver import weights as W
from smodquiver.linalg import Echelon, dense_vector, sparse_vector

ONE = Fraction(1)
SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """The environment with the package source first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def lam(k):
    """Exterior algebra on k generators, presented on one vertex."""
    arrows = [(i, 0, 0) for i in range(k)]
    rels = [[(ONE, (i, i))] for i in range(k)]
    rels += [[(ONE, (i, j)), (ONE, (j, i))]
             for i in range(k) for j in range(i + 1, k)]
    return P.PresentedAlgebra([0], arrows, rels)


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
# reference character engine: the full-weight-set algorithms the package
# used before its dominant-weight engine, kept as an independent oracle
# (saturation BFS with Fraction root-cone tests, Freudenthal over the full
# weight set, leading-term subtraction, indexed pair enumeration)


def root_coords(sys, v):
    """Coordinates of doubled vector v in the simple roots (true values).

    Returns a list of Fractions, or None if v is outside the root-lattice
    span (for A: nonzero level).
    """
    if isinstance(sys, W.CompositeSystem):
        out = []
        for c, p in zip(sys.components, sys.split(v)):
            sub = root_coords(c, p)
            if sub is None:
                return None
            out.extend(sub)
        return out
    fam = sys.family
    p2 = list(itertools.accumulate(v))
    if fam == "A":
        if p2[-1] != 0:
            return None
        return [Fraction(x, 2) for x in p2[:-1]]
    if fam == "B":
        return [Fraction(x, 2) for x in p2]
    if fam == "C":
        return [Fraction(x, 2) for x in p2[:-1]] + [Fraction(p2[-1], 4)]
    head = [Fraction(x, 2) for x in p2[:-2]]
    pm1, vr = p2[-2], v[-1]
    return head + [Fraction(pm1 - vr, 4), Fraction(pm1 + vr, 4)]


def in_positive_root_cone(sys, v):
    """True iff v is a nonnegative integer combination of simple roots."""
    coords = root_coords(sys, v)
    if coords is None:
        return False
    return all(c >= 0 and c.denominator == 1 for c in coords)


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _weight_set(sys, lam):
    """All weights of the irreducible V_lam, by saturation BFS from lam."""
    simples = R.simple_roots(sys)
    seen = {lam}
    queue = [lam]
    while queue:
        nu = queue.pop()
        for a in simples:
            mu = _sub(nu, a)
            if mu in seen:
                continue
            if in_positive_root_cone(sys, _sub(lam, W.dominantize(sys, mu))):
                seen.add(mu)
                queue.append(mu)
    return seen


def ref_orbit(sys, w):
    """Full Weyl orbit of a doubled weight, as a set of tuples."""
    fam = sys.family
    perms = set(itertools.permutations(w))
    if fam == "A":
        return perms
    orbit = set()
    has_zero = any(x == 0 for x in w)
    for p in perms:
        choices = [(x,) if x == 0 else (x, -x) for x in p]
        for signed in itertools.product(*choices):
            if fam == "D" and not has_zero:
                if sum(1 for x in signed if x < 0) % 2 == sum(1 for x in w if x < 0) % 2:
                    orbit.add(signed)
            else:
                orbit.add(signed)
    return orbit


@lru_cache(maxsize=None)
def ref_dominant_character(sys, lam):
    """Freudenthal over the full BFS weight set (simple systems only)."""
    weights = _weight_set(sys, lam)
    r2 = W.rho2(sys)
    doms = sorted((w for w in weights if W.is_dominant(sys, w)),
                  key=lambda w: (-W.ip4(w, r2), w))
    lr = _add(lam, r2)
    nlam = W.ip4(lr, lr)
    mult = {lam: 1}
    for mu in doms:
        if mu == lam:
            continue
        mr = _add(mu, r2)
        denom = nlam - W.ip4(mr, mr)
        acc = 0
        for a in W.positive_roots(sys):
            nu = _add(mu, a)
            while nu in weights:
                acc += mult[W.dominantize(sys, nu)] * W.ip4(nu, a)
                nu = _add(nu, a)
        val = Fraction(2 * acc, denom)
        assert val.denominator == 1 and val > 0
        mult[mu] = int(val)
    return mult


def ref_character(sys, lam):
    out = {}
    for w, m in ref_dominant_character(sys, lam).items():
        for v in ref_orbit(sys, w):
            out[v] = m
    return R.Character(sys, out)


def ref_decompose_character(c):
    """Decompose into irreducibles by iterated leading-term subtraction.

    Returns {normalized dominant weight: multiplicity}.
    """
    sys = c.system
    rem = dict(c.mults)
    r2 = W.rho2(sys)
    out = {}
    while rem:
        top = max(rem, key=lambda w: (W.ip4(w, r2), w))
        if not W.is_dominant(sys, top) or rem[top] < 0:
            raise W.NonDecomposable(f"leading term {top} -> {rem.get(top)}")
        m = rem[top]
        out[W.normalize_dominant(sys, top)] = out.get(W.normalize_dominant(sys, top), 0) + m
        for w, k in ref_character(sys, top).mults.items():
            nv = rem.get(w, 0) - m * k
            if nv < 0:
                raise W.NonDecomposable(f"negative multiplicity at {w}")
            if nv:
                rem[w] = nv
            else:
                rem.pop(w, None)
    return out


def ref_tensor_decompose(c1, c2):
    return ref_decompose_character(R.char_product(c1, c2))


def ref_ext_sym_square(c):
    """(S^2, Lambda^2) of a character, by indexed pair enumeration."""
    items = []
    for w, m in c.mults.items():
        items.extend([w] * m)
    s2, l2 = {}, {}
    for i, wi in enumerate(items):
        w = _add(wi, wi)
        s2[w] = s2.get(w, 0) + 1
        for wj in items[i + 1:]:
            w = _add(wi, wj)
            s2[w] = s2.get(w, 0) + 1
            l2[w] = l2.get(w, 0) + 1
    return R.Character(c.system, s2), R.Character(c.system, l2)


def ref_fs_indicator(sys, lam):
    lam_n = W.normalize_dominant(sys, lam)
    if W.dual_weight(sys, lam_n) != lam_n:
        return 0
    s2, l2 = ref_ext_sym_square(ref_character(sys, lam_n))
    zero = (0,) * sys.ambient
    ts = ref_decompose_character(s2).get(zero, 0)
    tl = ref_decompose_character(l2).get(zero, 0)
    assert ts + tl == 1
    return 1 if ts else -1


def ref_grading_values(sys, lam, h2):
    """Pairings <w, h> over the weights of V_lam (true values), from the
    dominant character against the Weyl orbit of h: <w(mu), h> equals
    <mu, w^-1(h)>."""
    hs = W._orbit(sys, h2)
    return {Fraction(W.ip4(mu, h), 4)
            for mu in W.dominant_character(sys, lam) for h in hs}


def ref_fs_indicator_adams(sys, lam):
    """Frobenius-Schur indicator from the Adams operation: the trivial
    multiplicity of psi^2 chi = S^2 - Lambda^2 by one Racah-Speiser pass,
    and that of chi (x) chi = S^2 + Lambda^2 by Brauer-Klimyk."""
    lam_n = W.normalize_dominant(sys, lam)
    if W.dual_weight(sys, lam_n) != lam_n:
        return 0
    psi = R._racah_speiser(sys, ((_add(w, w), m)
                                 for w, m in W._weights(sys, lam_n)))
    diff = sum(m for mu, m in psi.items() if W.is_trivial_weight(sys, mu))
    total = W._brauer_klimyk(sys, {lam_n: 1}, W._weights(sys, lam_n)).get(
        (0,) * sys.ambient, 0)
    ts, tl = (total + diff) // 2, (total - diff) // 2
    assert ts >= 0 and tl >= 0 and ts + tl == 1
    return 1 if ts else -1


# ---------------------------------------------------------------------------
# reference elimination: the dense Fraction routines the package used before
# its sparse echelon kernel, kept as an independent oracle for it


def ref_rref(mat):
    """Reduced row echelon form (in place on a copy); returns (rref, pivots)."""
    m = [row[:] for row in mat]
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


def spin_factor(n):
    """Jordan algebra of a nondegenerate form: basis 1, e_1..e_{n-1}."""
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        t[0][i][i] = t[i][0][i] = 1
    for i in range(1, n):
        t[i][i][0] = 1
    return t


def matrix_plus(n):
    """M_n with the symmetrized product E_ij o E_kl = E_ij E_kl + E_kl E_ij."""
    d = n * n
    t = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for m in range(n):
                    out = t[i * n + j][k * n + m]
                    if j == k:
                        out[i * n + m] += 1
                    if m == i:
                        out[k * n + j] += 1
    return t


def direct_sum(a, b):
    n, m = len(a), len(b)
    t = [[[0] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            t[i][j][:n] = a[i][j]
    for i in range(m):
        for j in range(m):
            t[n + i][n + j][n:] = b[i][j]
    return t


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


# unital Jordan tables up to dimension 6, for `jordan_in_random_basis`
JORDAN_TABLES = ([spin_factor(n) for n in range(1, 7)] + [matrix_plus(2)]
                 + [direct_sum(spin_factor(a), spin_factor(b))
                    for a in range(1, 4) for b in range(a, 7 - a)]
                 + [direct_sum(matrix_plus(2), spin_factor(b)) for b in (1, 2)])


@st.composite
def jordan_in_random_basis(draw, min_dim=1, max_dim=6):
    """A table of `JORDAN_TABLES` in a random basis: p = LU with L lower
    triangular, its diagonal nonzero, and U unit upper triangular, so p is
    invertible with small integer entries; most entries come out dense
    `Fraction`s, and the unit is no basis vector."""
    table = draw(st.sampled_from([t for t in JORDAN_TABLES
                                  if min_dim <= len(t) <= max_dim]))
    n = len(table)
    small = st.integers(-1, 1)
    low = [[draw(st.sampled_from([1, -1, 2, -2, 3])) if i == j
            else draw(small) if j < i else 0 for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else draw(small) if j > i else 0 for j in range(n)]
          for i in range(n)]
    p = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)]
         for i in range(n)]
    return change_basis(table, p)


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
    ech = Echelon()
    for row in mat:
        ech.add(sparse_vector(row))
    return len(ech.rows)


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


def ref_tkk_construct(sc):
    """Dense short-graded Lie algebra of a unital algebra given by its table."""
    n = sc.dim
    if not ref_check_jordan_identity(sc):
        raise ValueError("structure constants fail the defining identity")
    unit = TB.find_unit(sc)
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

    g0 = Echelon(track=True)
    g0_ops = []
    for m in lmats + [_ref_commutator(lmats[i], lmats[j])
                      for i in range(n) for j in range(i + 1, n)]:
        if g0.add(sparse_vector(x for row in m for x in row)):
            g0_ops.append(m)
    ptensor = [[list(sc.c[i][j]) for j in range(n)] for i in range(n)]
    g1 = Echelon(track=True)
    g1_maps = []
    for b in [ptensor] + [act(m, ptensor) for m in lmats]:
        if g1.add(sparse_vector(flatten(b))):
            g1_maps.append(b)

    d0, d1 = len(g0_ops), len(g1_maps)
    total = n + d0 + d1
    bracket = {}

    def put(i, j, vec):
        vec = {k: c for k, c in vec.items() if c}
        if not vec:
            return
        if i < j:
            bracket[(i, j)] = vec
        else:
            bracket[(j, i)] = {k: -c for k, c in vec.items()}

    def coords(ech, v):
        c = ech.coords(sparse_vector(v))
        if c is None:
            raise T.JacobiFails("element outside the constructed span")
        return dense_vector(c, ech.n_kept)

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
    fvec[n + d0:] = coords(g1, flatten(ptensor))
    g = T.ShortGradedLie((n, d0, d1), bracket,
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


# ---------------------------------------------------------------------------
# reference Jordan modules: the dense module-identity check and Peirce split
# the package used before its sparse operators, kept as an oracle for them


def _ref_mat_sum(*terms):
    """sum of c * a over (c, a) pairs of a scalar and a dense matrix."""
    return [[sum((c * a[i][j] for c, a in terms), Fraction(0))
             for j in range(len(row))] for i, row in enumerate(terms[0][1])]


def _is_zero(mat):
    return all(x == 0 for row in mat for x in row)


def ref_check_birepresentation(rep):
    """Multilinearized module identities on all basis triples, dense."""
    sc = rep.algebra
    n = sc.dim
    rhos = rep.matrices
    mm = ref_mat_mul

    # rho(a)rho(b)rho(c) + rho(c)rho(b)rho(a) + rho((a*c)*b)
    #   = rho(a)rho(b*c) + rho(b)rho(c*a) + rho(c)rho(a*b)
    for a in range(n):
        for c in range(a, n):
            for b in range(n):
                acb = ref_mul(sc.c, sc.c[a][c], _ref_basis(n, b))
                m = _ref_mat_sum(
                    (1, mm(mm(rhos[a], rhos[b]), rhos[c])),
                    (1, mm(mm(rhos[c], rhos[b]), rhos[a])),
                    (1, rep.rho(acb)),
                    *((-1, mm(rhos[p], rep.rho(sc.c[q][r])))
                      for p, q, r in ((a, b, c), (b, c, a), (c, a, b))))
                if not _is_zero(m):
                    return False
    # linearized [rho(a), rho(a*a)] = 0
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                m = _ref_mat_sum(
                    *((1, _ref_commutator(rhos[p], rep.rho(sc.c[q][r])))
                      for p, q, r in ((x, y, z), (y, z, x), (z, x, y))))
                if not _is_zero(m):
                    return False
    return True


def ref_peirce_split(rep, e):
    """Eigenspace split of rho(e) for 0, 1/2, 1, on dense matrices."""
    sc = rep.algebra
    n = sc.dim
    evec = _ref_basis(n, e) if isinstance(e, int) else [Fraction(x) for x in e]
    for i in range(n):
        if ref_mul(sc.c, evec, _ref_basis(n, i)) != _ref_basis(n, i):
            raise ValueError("e is not the unit of the algebra")
    d = rep.dim
    re = rep.rho(evec)
    ident = [_ref_basis(d, i) for i in range(d)]
    cubic = ref_mat_mul(ref_mat_mul(re, _ref_mat_sum((1, re), (-1, ident))),
                        _ref_mat_sum((2, re), (-1, ident)))
    if not _is_zero(cubic):
        raise R.CubicIdentityFails("rho(e)(rho(e)-1)(2rho(e)-1) != 0")
    bases = []
    for lam in (Fraction(0), Fraction(1, 2), ONE):
        shifted = _ref_mat_sum((1, re), (-lam, ident))
        bases.append(tuple(tuple(v) for v in ref_nullspace(shifted)))
    return R.PeirceSplit(tuple(len(b) for b in bases), tuple(bases))
