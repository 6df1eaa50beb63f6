"""Reference routines and constructions that no subcommand runs.

The CLI's modules hold only the code its subcommands run.  What the tests,
the demos and library callers use besides lives here, so no subcommand
compiles it:

  * full characters (`Character`) and the helpers that build them:
    `weight_multiplicities` (every weight of one irreducible), `char_product`,
    `ext_sym_square` ((chi^2 +- psi^2 chi) / 2), `decompose_character` (one
    Racah-Speiser pass), `tensor_decompose` (Brauer-Klimyk over the
    constituents of the larger factor) and `trivial_multiplicity`; they are
    the oracles for the highest-weight answers of `weights` and `catalog`;
  * the auxiliary single-vertex graded algebras (`sym_algebra`,
    `ext_algebra`), the Segre product with them and the glued product
    `pi_product`, all speaking the `pathalg.GradedProtocol`;
  * two-sided modules of an explicit table (`BiRepresentation`,
    `check_birepresentation`), the Peirce split of the unit's action, and the
    symmetrized product of an associative table (`plus_product`,
    `matrix_algebra_table`);
  * `is_s_one` and `parity_discrepancies`, catalog answers that only the
    tests ask for, and `qvec`;
  * `report_from_dict`, the inverse of `quiver.report_to_dict`.

Everything is exact, as in the modules it builds on.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .catalog import (classical_parity, duality_form, grading_eigenvalues,
                      s_half_simples)
from .linalg import (Echelon, dense_vector, exact, op_commutator, op_lines,
                     op_mul, op_sum, sparse_vector)
from .pathalg import GradedProtocol, PresentedAlgebra, VertexMismatch
from .quiver import (Block, Quiver, QuiverReport, RadicalGroup, Relation,
                     ThickArrow, ThinArrow, Vertex)
from .tables import StructureConstants
from .weights import (CompositeSystem, NonDecomposable, _add, _brauer_klimyk,
                      _constituents, _dot_dominant, _embed, _weights, ip4)

Q0 = Fraction(0)
Q1 = Fraction(1)


# ---------------------------------------------------------------------------
# full characters


class Character:
    """Finite weight multiset with positive integer multiplicities."""

    __slots__ = ("system", "mults")

    def __init__(self, system, mults):
        self.system = system
        self.mults = mults

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.system == other.system and self.mults == other.mults

    def mass(self):
        return sum(self.mults.values())


class CharacterTooLarge(RuntimeError):
    """Product character exceeded the configured feasibility bound."""


MAX_CHARACTER_POINTS = 10 ** 6


@lru_cache(maxsize=None)
def simple_roots(sys):
    if isinstance(sys, CompositeSystem):
        roots = []
        pos = 0
        for c in sys.components:
            roots.extend(_embed(a, pos, sys.ambient) for a in simple_roots(c))
            pos += c.ambient
        return tuple(roots)
    n = sys.ambient
    roots = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 2, -2
        roots.append(tuple(v))
    v = [0] * n
    if sys.family == "B":
        v[n - 1] = 2
        roots.append(tuple(v))
    elif sys.family == "C":
        v[n - 1] = 4
        roots.append(tuple(v))
    elif sys.family == "D":
        v[n - 2], v[n - 1] = 2, 2
        roots.append(tuple(v))
    return tuple(roots)


def is_weyl_invariant(c: Character) -> bool:
    """Integer test that every simple reflection maps c to itself."""
    mults = c.mults
    for a in simple_roots(c.system):
        aa = ip4(a, a)
        support = [(i, x) for i, x in enumerate(a) if x]
        for w, m in mults.items():
            k, rem = divmod(2 * ip4(w, a), aa)
            if rem:
                return False
            if k:
                refl = list(w)
                for i, x in support:
                    refl[i] -= k * x
                if mults.get(tuple(refl), 0) != m:
                    return False
    return True


def _racah_speiser(sys, items):
    """Signed constituents sum_v m_v sign(w) [V_{w.v}] of (v, m_v) pairs.

    Keys are dominant weights at the ambient level of the input; the result
    is a virtual character and may carry zero or negative entries.
    """
    acc = {}
    for v, m in items:
        sign, lam = _dot_dominant(sys, v)
        if sign:
            acc[lam] = acc.get(lam, 0) + sign * m
    return acc


def weight_multiplicities(sys, lam):
    """Character of the irreducible with highest weight lam."""
    return Character(sys, dict(_weights(sys, lam)))


def char_product(c1: Character, c2: Character) -> Character:
    if c1.system != c2.system:
        raise ValueError("characters live over different systems")
    if len(c1.mults) * len(c2.mults) > MAX_CHARACTER_POINTS:
        raise CharacterTooLarge(
            f"{len(c1.mults)} x {len(c2.mults)} weight points")
    acc = {}
    for w1, m1 in c1.mults.items():
        for w2, m2 in c2.mults.items():
            w = _add(w1, w2)
            acc[w] = acc.get(w, 0) + m1 * m2
    return Character(c1.system, acc)


def _require_invariant(c: Character):
    if not is_weyl_invariant(c):
        raise NonDecomposable("character is not Weyl invariant")


def decompose_character(c: Character):
    """Decompose into irreducibles by one Racah-Speiser pass over the points.

    Returns {normalized dominant weight: multiplicity}.  Raises
    NonDecomposable if c is not Weyl invariant or a constituent is negative.
    """
    _require_invariant(c)
    return _constituents(c.system, _racah_speiser(c.system, c.mults.items()))


def tensor_decompose(c1: Character, c2: Character):
    """Constituents of the tensor product, as {dominant weight: mult}.

    Brauer-Klimyk: the factor with more points is decomposed, and each of
    its constituents V_lam contributes the dot-reflected lam + mu for every
    weight mu of the other factor.  Both factors must be Weyl invariant.
    """
    if c1.system != c2.system:
        raise ValueError("characters live over different systems")
    _require_invariant(c1)
    _require_invariant(c2)
    big, small = (c1, c2) if len(c1.mults) >= len(c2.mults) else (c2, c1)
    tops = _racah_speiser(c1.system, big.mults.items())
    return _brauer_klimyk(c1.system, tops, small.mults.items())


def ext_sym_square(c: Character):
    """(S^2, Lambda^2) of a character, as (chi^2 +- psi^2 chi) / 2."""
    sq = char_product(c, c).mults
    psi = {_add(w, w): m for w, m in c.mults.items()}   # Adams psi^2
    s2, l2 = {}, {}
    for w, m in sq.items():
        p = psi.get(w, 0)
        s2[w] = (m + p) // 2
        if m != p:
            l2[w] = (m - p) // 2
    return Character(c.system, s2), Character(c.system, l2)


def trivial_multiplicity(c: Character) -> int:
    """Multiplicity of the trivial constituent (full decomposition)."""
    if not c.mults:
        return 0
    out = decompose_character(c)
    zero = (0,) * c.system.ambient
    return out.get(zero, 0)


def eigenvalue_set(c: Character, h2):
    """Set of pairings <w, h> over the weights of the character (true values)."""
    return {Fraction(v, 4) for v in {ip4(w, h2) for w in c.mults}}


# ---------------------------------------------------------------------------
# catalog answers no subcommand asks for


# the h-eigenvalue sets of the half simples, and the eigenvalues a short
# grading allows
HALF = frozenset((Fraction(1, 2), Fraction(-1, 2)))
SHORT = frozenset((Fraction(-1), Fraction(0), Fraction(1)))


def is_s_one(kind, lam):
    if kind.series == "e7":
        return False
    ev = grading_eigenvalues(kind, lam)
    return ev <= SHORT and ev != {Fraction(0)}


def parity_discrepancies(kind):
    """Half-simple names where the table parity differs from the engine."""
    out = []
    for lab in s_half_simples(kind):
        table = duality_form(kind, lab.name).parity
        engine = classical_parity(kind, lab.name)
        if table != engine:
            out.append((lab.name, table, engine))
    return out


# ---------------------------------------------------------------------------
# auxiliary graded algebras (single vertex) and the Segre product


class SimpleGradedAlgebra(GradedProtocol):
    """Connected graded algebra with an explicit basis and product rule."""

    def __init__(self, vertex, basis_by_degree, mul_fn):
        self.vertices = (vertex,)
        self._basis = basis_by_degree          # list of lists of labels
        self._index = [{b: i for i, b in enumerate(layer)}
                       for layer in basis_by_degree]
        self._mul_fn = mul_fn

    @property
    def top_degree(self):
        return len(self._basis) - 1

    def dims(self, d):
        return len(self._basis[d]) if 0 <= d <= self.top_degree else 0

    def src(self, d, i):
        return self.vertices[0]

    def dst(self, d, i):
        return self.vertices[0]

    def mul(self, d1, i, d2, j):
        if d1 + d2 > self.top_degree:
            return ()
        out = []
        for label, coef in self._mul_fn(d1, self._basis[d1][i],
                                        d2, self._basis[d2][j]):
            out.append((self._index[d1 + d2][label], coef))
        return tuple(out)


def sym_algebra(k, cap, vertex=0) -> SimpleGradedAlgebra:
    """Polynomial algebra on k variables truncated above degree cap."""
    basis = [sorted(itertools.combinations_with_replacement(range(k), d))
             for d in range(cap + 1)]

    def mul(d1, m1, d2, m2):
        return ((tuple(sorted(m1 + m2)), 1),)

    return SimpleGradedAlgebra(vertex, basis, mul)


def ext_algebra(k, vertex=0) -> SimpleGradedAlgebra:
    """Exterior algebra on k anticommuting generators."""
    basis = [sorted(itertools.combinations(range(k), d)) for d in range(k + 1)]

    def mul(d1, m1, d2, m2):
        if set(m1) & set(m2):
            return ()
        merged = m1 + m2
        target = tuple(sorted(merged))
        # sign of the sorting permutation
        perm = sorted(range(len(merged)), key=lambda t: merged[t])
        sign = 1
        seen = [False] * len(perm)
        for s in range(len(perm)):
            if seen[s]:
                continue
            length = 0
            t = s
            while not seen[t]:
                seen[t] = True
                t = perm[t]
                length += 1
            if length % 2 == 0:
                sign = -sign
        return ((target, sign),)

    return SimpleGradedAlgebra(vertex, basis, mul)


class TensorGradedAlgebra(GradedProtocol):
    """Degreewise tensor product A_n (x) B_n; vertices come from A."""

    def __init__(self, a, b):
        if len(b.vertices) != 1:
            raise VertexMismatch("second factor must be connected (one vertex)")
        self.a, self.b = a, b
        self.vertices = tuple(a.vertices)
        self.top = min(a.top_degree, b.top_degree)
        while self.top > 0 and self.dims(self.top) == 0:
            self.top -= 1

    @property
    def top_degree(self):
        return self.top

    def dims(self, d):
        if d < 0 or d > self.top:
            return 0
        return self.a.dims(d) * self.b.dims(d)

    def _split(self, d, i):
        nb = self.b.dims(d)
        return divmod(i, nb)

    def src(self, d, i):
        return self.a.src(d, self._split(d, i)[0])

    def dst(self, d, i):
        return self.a.dst(d, self._split(d, i)[0])

    def mul(self, d1, i, d2, j):
        if d1 + d2 > self.top:
            return ()
        ia, ib = self._split(d1, i)
        ja, jb = self._split(d2, j)
        out = {}
        nb = self.b.dims(d1 + d2)
        for ka, ca in self.a.mul(d1, ia, d2, ja):
            for kb, cb in self.b.mul(d1, ib, d2, jb):
                k = ka * nb + kb
                out[k] = out.get(k, 0) + ca * cb
        return tuple((k, c) for k, c in sorted(out.items()) if c)


def segre_product(a, b) -> TensorGradedAlgebra:
    """Degreewise tensor product of a pointed algebra with a connected one."""
    return TensorGradedAlgebra(a, b)


def pi_product(a: PresentedAlgebra, b: PresentedAlgebra,
               deg_cap=8) -> PresentedAlgebra:
    """Glue two presented algebras along a common vertex set; mixed
    positive-degree products vanish."""
    if set(a.vertices) != set(b.vertices):
        raise VertexMismatch("degree-0 parts differ")
    arrows = [(("a", aid), src, dst) for aid, src, dst in a.arrows]
    arrows += [(("b", aid), src, dst) for aid, src, dst in b.arrows]
    rels = []
    for tag, alg in (("a", a), ("b", b)):
        for terms in alg.relations:
            rels.append(tuple((c, tuple((tag, aid) for aid in p))
                              for c, p in terms))
    for f_tag, f_alg, g_tag, g_alg in (("a", a, "b", b), ("b", b, "a", a)):
        for faid, fsrc, fdst in f_alg.arrows:
            for gaid, gsrc, gdst in g_alg.arrows:
                if fsrc == gdst:
                    rels.append(((1, ((f_tag, faid), (g_tag, gaid))),))
    return PresentedAlgebra(a.vertices, arrows, rels, deg_cap)


# ---------------------------------------------------------------------------
# two-sided modules of an explicit table


def qvec(seq):
    return [Fraction(x) for x in seq]


class CubicIdentityFails(ArithmeticError):
    """rho(e)(rho(e)-1)(2 rho(e)-1) != 0: not a module over the algebra."""


class NotAssociative(ArithmeticError):
    pass


class BiRepresentation:
    __slots__ = ("algebra", "matrices")

    def __init__(self, algebra: StructureConstants, matrices: list):
        self.algebra = algebra
        # d x d rational matrices, one per algebra basis vector
        self.matrices = matrices

    @property
    def dim(self):
        return len(self.matrices[0]) if self.matrices else 0

    def rho(self, vec):
        d = self.dim
        out = [[Q0] * d for _ in range(d)]
        for coeff, mat in zip(vec, self.matrices):
            if coeff:
                for r in range(d):
                    for c in range(d):
                        if mat[r][c]:
                            out[r][c] += coeff * mat[r][c]
        return out


def regular_birep(sc: StructureConstants) -> BiRepresentation:
    """The algebra as a module over itself: rho(e_i) is the matrix of L_i."""
    n = sc.dim
    return BiRepresentation(sc, [[[sc.c[i][j][k] for j in range(n)]
                                  for k in range(n)] for i in range(n)])


def _sparse_ops(rep):
    """rho of each basis vector, as a sparse operator {(row, col): x}."""
    return [{(r, c): x for r, row in enumerate(m) for c, x in enumerate(row) if x}
            for m in rep.matrices]


def _rho(ops, vec):
    """rho of a sparse vector, from the sparse operators of the basis."""
    return op_sum((x, ops[i]) for i, x in vec.items())


def _products(sc):
    """e_q * e_r as a sparse vector at [q][r]: column r of L_q."""
    return [[dict(cols.get(r, ())) for r in range(sc.dim)]
            for cols in (op_lines(op)[1] for op in sc.ops)]


def check_birepresentation(rep: BiRepresentation) -> bool:
    """Multilinearized module identities on all basis triples."""
    sc = rep.algebra
    n = sc.dim
    t = _products(sc)
    ops = _sparse_ops(rep)
    rho_qr = [[_rho(ops, t[q][r]) for r in range(n)] for q in range(n)]

    # rho(a)rho(b)rho(c) + rho(c)rho(b)rho(a) + rho((a*c)*b)
    #   = rho(a)rho(b*c) + rho(b)rho(c*a) + rho(c)rho(a*b)
    for a in range(n):
        for c in range(a, n):
            for b in range(n):
                terms = [(1, op_mul(op_mul(ops[a], ops[b]), ops[c])),
                         (1, op_mul(op_mul(ops[c], ops[b]), ops[a])),
                         (1, op_sum((x, rho_qr[k][b]) for k, x in t[a][c].items()))]
                terms += [(-1, op_mul(ops[p], rho_qr[q][r]))
                          for p, q, r in ((a, b, c), (b, c, a), (c, a, b))]
                if op_sum(terms):
                    return False
    # linearized [rho(a), rho(a*a)] = 0
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                if op_sum((1, op_commutator(ops[p], rho_qr[q][r]))
                           for p, q, r in ((x, y, z), (y, z, x), (z, x, y))):
                    return False
    return True


class PeirceSplit:
    __slots__ = ("dims", "bases")

    def __init__(self, dims: tuple, bases: tuple):
        self.dims = dims      # (dim M_0, dim M_1/2, dim M_1)
        self.bases = bases    # eigenvector bases for 0, 1/2, 1

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dims == other.dims and self.bases == other.bases


def peirce_split(rep: BiRepresentation, e) -> PeirceSplit:
    """Eigenspace split of rho(e) for eigenvalues 0, 1/2, 1.

    `e` is a basis index or an explicit vector; it must be the unit of the
    algebra.  Raises CubicIdentityFails if rho(e)(rho(e)-1)(2rho(e)-1) != 0.
    """
    sc = rep.algebra
    evec = {e: Q1} if isinstance(e, int) else sparse_vector(e)
    if _rho(sc.ops, evec) != {(i, i): 1 for i in range(sc.dim)}:   # L_e = I
        raise ValueError("e is not the unit of the algebra")
    d = rep.dim
    re = _rho(_sparse_ops(rep), evec)
    # rho(e)(rho(e)-1)(2rho(e)-1) = 2rho(e)^3 - 3rho(e)^2 + rho(e)
    re2 = op_mul(re, re)
    if op_sum(((2, op_mul(re2, re)), (-3, re2), (1, re))):
        raise CubicIdentityFails("rho(e)(rho(e)-1)(2rho(e)-1) != 0")
    ident = {(i, i): Q1 for i in range(d)}
    bases = []
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
        ech = Echelon()
        for row in op_lines(op_sum(((1, re), (-lam, ident))))[0].values():
            ech.add(dict(row))
        bases.append(tuple(tuple(dense_vector(v, d)) for v in ech.kernel(range(d))))
    dims = tuple(len(b) for b in bases)
    assert sum(dims) == d
    return PeirceSplit(dims, tuple(bases))


def plus_product(assoc_table) -> StructureConstants:
    """Symmetrized product a*b = ab + ba of an associative table."""
    table = [[qvec(v) for v in row] for row in assoc_table]
    n = len(table)
    # L_i of the associative product: column j is e_i e_j
    ops = [{(k, j): exact(x) for j, v in enumerate(row) for k, x in enumerate(v)
            if x} for row in table]
    for i in range(n):
        for j in range(n):
            lij = op_sum((x, ops[k]) for k, x in enumerate(table[i][j]) if x)
            # column k of L_{e_i e_j} - L_i L_j is (e_i e_j) e_k - e_i (e_j e_k)
            diff = op_sum(((1, lij), (-1, op_mul(ops[i], ops[j]))))
            if diff:
                k = min(col for _, col in diff)
                raise NotAssociative(f"({i}*{j})*{k} != {i}*({j}*{k})")
    sym = [[tuple(x + y for x, y in zip(table[i][j], table[j][i]))
            for j in range(n)] for i in range(n)]
    return StructureConstants(sym)


def matrix_algebra_table(n):
    """Associative structure constants of M_n(k) on the basis E_ij (row-major)."""
    dim = n * n

    def idx(i, j):
        return i * n + j

    table = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        table[idx(i, j)][idx(k, l)][idx(i, l)] = Fraction(1)
    return table


# ---------------------------------------------------------------------------
# quiver reports


def report_from_dict(data: dict) -> QuiverReport:
    def rel(terms):
        return Relation(tuple((Fraction(t["coef"]), tuple(t["path"]))
                              for t in terms))

    vertices = tuple(Vertex(v["id"], v["color"], v["label"])
                     for v in data["vertices"])
    arrows = tuple(ThickArrow(a["id"], a["src"], a["dst"], a["group"], a["wDim"])
                   for a in data["arrows"])
    thin = tuple(ThinArrow(t["id"], t["src"], t["dst"], t["group"], t["wIndex"])
                 for t in data["thinArrows"])
    groups = tuple(RadicalGroup(g["index"], tuple(g["support"]),
                                tuple(g["labels"]), g["wDim"], g["type"],
                                g["singular"], g["parity"], g["engineParity"],
                                g["inert"]) for g in data["groups"])
    blocks = tuple(Block(b["kind"], tuple(b["groups"]), tuple(b["vertices"]),
                         tuple(b["thinArrows"]),
                         tuple(rel(r) for r in b["relations"]),
                         b["isolated"], b["descriptor"], tuple(b["notes"]))
                   for b in data["blocks"])
    return QuiverReport(
        schema_version=data["schemaVersion"],
        spec=data["spec"],
        summands=tuple(data["summands"]),
        groups=groups,
        quiver=Quiver(vertices, arrows, thin),
        blocks=blocks,
        relations=tuple(rel(r) for r in data["relations"]),
        wild=data["wild"],
        centext_pairs=tuple((tuple(p["groups"]), p["dim"])
                            for p in data["centext"]["pairs"]),
        centext_total=data["centext"]["total"],
        notes=tuple(data["notes"]),
    )
