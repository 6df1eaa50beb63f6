"""Reference routines and constructions that no subcommand runs.

The CLI's modules hold only the code its subcommands run.  What the tests,
the demos and library callers use besides lives here, so no subcommand
compiles it:

  * the weight walk: `dominant_character` (Freudenthal's recursion over the
    dominant weights), the Weyl orbits that spread it into every weight of
    an irreducible, and the dot action with its signed constituent sum; no
    catalog answer walks weights, so these are the oracles for the answers
    `weights` and `catalog` read off highest weights;
  * full characters (`Character`) and the helpers that build them:
    `weight_multiplicities` (every weight of one irreducible), `char_product`,
    `ext_sym_square` ((chi^2 +- psi^2 chi) / 2), `decompose_character` (one
    Racah-Speiser pass), `tensor_decompose` (Brauer-Klimyk over the
    constituents of the larger factor) and `trivial_multiplicity`;
  * the auxiliary single-vertex algebras S(W) and Lambda(W) (`sym_algebra`,
    `ext_algebra`), the Segre product with them (`segre_product`) and the
    glued product `pi_product`, all presented algebras;
  * the symmetrized product of an associative table (`plus_product`,
    `matrix_algebra_table`);
  * `is_s_one` and `parity_discrepancies`, catalog answers that only the
    tests ask for;
  * vector and product helpers no command needs: `qvec`, `sparse_vector`,
    `dense_vector`, the operator product `op_mul` and the table product
    on dense vectors `table_mul`;
  * `report_from_dict`, the inverse of `quiver.report_to_dict`.

Everything is exact, as in the modules it builds on.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .catalog import classical_parity, duality_form, s_half_simples
from .linalg import (Echelon, _op_of_rows, exact, op_apply, op_lines,
                     op_mul_add, op_sum)
from .pathalg import PresentedAlgebra, VertexMismatch
from .quiver import (Block, Quiver, QuiverReport, RadicalGroup, Relation,
                     ThickArrow, ThinArrow, Vertex)
from .tables import StructureConstants
from .weights import (CompositeSystem, NotDominant, _add, _embed, _join, _sub,
                      dominantize, graded_pieces4, ip4, is_dominant,
                      normalize_dominant, positive_roots, rho2, weyl_dim)

# ---------------------------------------------------------------------------
# the weight walk


class NonDecomposable(RuntimeError):
    """Internal consistency failure during character subtraction."""


def is_trivial_weight(sys, w):
    return all(x == 0 for x in normalize_dominant(sys, w))


def _distinct_permutations(w):
    """Each distinct permutation of the multiset w once, in lexicographic order."""
    a = sorted(w)
    n = len(a)
    while True:
        yield tuple(a)
        i = n - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def _orbit(sys, w):
    """Full Weyl orbit of a doubled weight, as a list of distinct tuples."""
    if isinstance(sys, CompositeSystem):
        parts = [_orbit(c, p) for c, p in zip(sys.components, sys.split(w))]
        return [_join(combo) for combo in itertools.product(*parts)]
    if sys.family == "A":
        return list(_distinct_permutations(w))
    mags = [abs(x) for x in w]
    parity = None
    if sys.family == "D" and 0 not in mags:
        # without a zero coordinate, D only flips signs in pairs
        parity = sum(1 for x in w if x < 0) % 2
    orbit = []
    for p in _distinct_permutations(mags):
        choices = [(x,) if x == 0 else (x, -x) for x in p]
        for signed in itertools.product(*choices):
            if parity is None or sum(1 for x in signed if x < 0) % 2 == parity:
                orbit.append(signed)
    return orbit


def _multinomial(w):
    """Number of distinct permutations of the multiset w."""
    out = math.factorial(len(w))
    for c in Counter(w).values():
        out //= math.factorial(c)
    return out


def _orbit_size(sys, w):
    """|W . w|, counted by formula rather than enumerated."""
    if isinstance(sys, CompositeSystem):
        return math.prod(_orbit_size(c, p)
                         for c, p in zip(sys.components, sys.split(w)))
    if sys.family == "A":
        return _multinomial(w)
    mags = [abs(x) for x in w]
    size = _multinomial(mags) << sum(1 for x in mags if x)
    if sys.family == "D" and 0 not in mags:
        size //= 2
    return size


@lru_cache(maxsize=None)
def dominant_character(sys, lam):
    """Multiplicities of the dominant weights of V_lam (Freudenthal).

    The dominant weights are found by subtracting positive roots from lam
    while staying dominant; by Stembridge's chain lemma this reaches every
    dominant weight below lam.  The recursion then runs over them in order
    of decreasing height, reading string multiplicities off the dominant
    representative of each string point.
    """
    if not is_dominant(sys, lam):
        raise NotDominant(lam)
    if isinstance(sys, CompositeSystem):
        parts = [dominant_character(c, p).items()
                 for c, p in zip(sys.components, sys.split(lam))]
        out = {}
        for combo in itertools.product(*parts):
            out[_join([w for w, _ in combo])] = math.prod(m for _, m in combo)
        return out
    roots = positive_roots(sys)
    r2 = rho2(sys)
    seen = {lam}
    stack = [lam]
    while stack:
        nu = stack.pop()
        for a in roots:
            mu = _sub(nu, a)
            if mu not in seen and is_dominant(sys, mu):
                seen.add(mu)
                stack.append(mu)
    doms = sorted(seen, key=lambda w: (-ip4(w, r2), w))
    lr = _add(lam, r2)
    nlam = ip4(lr, lr)
    mult = {lam: 1}
    for mu in doms:
        if mu == lam:
            continue
        mr = _add(mu, r2)
        denom = nlam - ip4(mr, mr)
        acc = 0
        for a in roots:
            nu = _add(mu, a)
            while (top := dominantize(sys, nu)) in mult:
                acc += mult[top] * ip4(nu, a)
                nu = _add(nu, a)
        val, rem = divmod(2 * acc, denom)
        assert rem == 0 and val > 0
        mult[mu] = val
    total = sum(m * _orbit_size(sys, w) for w, m in mult.items())
    assert total == weyl_dim(sys, lam), "Freudenthal mass check failed"
    return mult


def _weights(sys, lam):
    """Every (weight, multiplicity) pair of V_lam, walked orbit by orbit."""
    for w, m in dominant_character(sys, lam).items():
        for v in _orbit(sys, w):
            yield v, m


# ---------------------------------------------------------------------------
# the dot action


def _sort_sign(x):
    """Sign of the permutation sorting x into decreasing order; 0 on a tie."""
    sign = 1
    n = len(x)
    for i in range(n):
        xi = x[i]
        for j in range(i + 1, n):
            if xi < x[j]:
                sign = -sign
            elif xi == x[j]:
                return 0
    return sign


def _chamber(sys, x):
    """(sign, d): d = w(x) is strictly dominant and sign = det(w).

    Returns (0, None) when x lies on a wall of the Weyl chambers.
    """
    if isinstance(sys, CompositeSystem):
        sign, parts = 1, []
        for c, p in zip(sys.components, sys.split(x)):
            s, d = _chamber(c, p)
            if not s:
                return 0, None
            sign *= s
            parts.append(d)
        return sign, _join(parts)
    if sys.family == "A":
        sign = _sort_sign(x)
        return (sign, tuple(sorted(x, reverse=True))) if sign else (0, None)
    mags = [abs(t) for t in x]
    sign = _sort_sign(mags)
    if not sign:
        return 0, None
    negs = sum(1 for t in x if t < 0)
    d = sorted(mags, reverse=True)
    if sys.family in "BC":
        if d[-1] == 0:
            return 0, None
        return (-sign if negs % 2 else sign), tuple(d)
    # D: an even number of sign changes; a zero coordinate absorbs the odd one
    if negs % 2 and d[-1] != 0:
        d[-1] = -d[-1]
    return sign, tuple(d)


def _dot_dominant(sys, v):
    """Reflect v + rho into the dominant chamber: (sign, w(v + rho) - rho).

    Returns (0, None) when v + rho lies on a wall, where v contributes
    nothing to a Racah-Speiser sum.
    """
    r2 = rho2(sys)
    sign, d = _chamber(sys, _add(v, r2))
    if not sign:
        return 0, None
    return sign, _sub(d, r2)


def _constituents(sys, acc):
    """Normalize signed constituents; raises NonDecomposable on a negative one."""
    r2 = rho2(sys)
    out = {}
    for lam in sorted(acc, key=lambda w: (ip4(w, r2), w), reverse=True):
        m = acc[lam]
        if m < 0:
            raise NonDecomposable(f"negative constituent {lam} -> {m}")
        if m:
            key = normalize_dominant(sys, lam)
            out[key] = out.get(key, 0) + m
    return out


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
    weight mu of the other factor, so no product character is formed.  Both
    factors must be Weyl invariant.
    """
    if c1.system != c2.system:
        raise ValueError("characters live over different systems")
    _require_invariant(c1)
    _require_invariant(c2)
    big, small = (c1, c2) if len(c1.mults) >= len(c2.mults) else (c2, c1)
    tops = _racah_speiser(c1.system, big.mults.items())
    shifted = ((_add(lam, mu), m * k)
               for mu, k in small.mults.items() for lam, m in tops.items())
    return _constituents(c1.system, _racah_speiser(c1.system, shifted))


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


# the h-eigenvalue set of a half simple
HALF = frozenset((Fraction(1, 2), Fraction(-1, 2)))


def is_s_one(kind, lam):
    """True iff h acts on V_lam with eigenvalues in {-1, 0, 1}, not all 0."""
    if kind.series == "e7":
        return False
    try:
        levels = set(graded_pieces4(kind.root_system(), lam, kind.cocharacter()))
    except NotDominant:
        raise
    except ValueError:   # the eigenvalues span more than 2
        return False
    return levels <= {-4, 0, 4} and levels != {0}


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


def sym_algebra(k, cap, vertex=0) -> PresentedAlgebra:
    """Polynomial algebra on k variables truncated above degree cap: k
    commuting loops at one vertex, every monomial of degree cap + 1 zero."""
    if not cap:
        return PresentedAlgebra([vertex], [], [], 1)
    rels = [((1, (i, j)), (-1, (j, i)))
            for i, j in itertools.combinations(range(k), 2)]
    rels += [((1, m),) for m in
             itertools.combinations_with_replacement(range(k), cap + 1)]
    return PresentedAlgebra([vertex], [(i, vertex, vertex) for i in range(k)],
                            rels, cap + 1)


def ext_algebra(k, vertex=0) -> PresentedAlgebra:
    """Exterior algebra on k anticommuting generators: k loops at one
    vertex, each squaring to 0."""
    rels = [((1, (i, i)),) for i in range(k)]
    rels += [((1, (i, j)), (1, (j, i)))
             for i, j in itertools.combinations(range(k), 2)]
    return PresentedAlgebra([vertex], [(i, vertex, vertex) for i in range(k)],
                            rels, k + 1)


def segre_product(a: PresentedAlgebra, b: PresentedAlgebra) -> PresentedAlgebra:
    """The Segre product, sum_n A_n (x) B_n, of a presented algebra with a
    connected one, presented on A's vertices.

    Its arrows are A_1 (x) B_1, arrow i * dim B_1 + j standing for
    (i, j) and running as arrow i of A does; its relations are the kernel
    of (A_1 (x) B_1)^(x)2 -> A_2 (x) B_2.  That is the whole presentation
    when A and B are Koszul (Backelin-Froeberg 1985).  A truncation is not
    quadratic: when B stops below A's top degree, or A has a relation
    longer than 2, every path one longer than the top degree
    min(top A, top B) is a monomial relation too.
    """
    if len(b.vertices) != 1:
        raise VertexMismatch("second factor must be connected (one vertex)")
    nb, nb2 = b.dims(1), b.dims(2)
    arrows = [(i * nb + j, a.src(1, i), a.dst(1, i))
              for i in range(a.dims(1)) for j in range(nb)]
    # the product map, one row per A_2 (x) B_2 coordinate over the
    # composable pairs (f, g), "f after g"; A_2's element fixes the
    # endpoint pair, so the rows of different endpoint pairs share no column
    rows, pairs = {}, []
    for f, fsrc, _ in arrows:
        i, j = divmod(f, nb)
        for g, _, gdst in arrows:
            if fsrc != gdst:
                continue
            pairs.append((f, g))
            i2, j2 = divmod(g, nb)
            for ka, ca in a.mul(1, i, 1, i2):
                for kb, cb in b.mul(1, j, 1, j2):
                    row = rows.setdefault(ka * nb2 + kb, {})
                    row[f, g] = row.get((f, g), 0) + ca * cb
    ech = Echelon()
    for row in rows.values():
        ech.add({k: c for k, c in row.items() if c})
    rels = [tuple((c, fg) for fg, c in v.items()) for v in ech.kernel(pairs)]
    top = min(a.top_degree, b.top_degree)
    if top < a.top_degree or any(len(t[0][1]) > 2 for t in a.relations):
        paths = [(f,) for f, _, _ in arrows]
        for _ in range(top):
            paths = [p + (g,) for p in paths for g, _, gdst in arrows
                     if arrows[p[-1]][1] == gdst]
        rels += [((1, p),) for p in paths]
    return PresentedAlgebra(a.vertices, arrows, rels, top + 1)


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
# explicit tables


def qvec(seq):
    return [Fraction(x) for x in seq]


def sparse_vector(seq):
    """Sparse form {index: exact value} of a dense sequence."""
    return {j: exact(x) for j, x in enumerate(seq) if x}


def dense_vector(v, n):
    """Dense form, of length n, of a sparse vector."""
    out = [0] * n
    for j, x in v.items():
        out[j] = x
    return out


def op_mul(a, b):
    """Product of operators {(row, col): x}, without zero entries."""
    return _op_of_rows(op_mul_add({}, a, op_lines(b)[0]))


def table_mul(sc: StructureConstants, x, y):
    """x * y = L_x y in the table, of dense vectors."""
    lx = op_sum((c, op) for c, op in zip(x, sc.ops) if c)
    return dense_vector(op_apply(lx, dict(enumerate(y))), sc.dim)


class NotAssociative(ArithmeticError):
    pass


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
