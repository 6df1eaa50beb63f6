"""Finite-dimensional graded pointed algebras and their resolutions.

`PresentedAlgebra` is a quiver with quadratic relations, its basis
extracted degree by degree (degree-d spanning pairs arrow(x)A_{d-1} modulo
relation spreads).  It speaks the dims / src / dst / mul protocol of
`GradedProtocol`; the other carriers of the protocol, the auxiliary
single-vertex algebras and the Segre and glued products, live in
`reference`.

On top of the protocol: Hilbert series, minimal graded resolutions of the
vertex simples with exact Betti tables, and the linearity check up to a
homological cap.  All arithmetic is exact.

The PBW certificate.  Order the arrows by position (ascending id) and the
length-2 paths lexicographically.  The pivots of the relations' RREF over
the composable pairs are the leading pairs S; a normal word is a path with
no consecutive pair in S, and the normal words span A.  When the degree-3
normal words of each endpoint pair are as many as the degree-3 basis, the
relations are a quadratic Groebner basis (Bergman's diamond lemma, Adv.
Math. 1978), every dimension of A is a count of normal words, and A is
Koszul (Priddy, Trans. AMS 1970).  Its Koszul dual is then PBW on the words
whose consecutive pairs all lie in S, so the Betti tables of the simples
are counts of those words.  Any other algebra is resolved.
"""

from __future__ import annotations

from itertools import islice

from .linalg import Echelon, exact


class NonTerminating(RuntimeError):
    """Basis extraction did not reach an empty degree below the cap."""


class VertexMismatch(ValueError):
    pass


class PresentationError(ValueError):
    pass


class GradedProtocol:
    """Helpers shared by every carrier of the dims / src / dst / mul protocol."""

    # the leading pairs S of a PBW presentation; only `PresentedAlgebra`
    # certifies one
    pbw = None

    def hilbert(self):
        return tuple(self.dims(d) for d in range(self.top_degree + 1))

    def dims_by_pair(self, d):
        out = {}
        for i in range(self.dims(d)):
            key = (self.src(d, i), self.dst(d, i))
            out[key] = out.get(key, 0) + 1
        return out


# ---------------------------------------------------------------------------
# presented algebras


class PresentedAlgebra(GradedProtocol):
    """Path algebra of a quiver modulo homogeneous monomial-length relations.

    vertices: sequence of vertex ids.  arrows: (aid, src, dst) triples with
    unique aids.  relations: iterables of (coef, path) with path a tuple of
    arrow ids, outermost first, so (f, g) means "f after g"; all terms of one
    relation must share endpoints and length.  Relations are quadratic in the
    intended use; longer homogeneous relations are supported for control
    experiments.  Each coefficient is normalised once by `linalg.exact`.

    Degrees up to 3 are extracted at construction.  When the relations pass
    the PBW certificate, `pbw` holds S as (outer, inner) pairs of arrow
    positions, the dimensions above degree 3 are counts of normal words, and
    such a degree is extracted on first use by `src`, `dst` or `mul`.  Every
    other algebra is extracted in full.  Either way `NonTerminating` is
    raised when degree `deg_cap` is still nonzero.
    """

    def __init__(self, vertices, arrows, relations, deg_cap=8):
        self.vertices = tuple(vertices)
        self.arrows = tuple(sorted(arrows))
        self._arrow_pos = {a[0]: i for i, a in enumerate(self.arrows)}
        if len(self._arrow_pos) != len(self.arrows):
            raise PresentationError("duplicate arrow ids")
        self._asrc = {a[0]: a[1] for a in self.arrows}
        self._adst = {a[0]: a[2] for a in self.arrows}
        vset = set(self.vertices)
        for aid, src, dst in self.arrows:
            if src not in vset or dst not in vset:
                raise PresentationError(f"arrow {aid} touches unknown vertex")
        self.relations = []
        for rel in relations:
            terms = tuple((exact(c), tuple(path)) for c, path in rel)
            if len({len(p) for _, p in terms}) != 1:
                raise PresentationError("relation terms must share length")
            ends = set()
            for _, p in terms:
                if len(p) < 2:
                    raise PresentationError("relations start at path length 2")
                for s in range(len(p) - 1):
                    if self._asrc[p[s]] != self._adst[p[s + 1]]:
                        raise PresentationError(f"non-composable path {p}")
                ends.add((self._asrc[p[-1]], self._adst[p[0]]))
            if len(ends) != 1:
                raise PresentationError("relation terms must share endpoints")
            self.relations.append(terms)
        self.deg_cap = deg_cap
        # degree data; _dims covers every degree, the rest the extracted ones
        self._dims = [len(self.vertices), len(self.arrows)]
        self._src = [[v for v in self.vertices], [a[1] for a in self.arrows]]
        self._dst = [[v for v in self.vertices], [a[2] for a in self.arrows]]
        # degree d >= 2: the basis as spanning pairs (arrow_pos, x_idx), and
        # each spanning pair's nonzero class ((basis_idx, coef), ...)
        self._basis_pairs = [None, None]
        self._classes = [None, None]
        self._mul_cache = {}
        self._build()

    # -- protocol ----------------------------------------------------------

    @property
    def top_degree(self):
        return len(self._dims) - 1

    def dims(self, d):
        return self._dims[d] if 0 <= d < len(self._dims) else 0

    def src(self, d, i):
        if d >= len(self._src):
            self._extend(d)
        return self._src[d][i]

    def dst(self, d, i):
        if d >= len(self._dst):
            self._extend(d)
        return self._dst[d][i]

    def mul(self, d1, i, d2, j):
        """Product (d1, i) after (d2, j) as ((k, coef), ...) in degree d1+d2."""
        if d1 == 0:
            return ((j, 1),) if self._src[0][i] == self._dst[d2][j] else ()
        if d2 == 0:
            return ((i, 1),) if self._src[d1][i] == self._dst[0][j] else ()
        if d1 + d2 > self.top_degree:
            return ()
        key = (d1, i, d2, j)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        if d1 + d2 >= len(self._src):
            self._extend(d1 + d2)
        if self._src[d1][i] != self._dst[d2][j]:
            out = ()
        elif d1 == 1:
            out = self._reduce_pair(d2 + 1, i, j)
        else:
            a, x = self._basis_pairs[d1][i]
            acc = {}
            for k, c in self.mul(d1 - 1, x, d2, j):
                for k2, c2 in self._reduce_pair(d1 - 1 + d2 + 1, a, k):
                    acc[k2] = acc.get(k2, 0) + c * c2
            out = tuple((k, c) for k, c in sorted(acc.items()) if c)
        self._mul_cache[key] = out
        return out

    # -- construction ------------------------------------------------------

    def _reduce_pair(self, d, arrow_pos, x_idx):
        """Class of the spanning pair arrow(x)basis in degree d >= 2."""
        if d > self.top_degree:
            return ()
        return self._classes[d].get((arrow_pos, x_idx), ())

    def _tail_class(self, path_tail, d0, j):
        """Class of (path_tail composed after basis (d0, j)) as ((x, c), ...)."""
        combo = {j: 1}
        d = d0
        for aid in reversed(path_tail):
            apos = self._arrow_pos[aid]
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
        """Spread rows of the relations in degree d, in pair coordinates.

        A relation of length l spreads over the degree-(d - l) basis
        elements that end at its source; that basis is indexed by end
        vertex once per degree.
        """
        rows = []
        ending_at = {}   # d - l -> {vertex: basis indices ending there}
        for terms in self.relations:
            length = len(terms[0][1])
            if d < length or self.dims(d - length) == 0:
                continue
            by_dst = ending_at.get(d - length)
            if by_dst is None:
                by_dst = ending_at[d - length] = {}
                for y, v in enumerate(self._dst[d - length]):
                    by_dst.setdefault(v, []).append(y)
            # each term as (coef, position of its outer arrow, the rest)
            split = [(c, self._arrow_pos[p[0]], p[1:]) for c, p in terms]
            for y in by_dst.get(self._asrc[terms[0][1][-1]], ()):
                row = {}
                for c, apos, tail in split:
                    for x, c2 in self._tail_class(tail, d - length, y).items():
                        key = index[(apos, x)]
                        row[key] = row.get(key, 0) + c * c2
                row = {k: c for k, c in row.items() if c}
                if row:
                    rows.append(row)
        return rows

    def _add_degree(self):
        """Extract the next degree d from degree d - 1; its dimension, and
        nothing stored when it is 0."""
        d = len(self._src)
        pairs = []
        for apos, (aid, src, dst) in enumerate(self.arrows):
            for x in range(self.dims(d - 1)):
                if self._dst[d - 1][x] == src:
                    pairs.append((apos, x))
        index = {p: i for i, p in enumerate(pairs)}
        # the free basis is the non-pivot pairs of the relations' RREF;
        # a pair killed outright has the unit row at its pivot
        ech = Echelon()
        for row in self._relation_rows(d, index):
            ech.add(row)
        if d == 2:
            # degree-1 index and arrow position agree: the pivots are S
            self._leading = frozenset(pairs[p] for p in ech.rows)
        free = [p for p in range(len(pairs)) if p not in ech.rows]
        if not free:
            return 0
        free_pos = {p: t for t, p in enumerate(free)}
        classes = {pairs[p]: ((t, 1),) for t, p in enumerate(free)}
        for pc, row in ech.rows.items():
            if row:  # a pair killed outright keeps the empty class
                classes[pairs[pc]] = tuple((free_pos[j], -c)
                                           for j, c in sorted(row.items()))
        basis = [pairs[p] for p in free]
        self._basis_pairs.append(basis)
        self._classes.append(classes)
        self._src.append([self._src[d - 1][x] for _, x in basis])
        self._dst.append([self.arrows[a][2] for a, _ in basis])
        return len(free)

    def _extend(self, d):
        """Extract the degrees up to d that a PBW build deferred."""
        while len(self._src) <= min(d, self.top_degree):
            self._add_degree()

    def _grow(self, n):
        """Record the next degree's dimension n; False when it is 0."""
        if not n:
            return False  # so is every higher degree
        self._dims.append(n)
        if self.top_degree >= self.deg_cap:
            raise NonTerminating(
                f"degree {self.deg_cap} reached with dimension "
                f"{n} still nonzero")
        return True

    def _certificate(self):
        """S when the relations are quadratic and the degree-3 normal words
        of each endpoint pair are as many as the basis, else None."""
        if any(len(terms[0][1]) != 2 for terms in self.relations):
            return None
        normal = self._basis_pairs[2] if self.top_degree >= 2 else ()
        words = next(islice(_words(self.arrows, normal), 2, None), {})
        by_pair = {}
        for (v, f), n in words.items():
            key = (v, self.arrows[f][2])
            by_pair[key] = by_pair.get(key, 0) + n
        return self._leading if by_pair == self.dims_by_pair(3) else None

    def _build(self):
        # degrees 2 and 3 decide the certificate
        while self.top_degree < 3 and self._grow(self._add_degree()):
            pass
        self.pbw = self._certificate()
        if self.top_degree < 3:
            return  # built in full
        if self.pbw is None:
            while self._grow(self._add_degree()):
                pass
            return
        # a PBW algebra has as many basis elements as normal words
        for d, words in enumerate(_words(self.arrows, self._basis_pairs[2]), 1):
            if d > 3:
                self._grow(sum(words.values()))

    # -- conveniences ------------------------------------------------------

    def total_dim(self):
        return sum(self.hilbert())



def _words(arrows, pairs):
    """The arrow words whose consecutive pairs all lie in `pairs`, by length
    1, 2, ... while there are any: {(start vertex, outermost arrow position):
    count} for each length.  `pairs` holds (outer, inner) arrow positions."""
    after = {}
    for f, g in pairs:
        after.setdefault(g, []).append(f)
    words = {(a[1], pos): 1 for pos, a in enumerate(arrows)}
    while words:
        yield words
        longer = {}
        for (v, g), n in words.items():
            for f in after.get(g, ()):
                longer[(v, f)] = longer.get((v, f), 0) + n
        words = longer


def from_presentation(quiver, relations, deg_cap=8) -> PresentedAlgebra:
    """The algebra of a `quiver.Quiver` on its thin arrows modulo its
    `quiver.Relation`s."""
    return PresentedAlgebra([v.vid for v in quiver.vertices],
                            [(t.tid, t.src, t.dst) for t in quiver.thin],
                            [r.terms for r in relations], deg_cap)


# ---------------------------------------------------------------------------
# minimal graded resolutions


class Resolution:
    __slots__ = ("vertex", "betti")

    def __init__(self, vertex, betti=None):
        self.vertex = vertex
        self.betti = {} if betti is None else betti   # (i, degree) -> {vertex: count}

    def is_linear(self):
        return all(i == d for (i, d) in self.betti)

    def betti_number(self, i, d):
        return sum(self.betti.get((i, d), {}).values())


class _Projective:
    """Direct sum of shifted vertex projectives over a protocol algebra.

    Its basis falls into blocks by (degree t, destination vertex w): blocks
    maps (t, w) to the list of (summand_idx, d, i) spanning it.
    """

    def __init__(self, alg, summands):
        self.alg = alg
        self.blocks = {}
        for s, (v, shift) in enumerate(summands):
            for d in range(alg.top_degree + 1):
                for i in range(alg.dims(d)):
                    if alg.src(d, i) == v:
                        self.blocks.setdefault((shift + d, alg.dst(d, i)),
                                               []).append((s, d, i))
        self._pos = {key: {b: pos for pos, b in enumerate(basis)}
                     for key, basis in self.blocks.items()}

    def act(self, key, vec, gdeg, gidx):
        """Left action of algebra element (gdeg, gidx) on a sparse vector
        {position: coef} of block key = (t, w); returns a sparse vector of
        block (t + gdeg, dst(g)), empty when g does not start at w or that
        block does not exist."""
        t, w = key
        out_pos = self._pos.get((t + gdeg, self.alg.dst(gdeg, gidx)))
        if out_pos is None or self.alg.src(gdeg, gidx) != w:
            return {}
        basis = self.blocks[key]
        out = {}
        for pos, c in vec.items():
            s, d, i = basis[pos]
            for k, c2 in self.alg.mul(gdeg, gidx, d, i):
                j = out_pos[(s, d + gdeg, k)]
                out[j] = out.get(j, 0) + c * c2
        return {j: c for j, c in out.items() if c}


def minimal_resolution(alg, vertex, hom_cap=5) -> Resolution:
    """Minimal graded resolution of the vertex simple, up to hom_cap steps.

    Every map here preserves degree and destination vertex, so vectors are
    sparse {position: coef} over one (degree, vertex) block of a projective,
    and spans, generators and kernels are computed one block at a time.
    """
    if vertex not in alg.vertices:
        raise VertexMismatch(f"unknown vertex {vertex!r}")
    res = Resolution(vertex)
    res.betti[(0, 0)] = {vertex: 1}
    p = _Projective(alg, [(vertex, 0)])
    # first syzygy: everything of positive degree in P^0
    kernel = {key: [{pos: 1} for pos in range(len(basis))]
              for key, basis in p.blocks.items() if key[0] > 0}
    for step in range(1, hom_cap + 1):
        # minimal generators of the kernel, block by block: the kernel
        # vectors at (t, w) outside the span of the images of the kernel at
        # (t - 1, src(a)) under each arrow a into w
        gens = []  # ((t, w), vector)
        for (t, w), vectors in kernel.items():
            span = Echelon()
            for a in range(alg.dims(1)):
                if alg.dst(1, a) == w:
                    below = (t - 1, alg.src(1, a))
                    for u in kernel.get(below, ()):
                        span.add(p.act(below, u, 1, a))
            for u in vectors:
                if span.add(u):
                    gens.append(((t, w), u))
        for (t, w), _ in gens:
            counts = res.betti.setdefault((step, t), {})
            counts[w] = counts.get(w, 0) + 1
        if not gens or step == hom_cap:
            break  # the kernel of the last map would feed no further step
        # the next projective, and the kernel of P_next -> P block by block
        pnext = _Projective(alg, [(w, t) for (t, w), _ in gens])
        kernel = {}
        for key, basis in pnext.blocks.items():
            rows = {}  # target position -> {source position: coef}
            for j, (s, d, i) in enumerate(basis):
                for r, c in p.act(*gens[s], d, i).items():
                    rows.setdefault(r, {})[j] = c
            ech = Echelon()
            for row in rows.values():
                ech.add(row)
            null = ech.kernel(range(len(basis)))
            if null:
                kernel[key] = null
        p = pnext
    return res


def _counted_resolutions(alg, hom_cap):
    """Betti tables of the vertex simples of a PBW algebra up to hom_cap.

    The resolutions are linear, and b_{i,i}(w) for the simple at v is the
    number of arrow words of length i from v to w whose consecutive pairs
    all lie in S: the words spanning the Koszul dual.
    """
    tables = {v: Resolution(v, {(0, 0): {v: 1}}) for v in alg.vertices}
    for step, words in zip(range(1, hom_cap + 1), _words(alg.arrows, alg.pbw)):
        for (v, f), n in words.items():
            counts = tables[v].betti.setdefault((step, step), {})
            w = alg.arrows[f][2]
            counts[w] = counts.get(w, 0) + n
    return tables


def koszul_check(alg, hom_cap=5):
    """True iff every vertex simple has a linear resolution up to hom_cap.

    A PBW algebra is Koszul and its tables are counted; any other algebra
    is resolved vertex by vertex."""
    if alg.pbw is not None:
        return True, _counted_resolutions(alg, hom_cap)
    tables = {}
    ok = True
    for v in alg.vertices:
        res = minimal_resolution(alg, v, hom_cap)
        tables[v] = res
        ok = ok and res.is_linear()
    return ok, tables
