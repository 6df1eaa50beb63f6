"""Finite-dimensional graded pointed algebras and their resolutions.

`PresentedAlgebra` is a quiver with quadratic relations, its basis
extracted degree by degree: degree d is spanned by the pairs arrow(x), x in
A_{d-1}, modulo relation spreads, and each pair (arrow position, x) is its
own elimination column.  It is the one carrier of graded algebras in the
package: the auxiliary algebras S(W) and Lambda(W) and the Segre product
in `reference` are presented algebras too.

On top of the basis (dims / src / dst / mul): Hilbert series, minimal
graded resolutions of the vertex simples with exact Betti tables, and the
linearity check up to a homological cap.  All arithmetic is exact.

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

Because the normal words of length d span A_d, a quadratic algebra with
none of length d >= 3 is 0 in degree d, and that degree is not eliminated.
"""

from __future__ import annotations

from .linalg import Echelon, exact


class NonTerminating(RuntimeError):
    """Basis extraction did not reach an empty degree below the cap."""


class VertexMismatch(ValueError):
    pass


class PresentationError(ValueError):
    pass


# ---------------------------------------------------------------------------
# presented algebras


class PresentedAlgebra:
    """Path algebra of a quiver modulo homogeneous monomial-length relations.

    vertices: sequence of vertex ids.  arrows: (aid, src, dst) triples with
    unique aids.  relations: iterables of (coef, path) with path a tuple of
    arrow ids, outermost first, so (f, g) means "f after g"; all terms of one
    relation must share endpoints and length.  Relations are quadratic in the
    intended use; longer homogeneous relations are supported for control
    experiments.  Each coefficient is normalised once by `linalg.exact`.
    A quadratic relation with one nonzero term, the common case, kills its
    pair in degree 2 without an elimination row.

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
        # arrow id -> (position, src, dst)
        self._arrow = {aid: (i, src, dst)
                       for i, (aid, src, dst) in enumerate(self.arrows)}
        if len(self._arrow) != len(self.arrows):
            raise PresentationError("duplicate arrow ids")
        vset = set(self.vertices)
        for aid, src, dst in self.arrows:
            if src not in vset or dst not in vset:
                raise PresentationError(f"arrow {aid} touches unknown vertex")
        self.relations = []
        # each relation as (length, source vertex, nonzero terms), a term as
        # (coef, outer arrow position, first tail arrow position, the other
        # tail arrow positions), the tail innermost first; a quadratic
        # relation with one nonzero term goes to _monomials, the rest to
        # _spreads
        self._spreads, self._monomials = [], []
        arrow = self._arrow
        for rel in relations:
            terms = tuple((exact(c), tuple(path)) for c, path in rel)
            if not terms:
                raise PresentationError("relation has no terms")
            length = len(terms[0][1])
            if len(terms) > 1 and len({len(p) for _, p in terms}) != 1:
                raise PresentationError("relation terms must share length")
            if length < 2:
                raise PresentationError("relations start at path length 2")
            split, ends = [], set()
            for c, p in terms:
                try:
                    f = g = arrow[p[0]]
                    tail = []
                    for aid in p[1:]:
                        h = arrow[aid]
                        if g[1] != h[2]:
                            raise PresentationError(f"non-composable path {p}")
                        g = h
                        tail.append(h[0])
                except KeyError as exc:
                    raise PresentationError(
                        f"path {p} names an unknown arrow {exc}") from None
                ends.add((g[1], f[2]))
                if c:
                    split.append((c, f[0], g[0], tail[-2::-1]))
            if len(ends) != 1:
                raise PresentationError("relation terms must share endpoints")
            self.relations.append(terms)
            (self._monomials if length == 2 and len(split) == 1
             else self._spreads).append((length, g[1], split))
        self._quadratic = all(spread[0] == 2 for spread in self._spreads)
        self.deg_cap = deg_cap
        # degree data; _dims covers every degree, the rest the extracted ones
        self._dims = [len(self.vertices), len(self.arrows)]
        self._src = [[v for v in self.vertices], [a[1] for a in self.arrows]]
        self._dst = [[v for v in self.vertices], [a[2] for a in self.arrows]]
        # each degree's basis indices by end vertex
        self._ending = [_by_vertex(dst) for dst in self._dst]
        # degree d >= 2: the basis as spanning pairs (arrow_pos, x_idx), and
        # each spanning pair's nonzero class ((basis_idx, coef), ...)
        self._basis_pairs = [None, None]
        self._classes = [None, None]
        self._mul_cache = {}
        # the normal words by length, and the walk that lists them
        self._normal, self._walk = [], None
        self._build()

    # -- the basis ---------------------------------------------------------

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
            out = self._classes[d2 + 1].get((i, j), ())
        else:
            a, x = self._basis_pairs[d1][i]
            acc = {}
            for k, c in self.mul(d1 - 1, x, d2, j):
                for k2, c2 in self._classes[d1 + d2].get((a, k), ()):
                    acc[k2] = acc.get(k2, 0) + c * c2
            out = tuple((k, c) for k, c in sorted(acc.items()) if c)
        self._mul_cache[key] = out
        return out

    # -- construction ------------------------------------------------------

    def _relation_rows(self, d):
        """The pairs that single-term spread rows of the relations kill in
        degree d, and the other rows, keyed by pair.  A relation of
        length l spreads over the degree-(d - l) basis elements y ending at
        its source; a term's tail after y is read off the stored classes
        arrow by arrow, a degree-0 y giving the arrow.  In degree 2 a
        quadratic relation with one nonzero term kills its pair outright."""
        if d == 2:
            killed = {(f, g) for *_, ((_, f, g, _),) in self._monomials}
            spreads = self._spreads
        else:
            killed, spreads = set(), self._spreads + self._monomials
        rows = []
        classes = self._classes
        for length, source, split in spreads:
            d0 = d - length
            if d0 < 0:
                continue
            after = classes[d0 + 1]   # None when y is a vertex
            for y in self._ending[d0].get(source, ()):
                row = {}
                for c, apos, first, rest in split:
                    combo = after.get((first, y), ()) if d0 else ((first, 1),)
                    k = d0 + 1
                    for t in rest:
                        k += 1
                        acc = {}
                        for x, cx in combo:
                            for x2, c2 in classes[k].get((t, x), ()):
                                acc[x2] = acc.get(x2, 0) + cx * c2
                        combo = [(x, cx) for x, cx in acc.items() if cx]
                    for x, c2 in combo:
                        row[apos, x] = row.get((apos, x), 0) + c * c2
                if len(split) > 1:  # terms cancel only each other
                    row = {k: c for k, c in row.items() if c}
                if len(row) == 1:
                    killed.update(row)
                elif row:
                    rows.append(row)
        return killed, rows

    def _add_degree(self):
        """Extract the next degree d from degree d - 1; its dimension, and
        nothing stored when it is 0."""
        d = len(self._src)
        if d >= 3 and self._quadratic and not self._normal_words(d):
            return 0   # the normal words of length d span A_d
        # the free basis is the non-pivot pairs of the relations' RREF.  A
        # single-term row kills its pair outright, so the RREF is the unit
        # rows of the killed pairs and the RREF of the other rows off them
        killed, rows = self._relation_rows(d)
        ech = Echelon()
        for row in rows:
            ech.add({k: c for k, c in row.items() if k not in killed})
        pivots = killed.union(ech.rows)
        if d == 2:
            # x is an arrow position too: the pivots are S
            self._leading = frozenset(pivots)
        ending = self._ending[d - 1]
        basis = [(apos, x) for apos, a in enumerate(self.arrows)
                 for x in ending.get(a[1], ()) if (apos, x) not in pivots]
        if not basis:
            return 0
        free_pos = {p: t for t, p in enumerate(basis)}
        classes = {p: ((t, 1),) for p, t in free_pos.items()}
        for pc, row in ech.rows.items():
            if row:  # a killed pair keeps the empty class
                classes[pc] = tuple((free_pos[j], -c)
                                    for j, c in sorted(row.items()))
        self._basis_pairs.append(basis)
        self._classes.append(classes)
        self._src.append([self._src[d - 1][x] for _, x in basis])
        self._dst.append([self.arrows[a][2] for a, _ in basis])
        self._ending.append(_by_vertex(self._dst[d]))
        return len(basis)

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

    def _normal_words(self, d):
        """{(start vertex, outermost arrow position): count} for the normal
        words of length d; the walk over the degree-2 basis pairs goes on
        from the longest length listed so far."""
        if self._walk is None:
            self._walk = _words(self.arrows, self._basis_pairs[2]
                                if len(self._basis_pairs) > 2 else ())
        while len(self._normal) < d:
            self._normal.append(next(self._walk, {}))
        return self._normal[d - 1]

    def _certificate(self):
        """S when the relations are quadratic and the degree-3 normal words
        of each endpoint pair are as many as the basis, else None."""
        if not self._quadratic:
            return None
        by_pair = {}
        for (v, f), n in self._normal_words(3).items():
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
        while self._grow(sum(self._normal_words(len(self._dims)).values())):
            pass

    # -- conveniences ------------------------------------------------------

    def hilbert(self):
        return tuple(self._dims)

    def dims_by_pair(self, d):
        out = {}
        for i in range(self.dims(d)):
            key = (self.src(d, i), self.dst(d, i))
            out[key] = out.get(key, 0) + 1
        return out

    def total_dim(self):
        return sum(self._dims)


def _by_vertex(ends):
    """{vertex: the indices i with ends[i] == vertex, ascending}."""
    out = {}
    for i, v in enumerate(ends):
        out.setdefault(v, []).append(i)
    return out


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
    relations, each a tuple of (coef, (outer tid, ..., inner tid)) terms."""
    return PresentedAlgebra([v.vid for v in quiver.vertices],
                            [(t.tid, t.src, t.dst) for t in quiver.thin],
                            relations, deg_cap)


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
    """Direct sum of shifted vertex projectives over a presented algebra.

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
