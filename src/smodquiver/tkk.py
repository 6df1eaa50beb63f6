"""Short-graded Lie algebras from commutative algebra structure constants.

`tkk_construct` realizes g = g_{-1} + g_0 + g_1 with g_{-1} the algebra J,
g_0 the span of left multiplications and their commutators inside End(J),
and g_1 the span of the product map P and its g_0-orbit inside the symmetric
bilinear maps.  The distinguished triple is (unit, -L_unit, P).  Everything
is verified: grading, Jacobi, triple identities.

`lie_datum_of_spec` is the classification-level counterpart: it maps a
JordanSpec to graded simple kinds plus radical entries with multiplicity
spaces, without touching structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import jordan
from .linalg import Echelon, denominator_lcm, op_commutator, op_lines

MAX_EXPLICIT_DIM = 16


class JacobiFails(ArithmeticError):
    """The constructed bracket is not a Lie bracket (bad input or bug)."""


class NotUnital(ValueError):
    pass


# ---------------------------------------------------------------------------
# explicit construction


@dataclass
class ShortGradedLie:
    """Graded Lie algebra on basis g_{-1} | g_0 | g_1 with sparse brackets."""

    dims: tuple                    # (d_-1, d_0, d_1)
    bracket: dict                  # (i, j) with i < j -> {k: coeff}
    triple: tuple                  # (e, h, f) as full coordinate vectors

    @property
    def total_dim(self):
        return sum(self.dims)

    def degree(self, i):
        n, d0, _ = self.dims
        if i < n:
            return -1
        if i < n + d0:
            return 0
        return 1

    def bracket_basis(self, i, j):
        if i == j:
            return {}
        if i < j:
            return self.bracket.get((i, j), {})
        return {k: -c for k, c in self.bracket.get((j, i), {}).items()}

    def bracket_vec(self, u, v):
        out = {}
        for i, ui in enumerate(u):
            if not ui:
                continue
            for j, vj in enumerate(v):
                if not vj:
                    continue
                for k, c in self.bracket_basis(i, j).items():
                    out[k] = out.get(k, 0) + ui * vj * c
        return {k: c for k, c in out.items() if c}

    def check_grading(self):
        for (i, j), vec in self.bracket.items():
            d = self.degree(i) + self.degree(j)
            for k, c in vec.items():
                if c and self.degree(k) != d:
                    return False
        return True

    def check_jacobi(self):
        """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = 0 for every
        basis triple i < j < k.

        Each term is quadratic in the brackets, so they are scaled to `int`
        by the lcm L of their denominators (every sum scales by L**2).  The
        terms are then scattered into their triples: [[e_a,e_b],e_c] with
        a < b enters the triple sorted(a, b, c) with sign -1 when a < c < b
        (it is then -[[e_k,e_i],e_j]) and +1 otherwise.  A triple whose three
        brackets vanish gets no term and holds trivially.
        """
        scale = denominator_lcm(self.bracket.values())
        # ad[i][j] = scale * [e_i, e_j] for every nonzero bracket, both signs
        ad = {}
        for (i, j), vec in self.bracket.items():
            vec = {k: c.numerator * (scale // c.denominator)
                   for k, c in vec.items() if c}
            if vec:
                ad.setdefault(i, {})[j] = vec
                ad.setdefault(j, {})[i] = {k: -c for k, c in vec.items()}
        acc = {}  # (i, j, k) -> the sum of its terms, a sparse vector
        for a, ad_a in ad.items():
            for b, vec in ad_a.items():
                if b < a:
                    continue
                for t, x in vec.items():
                    for c, tc in ad.get(t, {}).items():
                        if b < c:
                            triple, y = (a, b, c), x
                        elif c < a:
                            triple, y = (c, a, b), x
                        elif a < c < b:
                            triple, y = (a, c, b), -x
                        else:
                            continue
                        dst = acc.setdefault(triple, {})
                        for s, d in tc.items():
                            dst[s] = dst.get(s, 0) + y * d
        return not any(any(v.values()) for v in acc.values())

    def check_triple(self):
        """e in g_{-1}, h in g_0, f in g_1 with [e,f]=h, [h,e]=-e, [h,f]=f."""
        e, h, f = self.triple
        ef = self.bracket_vec(e, f)
        if {k: c for k, c in enumerate(h) if c} != ef:
            return False
        he = self.bracket_vec(h, e)
        if {k: -c for k, c in enumerate(e) if c} != he:
            return False
        hf = self.bracket_vec(h, f)
        return {k: c for k, c in enumerate(f) if c} == hf


def _op_key(op, n):
    """An operator {(row, col): x} as one sparse vector, key row * n + col."""
    return {r * n + c: x for (r, c), x in op.items()}


def _map_key(bmap, n):
    """A bilinear map {(x, y): {k: c}} as one sparse vector, key (x*n + y)*n + k."""
    return {(x * n + y) * n + k: c for (x, y), vec in bmap.items()
            for k, c in vec.items()}


def _pruned(acc):
    return {k: c for k, c in acc.items() if c}


def _act(op, bmap):
    """(L.B)(x,y) = L(B(x,y)) - B(Lx,y) - B(x,Ly) on a symmetric map B."""
    rows, cols = op_lines(op)
    out = {}
    for xy, vec in bmap.items():
        dst = out.setdefault(xy, {})
        for k, c in vec.items():
            for r, x in cols.get(k, ()):
                dst[r] = dst.get(r, 0) + x * c
    for (t, y), vec in bmap.items():
        for x, l in rows.get(t, ()):
            # B(Lx, y) and B(y, Lx), both read off B(t, y); twice when x == y
            for dst in (out.setdefault((x, y), {}), out.setdefault((y, x), {})):
                for k, c in vec.items():
                    dst[k] = dst.get(k, 0) - l * c
    out = {xy: _pruned(vec) for xy, vec in out.items()}
    return {xy: vec for xy, vec in out.items() if vec}


def _exact(c):
    """c as an int when it is integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c


def tkk_construct(sc: jordan.StructureConstants) -> ShortGradedLie:
    """Short-graded Lie algebra of a unital algebra given by its table.

    Operators are sparse {(row, col): x} and bilinear maps sparse
    {(x, y): {k: c}}; each degree is spanned in one `Echelon` over their
    flattened entries.  Integral table entries and unit coordinates are kept
    as `int`, so on an integral table the arithmetic stays over `int` up to
    the first pivot other than +-1.
    """
    n = sc.dim
    if n > MAX_EXPLICIT_DIM:
        raise ValueError(f"explicit construction bounded at dim {MAX_EXPLICIT_DIM}")
    if not jordan.check_jordan_identity(sc):
        raise ValueError("structure constants fail the defining identity")
    unit = jordan.find_unit(sc)
    if unit is None:
        raise NotUnital("algebra has no identity element")
    unit = [_exact(u) for u in unit]
    table = [[{k: _exact(c) for k, c in v.items()} for v in row]
             for row in sc.sparse]

    # L_i: column j is the vector e_i * e_j
    lmaps = [{(k, j): c for j in range(n) for k, c in table[i][j].items()}
             for i in range(n)]

    # g_0: span of L_a and [L_a, L_b]
    g0 = Echelon(track=True)
    g0_ops = []

    def add_op(op):
        if g0.add(_op_key(op, n)):
            g0_ops.append(op)

    for op in lmaps:
        add_op(op)
    for i in range(n):
        for j in range(i + 1, n):
            add_op(op_commutator(lmaps[i], lmaps[j]))

    # g_1: span of P and L_a.P, inside symmetric bilinear maps
    ptensor = {(x, y): table[x][y]
               for x in range(n) for y in range(n) if table[x][y]}
    g1 = Echelon(track=True)
    g1_maps = []

    def add_map(b):
        if g1.add(_map_key(b, n)):
            g1_maps.append(b)

    add_map(ptensor)
    for op in lmaps:
        add_map(_act(op, ptensor))

    d0, d1 = len(g0_ops), len(g1_maps)
    total = n + d0 + d1
    bracket = {}

    def put(i, j, vec_dict):
        vec_dict = {k: c for k, c in vec_dict.items() if c}
        if not vec_dict:
            return
        if i < j:
            bracket[(i, j)] = vec_dict
        else:
            bracket[(j, i)] = {k: -c for k, c in vec_dict.items()}

    def coords(ech, key, shift, error):
        """Coordinates in g (generator t is basis vector shift + t)."""
        c = ech.coords(key)
        if c is None:
            raise JacobiFails(error)
        return {shift + t: x for t, x in sorted(c.items())}

    def g0_coords(op):
        return coords(g0, _op_key(op, n), n,
                      "operator outside the constructed degree-0 span")

    def g1_coords(b):
        return coords(g1, _map_key(b, n), n + d0,
                      "bilinear map outside the constructed degree-1 span")

    # [L, x] = L(x)
    for a, op in enumerate(g0_ops):
        _, cols = op_lines(op)
        for i in range(n):
            put(n + a, i, dict(sorted(cols.get(i, ()))))
    # [B, x](y) = B(x, y), an operator in g_0
    for b, B in enumerate(g1_maps):
        for i in range(n):
            op = {(k, y): c for y in range(n) for k, c in B.get((i, y), {}).items()}
            put(n + d0 + b, i, g0_coords(op))
    # [L, L'] and [L, B]
    for a, op in enumerate(g0_ops):
        for b in range(a + 1, d0):
            put(n + a, n + b, g0_coords(op_commutator(op, g0_ops[b])))
        for b, B in enumerate(g1_maps):
            put(n + a, n + d0 + b, g1_coords(_act(op, B)))

    evec = [0] * total
    for i, x in enumerate(unit):
        evec[i] = x
    neg_le = {}
    for i, u in enumerate(unit):
        for key, c in lmaps[i].items():
            neg_le[key] = neg_le.get(key, 0) - u * c
    hvec = [0] * total
    for t, c in g0_coords(_pruned(neg_le)).items():
        hvec[t] = c
    fvec = [0] * total
    for t, c in g1_coords(ptensor).items():
        fvec[t] = c

    g = ShortGradedLie((n, d0, d1), bracket, (tuple(evec), tuple(hvec), tuple(fvec)))
    if not (g.check_grading() and g.check_triple() and g.check_jacobi()):
        raise JacobiFails("constructed bracket fails verification")
    return g


def jordan_from_short_pair(g: ShortGradedLie) -> jordan.StructureConstants:
    """Product x*y = [[f,x],y] on g_{-1}, from the stored triple."""
    n = g.dims[0]
    _, _, f = g.triple
    table = []
    for i in range(n):
        xi = [1 if t == i else 0 for t in range(g.total_dim)]
        fx = g.bracket_vec(f, xi)
        fxv = [0] * g.total_dim
        for k, c in fx.items():
            fxv[k] = c
        row = []
        for j in range(n):
            xj = [1 if t == j else 0 for t in range(g.total_dim)]
            res = g.bracket_vec(fxv, xj)
            if any(k >= n for k in res):
                raise JacobiFails("[[f,x],y] leaves degree -1")
            row.append(tuple(res.get(k, 0) for k in range(n)))
        table.append(row)
    return jordan.StructureConstants(table)


def minimality_check(g: ShortGradedLie) -> bool:
    """[g_{-1}, g_1] spans g_0 and the center is zero."""
    n, d0, d1 = g.dims
    total = g.total_dim
    span = Echelon()
    for i in range(n):
        for b in range(n + d0, total):
            vec = g.bracket_basis(i, b)
            if any(k < n or k >= n + d0 for k in vec):
                return False
            span.add({k - n: c for k, c in vec.items() if c})
    if len(span.rows) != d0:
        return False
    # the center is the kernel of x -> ([x, e_j])_j: one row per (j, k),
    # holding the coefficient of e_k in [e_i, e_j] at column i
    ad_rows = {}
    for (i, j), vec in g.bracket.items():
        for k, c in vec.items():
            if c:
                ad_rows.setdefault((j, k), {})[i] = c
                ad_rows.setdefault((i, k), {})[j] = -c
    ad = Echelon()
    for row in ad_rows.values():
        ad.add(row)
    return len(ad.rows) == total


# ---------------------------------------------------------------------------
# classification-level map


def kind_of_ideal(ideal: jordan.SimpleIdealKind):
    """The graded simple `catalog.LieKind` of a simple ideal."""
    from .catalog import E7, SL, SL2, SO1, SO2, SP

    if ideal.kind == "field":
        return SL2
    if ideal.kind == "bilinear":
        if ideal.dim < 3:
            raise ValueError("bilinear ideal requires dim >= 3")
        return SO2(ideal.dim + 2)
    if ideal.kind == "hermitian":
        if ideal.n < 3:
            raise ValueError("hermitian ideal requires n >= 3")
        if ideal.comp == 1:
            return SP(2 * ideal.n)
        if ideal.comp == 2:
            return SL(2 * ideal.n)
        if ideal.comp == 4:
            return SO1(4 * ideal.n)
        raise ValueError("hermitian component dim must be 1, 2 or 4")
    if ideal.kind == "albert":
        return E7
    raise ValueError(f"unknown ideal kind {ideal.kind!r}")


@dataclass(frozen=True)
class RadicalEntry:
    """A simple summand of the radical, with its multiplicity space."""

    support: tuple   # one or two summand indices
    labels: tuple    # parallel catalog names
    w_dim: int

    @property
    def is_tensor(self):
        return len(self.support) == 2


@dataclass(frozen=True)
class LieDatum:
    summands: tuple   # LieKind per simple ideal
    radical: tuple    # merged RadicalEntry list


def lie_datum_of_spec(spec: jordan.JordanSpec) -> LieDatum:
    """Classification-level graded Lie datum of a unital spec."""
    report = jordan.validate_spec(spec)
    if not report.ok:
        raise jordan.SpecError(report)
    if not spec.unital:
        raise ValueError("spec must be unital (apply unitalize first)")
    kinds = tuple(kind_of_ideal(i) for i in spec.ideals)
    merged = {}
    for comp in spec.radical:
        refs = sorted(comp.refs)
        key = (tuple(i for i, _ in refs), tuple(l for _, l in refs))
        merged[key] = merged.get(key, 0) + comp.mult
    entries = tuple(RadicalEntry(sup, labs, merged[(sup, labs)])
                    for sup, labs in sorted(merged))
    return LieDatum(kinds, entries)


# ---------------------------------------------------------------------------
# central extensions


@dataclass
class CentextReport:
    pair_dims: dict = field(default_factory=dict)  # (q, q') with q <= q' -> dim
    total: int = 0


def _parity_indicator(kind, name):
    """(t_sym, t_alt): trivial multiplicity in S^2 and Lambda^2 (classical)."""
    from . import catalog

    p = catalog.classical_parity(kind, name)
    return (1 if p == "symmetric" else 0, 1 if p == "skew" else 0)


def _entry_parities(datum, entry):
    ts, tl = 1, 0  # neutral for the 1-dim case; replaced below
    if entry.is_tensor:
        (ka, kb) = (datum.summands[entry.support[0]], datum.summands[entry.support[1]])
        sa, la_ = _parity_indicator(ka, entry.labels[0])
        sb, lb_ = _parity_indicator(kb, entry.labels[1])
        ts = sa * sb + la_ * lb_
        tl = sa * lb_ + la_ * sb
    else:
        kind = datum.summands[entry.support[0]]
        ts, tl = _parity_indicator(kind, entry.labels[0])
    return ts, tl


def _entries_dual(datum, e1, e2):
    from . import catalog

    if e1.support != e2.support:
        return False
    duals = tuple(catalog.dual_label(datum.summands[i], l)
                  for i, l in zip(e1.support, e1.labels))
    return duals == e2.labels


def central_extension_dim(datum: LieDatum) -> CentextReport:
    """dim of the invariants of the alternating square of the radical.

    Computed per pair of radical entries: within one entry W(x)M the
    contribution is dim S^2(W) * [M alternating] + dim Lambda^2(W) *
    [M symmetric]; a cross pair contributes dim W * dim W' iff the base
    modules are dual.  Parities come from the character engine (classical
    indicators), so this is the honest cohomological dimension.
    """
    rep = CentextReport()
    entries = datum.radical
    for q, e in enumerate(entries):
        ts, tl = _entry_parities(datum, e)
        k = e.w_dim
        dim = (k * (k + 1) // 2) * tl + (k * (k - 1) // 2) * ts
        if dim:
            rep.pair_dims[(q, q)] = dim
        for q2 in range(q + 1, len(entries)):
            e2 = entries[q2]
            if _entries_dual(datum, e, e2):
                rep.pair_dims[(q, q2)] = e.w_dim * e2.w_dim
    rep.total = sum(rep.pair_dims.values())
    return rep
