"""Commutative algebras with the partial associativity law, and their modules.

Carries both classification-level data (`JordanSpec`: simple ideals plus a
square-zero radical given by catalog labels) and explicit structure constants
for small algebras, with exact multilinearized identity checks.

Coefficients are exact: `int` or `Fraction`, never a float.  Identities are
checked on basis tuples after full multilinearization, which is equivalent
over an infinite field.  The Jordan identity check runs over `int`: every
term of the linearized identity is a product of three structure constants,
so scaling the table by the lcm L of its denominators multiplies each side
by L**3 and leaves the verdict unchanged.
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple
from fractions import Fraction

from .linalg import (Q0, Q1, Echelon, dense_vector, denominator_lcm, op_commutator,
                     op_lines, op_mul, qvec, sparse_vector)


class CubicIdentityFails(ArithmeticError):
    """rho(e)(rho(e)-1)(2 rho(e)-1) != 0: not a module over the algebra."""


class NotAssociative(ArithmeticError):
    pass


class SpecError(ValueError):
    def __init__(self, report):
        super().__init__("; ".join(report.violations))
        self.report = report


# ---------------------------------------------------------------------------
# classification-level specs


class SimpleIdealKind(namedtuple("SimpleIdealKind", "kind dim comp n",
                                 defaults=(0, 0, 0))):
    """kind: "field" | "bilinear" | "hermitian" | "albert".

    dim: bilinear, dim of the algebra including the unit; comp: hermitian,
    composition algebra dimension 1|2|4; n: hermitian, matrix size.
    """

    __slots__ = ()

    def __str__(self):
        if self.kind == "field":
            return "k"
        if self.kind == "bilinear":
            return f"bilinear({self.dim})"
        if self.kind == "hermitian":
            return f"hermitian({self.comp},{self.n})"
        return "albert"


def Field():
    return SimpleIdealKind("field")


def Bilinear(dim):
    return SimpleIdealKind("bilinear", dim=dim)


def Hermitian(comp, n):
    return SimpleIdealKind("hermitian", comp=comp, n=n)


def Albert():
    return SimpleIdealKind("albert")


# kind: "unital" | "tensor"; refs: ((ideal, label),) or ((i, labelA), (j, labelB))
RadicalComponentSpec = namedtuple("RadicalComponentSpec", "kind refs mult",
                                  defaults=(1,))


def Unital(ideal, label, mult=1):
    return RadicalComponentSpec("unital", ((ideal, label),), mult)


def TensorOfSpecial(ideal_a, label_a, ideal_b, label_b, mult=1):
    return RadicalComponentSpec("tensor", ((ideal_a, label_a), (ideal_b, label_b)), mult)


JordanSpec = namedtuple("JordanSpec", "ideals radical unital",
                        defaults=((), True))


class ValidationReport:
    __slots__ = ("violations",)

    def __init__(self, violations=None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self):
        return not self.violations


_TRIVIAL_NAMES = {"tr", "trivial"}


def validate_spec(spec: JordanSpec) -> ValidationReport:
    """Report-style validation of a classification-level spec."""
    from . import catalog
    from .tkk import kind_of_ideal

    rep = ValidationReport()
    bad = rep.violations.append
    for i, ideal in enumerate(spec.ideals):
        if ideal.kind == "bilinear" and ideal.dim < 3:
            bad(f"ideal {i}: bilinear requires dim >= 3, got {ideal.dim}")
        elif ideal.kind == "hermitian":
            if ideal.comp not in (1, 2, 4):
                bad(f"ideal {i}: hermitian component dim must be 1, 2 or 4")
            if ideal.n < 3:
                bad(f"ideal {i}: hermitian requires n >= 3, got {ideal.n}")
        elif ideal.kind not in ("field", "bilinear", "hermitian", "albert"):
            bad(f"ideal {i}: unknown kind {ideal.kind!r}")
    if spec.unital and not spec.ideals:
        bad("unital spec with empty ideal list")

    def kind_or_none(idx):
        try:
            return kind_of_ideal(spec.ideals[idx])
        except ValueError:
            return None

    for j, comp in enumerate(spec.radical):
        if comp.mult < 1:
            bad(f"radical {j}: multiplicity must be >= 1")
        idxs = [i for i, _ in comp.refs]
        if any(i < 0 or i >= len(spec.ideals) for i in idxs):
            bad(f"radical {j}: ideal index out of range")
            continue
        if any(lbl in _TRIVIAL_NAMES for _, lbl in comp.refs):
            bad(f"radical {j}: trivial radical component")
            continue
        if comp.kind == "unital":
            (i, label), = comp.refs
            kind = kind_or_none(i)
            if kind is None:
                continue
            names = {s.name for s in catalog.s_one_simples(kind)}
            if label not in names:
                bad(f"radical {j}: {label!r} is not a short-graded simple of {kind}")
        elif comp.kind == "tensor":
            (ia, la), (ib, lb) = comp.refs
            if ia == ib:
                bad(f"radical {j}: tensor components must reference distinct ideals")
                continue
            for i, lbl in comp.refs:
                kind = kind_or_none(i)
                if kind is None:
                    continue
                names = {s.name for s in catalog.s_half_simples(kind)}
                if lbl not in names:
                    bad(f"radical {j}: {lbl!r} is not a half simple of {kind}")
        else:
            bad(f"radical {j}: unknown component kind {comp.kind!r}")
    return rep


def unitalize(spec: JordanSpec) -> JordanSpec:
    """Adjoin a formal identity: append one field ideal; idempotent."""
    if spec.unital:
        return spec
    return JordanSpec(spec.ideals + (Field(),), spec.radical, True)


# -- JSON wire format --------------------------------------------------------


def spec_to_dict(spec: JordanSpec) -> dict:
    ideals = []
    for ideal in spec.ideals:
        if ideal.kind == "field":
            ideals.append({"kind": "field"})
        elif ideal.kind == "bilinear":
            ideals.append({"kind": "bilinear", "dim": ideal.dim})
        elif ideal.kind == "hermitian":
            ideals.append({"kind": "hermitian", "comp": ideal.comp, "n": ideal.n})
        else:
            ideals.append({"kind": "albert"})
    radical = []
    for comp in spec.radical:
        if comp.kind == "unital":
            (i, label), = comp.refs
            radical.append({"kind": "unital", "ideal": i, "label": label,
                            "mult": comp.mult})
        else:
            (ia, la), (ib, lb) = comp.refs
            radical.append({"kind": "tensor", "a": {"ideal": ia, "label": la},
                            "b": {"ideal": ib, "label": lb}, "mult": comp.mult})
    return {"ideals": ideals, "radical": radical, "unital": spec.unital}


def _objects(value, what):
    """Shape check: value must be a JSON list of JSON objects."""
    if not isinstance(value, list) or not all(isinstance(d, dict) for d in value):
        raise ValueError(f"{what} must be a list of objects")
    return value


def _label(d):
    label = d["label"]
    if not isinstance(label, str):
        raise ValueError(f"label {label!r} is not a string")
    return label


def _int(d, key, default=None):
    """d[key] as an integer; only a JSON integer is accepted, so a bool, a
    float (even 5.0) or a string is a parse error, never silently cast."""
    value = d[key] if default is None else d.get(key, default)
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return value


def spec_from_dict(data: dict) -> JordanSpec:
    if not isinstance(data, dict):
        raise ValueError("spec must be a JSON object")
    ideals = []
    for d in _objects(data["ideals"], "'ideals'"):
        kind = d["kind"]
        if kind == "field":
            ideals.append(Field())
        elif kind == "bilinear":
            ideals.append(Bilinear(_int(d, "dim")))
        elif kind == "hermitian":
            ideals.append(Hermitian(_int(d, "comp"), _int(d, "n")))
        elif kind == "albert":
            ideals.append(Albert())
        else:
            raise ValueError(f"unknown ideal kind {kind!r}")
    radical = []
    for d in _objects(data.get("radical", []), "'radical'"):
        kind = d["kind"]
        mult = _int(d, "mult", 1)
        if kind == "unital":
            radical.append(Unital(_int(d, "ideal"), _label(d), mult))
        elif kind == "tensor":
            a, b = _objects([d["a"], d["b"]], "tensor factors 'a' and 'b'")
            radical.append(TensorOfSpecial(_int(a, "ideal"), _label(a),
                                           _int(b, "ideal"), _label(b), mult))
        else:
            raise ValueError(f"unknown radical kind {kind!r}")
    unital = data.get("unital", True)
    if type(unital) is not bool:   # bool("false") would be True
        raise ValueError(f"'unital' must be true or false, not {unital!r}")
    return JordanSpec(tuple(ideals), tuple(radical), unital)


def load_spec(path) -> JordanSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


def _exponent(s):
    """Magnitude of the decimal exponent of a string such as '1.5e-3'.

    0 when there is none or it is malformed (Fraction then rejects it).
    """
    _, e, exp = s.lower().partition("e")
    try:
        return abs(int(exp)) if e else 0
    except ValueError:
        return 0


def _rational(x):
    """A JSON integer, finite JSON number or Fraction string, exactly.

    Fraction expands a string's exponent into an integer with that many
    digits, so the exponent gets the bound Python already puts on integer
    digit strings (`sys.get_int_max_str_digits()`; 0, or an interpreter
    without the limit, means none).
    """
    if type(x) is bool or not isinstance(x, (int, float, str)):
        raise ValueError(f"bad rational {x!r}")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if isinstance(x, str) and limit and _exponent(x) > limit:
        raise ValueError(f"bad rational {x[:40]!r}: exponent exceeds the "
                         f"integer digit limit {limit}")
    try:
        return Fraction(x)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"bad rational {x!r}: {exc}") from exc


def table_from_dict(data: dict) -> StructureConstants:
    """Structure constants from {"dim": n, "products": rows}.

    `dim` must be a JSON integer >= 1 and `products` exactly n rows of n
    vectors of n rationals, the vector in row i, column j being e_i * e_j.
    """
    if not isinstance(data, dict):
        raise ValueError("table must be a JSON object")
    n = _int(data, "dim")
    if n < 1:
        raise ValueError(f"'dim' must be at least 1, not {n}")
    rows = data["products"]
    if not (isinstance(rows, list) and len(rows) == n
            and all(isinstance(r, list) and len(r) == n for r in rows)):
        raise ValueError(f"'products' must be {n} rows of {n} vectors")
    table = []
    for row in rows:
        for v in row:
            if not (isinstance(v, list) and len(v) == n):
                raise ValueError(f"product entry {v!r} is not a {n}-vector")
        table.append([[_rational(x) for x in v] for v in row])
    return StructureConstants(table)


# ---------------------------------------------------------------------------
# explicit structure constants


def _sparse_table(table):
    """table[i][j] as the sparse vector {k: x} of the product e_i * e_j."""
    return tuple(tuple(sparse_vector(v) for v in row) for row in table)


def _table_product(table, x, y):
    """Product of sparse vectors x and y through a sparse table."""
    out = {}
    for i, xi in x.items():
        row = table[i]
        for j, yj in y.items():
            for k, c in row[j].items():
                out[k] = out.get(k, 0) + xi * yj * c
    return {k: c for k, c in out.items() if c}


def _integral_table(table):
    """The sparse table times the lcm of its denominators, over int."""
    scale = denominator_lcm(v for row in table for v in row)
    return tuple(tuple({k: c.numerator * (scale // c.denominator)
                        for k, c in v.items()} for v in row) for row in table)


def table_bits(sc):
    """dim^2 times the bit length of the largest entry of the table scaled
    to integers: the size of one operator L_i were every entry that long."""
    return sc.dim ** 2 * max((abs(c).bit_length()
                              for row in _integral_table(sc.sparse)
                              for v in row for c in v.values()), default=0)


class StructureConstants:
    """Commutative product on k^n: c[i][j] is the vector e_i * e_j.

    `sparse` holds the same table as sparse vectors {k: x}."""

    def __init__(self, table):
        self.c = tuple(tuple(tuple(Fraction(x) for x in v) for v in row)
                       for row in table)
        self.dim = len(self.c)
        for i in range(self.dim):
            if len(self.c[i]) != self.dim:
                raise ValueError("table is not square")
            for j in range(self.dim):
                if len(self.c[i][j]) != self.dim:
                    raise ValueError("entries must be n-vectors")
                if self.c[i][j] != self.c[j][i]:
                    raise ValueError("table is not commutative")
        self.sparse = _sparse_table(self.c)
        self._jordan = None   # verdict of check_jordan_identity, once known

    def mul(self, x, y):
        xy = _table_product(self.sparse, sparse_vector(x), sparse_vector(y))
        return dense_vector(xy, self.dim)

    def left_mult_matrix(self, i):
        """Matrix of x -> e_i * x."""
        return [[self.c[i][j][k] for j in range(self.dim)] for k in range(self.dim)]

    def __eq__(self, other):
        return isinstance(other, StructureConstants) and self.c == other.c


def find_unit(sc: StructureConstants):
    """The unit element as a vector, or None.

    The unit u solves u * e_i = e_i for every i: one equation per (i, k)
    over the columns 0..n-1, with its right-hand side in column n.
    """
    n = sc.dim
    ech = Echelon()
    for i in range(n):
        for k in range(n):
            row = {j: sc.c[j][i][k] for j in range(n) if sc.c[j][i][k]}
            if k == i:
                row[n] = Q1
            ech.add(row)
    if n in ech.rows:
        return None
    x = [Q0] * n
    for p, row in ech.rows.items():
        x[p] = row.get(n, Q0)
    return x


def check_jordan_identity(sc: StructureConstants) -> bool:
    """Full multilinearization of ((a*a)*b)*a = (a*a)*(b*a) on basis tuples.

    The check runs once per instance over the sparse table scaled to `int`
    (the identity is homogeneous of degree 3 in the table); the verdict is
    kept on `sc`.
    """
    if sc._jordan is None:
        sc._jordan = _jordan_identity(_integral_table(sc.sparse))
    return sc._jordan


def _times_basis(t, v, b):
    """v * e_b through a sparse table."""
    out = {}
    for i, x in v.items():
        for k, c in t[i][b].items():
            out[k] = out.get(k, 0) + x * c
    return out


def _jordan_identity(t):
    n = len(t)
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                # the cyclic shifts (p, q, r) of (x, y, z), as (e_p e_q, r)
                shifts = ((t[x][y], z), (t[y][z], x), (t[z][x], y))
                for b in range(n):
                    # sum over the shifts of ((e_p e_q) e_b) e_r - (e_p e_q)(e_b e_r)
                    acc = {}
                    for pq, r in shifts:
                        left = _times_basis(t, _times_basis(t, pq, b), r)
                        for k, c in left.items():
                            acc[k] = acc.get(k, 0) + c
                        for k, c in _table_product(t, pq, t[b][r]).items():
                            acc[k] = acc.get(k, 0) - c
                    if any(acc.values()):
                        return False
    return True


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
    return BiRepresentation(sc, [sc.left_mult_matrix(i) for i in range(sc.dim)])


def _op_sum(terms):
    """sum c * op over the (c, op) pairs, a sparse operator without zeros."""
    out = {}
    for c, op in terms:
        for key, x in op.items():
            out[key] = out.get(key, 0) + c * x
    return {key: x for key, x in out.items() if x}


def _sparse_ops(rep):
    """rho of each basis vector, as a sparse operator {(row, col): x}."""
    return [{(r, c): x for r, row in enumerate(m) for c, x in enumerate(row) if x}
            for m in rep.matrices]


def _rho(ops, vec):
    """rho of a sparse vector, from the sparse operators of the basis."""
    return _op_sum((x, ops[i]) for i, x in vec.items())


def check_birepresentation(rep: BiRepresentation) -> bool:
    """Multilinearized module identities on all basis triples."""
    sc = rep.algebra
    n = sc.dim
    t = sc.sparse
    ops = _sparse_ops(rep)
    rho_qr = [[_rho(ops, t[q][r]) for r in range(n)] for q in range(n)]

    # rho(a)rho(b)rho(c) + rho(c)rho(b)rho(a) + rho((a*c)*b)
    #   = rho(a)rho(b*c) + rho(b)rho(c*a) + rho(c)rho(a*b)
    for a in range(n):
        for c in range(a, n):
            for b in range(n):
                terms = [(1, op_mul(op_mul(ops[a], ops[b]), ops[c])),
                         (1, op_mul(op_mul(ops[c], ops[b]), ops[a])),
                         (1, _rho(ops, _times_basis(t, t[a][c], b)))]
                terms += [(-1, op_mul(ops[p], rho_qr[q][r]))
                          for p, q, r in ((a, b, c), (b, c, a), (c, a, b))]
                if _op_sum(terms):
                    return False
    # linearized [rho(a), rho(a*a)] = 0
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                if _op_sum((1, op_commutator(ops[p], rho_qr[q][r]))
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
    for i in range(sc.dim):
        if _table_product(sc.sparse, evec, {i: Q1}) != {i: Q1}:
            raise ValueError("e is not the unit of the algebra")
    d = rep.dim
    re = _rho(_sparse_ops(rep), evec)
    # rho(e)(rho(e)-1)(2rho(e)-1) = 2rho(e)^3 - 3rho(e)^2 + rho(e)
    re2 = op_mul(re, re)
    if _op_sum(((2, op_mul(re2, re)), (-3, re2), (1, re))):
        raise CubicIdentityFails("rho(e)(rho(e)-1)(2rho(e)-1) != 0")
    ident = {(i, i): Q1 for i in range(d)}
    bases = []
    for lam in (Fraction(0), Fraction(1, 2), Fraction(1)):
        ech = Echelon()
        for row in op_lines(_op_sum(((1, re), (-lam, ident))))[0].values():
            ech.add(dict(row))
        bases.append(tuple(tuple(dense_vector(v, d)) for v in ech.kernel(range(d))))
    dims = tuple(len(b) for b in bases)
    assert sum(dims) == d
    return PeirceSplit(dims, tuple(bases))


def plus_product(assoc_table) -> StructureConstants:
    """Symmetrized product a*b = ab + ba of an associative table."""
    table = [[qvec(v) for v in row] for row in assoc_table]
    n = len(table)
    sparse = _sparse_table(table)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if (_table_product(sparse, sparse[i][j], {k: Q1})
                        != _table_product(sparse, {i: Q1}, sparse[j][k])):
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
