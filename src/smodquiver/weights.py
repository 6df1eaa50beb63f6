"""Exact character computations for the classical root systems A, B, C, D.

Conventions:
  * weights live in the standard epsilon-basis and are stored as tuples of
    *doubled* integers, so spin weights like (1/2,...,1/2) stay integral;
  * the A family uses gl-style coordinates of length rank+1 (non-increasing
    integer tuples); dominant labels are normalized to have minimum entry 0,
    while intermediate tensor bookkeeping keeps the ambient level;
  * inner products of doubled vectors are 4x the true value (`ip4`).

The engine is exact end to end and works on dominant weights:
  * dimensions by the Weyl product formula;
  * dominant-weight multiplicities by Freudenthal's recursion, run over the
    dominant weights only;
  * the dot action: each weight v + rho reflected into the dominant chamber
    with its sign;
  * tensor products by Brauer-Klimyk: highest weights on one side, shifted
    by the weights of the other factor, so no product character is formed;
  * the Frobenius-Schur indicator from lam alone, as (-1)^<lam, 2 rho-check>;
  * the eigenvalues of a short grading h from lam alone, as one string.

The weights of an irreducible are streamed orbit by orbit and never kept,
so nothing here builds a full weight set.  The full-character helpers
(`Character`, `weight_multiplicities`, `char_product`, `ext_sym_square`,
`decompose_character`, `tensor_decompose`, ...) are reference routines and
live in `reference`.  Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, namedtuple
from functools import lru_cache
from operator import add, mul, sub

# ---------------------------------------------------------------------------
# systems


class NotDominant(ValueError):
    pass


class NonDecomposable(RuntimeError):
    """Internal consistency failure during character subtraction."""


class RootSystem(namedtuple("RootSystem", "family rank")):
    """family: one of "A", "B", "C", "D"."""

    __slots__ = ()

    def __new__(cls, family, rank):
        if family not in "ABCD":
            raise ValueError(f"unknown family {family!r}")
        if rank < 1:
            raise ValueError("rank must be positive")
        if family == "D" and rank < 2:
            raise ValueError("D requires rank >= 2")
        return tuple.__new__(cls, (family, rank))

    @property
    def ambient(self):
        return self.rank + 1 if self.family == "A" else self.rank


class CompositeSystem(namedtuple("CompositeSystem", "components")):
    """Orthogonal direct sum of root systems; weights are concatenations."""

    __slots__ = ()

    @property
    def ambient(self):
        return sum(c.ambient for c in self.components)

    def split(self, w):
        parts = []
        pos = 0
        for c in self.components:
            parts.append(tuple(w[pos:pos + c.ambient]))
            pos += c.ambient
        return parts


def composite(*systems):
    return CompositeSystem(tuple(systems))


def _join(parts):
    out = []
    for p in parts:
        out.extend(p)
    return tuple(out)


# ---------------------------------------------------------------------------
# roots, rho, dominance


def ip4(v, w):
    """Integer inner product of doubled vectors; equals 4*(v,w)."""
    return sum(map(mul, v, w))


def _embed(vec, offset, total):
    out = [0] * total
    for i, x in enumerate(vec):
        out[offset + i] = x
    return tuple(out)


@lru_cache(maxsize=None)
def positive_roots(sys):
    if isinstance(sys, CompositeSystem):
        roots = []
        pos = 0
        for c in sys.components:
            roots.extend(_embed(a, pos, sys.ambient) for a in positive_roots(c))
            pos += c.ambient
        return tuple(roots)
    n = sys.ambient
    roots = []

    def e(i, c=2):
        v = [0] * n
        v[i] = c
        return v

    for i in range(n):
        for j in range(i + 1, n):
            v = e(i)
            v[j] = -2
            roots.append(tuple(v))
            if sys.family in "BCD":
                v = e(i)
                v[j] = 2
                roots.append(tuple(v))
    if sys.family == "B":
        roots.extend(tuple(e(i)) for i in range(n))
    elif sys.family == "C":
        roots.extend(tuple(e(i, 4)) for i in range(n))
    return tuple(roots)


@lru_cache(maxsize=None)
def rho2(sys):
    """The Weyl vector, doubled."""
    if isinstance(sys, CompositeSystem):
        return _join([rho2(c) for c in sys.components])
    r = sys.rank
    if sys.family == "A":
        return tuple(2 * (r - i) for i in range(r + 1))
    if sys.family == "B":
        return tuple(2 * (r - i) - 1 for i in range(r))
    if sys.family == "C":
        return tuple(2 * (r - i) for i in range(r))
    return tuple(2 * (r - i) - 2 for i in range(r))


@lru_cache(maxsize=None)
def _weyl_denominator(sys):
    """The product of <rho, alpha> over the positive roots of a simple
    system, in `ip4` units: the denominator of the Weyl dimension formula."""
    r2 = rho2(sys)
    return math.prod(ip4(r2, a) for a in positive_roots(sys))


def is_dominant(sys, w):
    if isinstance(sys, CompositeSystem):
        return all(is_dominant(c, p) for c, p in zip(sys.components, sys.split(w)))
    fam = sys.family
    if fam == "A":
        return all(w[i] >= w[i + 1] for i in range(len(w) - 1))
    if fam in "BC":
        return all(w[i] >= w[i + 1] for i in range(len(w) - 1)) and w[-1] >= 0
    return all(w[i] >= w[i + 1] for i in range(len(w) - 2)) and w[-2] >= abs(w[-1])


def dominantize(sys, w):
    """Dominant representative of the Weyl orbit of w."""
    if isinstance(sys, CompositeSystem):
        return _join([dominantize(c, p) for c, p in zip(sys.components, sys.split(w))])
    fam = sys.family
    if fam == "A":
        return tuple(sorted(w, reverse=True))
    if fam in "BC":
        return tuple(sorted((abs(x) for x in w), reverse=True))
    mags = sorted((abs(x) for x in w), reverse=True)
    negs = sum(1 for x in w if x < 0)
    if negs % 2 == 1 and all(x != 0 for x in w):
        mags[-1] = -mags[-1]
    return tuple(mags)


def normalize_dominant(sys, w):
    """Shift A-components so the minimum entry is 0 (labels, not levels)."""
    if isinstance(sys, CompositeSystem):
        return _join([normalize_dominant(c, p)
                      for c, p in zip(sys.components, sys.split(w))])
    if sys.family == "A":
        m = min(w)
        return tuple(x - m for x in w)
    return tuple(w)


def is_trivial_weight(sys, w):
    return all(x == 0 for x in normalize_dominant(sys, w))


def dual_weight(sys, lam):
    """Highest weight of the dual module, -w0(lam), as a normalized label."""
    if isinstance(sys, CompositeSystem):
        return _join([dual_weight(c, p) for c, p in zip(sys.components, sys.split(lam))])
    if not is_dominant(sys, lam):
        raise NotDominant(lam)
    fam = sys.family
    if fam == "A":
        return normalize_dominant(sys, tuple(-x for x in reversed(lam)))
    if fam in "BC" or sys.rank % 2 == 0:
        return tuple(lam)
    return tuple(lam[:-1]) + (-lam[-1],)


def _sub(a, b):
    return tuple(map(sub, a, b))


def _add(a, b):
    return tuple(map(add, a, b))


# ---------------------------------------------------------------------------
# dimensions and multiplicities


def weyl_dim(sys, lam):
    """Dimension of the irreducible with highest weight lam (doubled)."""
    if not is_dominant(sys, lam):
        raise NotDominant(lam)
    if isinstance(sys, CompositeSystem):
        out = 1
        for c, p in zip(sys.components, sys.split(lam)):
            out *= weyl_dim(c, p)
        return out
    lr = _add(lam, rho2(sys))
    d, rem = divmod(math.prod(ip4(lr, a) for a in positive_roots(sys)),
                    _weyl_denominator(sys))
    assert rem == 0 and d > 0
    return d


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


def _brauer_klimyk(sys, tops, items):
    """Constituents of (sum_lam m_lam V_lam) (x) V, as {dominant weight: mult}.

    tops is {lam: m_lam}; items are the (weight, mult) pairs of V, read once.
    V must be Weyl invariant: each weight mu of V sends every lam to the
    dot-reflected lam + mu, so no product character is formed.
    """
    acc = {}
    for mu, k in items:
        for lam, m in tops.items():
            sign, nu = _dot_dominant(sys, _add(lam, mu))
            if sign:
                acc[nu] = acc.get(nu, 0) + sign * m * k
    return _constituents(sys, acc)


# ---------------------------------------------------------------------------
# answers from the highest weight alone


def fs_indicator(sys, lam):
    """Classical Frobenius-Schur indicator: +1 symmetric, -1 skew, 0 non-self-dual.

    exp(2 pi i rho-check) acts on V_lam by (-1)^<lam, 2 rho-check>, the sign
    of the form on a self-dual V_lam (Bourbaki, Lie, ch. VIII, 7.5).
    """
    lam_n = normalize_dominant(sys, lam)
    if dual_weight(sys, lam_n) != lam_n:
        return 0
    pairing = sum(2 * ip4(lam_n, a) // ip4(a, a) for a in positive_roots(sys))
    return -1 if pairing % 2 else 1


@lru_cache(maxsize=None)
def _grading_ends(sys, h2):
    """(dom(h), dom(-h)) of a short grading h; ValueError for any other h."""
    if any(ip4(a, h2) not in (-4, 0, 4) for a in positive_roots(sys)):
        raise ValueError(f"{h2} is not a short grading of {sys}")
    return dominantize(sys, h2), dominantize(sys, tuple(-x for x in h2))


def grading_levels4(sys, lam, h2):
    """The pairings 4<w, h> over the weights w of V_lam, as a range.

    For a short h the pairings <w, h> run from -<lam, dom(-h)> to
    <lam, dom(h)> in steps of 1: the weights of V_lam are reached from the
    top by subtracting simple roots (Humphreys, Lie Algebras, 21.3), and in
    the chamber where h is dominant each one lowers <w, h> by 0 or 1.
    """
    if not is_dominant(sys, lam):
        raise NotDominant(lam)
    top, bottom = _grading_ends(sys, h2)
    return range(-ip4(lam, bottom), ip4(lam, top) + 1, 4)


def grading_values(sys, lam, h2):
    """Set of pairings <w, h> over the weights w of V_lam (true values), as
    `Fraction`s."""
    from fractions import Fraction

    return {Fraction(v, 4) for v in grading_levels4(sys, lam, h2)}


