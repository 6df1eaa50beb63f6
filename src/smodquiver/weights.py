"""Exact answers from a highest weight, for the classical root systems A-D.

Conventions:
  * weights live in the standard epsilon-basis and are stored as tuples of
    *doubled* integers, so spin weights like (1/2,...,1/2) stay integral;
  * the A family uses gl-style coordinates of length rank+1 (non-increasing
    integer tuples); dominant labels are normalized to have minimum entry 0,
    while intermediate tensor bookkeeping keeps the ambient level;
  * inner products of doubled vectors are 4x the true value (`ip4`).

Every answer here reads the highest weight lam alone and walks no weights:
  * dimensions by the Weyl product formula;
  * duals and dominant representatives of Weyl orbits;
  * the Frobenius-Schur indicator, as (-1)^<lam, 2 rho-check>;
  * the eigenspace dimensions of a short grading h, as Levi Weyl products.

The weight walk (Freudenthal's dominant characters, Weyl orbits, the dot
action) and the full-character helpers built on it (`Character`,
`weight_multiplicities`, `tensor_decompose`, ...) are reference routines
and live in `reference`.  Everything here is a pure function of its
arguments.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from operator import add, mul, sub

# ---------------------------------------------------------------------------
# systems


class NotDominant(ValueError):
    pass


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
    """The product of <rho, alpha> over the positive roots, in `ip4` units:
    the denominator of the Weyl dimension formula."""
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
# dimensions


def _weyl_product(sys, lam, roots, denominator):
    """prod <lam + rho, alpha> over the roots, over their prod <rho, alpha>."""
    lr = _add(lam, rho2(sys))
    d, rem = divmod(math.prod(ip4(lr, a) for a in roots), denominator)
    assert rem == 0 and d > 0
    return d


def weyl_dim(sys, lam):
    """Dimension of the irreducible with highest weight lam (doubled)."""
    if not is_dominant(sys, lam):
        raise NotDominant(lam)
    return _weyl_product(sys, lam, positive_roots(sys), _weyl_denominator(sys))


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


@lru_cache(maxsize=None)
def _levi(sys, d2):
    """The positive roots a dominant grading d2 kills, and prod <rho, alpha>."""
    roots = tuple(a for a in positive_roots(sys) if ip4(a, d2) == 0)
    return roots, math.prod(ip4(rho2(sys), a) for a in roots)


def graded_pieces4(sys, lam, h2):
    """{4<w, h>: dimension} over the weights w of V_lam, for a short grading
    h whose values on V_lam span at most 2.  For a dominant d, the top
    d-eigenspace is the irreducible of highest weight lam of the Levi
    subalgebra d centralises (Humphreys, Lie Algebras, 21.3; Knapp, Lie
    Groups Beyond an Introduction, ch. V).  The top piece for h is that for
    dom(h), the bottom one that for dom(-h); the rest lies between."""
    ends = _grading_ends(sys, h2)
    dim = weyl_dim(sys, lam)
    top, bottom = ip4(lam, ends[0]), -ip4(lam, ends[1])
    if top - bottom > 8:
        raise ValueError(f"the values of {h2} on V_{lam} span more than 2")
    pieces = {level: _weyl_product(sys, lam, *_levi(sys, d2))
              for level, d2 in zip((top, bottom), ends)}
    if top - bottom == 8:
        pieces[top - 4] = dim - pieces[top] - pieces[bottom]
    assert min(pieces.values()) > 0 and sum(pieces.values()) == dim
    return pieces
