"""Catalog of graded simple Lie kinds and their half/short-graded simples.

Each kind carries a fixed grading cocharacter h.  A simple is "half" if the
eigenvalues of h on it are exactly {-1/2, +1/2}, and "short" if they lie in
{-1, 0, +1}; the catalog lists both families per kind, keyed by names from a
fixed namespace ("V", "V*", "ad", "S2V", ..., "Gamma+", "LrV(r)", "L").

The duality/form table is hard data: for the sp and so1 standard modules it
deliberately differs from the classical Frobenius-Schur indicator (which
`weights.fs_indicator` reports); the table drives block classification, the
engine drives the honest invariant-form computations.

Every answer reads highest weights alone: graded pieces and parities
through `weights`, and the tensor restriction `restrict_s` by the
minuscule rule, since every half simple is minuscule.  No weight is walked.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import weights
from .weights import RootSystem


class UnknownLabel(KeyError):
    pass


# bound on the Weyl dimension of a radical label, from when its weights were
# walked: a spinor or Lambda+- of a large so(n) would have taken seconds to
# hours.  Nothing walks weights now; `graded_piece_dim4` keeps the bound so
# that no exit code changes.  `LieKind.root_system` bounds the kind's own
# dimension by it too, before any root is built
MAX_WALKED_DIM = 2 ** 16


class ModuleTooLarge(RuntimeError):
    """A kind's or a catalog simple's dimension exceeds MAX_WALKED_DIM."""


class LieKind(namedtuple("LieKind", "series size")):
    """A simple graded Lie kind: series + algebra size.

    series: "sl2" | "sp" | "sl" | "so1" | "so2" | "e7".
    size: for sp/sl/so1/so2 the N of sp(N)/sl(N)/so(N); 0 for sl2 and e7.
    so2 covers both parities (second short grading); so1 is the first
    short grading of so(4n).
    """

    __slots__ = ()

    def __new__(cls, series, size=0):
        s, n = series, size
        if s == "sp" and (n % 2 or n < 4):
            raise ValueError(f"sp({n})")
        if s == "sl" and (n % 2 or n < 4):
            raise ValueError(f"sl({n})")
        if s == "so1" and (n % 4 or n < 8):
            raise ValueError(f"so1({n})")
        if s == "so2" and n < 4:
            raise ValueError(f"so2({n})")
        if s not in ("sl2", "sp", "sl", "so1", "so2", "e7"):
            raise ValueError(s)
        return tuple.__new__(cls, (series, size))

    def __str__(self):
        if self.series == "sl2":
            return "sl(2)"
        if self.series == "e7":
            return "e7"
        return f"{self.series}({self.size})"

    def root_system(self):
        """The kind's root system, for a kind of dimension at most
        MAX_WALKED_DIM; a larger kind raises `ModuleTooLarge`."""
        s, n = self.series, self.size
        dim = (3 if s == "sl2" else n * (n + 1) // 2 if s == "sp"
               else n * n - 1 if s == "sl" else n * (n - 1) // 2)
        if dim > MAX_WALKED_DIM:
            raise ModuleTooLarge(f"a module of {self} of dimension {dim} exceeds "
                                 f"the weight-walk bound {MAX_WALKED_DIM}")
        if s == "sl2":
            return RootSystem("A", 1)
        if s == "sp":
            return RootSystem("C", n // 2)
        if s == "sl":
            return RootSystem("A", n - 1)
        if s == "so1":
            return RootSystem("D", n // 2)
        if s == "so2":
            return RootSystem("B" if n % 2 else "D", (n - 1) // 2 if n % 2 else n // 2)
        raise ValueError("e7 has no character support")

    def cocharacter(self):
        """Doubled grading cocharacter h of the kind's short grading."""
        s, n = self.series, self.size
        if s == "sl2":
            return (1, -1)
        if s == "sp":
            return (1,) * (n // 2)
        if s == "sl":
            h = n // 2
            return (1,) * h + (-1,) * h
        if s == "so1":
            return (1,) * (n // 2)
        if s == "so2":
            r = self.root_system().rank
            return (2,) + (0,) * (r - 1)
        raise ValueError("e7 has no character support")


SL2 = LieKind("sl2")
E7 = LieKind("e7")


def SP(n):
    return LieKind("sp", n)


def SL(n):
    return LieKind("sl", n)


def SO1(n):
    return LieKind("so1", n)


def SO2(n):
    return LieKind("so2", n)


# weight: doubled highest weight in the kind's root system; None for e7
SLabel = namedtuple("SLabel", "kind name weight")

# parity: "symmetric" | "skew" | "none"
FormData = namedtuple("FormData", "dual parity")


# {name: weight} of a kind's half and short-graded simples, in catalog order
@lru_cache(maxsize=None)
def _half_weight_table(kind):
    s, n = kind.series, kind.size
    if s == "sl2":
        return {"L": (2, 0)}
    if s == "sp":
        r = n // 2
        return {"V": (2,) + (0,) * (r - 1)}
    if s == "sl":
        return {"V": (2,) + (0,) * (n - 1), "V*": (2,) * (n - 1) + (0,)}
    if s == "so1":
        r = n // 2
        return {"V": (2,) + (0,) * (r - 1)}
    if s == "so2":
        r = kind.root_system().rank
        if n % 2:
            return {"Gamma": (1,) * r}
        return {"Gamma+": (1,) * r, "Gamma-": (1,) * (r - 1) + (-1,)}
    return {}


@lru_cache(maxsize=None)
def _one_weight_table(kind):
    s, n = kind.series, kind.size
    if s == "sl2":
        return {"ad": (4, 0)}
    if s == "sp":
        r = n // 2
        t = {"ad": (4,) + (0,) * (r - 1)}
        if r >= 2:
            t["L2V"] = (2, 2) + (0,) * (r - 2)
        return t
    if s == "sl":
        t = {
            "ad": (4,) + (2,) * (n - 2) + (0,),
            "S2V": (4,) + (0,) * (n - 1),
            "S2V*": (4,) * (n - 1) + (0,),
            "L2V": (2, 2) + (0,) * (n - 2),
            "L2V*": (2,) * (n - 2) + (0, 0),
        }
        return t
    if s == "so1":
        r = n // 2
        t = {"ad": (2, 2) + (0,) * (r - 2), "S2V": (4,) + (0,) * (r - 1)}
        if n == 12:
            # the one extra short-graded spinor of so(12); with h=(1/2,...,1/2)
            # it is the spinor whose weights carry an odd number of minus signs
            t["Gamma+"] = (1,) * (r - 1) + (-1,)
        return t
    if s == "so2":
        r = kind.root_system().rank
        if n % 2:
            return {f"LrV({k})": (2,) * k + (0,) * (r - k) for k in range(1, r + 1)}
        t = {f"LrV({k})": (2,) * k + (0,) * (r - k) for k in range(1, r)}
        t["Lambda+"] = (2,) * r
        t["Lambda-"] = (2,) * (r - 1) + (-2,)
        return t
    return {"ad": None}


def s_half_simples(kind):
    """Simple objects on which h acts with eigenvalues exactly +-1/2."""
    return [SLabel(kind, name, w)
            for name, w in _half_weight_table(kind).items()]


def s_one_simples(kind):
    return [SLabel(kind, name, w)
            for name, w in _one_weight_table(kind).items()]


def half_weight(kind, name):
    try:
        return _half_weight_table(kind)[name]
    except KeyError:
        raise UnknownLabel(f"{kind} has no half simple {name!r}") from None


def any_weight(kind, name):
    for table in (_half_weight_table(kind), _one_weight_table(kind)):
        if name in table:
            return table[name]
    raise UnknownLabel(f"{kind} has no short-graded simple {name!r}")


@lru_cache(maxsize=None)
def restrict_s(kind, m_name, n_name):
    """(M (x) N) restricted to half simples and the trivial module.

    M is a half simple of the kind, N any catalog simple.  Returns a dict
    mapping half-simple names (or "tr") to multiplicities.

    Every half simple V_lam is minuscule: each of its weights lies in W.lam,
    with multiplicity 1.  So for the highest weight mu of N, each shifted
    weight mu + w(lam) is dominant or has mu + w(lam) + rho on a wall, and
    V_mu (x) V_lam is the sum of V_{mu + w(lam)} over the dominant ones, one
    copy each (Brauer-Klimyk).  V_nu occurs, once, exactly when nu - mu lies
    in W.lam.
    """
    sys = kind.root_system()
    lam, mu = half_weight(kind, m_name), any_weight(kind, n_name)
    candidates = {"tr": (0,) * sys.ambient, **_half_weight_table(kind)}
    return {name: 1 for name, nu in candidates.items()
            if weights.normalize_dominant(
                sys, weights.dominantize(sys, weights._sub(nu, mu))) == lam}


@lru_cache(maxsize=None)
def dual_label(kind, name):
    """Catalog name of the dual of a catalog simple (half or short-graded)."""
    sys = kind.root_system()
    lam = any_weight(kind, name)
    dual = weights.dual_weight(sys, weights.normalize_dominant(sys, lam))
    for table in (_half_weight_table(kind), _one_weight_table(kind)):
        for cand, w in table.items():
            if w == dual:
                return cand
    raise UnknownLabel(f"dual of {name} over {kind} is not a catalog simple")


def duality_form(kind, name):
    """Normative duality/form table for the half simples.

    For the sp and so1 standard modules the recorded parity is the table
    value, not the classical indicator; see `classical_parity` for the
    engine's answer.
    """
    s, n = kind.series, kind.size
    if s == "sl2" and name == "L":
        return FormData("L", "skew")
    if s == "sp" and name == "V":
        return FormData("V", "symmetric")
    if s == "so1" and name == "V":
        return FormData("V", "skew")
    if s == "sl" and name in ("V", "V*"):
        return FormData("V*" if name == "V" else "V", "none")
    if s == "so2" and n % 2 and name == "Gamma":
        m = kind.root_system().rank
        return FormData("Gamma", "symmetric" if m % 4 in (0, 3) else "skew")
    if s == "so2" and n % 2 == 0 and name in ("Gamma+", "Gamma-"):
        m = kind.root_system().rank
        if m % 2 == 0:
            return FormData(name, "symmetric" if m % 4 == 0 else "skew")
        return FormData("Gamma-" if name == "Gamma+" else "Gamma+", "none")
    raise UnknownLabel(f"{kind} has no half simple {name!r}")


@lru_cache(maxsize=None)
def classical_parity(kind, name):
    """Form parity of a catalog simple per the character engine (exact)."""
    if kind.series == "e7":
        return "symmetric" if name == "ad" else "none"
    sys = kind.root_system()
    ind = weights.fs_indicator(sys, any_weight(kind, name))
    return {1: "symmetric", -1: "skew", 0: "none"}[ind]


def parity_product(p1, p2):
    """Form parity of the tensor product of modules of parities p1 and p2."""
    if "none" in (p1, p2):
        return "none"
    return "symmetric" if p1 == p2 else "skew"


@lru_cache(maxsize=None)
def graded_piece_dim4(kind, name, level4):
    """Dimension of the h-eigenvalue piece of a catalog simple, the level
    in quarter units, the unit `weights.ip4` counts in: the piece of
    eigenvalue level4 / 4."""
    if kind.series == "e7":
        # short grading of e7 relative to its sl2: (27, 79, 27)
        return {4: 27, -4: 27, 0: 79}.get(level4, 0)
    pieces = weights.graded_pieces4(kind.root_system(), any_weight(kind, name),
                                    kind.cocharacter())
    dim = sum(pieces.values())   # the Weyl dimension
    if dim > MAX_WALKED_DIM:
        raise ModuleTooLarge(f"a module of {kind} of dimension {dim} exceeds "
                             f"the weight-walk bound {MAX_WALKED_DIM}")
    return pieces.get(level4, 0)
