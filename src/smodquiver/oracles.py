"""Cross-check suites: duality table and tensor-restriction identities.

Every check recomputes the claimed identity through the character engine
(dimensions, duals, restriction of tensor products) and compares against the
catalog data.  Used by the CLI's verify-appendix command and the acceptance
tests.
"""

from __future__ import annotations

import math

from . import catalog, weights

# the two documented table-vs-engine parity exceptions: standard modules of
# sp (table symmetric, engine skew) and so1 (table skew, engine symmetric)
PARITY_EXCEPTIONS = {("sp", "V"): ("symmetric", "skew"),
                     ("so1", "V"): ("skew", "symmetric")}


def duality_checks(kind):
    """Engine-vs-table checks for duals and invariant form parities."""
    out = []
    for lab in catalog.s_half_simples(kind):
        table = catalog.duality_form(kind, lab.name)
        engine_dual = catalog.dual_label(kind, lab.name)
        out.append((f"dual({lab.name}) = {table.dual}",
                    engine_dual == table.dual))
        engine_parity = catalog.classical_parity(kind, lab.name)
        exc = PARITY_EXCEPTIONS.get((kind.series, lab.name))
        if exc is not None:
            out.append((f"form({lab.name}): table {exc[0]} vs engine {exc[1]} "
                        "(documented discrepancy)",
                        (table.parity, engine_parity) == exc))
        else:
            out.append((f"form({lab.name}) = {table.parity}",
                        engine_parity == table.parity))
    # short-graded simples: self-duality pattern
    for lab in catalog.s_one_simples(kind):
        d = catalog.dual_label(kind, lab.name)
        if kind.series == "sl":
            expected = {"ad": "ad", "S2V": "S2V*", "S2V*": "S2V",
                        "L2V": "L2V*", "L2V*": "L2V"}[lab.name]
        elif (kind.series == "so2" and kind.size % 2 == 0
              and kind.root_system().rank % 2 == 1):
            expected = {"Lambda+": "Lambda-", "Lambda-": "Lambda+"}.get(
                lab.name, lab.name)
        else:
            expected = lab.name
        out.append((f"dual({lab.name}) = {expected}", d == expected))
    return out


def tensor_checks(kind):
    """The tensor-restriction identities, one check per identity."""
    checks = []

    def chk(m, n, expected):
        label = f"({m} (x) {n})^s = " + (
            "0" if not expected else
            " + ".join(k if v == 1 else f"{v}{k}" for k, v in expected.items()))
        checks.append((label, catalog.restrict_s(kind, m, n) == expected))

    s = kind.series
    if s == "sl":
        for u, ustar in (("V", "V*"), ("V*", "V")):
            l2u = "L2V" if u == "V" else "L2V*"
            s2u = "S2V" if u == "V" else "S2V*"
            chk(u, l2u, {})
            chk(u, s2u, {})
            chk(ustar, l2u, {u: 1})
            chk(ustar, s2u, {u: 1})
            chk(u, "ad", {u: 1})
            chk(u, u, {})
            chk(u, ustar, {"tr": 1})
    elif s == "sp":
        chk("V", "ad", {"V": 1})
        chk("V", "L2V", {"V": 1})
        chk("V", "V", {"tr": 1})
    elif s == "so1":
        chk("V", "ad", {"V": 1})
        chk("V", "S2V", {"V": 1})
        chk("V", "V", {"tr": 1})
        if kind.size == 12:
            chk("V", "Gamma+", {})
    elif s == "so2" and kind.size % 2 == 1:
        m = kind.root_system().rank
        for r in range(1, m + 1):
            chk("Gamma", f"LrV({r})", {"Gamma": 1})
        chk("Gamma", "Gamma", {"tr": 1})
    elif s == "so2":
        m = kind.root_system().rank
        for eps in ("Gamma+", "Gamma-"):
            other = "Gamma-" if eps == "Gamma+" else "Gamma+"
            for r in range(1, m):
                chk(eps, f"LrV({r})", {eps if r % 2 == 0 else other: 1})
            chk(eps, eps, {"tr": 1} if m % 2 == 0 else {})
            same_lam = "Lambda+" if eps == "Gamma+" else "Lambda-"
            opp_lam = "Lambda-" if eps == "Gamma+" else "Lambda+"
            chk(eps, same_lam, {eps: 1} if m % 2 == 0 else {})
            chk(eps, opp_lam, {} if m % 2 == 0 else {other: 1})
        chk("Gamma+", "Gamma-", {} if m % 2 == 0 else {"tr": 1})
    return checks


def dimension_checks(kind):
    """Dimension formulas for the catalog simples of an appendix kind."""
    sys = kind.root_system()
    out = []
    for lab in catalog.s_half_simples(kind) + catalog.s_one_simples(kind):
        expected = _expected_dim(kind, lab.name)
        got = weights.weyl_dim(sys, lab.weight)
        out.append((f"dim {lab.name} = {expected}", got == expected))
    return out


def _expected_dim(kind, name):
    s, size = kind.series, kind.size
    if s == "sp":
        n = size // 2
        return {"V": 2 * n, "ad": n * (2 * n + 1),
                "L2V": n * (2 * n - 1) - 1}[name]
    if s == "sl":
        n = size // 2
        return {"V": 2 * n, "V*": 2 * n, "ad": 4 * n * n - 1,
                "S2V": n * (2 * n + 1), "S2V*": n * (2 * n + 1),
                "L2V": n * (2 * n - 1), "L2V*": n * (2 * n - 1)}[name]
    if s == "so1":
        n = size // 4
        return {"V": 4 * n, "ad": 2 * n * (4 * n - 1),
                "S2V": 2 * n * (4 * n + 1) - 1,
                "Gamma+": 2 ** (2 * n - 1)}[name]
    m = kind.root_system().rank   # so2, the last appendix series
    if size % 2 == 1:
        if name == "Gamma":
            return 2 ** m
        r = int(name[4:-1])
        return math.comb(2 * m + 1, r)
    if name in ("Gamma+", "Gamma-"):
        return 2 ** (m - 1)
    if name in ("Lambda+", "Lambda-"):
        return math.comb(2 * m, m) // 2
    r = int(name[4:-1])
    return math.comb(2 * m, r)


def appendix_checks(kind):
    """All duality, dimension and tensor checks for one kind."""
    return dimension_checks(kind) + duality_checks(kind) + tensor_checks(kind)


def appendix_kinds(max_rank):
    """The kinds of the appendix up to rank max_rank, in the order
    `verify_appendix` checks them."""
    kinds = [catalog.SL(n) for n in range(6, 2 * max_rank + 2, 2)
             if n - 1 <= max_rank]
    kinds += [catalog.SP(2 * m) for m in range(3, max_rank + 1)]
    kinds += [catalog.SO1(4 * m) for m in range(3, max_rank // 2 + 1)]
    kinds += [catalog.SO2(2 * m + 1) for m in range(2, max_rank + 1)]
    kinds += [catalog.SO2(2 * m) for m in range(3, max_rank + 1)]
    return kinds


def verify_appendix(max_rank):
    """Duality and tensor-restriction checks for all kinds up to max_rank.

    Returns (failures, lines): one human-readable line per checked identity
    family, 'ok' or 'FAIL'.
    """
    lines = []
    failures = 0
    for kind in appendix_kinds(max_rank):
        for name, ok in appendix_checks(kind):
            lines.append(f"{'ok  ' if ok else 'FAIL'} {kind}: {name}")
            failures += 0 if ok else 1
    return failures, lines
