"""Op lists and inputs of the CLI workloads.

Each op is one ``smodquiver`` command run in a fresh process.  Inputs are
written by the benchmark; the package only sees the files.  The expected
exit code of every op is the documented one (0 success, 2 validation error,
3 verification failure, 4 cap exceeded); expected stdout digests live in
``golden.json``.
"""

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    expect_rc: int


def _spec(ideals, radical):
    return {"ideals": ideals, "radical": radical, "unital": True}


_F = {"kind": "field"}


def _her(comp, n):
    return {"kind": "hermitian", "comp": comp, "n": n}


def _unital(label, mult):
    return {"kind": "unital", "ideal": 0, "label": label, "mult": mult}


def _tensor(la, lb, mult):
    return {"kind": "tensor", "a": {"ideal": 0, "label": la},
            "b": {"ideal": 1, "label": lb}, "mult": mult}


# name -> (spec, extra argv); one spec per block shape, sized so that a run
# times every op several times
KOSZUL_SPECS = {
    "clifford-odd": (_spec([_F], [_unital("ad", 4)]), ()),
    "clifford-even": (_spec([_F, _F], [_tensor("L", "L", 3)]), ()),
    "segre-alt": (_spec([_F, _her(4, 3)], [_tensor("L", "V", 3)]), ()),
    "segre-sym": (_spec([_F, _her(1, 3)], [_tensor("L", "V", 3)]), ()),
    "a2-segre": (_spec([_F, _her(2, 3)],
                       [_tensor("L", "V", 2), _tensor("L", "V*", 2)]), ()),
    "basis-ad7": (_spec([_F], [_unital("ad", 7)]),
                  ("--hom-cap", "1", "--deg-cap", "12")),
}

APPENDIX_RANKS = (3, 4, 5)


def spin_factor(n):
    """Jordan algebra of a nondegenerate form: basis 1, e_1..e_{n-1}."""
    t = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        t[0][i][i] = t[i][0][i] = 1
    for i in range(1, n):
        t[i][i][0] = 1
    return t


def matrix_plus(n):
    """M_n with the symmetrized product E_ij o E_kl = E_ij E_kl + E_kl E_ij."""
    d = n * n
    t = [[[0] * d for _ in range(d)] for _ in range(d)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    out = t[i * n + j][k * n + l]
                    if j == k:
                        out[i * n + l] += 1
                    if l == i:
                        out[k * n + j] += 1
    return t


def direct_sum(a, b):
    n, m = len(a), len(b)
    t = [[[0] * (n + m) for _ in range(n + m)] for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            t[i][j][:n] = a[i][j]
    for i in range(m):
        for j in range(m):
            t[n + i][n + j][n:] = b[i][j]
    return t


def _table(t):
    return {"dim": len(t),
            "products": [[[str(x) for x in v] for v in row] for row in t]}


# name -> (table JSON, documented exit code)
TKK_TABLES = {
    "spin8": (_table(spin_factor(8)), 0),
    "m3-plus": (_table(matrix_plus(3)), 0),
    "m2-plus+spin5": (_table(direct_sum(matrix_plus(2), spin_factor(5))), 0),
    "non-commutative": (
        {"dim": 2, "products": [[["1", "0"], ["0", "1"]],
                                [["1", "0"], ["0", "0"]]]}, 2),
    "non-unital": ({"dim": 1, "products": [[["0"]]]}, 3),
    # entries must be vectors; scalars are a validation error (exit 2)
    "scalar-products": ({"dim": 1, "products": [[1]]}, 2),
}


def write_inputs(workload, workdir):
    """Write the input files of ``workload`` into ``workdir``; return its ops."""
    ops = []
    if workload == "koszul":
        for name, (spec, extra) in KOSZUL_SPECS.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(spec), encoding="utf-8")
            ops.append(Op(name, ("koszul", "--spec", str(path)) + extra, 0))
    elif workload == "appendix":
        for rank in APPENDIX_RANKS:
            ops.append(Op(f"rank{rank}",
                          ("verify-appendix", "--max-rank", str(rank)), 0))
    elif workload == "tkk-tables":
        for name, (table, rc) in TKK_TABLES.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(table), encoding="utf-8")
            ops.append(Op(name, ("tkk-check", "--table", str(path)), rc))
    else:
        raise ValueError(workload)
    return ops
