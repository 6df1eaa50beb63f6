"""Byte guard: the stdout of the benchmark's koszul ops, valid tkk-check
tables and verify-appendix ranks, run in process through `cli.main`, must
hash to the digests recorded in perfbench/golden.json.  Output drift in
pathalg, linalg, tkk, weights or catalog then fails here without running the
benchmark.  The golden file is only read; verify-appendix ranks past the
benchmark's, and one koszul resolution larger than its ops, are pinned
here."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import direct_sum, matrix_plus, spin_factor
from smodquiver import cli

GOLDEN = json.loads((Path(__file__).resolve().parent.parent / "perfbench"
                     / "golden.json").read_text(encoding="utf-8"))["cli"]

_F = {"kind": "field"}


def _spec(ideals, radical):
    return {"ideals": ideals, "radical": radical, "unital": True}


def _her(comp, n):
    return {"kind": "hermitian", "comp": comp, "n": n}


def _unital(label, mult):
    return {"kind": "unital", "ideal": 0, "label": label, "mult": mult}


def _tensor(la, lb, mult):
    return {"kind": "tensor", "a": {"ideal": 0, "label": la},
            "b": {"ideal": 1, "label": lb}, "mult": mult}


KOSZUL = {
    "clifford-odd": (_spec([_F], [_unital("ad", 4)]), []),
    "clifford-even": (_spec([_F, _F], [_tensor("L", "L", 3)]), []),
    "segre-alt": (_spec([_F, _her(4, 3)], [_tensor("L", "V", 3)]), []),
    "segre-sym": (_spec([_F, _her(1, 3)], [_tensor("L", "V", 3)]), []),
    "a2-segre": (_spec([_F, _her(2, 3)],
                       [_tensor("L", "V", 2), _tensor("L", "V*", 2)]), []),
    "basis-ad7": (_spec([_F], [_unital("ad", 7)]),
                  ["--hom-cap", "1", "--deg-cap", "12"]),
}


TKK = {
    "spin8": spin_factor(8),
    "m3-plus": matrix_plus(3),
    "m2-plus+spin5": direct_sum(matrix_plus(2), spin_factor(5)),
}


def _stdout_digest(argv, capsys, rc=0):
    assert cli.main(argv) == rc
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def _write_table(t, path):
    table = {"dim": len(t),
             "products": [[[str(x) for x in v] for v in row] for row in t]}
    path.write_text(json.dumps(table), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name", sorted(KOSZUL))
def test_koszul_stdout_matches_golden(name, tmp_path, capsys):
    spec, extra = KOSZUL[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["koszul", "--spec", str(path)] + extra
    assert _stdout_digest(argv, capsys) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TKK))
def test_tkk_check_stdout_matches_golden(name, tmp_path, capsys):
    argv = ["tkk-check", "--table", _write_table(TKK[name], tmp_path / "t.json")]
    assert _stdout_digest(argv, capsys) == GOLDEN[name]


def _spin_half(n):
    """The spin factor of the form with e_i e_i = 1/2 e_0: Fraction entries."""
    t = spin_factor(n)
    for i in range(1, n):
        t[i][i][0] = Fraction(1, 2)
    return t


# sha256 of tkk-check stdout on tables the benchmark does not run, with the
# exit code, recorded from the per-basis-tuple identity check and the table
# rebuilt inside the construction
TKK_MORE = {
    "spin16": (spin_factor(16), 0,
               "00dfcbe8268bee0a4837febe7c61c25b5a876d8e339ddd918f21e4767d933b2b"),
    "m4-plus": (matrix_plus(4), 0,
                "6d09624a23af48c33bd4b9ad38c80339df9b8ed849656215bc63a3593ddb9858"),
    # associative and commutative, so it passes the identity, but no unit
    "ones8": ([[[1] * 8 for _ in range(8)] for _ in range(8)], cli.EXIT_VERIFY,
              "3d60699cef9e445f2c600cc677a4f0136592b3a8d067b14095e07f91ba39d918"),
    "spin6-half": (_spin_half(6), 0,
                   "a13dd1ee00a7b4afcf5d02d91f3e041663e1f550f40b5d50092d5af5ee7a23f0"),
}


@pytest.mark.parametrize("name", sorted(TKK_MORE))
def test_more_tkk_check_stdout_matches_golden(name, tmp_path, capsys):
    t, rc, expected = TKK_MORE[name]
    argv = ["tkk-check", "--table", _write_table(t, tmp_path / "t.json")]
    assert _stdout_digest(argv, capsys, rc) == expected


# sha256 of verify-appendix stdout at ranks the benchmark does not run,
# recorded from the full-character engine
HIGHER_RANKS = {
    8: "ce592944ad049beed26fb3a81ca88c72894a3d0ea4fe1855744c5543b3c6d745",
    10: "0c1d58a7b1e400dbbe05496891749e4932f225266d7f59049a435f1f00cf6576",
}

# sha256 of koszul stdout on a resolution larger than the benchmark's:
# field + unital ad x 6 at --hom-cap 5, recorded from the Fraction-seeded
# resolution engine
KOSZUL_AD6 = (_spec([_F], [_unital("ad", 6)]), ["--hom-cap", "5"],
              "2166ac34e04c62eab474a6107e88589218234f909fc934da63cfc06932882ce0")


@pytest.mark.parametrize("rank", [3, 4, 5, 8, 10])
def test_verify_appendix_stdout_matches_golden(rank, capsys):
    argv = ["verify-appendix", "--max-rank", str(rank)]
    expected = HIGHER_RANKS.get(rank) or GOLDEN[f"rank{rank}"]
    assert _stdout_digest(argv, capsys) == expected


def test_larger_koszul_stdout_matches_golden(tmp_path, capsys):
    spec, extra, expected = KOSZUL_AD6
    path = tmp_path / "ad6.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["koszul", "--spec", str(path)] + extra
    assert _stdout_digest(argv, capsys) == expected
