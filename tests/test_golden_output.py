"""Byte guard: the stdout of the benchmark's koszul ops, valid tkk-check
tables and verify-appendix ranks, run in process through `cli.main`, must
hash to the digests recorded in perfbench/golden.json.  The koszul specs and
tables are read from perfbench/workloads.py, so the guard hashes exactly
what the benchmark runs.  Output drift in pathalg, linalg, tkk, weights or
catalog then fails here without running the benchmark.  The benchmark's
files are only read; verify-appendix ranks past the benchmark's, koszul
inputs larger than its ops, the quiver and blocks renderings of the koszul
specs and the degree- and hom-cap exits of koszul are pinned here.  The
benchmark's spec-sweep session runs here too, as a child process, and its
corpus, output and summary digests must match golden.json."""

import hashlib
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from helpers import BENCH, SRC, WORKLOADS, matrix_plus, spin_factor, src_env
from smodquiver import cli

GOLDEN_FILE = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
GOLDEN = GOLDEN_FILE["cli"]

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


# name -> (spec, extra argv) of the benchmark's koszul ops
KOSZUL = WORKLOADS.KOSZUL_SPECS

# name -> table JSON of the benchmark's tkk-check ops that exit 0
TKK = {name: table for name, (table, rc) in WORKLOADS.TKK_TABLES.items()
       if rc == 0}


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
    argv = ["koszul", "--spec", str(path), *extra]
    assert _stdout_digest(argv, capsys) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TKK))
def test_tkk_check_stdout_matches_golden(name, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(TKK[name]), encoding="utf-8")
    argv = ["tkk-check", "--table", str(path)]
    assert _stdout_digest(argv, capsys) == GOLDEN[name]


def test_spec_sweep_session_matches_golden():
    # the session with the benchmark's arguments, at the corpus seed whose
    # outputs golden.json records; about 1 s.  With no bytecode written,
    # perfbench/ is left as it was
    golden = GOLDEN_FILE["spec-sweep"]
    env = dict(src_env(), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "session.py"), "--src", str(SRC),
         "--spawned", repr(time.monotonic()),
         "--seed", str(golden["corpus_seed"])],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = ("corpus_sha256", "outputs_sha256", "summaries_sha256")
    assert {k: result[k] for k in keys} == {k: golden[k] for k in keys}
    assert result["violations"] == []


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


# sha256 of quiver and blocks stdout on the koszul specs, by output format;
# recorded with the rendering still inside `cli`
RENDERINGS = {
    "a2-segre": {
        ("blocks", "json"):
            "7937a4eca6abc9d6f0c91d47f190e7b945eb41299e16d8e3ed65075affffce9d",
        ("blocks", "text"):
            "0bdb84e9fc3ddc9452d578ac3da41b89e3e06aa117be63e9b93cf2d4c27a6c98",
        ("quiver", "dot"):
            "777c86ec526b0de22e3b8520350bc0e9f722d01fefb3432569a59889f5fcde4f",
        ("quiver", "json"):
            "88ece26a1da32024fc630d0da23bb5a96d565b7559473d8197dc0cdfd200383a",
        ("quiver", "text"):
            "37f167c35ff77e4970d6ce27b8b615bc663d47ad0927cf3eba0f660b9db7fdeb",
    },
    "basis-ad7": {
        ("blocks", "json"):
            "392a5e14c80ef067a5cc808e22064fc87ba8f8b0600b86c4f7169ca0c60663cf",
        ("blocks", "text"):
            "91af9eee27b0466b09c49922979e982d180738ebbf64e4c5d9ee43b025dea051",
        ("quiver", "dot"):
            "2fb42d47e50bc8df6ca7b0d015ce9c7e88d18dc72d96e1b5b5d6472048ef8f85",
        ("quiver", "json"):
            "bab780e5f8216e0dceb2451bc5a4367b89479a2d9cf44d1b3fdf7d283e38a309",
        ("quiver", "text"):
            "8f1c0f34b08c7d0cac9b5ed4dea135c387a43d4e6ed1fd75dc05f382d974cbc4",
    },
    "clifford-even": {
        ("blocks", "json"):
            "5b72835d5d78d9934402cb02352a1d83b95e61ce01437d5583e34ed2de3d39b3",
        ("blocks", "text"):
            "70e9ce4c282810dc75e727e57c1e3d1a4aaf61475ba88b4b3a122516b0776cba",
        ("quiver", "dot"):
            "226036ca427cf3820e285cb17d21449339449366daa6706e97363825bfae315f",
        ("quiver", "json"):
            "da3b741aac96ed0d1c6a06ad64f61481d1136df7bcbd2188dc071a6b17a37b46",
        ("quiver", "text"):
            "2e35810c1e9346596b234884c88fc2c69db783adbf35810a782cecd550f6b2ba",
    },
    "clifford-odd": {
        ("blocks", "json"):
            "097802060945e040ac9e9b8a0a07ce897ee284ba40499b5699ee3d227e11ffec",
        ("blocks", "text"):
            "a85fcc25c6ecb472ef1280f48d9f4a0ae54c76c7d6673a35f0b7c44835965e77",
        ("quiver", "dot"):
            "9f5771f990b072c972848a44bfeb45952010b30282bca7a6e87240183ab2d1b2",
        ("quiver", "json"):
            "8d715b9f6732f198695c0d8798f7a5b406327c91fc3410c85d1222e87010efb0",
        ("quiver", "text"):
            "ce0b843e35af35af9ab4c89a83dd1f1632169068f9dbcf5cae9fb496833933b5",
    },
    "segre-alt": {
        ("blocks", "json"):
            "f05a741798418b8911ea3c5cb2fd2067efbdc51e8578769e6c6e0fd153f15194",
        ("blocks", "text"):
            "7c1af2abe15b66a05fa9df5d93ac2fa237a1f28eba7b9e869ba1f3518583195a",
        ("quiver", "dot"):
            "f7c2bbcadbb2f089143ef671036d8be44adb3155bb64c9c2593921889a7818f5",
        ("quiver", "json"):
            "d0b5948dfba730619b06e7a684831084ec0bcc6a6c2b31f919babe894c0e76dd",
        ("quiver", "text"):
            "4f1388a2b7f8f364dcc66b7ecb09f2c24743b271e2dc5427d3bdf4ab2a77f913",
    },
    "segre-sym": {
        ("blocks", "json"):
            "c25b9a28be4d1018351061cde41568e9487ff65edd9a728a650480b98b8d8506",
        ("blocks", "text"):
            "5639b0c1dff56766b6f2eeb1ed0052f9a968bb55c0009019f712458733868573",
        ("quiver", "dot"):
            "b09d63f19d8d20c03a518a40738c0dae48294c639daa099f95bd37897b40f2ea",
        ("quiver", "json"):
            "8a5a948faf3b273b509be0e3ae489460c967e943c600705d03bc14a7bd71c3da",
        ("quiver", "text"):
            "c9444d96f8d1bcdce8c6b304c20bcff36c9a467f14390477ad7d07b49d6bfc44",
    },
}


@pytest.mark.parametrize("command,fmt", [
    ("quiver", "json"), ("quiver", "dot"), ("quiver", "text"),
    ("blocks", "json"), ("blocks", "text")])
@pytest.mark.parametrize("name", sorted(KOSZUL))
def test_rendered_stdout_matches_golden(name, command, fmt, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(KOSZUL[name][0]), encoding="utf-8")
    argv = [command, "--spec", str(path), "--format", fmt]
    assert _stdout_digest(argv, capsys) == RENDERINGS[name][(command, fmt)]


def _lv(mult):
    return _spec([_F, _her(1, 3)], [_tensor("L", "V", mult)])


# sha256 of koszul stdout on larger inputs, recorded from the minimal
# resolutions: (spec, extra argv, digest)
KOSZUL_MORE = {
    "lv6": (_lv(6), [],
            "0944be836678705f51be3b9bfb6919d44484694f5e1d6c0d079bf3fd598e9287"),
    "lv8": (_lv(8), [],
            "d236bde605d062d508654fe7af26ba3c9282c31e3a825b6884385d07a114ed88"),
    "lv10": (_lv(10), [],
             "4720e16a323a62a9ca8e79e4e822800ffe1a1b4959fe69475d527b1099140d05"),
    "lv12": (_lv(12), [],
             "d2ff15f1e3796763a8066178c9a1fcfd901a3a108410455e66a24093d927fbd0"),
    "lv24": (_lv(24), [],
             "0c311bf61d4ca9b758d0a3a12a22b874174d78978a973f322211d36ece1c7376"),
    "ad6-hom6": (_spec([_F], [_unital("ad", 6)]), ["--hom-cap", "6"],
                 "42639231eb4ae055e99dccee3a1749991a314cdeb445d911984c2e1bc17ba8a7"),
}


@pytest.mark.parametrize("name", sorted(KOSZUL_MORE))
def test_more_koszul_stdout_matches_golden(name, tmp_path, capsys):
    spec, extra, expected = KOSZUL_MORE[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["koszul", "--spec", str(path)] + extra
    assert _stdout_digest(argv, capsys) == expected


# the exit-4 stderr of field + ad x 7, whose algebra has top degree 7, at a
# degree cap below it; at cap 1 the message names degree 1 and reports the
# dimension of degree 2, the first degree the extraction builds
DEG_CAP_ERRORS = {
    1: "degree 1 reached with dimension 21 still nonzero",
    3: "degree 3 reached with dimension 35 still nonzero",
    5: "degree 5 reached with dimension 21 still nonzero",
}


@pytest.mark.parametrize("cap", sorted(DEG_CAP_ERRORS))
def test_koszul_deg_cap_error_matches_golden(cap, tmp_path, capsys):
    path = tmp_path / "ad7.json"
    path.write_text(json.dumps(_spec([_F], [_unital("ad", 7)])),
                    encoding="utf-8")
    argv = ["koszul", "--spec", str(path), "--deg-cap", str(cap)]
    assert cli.main(argv) == cli.EXIT_CAP
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps({"error": "cap-exceeded",
                              "message": DEG_CAP_ERRORS[cap]}) + "\n"


# the exit-4 stderr of koszul above `cli.MAX_HOM_CAP`, refused before the
# spec is assembled
HOM_CAP_ERRORS = {
    1001: "hom cap 1001 exceeds the resolution bound 1000",
    10 ** 20: "hom cap 100000000000000000000 exceeds the resolution bound 1000",
}


@pytest.mark.parametrize("cap", sorted(HOM_CAP_ERRORS))
def test_koszul_hom_cap_error_matches_golden(cap, tmp_path, capsys,
                                              monkeypatch):
    def never(path):
        raise AssertionError("a spec was assembled above the hom cap")

    assert cli.MAX_HOM_CAP + 1 == min(HOM_CAP_ERRORS)
    monkeypatch.setattr(cli, "_assemble", never)
    spec, _ = KOSZUL["clifford-odd"]
    path = tmp_path / "clifford-odd.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    argv = ["koszul", "--spec", str(path), "--hom-cap", str(cap)]
    assert cli.main(argv) == cli.EXIT_CAP
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps({"error": "cap-exceeded",
                              "message": HOM_CAP_ERRORS[cap]}) + "\n"
