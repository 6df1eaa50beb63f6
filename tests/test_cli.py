"""Command line front end: outputs, determinism, exit codes."""

import importlib
import json
import random
import subprocess
import sys
import time

import pytest

from helpers import change_arrow_basis, src_env, template_algebra
from smodquiver import (catalog, cli, jordan, oracles, pathalg, quiver,
                        reference, tables, tkk)


def write_spec(tmp_path, spec, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(jordan.spec_to_dict(spec)), encoding="utf-8")
    return str(path)


SL6_AD = jordan.JordanSpec((jordan.Hermitian(2, 3),),
                           (jordan.Unital(0, "ad"),))


def run(argv):
    return cli.main(argv)


def test_quiver_dot_two_loops(tmp_path, capsys):
    path = write_spec(tmp_path, SL6_AD)
    assert run(["quiver", "--spec", path, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert 'v0 [label="c0:V"];' in out
    assert 'v1 [label="c0:V*"];' in out
    assert 'v0 -> v0 [label="g0w0"];' in out
    assert 'v1 -> v1 [label="g0w0"];' in out
    assert "// relation:" in out


def test_dot_isolated_vertices(tmp_path, capsys):
    spec = jordan.JordanSpec((jordan.Hermitian(1, 3),), ())
    path = write_spec(tmp_path, spec)
    assert run(["quiver", "--spec", path, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert "->" not in out.split("}")[0].replace("digraph", "")


def test_dot_two_cycle_distinct_groups(tmp_path, capsys):
    # S2V and L2V over sl(6) give arrows V* -> V of two different colors;
    # adding their duals yields a two-colored 2-cycle
    spec = jordan.JordanSpec((jordan.Hermitian(2, 3),),
                             (jordan.Unital(0, "S2V"), jordan.Unital(0, "S2V*")))
    path = write_spec(tmp_path, spec)
    assert run(["quiver", "--spec", path, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert 'v1 -> v0 [label="g0w0"];' in out
    assert 'v0 -> v1 [label="g1w0", style=dashed];' in out


def test_dot_deterministic(tmp_path):
    path = write_spec(tmp_path, SL6_AD)
    out1 = tmp_path / "a.dot"
    out2 = tmp_path / "b.dot"
    assert run(["quiver", "--spec", path, "--format", "dot",
                "--out", str(out1)]) == 0
    assert run(["quiver", "--spec", path, "--format", "dot",
                "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_json_round_trip(tmp_path, capsys):
    path = write_spec(tmp_path, SL6_AD)
    assert run(["quiver", "--spec", path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schemaVersion"] == 1
    rebuilt = reference.report_from_dict(data)
    assert rebuilt == quiver.assemble(SL6_AD)


def test_quiver_text_format(tmp_path, capsys):
    path = write_spec(tmp_path, SL6_AD)
    assert run(["quiver", "--spec", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "summands: sl(6)" in out
    assert "wild: false" in out
    assert "central extension dim: 0" in out


def test_blocks_table(tmp_path, capsys):
    path = write_spec(tmp_path, SL6_AD)
    assert run(["blocks", "--spec", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "Table1:row2" in out


def test_koszul_command(tmp_path, capsys):
    spec = jordan.JordanSpec((jordan.Field(), jordan.Hermitian(1, 3)),
                             (jordan.TensorOfSpecial(0, "L", 1, "V", 2),))
    path = write_spec(tmp_path, spec)
    assert run(["koszul", "--spec", path, "--hom-cap", "4"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["koszul"] is True


def test_koszul_without_certificate_exits_verify(tmp_path, capsys,
                                                 monkeypatch):
    # CliffordOdd(3) in another arrow basis is Koszul, but its relations are
    # no Groebner basis: koszul refuses it rather than resolve it
    alg = change_arrow_basis(template_algebra("CliffordOdd", (3,)),
                             random.Random(0))
    assert alg.pbw is None
    monkeypatch.setattr(pathalg, "from_presentation",
                        lambda quiver, relations, deg_cap=8: alg)
    path = write_spec(tmp_path, SL6_AD)
    assert run(["koszul", "--spec", path]) == cli.EXIT_VERIFY
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "verification-failed",
        "message": "the relations are not a quadratic Groebner basis "
                   "(no PBW certificate)"}


def test_koszul_deg_cap_exceeded(tmp_path, capsys):
    # nine copies of a singular component need path degree 9 > cap 3
    spec = jordan.JordanSpec((jordan.Bilinear(5),),
                             (jordan.Unital(0, "LrV(1)", 9),))
    path = write_spec(tmp_path, spec)
    assert run(["koszul", "--spec", path, "--deg-cap", "3"]) == cli.EXIT_CAP
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "cap-exceeded"


def _ad_loops(mult):
    return jordan.JordanSpec((jordan.Field(),), (jordan.Unital(0, "ad", mult),))


# a loop (ad over the field) has mult^2 composable thin pairs; a single arrow
# (L2V over hermitian(2,3), Table 1 row 5) has none, only mult thin arrows
@pytest.mark.parametrize("command, spec", [
    ("quiver", _ad_loops(10 ** 6)),
    ("blocks", _ad_loops(10 ** 6)),
    ("koszul", _ad_loops(10 ** 6)),
    ("quiver", jordan.JordanSpec((jordan.Hermitian(2, 3),),
                                 (jordan.Unital(0, "L2V", 10 ** 6),))),
], ids=["quiver", "blocks", "koszul", "quiver-single-arrow"])
def test_oversized_quiver_exits_4_quickly(tmp_path, command, spec):
    path = write_spec(tmp_path, spec)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "smodquiver.cli", command, "--spec", path],
        env=src_env(), capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == cli.EXIT_CAP
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "cap-exceeded"
    assert elapsed < 5.0, f"the refusal took {elapsed:.1f} s"


def test_quiver_size_bound_is_exact(tmp_path, capsys, monkeypatch):
    # ad over the field at mult m: m thin loops and m^2 composable pairs
    monkeypatch.setattr(quiver, "MAX_QUIVER_SIZE", 4 + 4 ** 2)
    for mult, rc in ((4, cli.EXIT_OK), (5, cli.EXIT_CAP)):
        path = write_spec(tmp_path, _ad_loops(mult))
        assert run(["blocks", "--spec", path]) == rc
        captured = capsys.readouterr()
        if rc == cli.EXIT_OK:
            assert json.loads(captured.out)["blocks"][0]["relations"] == \
                mult * (mult + 1) // 2
        else:
            assert json.loads(captured.err)["error"] == "cap-exceeded"


# spinors and Lambda+ of a large so(n) have millions to billions of weights;
# before the weight-walk bound the first spec ran for 28.7 s and the other
# two were still running after 15-20 s
_WALKED = {
    "bilinear44-tensor-L-Gamma+": jordan.JordanSpec(
        (jordan.Field(), jordan.Bilinear(44)),
        (jordan.TensorOfSpecial(0, "L", 1, "Gamma+"),)),
    "bilinear60-tensor-L-Gamma+": jordan.JordanSpec(
        (jordan.Field(), jordan.Bilinear(60)),
        (jordan.TensorOfSpecial(0, "L", 1, "Gamma+"),)),
    "bilinear38-unital-Lambda+": jordan.JordanSpec(
        (jordan.Bilinear(38),), (jordan.Unital(0, "Lambda+"),)),
}


@pytest.mark.parametrize("name", sorted(_WALKED))
def test_oversized_module_exits_4_quickly(tmp_path, name):
    path = write_spec(tmp_path, _WALKED[name])
    for command in ("quiver", "blocks", "koszul"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "smodquiver.cli", command, "--spec", path],
            env=src_env(), capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == cli.EXIT_CAP, command
        assert proc.stdout == ""
        assert json.loads(proc.stderr)["error"] == "cap-exceeded"
        assert elapsed < 2.0, f"{command}: the refusal took {elapsed:.1f} s"


# a kind whose own dimension is above the walk bound, refused before any root
# is built; without that refusal the first spec ran 18.7 s to exit 0, the
# second was still running after 120 s and the third exited 4 after 58.9 s
_LARGE_KINDS = {
    "bilinear600-unital-LrV(1)": (
        jordan.JordanSpec((jordan.Bilinear(600),),
                          (jordan.Unital(0, "LrV(1)"),)),
        "a module of so2(602) of dimension 180901 exceeds the weight-walk "
        "bound 65536"),
    "bilinear1200-unital-LrV(1)": (
        jordan.JordanSpec((jordan.Bilinear(1200),),
                          (jordan.Unital(0, "LrV(1)"),)),
        "a module of so2(1202) of dimension 721801 exceeds the weight-walk "
        "bound 65536"),
    "hermitian(2,300)-unital-ad": (
        jordan.JordanSpec((jordan.Hermitian(2, 300),),
                          (jordan.Unital(0, "ad"),)),
        "a module of sl(600) of dimension 359999 exceeds the weight-walk "
        "bound 65536"),
}


@pytest.mark.parametrize("name", sorted(_LARGE_KINDS))
def test_oversized_kind_exits_4_quickly(tmp_path, name):
    spec, message = _LARGE_KINDS[name]
    path = write_spec(tmp_path, spec)
    for command in ("quiver", "blocks", "koszul"):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "smodquiver.cli", command, "--spec", path],
            env=src_env(), capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == cli.EXIT_CAP, command
        assert proc.stdout == ""
        assert proc.stderr == json.dumps(
            {"error": "cap-exceeded", "message": message}) + "\n"
        assert elapsed < 1.0, f"{command}: the refusal took {elapsed:.1f} s"


def test_a2_block_has_six_edges(tmp_path, capsys):
    spec = jordan.JordanSpec(
        (jordan.Field(), jordan.Hermitian(2, 3)),
        (jordan.TensorOfSpecial(0, "L", 1, "V", 2),
         jordan.TensorOfSpecial(0, "L", 1, "V*", 1)))
    path = write_spec(tmp_path, spec)
    assert run(["quiver", "--spec", path, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    edges = [l for l in out.splitlines() if "->" in l]
    assert len(edges) == 6


def test_validation_exit_code(tmp_path, capsys):
    spec = jordan.JordanSpec((jordan.Hermitian(4, 2),), ())
    path = write_spec(tmp_path, spec)
    assert run(["quiver", "--spec", path]) == cli.EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "spec-invalid"


def test_spec_is_validated_before_it_is_unitalized(tmp_path, capsys):
    # index 1 is the field ideal that unitalizing adds
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"ideals": [{"kind": "field"}], "radical": [
        {"kind": "unital", "ideal": 1, "label": "ad", "mult": 1}],
        "unital": False}), encoding="utf-8")
    assert run(["quiver", "--spec", str(path)]) == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps({
        "error": "spec-invalid",
        "message": "radical 0: ideal index out of range"}) + "\n"


def _raise(exc):
    def engine_call(*args, **kwargs):
        raise exc
    return engine_call


# (engine module, function, exception raised from it, subcommand, exit, kind)
ENGINE_RAISES = {
    "NonTerminating": (pathalg, "koszul_check", pathalg.NonTerminating("deg"),
                       "koszul", cli.EXIT_CAP, "cap-exceeded"),
    "NoCertificate": (pathalg, "koszul_check",
                      pathalg.NoCertificate("no PBW certificate"), "koszul",
                      cli.EXIT_VERIFY, "verification-failed"),
    "PresentationError": (pathalg, "from_presentation",
                          pathalg.PresentationError("duplicate arrow ids"),
                          "koszul", cli.EXIT_VERIFY, "verification-failed"),
    "UnknownLabel": (quiver, "assemble", catalog.UnknownLabel("no label V9"),
                     "blocks", cli.EXIT_VALIDATION, "spec-invalid"),
    "SpecError": (quiver, "assemble",
                  jordan.SpecError(jordan.validate_spec(
                      jordan.JordanSpec((jordan.Hermitian(4, 2),), ()))),
                  "quiver", cli.EXIT_VALIDATION, "spec-invalid"),
    "JacobiFails": (tables, "check_jordan_identity", tkk.JacobiFails("bad"),
                    "tkk-check", cli.EXIT_VERIFY, "verification-failed"),
    "NotUnital": (tables, "check_jordan_identity", tkk.NotUnital("no unit"),
                  "tkk-check", cli.EXIT_VERIFY, "verification-failed"),
}


@pytest.mark.parametrize("name", sorted(ENGINE_RAISES))
def test_engine_exception_maps_to_its_exit(tmp_path, capsys, monkeypatch,
                                           name):
    module, fn, exc, command, code, kind = ENGINE_RAISES[name]
    monkeypatch.setattr(module, fn, _raise(exc))
    if command == "tkk-check":
        path = tmp_path / "sc.json"
        path.write_text(json.dumps({"dim": 1, "products": [[["1"]]]}),
                        encoding="utf-8")
        argv = [command, "--table", str(path)]
    else:
        argv = [command, "--spec", write_spec(tmp_path, SL6_AD)]
    assert run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": kind, "message": exc.args[0]}


def test_every_mapped_exception_exists_in_its_home_module():
    # `_engine_error` looks each name up without a default, so a row naming
    # a moved or deleted exception would turn its exit into a traceback
    for module, name, code, kind in cli.ENGINE_ERRORS:
        mod = importlib.import_module(f"smodquiver.{module}")
        exc = getattr(mod, name, None)
        assert isinstance(exc, type) and issubclass(exc, Exception), \
            (module, name)
        assert exc.__module__ == mod.__name__, (module, name)
        assert code in (cli.EXIT_VALIDATION, cli.EXIT_VERIFY, cli.EXIT_CAP)


def test_unmapped_exception_escapes(tmp_path, monkeypatch):
    monkeypatch.setattr(quiver, "assemble", _raise(ZeroDivisionError("bug")))
    with pytest.raises(ZeroDivisionError):
        run(["quiver", "--spec", write_spec(tmp_path, SL6_AD)])


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert run(["quiver", "--spec", str(bad)]) == cli.EXIT_VALIDATION


def test_tkk_check_field(tmp_path, capsys):
    table = tmp_path / "sc.json"
    table.write_text(json.dumps({"dim": 1, "products": [[["1"]]]}),
                     encoding="utf-8")
    assert run(["tkk-check", "--table", str(table)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dims"] == [1, 1, 1]
    assert data["minimal"] and data["roundTrip"]


def test_tkk_check_rejects_non_jordan(tmp_path, capsys):
    table = tmp_path / "sc.json"
    table.write_text(json.dumps(
        {"dim": 2, "products": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]}),
        encoding="utf-8")
    assert run(["tkk-check", "--table", str(table)]) == cli.EXIT_VERIFY
    data = json.loads(capsys.readouterr().out)
    assert data["jordanIdentity"] is False


def test_verify_appendix_small(capsys):
    assert run(["verify-appendix", "--max-rank", "3"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "sp(6)" in out


def test_verify_appendix_rank_cap(capsys, monkeypatch):
    # over the bound the command stops before any character work
    def never(kind):
        raise AssertionError("appendix checks ran above the rank cap")

    monkeypatch.setattr(oracles, "appendix_checks", never)
    assert run(["verify-appendix", "--max-rank",
                str(cli.MAX_APPENDIX_RANK + 1)]) == cli.EXIT_CAP
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "cap-exceeded"


def test_verify_appendix_below_rank_2_is_invalid(capsys):
    # the appendix starts at rank 2 with so2(5); rank 1 would check nothing
    assert cli.MIN_APPENDIX_RANK == 2
    assert run(["verify-appendix", "--max-rank", "1"]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "cap-invalid" and "rank 2" in err["message"]
    assert run(["verify-appendix", "--max-rank", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok   so2(5): ") and "FAIL" not in out


def test_positive_cap_required(capsys):
    assert run(["koszul", "--spec", "x.json", "--hom-cap", "0"]) == \
        cli.EXIT_VALIDATION
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "cap-invalid", "message": "caps must be positive"}


@pytest.mark.parametrize("argv", [
    ["koszul"],
    ["koszul", "--spec", "x.json", "--hom-cap", "abc"],
    ["no-such-command"],
    [],
], ids=["missing-spec", "bad-int", "unknown-command", "empty"])
def test_usage_error_is_json(capsys, argv):
    assert run(argv) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert set(err) == {"error", "message"} and err["error"] == "usage"


def test_help_exits_0_on_stdout(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["koszul", "-h"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert "--hom-cap" in captured.out and captured.err == ""


def test_tkk_check_scalar_products(tmp_path, capsys):
    table = tmp_path / "sc.json"
    table.write_text(json.dumps({"dim": 1, "products": [[1]]}),
                     encoding="utf-8")
    assert run(["tkk-check", "--table", str(table)]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "table-parse"


def test_spec_ideals_not_a_list(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"ideals": 5}), encoding="utf-8")
    assert run(["quiver", "--spec", str(bad)]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "spec-parse"


def test_spec_file_is_a_list(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"kind": "field"}]), encoding="utf-8")
    assert run(["quiver", "--spec", str(bad)]) == cli.EXIT_VALIDATION
    assert json.loads(capsys.readouterr().err)["error"] == "spec-parse"


def test_spec_bad_scalar_fields(tmp_path, capsys):
    for spec in ({"ideals": [{"kind": "bilinear", "dim": None}]},
                 {"ideals": [{"kind": "hermitian", "comp": 2, "n": 3}],
                  "radical": [{"kind": "unital", "ideal": 0, "label": ["ad"]}]}):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec), encoding="utf-8")
        assert run(["quiver", "--spec", str(bad)]) == cli.EXIT_VALIDATION
        assert json.loads(capsys.readouterr().err)["error"] == "spec-parse"


def _spec_exit(tmp_path, capsys, spec):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec), encoding="utf-8")
    rc = run(["blocks", "--spec", str(bad)])
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "spec-parse"
    return rc


def test_spec_non_integral_float_rejected(tmp_path, capsys):
    spec = {"ideals": [{"kind": "bilinear", "dim": 5.7}]}
    assert _spec_exit(tmp_path, capsys, spec) == cli.EXIT_VALIDATION


def test_spec_bool_rejected(tmp_path, capsys):
    spec = {"ideals": [{"kind": "hermitian", "comp": 2, "n": True}]}
    assert _spec_exit(tmp_path, capsys, spec) == cli.EXIT_VALIDATION


def test_spec_string_number_rejected(tmp_path, capsys):
    spec = {"ideals": [{"kind": "field"}],
            "radical": [{"kind": "unital", "ideal": 0, "label": "ad",
                         "mult": "2"}]}
    assert _spec_exit(tmp_path, capsys, spec) == cli.EXIT_VALIDATION


@pytest.mark.parametrize("unital", ["false", 0, None])
def test_spec_unital_must_be_a_bool(tmp_path, capsys, unital):
    spec = {"ideals": [], "unital": unital}
    assert _spec_exit(tmp_path, capsys, spec) == cli.EXIT_VALIDATION


def test_spec_unital_bool_or_absent(tmp_path, capsys):
    for spec, unital in (({"ideals": [{"kind": "field"}]}, True),
                         ({"ideals": [{"kind": "field"}], "unital": True}, True),
                         ({"ideals": [{"kind": "field"}], "unital": False}, False)):
        assert jordan.spec_from_dict(spec).unital is unital
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"ideals": [], "unital": False}), encoding="utf-8")
    assert run(["blocks", "--spec", str(path)]) == cli.EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["quiver", "--spec", "SPEC"],
    ["blocks", "--spec", "SPEC"],
    ["koszul", "--spec", "SPEC"],
    ["verify-appendix", "--max-rank", "3"],
    ["tkk-check", "--table", "TABLE"],
], ids=["quiver", "blocks", "koszul", "verify-appendix", "tkk-check"])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    spec = write_spec(tmp_path, jordan.JordanSpec((jordan.Field(),)))
    table = tmp_path / "sc.json"
    table.write_text(json.dumps({"dim": 1, "products": [[["1"]]]}),
                     encoding="utf-8")
    argv = [{"SPEC": spec, "TABLE": str(table)}.get(a, a) for a in argv]
    out = tmp_path / "missing" / "x.txt"
    assert run(argv + ["--out", str(out)]) == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "out-write"
    assert not out.parent.exists()


def _tkk_check(tmp_path, capsys, text):
    table = tmp_path / "sc.json"
    table.write_text(text, encoding="utf-8")
    rc = run(["tkk-check", "--table", str(table)])
    captured = capsys.readouterr()
    assert captured.out == ""
    return rc, json.loads(captured.err)["error"]


@pytest.mark.parametrize("text", [
    '{"dim": 1, "products": [[["1/0"]]]}',
    '{"dim": 1, "products": [[[Infinity]]]}',
    '{"dim": 1, "products": [[[true]]]}',
    '{"dim": 1.7, "products": [[["1"]]]}',
    '{"dim": "1", "products": [[["1"]]]}',
    '{"dim": true, "products": [[["1"]]]}',
    '{"dim": 0, "products": []}',
    '{"dim": -1, "products": []}',
    '{"dim": 1, "products": [[["1"]], [["1"]]]}',
    '{"dim": 1, "products": [[["1"], ["1"]]]}',
], ids=["zero-denominator", "infinity", "bool-entry", "float-dim",
        "string-dim", "bool-dim", "zero-dim", "negative-dim", "extra-row",
        "extra-column"])
def test_tkk_check_table_parse_errors(tmp_path, capsys, text):
    assert _tkk_check(tmp_path, capsys, text) == \
        (cli.EXIT_VALIDATION, "table-parse")


@pytest.mark.parametrize("entry", ["1e3000000", "-1.5E-3000000",
                                   "1e+3_000_000"])
def test_tkk_check_huge_exponent(tmp_path, entry):
    # Fraction would expand the exponent into a million-digit integer; the
    # loader bounds it by the interpreter's integer digit limit instead
    table = tmp_path / "sc.json"
    table.write_text(json.dumps({"dim": 1, "products": [[[entry]]]}),
                     encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "smodquiver.cli", "tkk-check", "--table",
         str(table)], env=src_env(), capture_output=True, text=True,
        timeout=10)
    assert proc.returncode == cli.EXIT_VALIDATION
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "table-parse"


def test_tkk_check_exponent_at_the_digit_limit(tmp_path, capsys):
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter runs without an integer digit limit")
    table = tmp_path / "sc.json"
    for exp, rc in ((limit, cli.EXIT_OK), (limit + 1, cli.EXIT_VALIDATION)):
        table.write_text(json.dumps({"dim": 1, "products": [[[f"1e{exp}"]]]}),
                         encoding="utf-8")
        assert run(["tkk-check", "--table", str(table)]) == rc
        capsys.readouterr()


def test_tkk_check_dim_cap(tmp_path, capsys, monkeypatch):
    # over the bound the command stops before the O(n^4) identity check
    def never(sc):
        raise AssertionError("identity check ran above the dimension cap")

    monkeypatch.setattr(tables, "check_jordan_identity", never)
    n = tkk.MAX_EXPLICIT_DIM + 1
    products = [[["1" if i == j == k else "0" for k in range(n)]
                 for j in range(n)] for i in range(n)]
    text = json.dumps({"dim": n, "products": products})
    assert _tkk_check(tmp_path, capsys, text) == (cli.EXIT_CAP, "cap-exceeded")


def test_tkk_check_table_bits_cap(tmp_path, capsys, monkeypatch):
    # dim 2: an entry of MAX_TABLE_BITS / 4 bits is the longest allowed; one
    # more bit stops the command before the identity check
    def never(sc):
        raise AssertionError("identity check ran above the bits cap")

    bits = tkk.MAX_TABLE_BITS // 4
    for entry, rc in ((2 ** bits - 1, cli.EXIT_VERIFY), (2 ** bits, cli.EXIT_CAP)):
        products = [[[str(entry) if i == j == k == 0 else "0" for k in range(2)]
                     for j in range(2)] for i in range(2)]
        table = tmp_path / "sc.json"
        table.write_text(json.dumps({"dim": 2, "products": products}),
                         encoding="utf-8")
        if rc == cli.EXIT_CAP:
            monkeypatch.setattr(tables, "check_jordan_identity", never)
        assert run(["tkk-check", "--table", str(table)]) == rc
        captured = capsys.readouterr()
        if rc == cli.EXIT_CAP:
            assert captured.out == ""
            assert json.loads(captured.err)["error"] == "cap-exceeded"


def test_tkk_check_long_dense_entries_exit_4_quickly(tmp_path):
    # every product of this 8-dimensional table is dense in 3322-bit entries;
    # without the bound its identity check ran for minutes
    n = 8
    table = tmp_path / "dense.json"
    table.write_text(json.dumps({"dim": n, "products": [
        [["1e1000"] * n for _ in range(n)] for _ in range(n)]}),
        encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "smodquiver.cli", "tkk-check", "--table",
         str(table)], env=src_env(), capture_output=True, text=True,
        timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == cli.EXIT_CAP
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"] == "cap-exceeded"
    assert elapsed < 5.0, f"the refusal took {elapsed:.1f} s"


# stdout of the 8-dimensional tables whose every structure constant is the
# same: the product is associative, so the identity holds on every basis
# tuple, and there is no unit
_DENSE_STDOUT = """{
  "error": "algebra has no identity element",
  "jacobi": false,
  "jordanIdentity": true
}
"""


@pytest.mark.parametrize("entry", ["1", "1/3"])
def test_tkk_check_dense_table_exits_3_quickly(tmp_path, entry):
    # every product is nonzero in every coordinate, so the identity check
    # multiplies dense vectors; it runs over int, in well under the bound
    n = 8
    table = tmp_path / "dense.json"
    table.write_text(json.dumps({"dim": n, "products": [
        [[entry] * n for _ in range(n)] for _ in range(n)]}), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "smodquiver.cli", "tkk-check", "--table",
         str(table)], env=src_env(), capture_output=True, text=True,
        timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == cli.EXIT_VERIFY
    assert proc.stderr == ""
    assert proc.stdout == _DENSE_STDOUT
    assert elapsed < 5.0, f"dense 8-dimensional table took {elapsed:.1f} s"
