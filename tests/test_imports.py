"""Start-up: each subcommand loads only the layers it runs.

Importing the package loads no submodule, and the CLI imports the engine
modules inside the commands that use them.  Module sets are read in
a fresh interpreter, after `cli.main` returns.
"""

import importlib
import json
import subprocess
import sys

import pytest

import smodquiver
from helpers import SRC, WORKLOADS, matrix_plus, spin_factor, src_env
from smodquiver import reference

# public classes and functions of the library-only module, defined there
_LIBRARY_ONLY = {name for name, value in vars(reference).items()
                 if not name.startswith("_")
                 and getattr(value, "__module__", None) == reference.__name__}

_LOADED = ("sorted(m for m in sys.modules if m.startswith('smodquiver.'))")

# standard modules that cost milliseconds to import and that no command needs
_HEAVY = "sorted({'dataclasses', 'inspect'} & set(sys.modules))"

# `fractions` and the standard modules it imports, about 4 ms together: a
# command loads them only for a value that is not an integer
_NUMERIC = "sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules))"

# name -> (table JSON, exit code) of the benchmark's tkk-check ops
TKK_TABLES = WORKLOADS.TKK_TABLES

_RUN_CLI = f"""
import contextlib, io, json, sys
from smodquiver import cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(sys.argv[1:])
print(json.dumps([rc, {_LOADED}, {_HEAVY}, {_NUMERIC}]))
"""


def _child(code, *argv):
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=src_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _cli_modules(*argv):
    rc, loaded, *_ = _child(_RUN_CLI, *argv)
    assert rc == 0
    return {m.split(".", 1)[1] for m in loaded}


@pytest.fixture
def commands(tmp_path):
    """One command line per subcommand, two for tkk-check, with its exit."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"ideals": [{"kind": "field"}], "radical": [
        {"kind": "unital", "ideal": 0, "label": "ad", "mult": 2}]}),
        encoding="utf-8")
    # spin4 keeps JSON integer entries where the benchmark's tables write
    # strings, so the fractions test reads integer entries here and string
    # entries in the benchmark's spin8 (INTEGRAL_TABLES)
    good = tmp_path / "spin4.json"
    t = spin_factor(4)
    good.write_text(json.dumps({"dim": len(t), "products": t}), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(TKK_TABLES["scalar-products"][0]),
                   encoding="utf-8")
    return [(tuple(map(str, argv)), rc) for argv, rc in (
        (("quiver", "--spec", spec), 0),
        (("blocks", "--spec", spec), 0),
        (("koszul", "--spec", spec), 0),
        (("verify-appendix", "--max-rank", "3"), 0),
        (("tkk-check", "--table", good), 0),
        (("tkk-check", "--table", bad), 2))]


# the README Start-up row of each command line of `commands`, by its
# subcommand and exit
_STARTUP_ROWS = {("quiver", 0): "`quiver`, `blocks`",
                 ("blocks", 0): "`quiver`, `blocks`",
                 ("koszul", 0): "`koszul`",
                 ("verify-appendix", 0): "`verify-appendix`",
                 ("tkk-check", 0): "`tkk-check`, valid table",
                 ("tkk-check", 2): "`tkk-check`, table that exits 2"}


def _startup_table():
    """The source lines of each row of the README Start-up table."""
    text = (SRC.parent / "README.md").read_text(encoding="utf-8")
    lines = text.split("\n## Start-up\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in lines.splitlines():
        if line.startswith("| `"):
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows[cells[0]] = int(cells[2].replace(",", ""))
    return rows


def test_no_command_loads_more_source_than_the_readme_table(commands):
    # a growing module or a second code path shows here as lines each CLI
    # process compiles, before it shows as start-up time
    table = _startup_table()
    assert set(table) == set(_STARTUP_ROWS.values())
    for argv, want_rc in commands:
        rc, loaded, *_ = _child(_RUN_CLI, *argv)
        assert rc == want_rc, argv
        files = [SRC / "smodquiver" / "__init__.py"] + [
            SRC / "smodquiver" / (m.split(".", 1)[1] + ".py") for m in loaded]
        lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                    for f in files)
        assert lines <= table[_STARTUP_ROWS[argv[0], rc]], (argv, lines)


@pytest.mark.parametrize("command", ["quiver", "blocks", "koszul"])
def test_spec_commands_load_no_table_level(commands, command):
    argv = next(argv for argv, _ in commands if argv[0] == command)
    loaded = _cli_modules(*argv)
    assert {"jordan", "catalog", "weights", "quiver"} <= loaded
    assert not loaded & {"tkk", "tables", "oracles", "reference"}


def test_no_command_loads_library_only_code(commands):
    # neither the module itself nor any of its names in a loaded module
    assert {"weight_multiplicities", "sym_algebra", "segre_product",
            "report_from_dict"} <= _LIBRARY_ONLY
    for argv, want_rc in commands:
        rc, loaded, *_ = _child(_RUN_CLI, *argv)
        assert rc == want_rc, argv
        assert "smodquiver.reference" not in loaded, argv
        found = {name for mod in loaded
                 for name in vars(importlib.import_module(mod))
                 if name in _LIBRARY_ONLY}
        assert not found, (argv, sorted(found))


def test_tkk_check_loads_no_character_or_quiver_layer(tmp_path):
    t = spin_factor(4)
    table = tmp_path / "spin4.json"
    table.write_text(json.dumps({"dim": len(t), "products": t}),
                     encoding="utf-8")
    loaded = _cli_modules("tkk-check", "--table", str(table))
    assert {"tkk", "tables", "linalg"} <= loaded
    assert not loaded & {"jordan", "weights", "catalog", "quiver", "pathalg",
                         "oracles", "reference"}


@pytest.mark.parametrize("name", ["non-commutative", "scalar-products"])
def test_tkk_check_loads_no_construction_for_a_bad_table(tmp_path, name):
    table, _ = TKK_TABLES[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    rc, loaded, _, numeric = _child(_RUN_CLI, "tkk-check", "--table",
                                    str(path))
    assert (rc, numeric) == (2, [])
    loaded = {m.split(".", 1)[1] for m in loaded}
    assert {"tables", "linalg"} <= loaded
    assert "tkk" not in loaded
    assert "jordan" not in loaded


def test_verify_appendix_loads_no_algebra_layer():
    loaded = _cli_modules("verify-appendix", "--max-rank", "3")
    assert {"oracles", "catalog", "weights"} <= loaded
    assert not loaded & {"jordan", "tkk", "quiver", "pathalg", "linalg"}


def test_no_command_imports_dataclasses_or_inspect(commands):
    for argv, want_rc in commands:
        rc, _, heavy, _ = _child(_RUN_CLI, *argv)
        assert (rc, heavy) == (want_rc, []), argv
    code = f"import json, sys\nimport smodquiver.cli\nprint(json.dumps({_HEAVY}))"
    assert _child(code) == []


def test_no_command_loads_fractions(commands):
    # every value on these paths is an integer, the unit e_0 of spin4 too
    for argv, want_rc in commands:
        rc, _, _, numeric = _child(_RUN_CLI, *argv)
        assert (rc, numeric) == (want_rc, []), argv


# tkk-check tables of the benchmark that run the construction on integers;
# its two tables that exit 2 are in the bad-table test above
INTEGRAL_TABLES = {name: TKK_TABLES[name] for name in ("spin8", "non-unital")}


@pytest.mark.parametrize("name", sorted(INTEGRAL_TABLES))
def test_tkk_check_on_an_integral_table_loads_no_fractions(tmp_path, name):
    table, want_rc = INTEGRAL_TABLES[name]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    rc, _, _, numeric = _child(_RUN_CLI, "tkk-check", "--table", str(path))
    assert (rc, numeric) == (want_rc, [])


def test_a_non_integral_unit_may_load_fractions(tmp_path):
    # M_2 with E_ij o E_kl = E_ij E_kl + E_kl E_ij has the unit I/2
    t = matrix_plus(2)
    path = tmp_path / "m2-plus.json"
    path.write_text(json.dumps({"dim": len(t), "products": t}),
                    encoding="utf-8")
    rc, _, _, numeric = _child(_RUN_CLI, "tkk-check", "--table", str(path))
    assert rc == 0
    assert "fractions" in numeric


def test_cli_keeps_no_command_body_of_a_level():
    # rendering lives in quiver, the appendix run in oracles
    from smodquiver import cli, oracles, quiver

    assert not {"emit_dot", "emit_text", "verify_appendix",
                "_appendix_kinds"} & set(vars(cli))
    assert callable(quiver.emit_dot) and callable(quiver.emit_text)
    assert callable(oracles.verify_appendix)


def test_bare_import_loads_no_submodule():
    # the package is its docstring: no submodule and no public name
    code = f"""
import json, sys
import smodquiver
public = sorted(n for n in vars(smodquiver) if not n.startswith("_"))
print(json.dumps([{_LOADED}, public]))
"""
    assert _child(code) == [[], []]


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        smodquiver.no_such_name
    assert not hasattr(smodquiver, "tensor_product")
