"""Fuzz of the command line: spec and table files, in process through
`cli.main`.

Every input must reach a documented exit (0, 2, 3 or 4) without an
exception escaping, and an error exit (2 or 4) must print exactly one JSON
object with `error` and `message` on stderr, within `EXAMPLE_SECONDS`.
Multiplicities stay up to 3 and table dimensions and most algebra dimensions
up to 4; bilinear ideals reach dimension 80, whose spinors and Lambda+- lie
far past the weight-walk bound.  About one table in three is a Jordan table
in a random basis, so that it reaches the TKK construction.  The draws are
derandomized so the suite is repeatable.
"""

import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import jordan_in_random_basis

# imported up front, so that no example's time includes compiling a layer
from smodquiver import cli, pathalg, quiver, tkk  # noqa: F401

# wall-time bound of one example.  The slowest drawn example took 6 ms (in
# process, layers imported, 2-core shared machine), but a spec just under the
# weight-walk bound, such as field + bilinear(32) with L (x) Gamma+, takes
# about 0.5 s on cold caches; the bound admits every such input and still
# fails on unbounded work like the 28.7 s walk over the weights of a spinor
# of so(46)
EXAMPLE_SECONDS = 2.0

EXITS = {cli.EXIT_OK, cli.EXIT_VALIDATION, cli.EXIT_VERIFY, cli.EXIT_CAP}

# JSON values that no field accepts
JUNK = st.sampled_from([None, True, 2.0, "2", [], {}, -1])


def _one_in(n):
    """True about once in n draws (hypothesis favours the ends of a range,
    so the rare case sits in its middle)."""
    return st.integers(0, n - 1).map(lambda k: k == n // 2)


def _mostly(good, bad=JUNK):
    """The well-formed value about nine times in ten, else the malformed one."""
    return _one_in(10).flatmap(lambda rare: bad if rare else good)


LABELS = st.sampled_from(["V", "V*", "ad", "S2V", "S2V*", "L2V", "L2V*",
                          "Gamma", "Gamma+", "Gamma-", "LrV(1)", "LrV(2)",
                          "Lambda+", "Lambda-", "L"])
BAD_LABELS = st.sampled_from(["tr", "trivial", "nope", "LrV(9)", 3])
MULT = st.integers(min_value=1, max_value=3)

IDEALS = _mostly(st.one_of(
    st.just({"kind": "field"}),
    st.builds(lambda d: {"kind": "bilinear", "dim": d},
              _mostly(st.integers(2, 80))),
    st.builds(lambda c, n: {"kind": "hermitian", "comp": c, "n": n},
              _mostly(st.sampled_from([1, 2, 4]), st.sampled_from([0, 3])),
              _mostly(st.integers(2, 4))),
    st.just({"kind": "albert"}),
), st.one_of(JUNK, st.just({}),
             st.builds(lambda k: {"kind": k}, st.sampled_from(["", "Field", 0]))))


def _ref(n_ideals):
    return st.builds(lambda i, lab: {"ideal": i, "label": lab},
                     _mostly(st.integers(0, max(n_ideals - 1, 0)),
                             st.sampled_from([-1, n_ideals, 1.0])),
                     _mostly(LABELS, BAD_LABELS))


def _radical(n_ideals):
    return _mostly(st.one_of(
        st.builds(lambda ref, m: {"kind": "unital", **ref, "mult": m},
                  _ref(n_ideals), _mostly(MULT, st.sampled_from([0, -1, "2"]))),
        st.builds(lambda a, b, m: {"kind": "tensor", "a": a, "b": b,
                                   "mult": m},
                  _ref(n_ideals), _ref(n_ideals), _mostly(MULT)),
        st.builds(lambda ref: {"kind": "unital", **ref}, _ref(n_ideals)),
    ), st.one_of(JUNK, st.builds(lambda ref: {"kind": "other", **ref},
                                 _ref(n_ideals))))


@st.composite
def specs(draw):
    ideals = draw(_mostly(st.lists(IDEALS, min_size=1, max_size=3), st.just([])))
    spec = {"ideals": draw(_mostly(st.just(ideals))),
            "radical": draw(_mostly(st.lists(_radical(len(ideals)),
                                             max_size=3)))}
    if draw(st.booleans()):
        spec["unital"] = draw(_mostly(st.booleans(),
                                      st.sampled_from(["false", None, 0])))
    if draw(_one_in(10)):
        del spec[draw(st.sampled_from(sorted(spec)))]
    return draw(_mostly(st.just(spec), st.sampled_from([[spec], "spec"])))


ENTRIES = st.one_of(st.just(0), st.just(0), st.just(1),
                    st.integers(min_value=-2, max_value=2),
                    st.sampled_from(["1", "-1/2", "0.5", "2e1", 0.5]))
BAD_ENTRIES = st.sampled_from(["1/0", "x", "1e99999", True, None, [1]])


@st.composite
def tables(draw):
    if draw(_one_in(3)):
        # a Jordan table in a random basis: one that reaches the construction
        rows = [[[str(x) for x in v] for v in row]
                for row in draw(jordan_in_random_basis(max_dim=4))]
        n = len(rows)
    else:
        n = draw(st.integers(1, 4))
        # commutative by construction unless a cell is redrawn below
        prod = {}
        for i in range(n):
            for j in range(i, n):
                prod[i, j] = prod[j, i] = draw(st.lists(ENTRIES, min_size=n,
                                                        max_size=n))
        rows = [[list(prod[i, j]) for j in range(n)] for i in range(n)]
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    if draw(_one_in(10)):    # one entry malformed
        rows[i][j][k] = draw(BAD_ENTRIES)
    elif draw(_one_in(10)):  # one cell redrawn: mostly not commutative, or mis-sized
        rows[i][j] = draw(st.lists(ENTRIES, min_size=n - 1, max_size=n + 1))
    table = {"dim": draw(_mostly(st.just(n), st.sampled_from([0, n + 1]))),
             "products": rows}
    if draw(_one_in(20)):
        table["dim"] = draw(JUNK)
    if draw(_one_in(20)):
        del table[draw(st.sampled_from(["dim", "products"]))]
    return draw(_mostly(st.just(table), st.sampled_from([[table], 1])))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv):
    """Exit code, stdout and stderr of `cli.main(argv)`, run in process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - start
    assert elapsed < EXAMPLE_SECONDS, (argv, elapsed)
    return rc, out.getvalue(), err.getvalue()


def _check(rc, out, err):
    assert rc in EXITS, (rc, out, err)
    if rc in (cli.EXIT_VALIDATION, cli.EXIT_CAP):
        assert out == ""
        data = json.loads(err)
        assert isinstance(data, dict) and set(data) == {"error", "message"}
    else:
        assert err == ""
        assert out


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec=specs(), command=st.sampled_from(["quiver", "blocks", "koszul"]))
def test_spec_commands_exit_as_documented(workdir, spec, command):
    path = workdir / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [command, "--spec", str(path)]
    if command == "koszul":
        argv += ["--hom-cap", "3"]
    _check(*_run(argv))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(table=tables())
def test_tkk_check_exits_as_documented(workdir, table):
    path = workdir / "table.json"
    path.write_text(json.dumps(table), encoding="utf-8")
    _check(*_run(["tkk-check", "--table", str(path)]))
