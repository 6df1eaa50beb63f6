"""Byte guard over many inputs: each slice of inputs must hash to its
recorded sha256.  The slices are fixed:

  * corpus: the 200 criterion-8 corpus specs, each as drawn (unital) and
    with `"unital": false`;
  * benchmark: the benchmark's six koszul specs with their extra argv;
  * random: the first 1,000 `corpus.random_spec` draws from
    `random.Random(7)`, valid or not (6 of them exit 4);
  * relabelled (renderings only): the corpus under `corpus.relabel` with
    seeds 1, 2 and 3;
  * wide (`quiver` only): 300 draws from `random.Random(11)` past the
    corpus, with bilinear ideals up to dimension 80, multiplicity 250 and
    labels and ideal indices that do not exist.

A koszul digest covers the exit code, stdout and stderr of every
`cli.main(["koszul", ...])` run, in order, so an exit that changes (a
resolution that becomes an error, a message that moves) fails here as well
as a Betti table that changes.  A rendering digest assembles each spec once
and covers the five forms the CLI writes of the report: its JSON, text and
DOT, and the block table as JSON and text (every spec of these slices
assembles).  The wide slice goes through `cli.main(["quiver", ...])`, so
that the exits and error messages of the validation and size bounds are
pinned as printed.
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from helpers import WORKLOADS, bench_module
from smodquiver import cli, quiver
from smodquiver import jordan as J

corpus = bench_module("corpus")

DIGESTS = {
    "corpus": "2f8c82df6766359af7da6b839133ae238b34e687e1302ad46d381a1c5bf3280b",
    "benchmark": "916ec27f4b45ea9e9d1102deee14649c505e0d370f99428b7e53c90c4b3daecb",
    "random": "a9c5b61531faafcd95d87f4f878e1be69b053cb6b7b95f86da42db3c06d733af",
}


def _corpus_runs():
    specs = corpus.generate(lambda d: J.validate_spec(J.spec_from_dict(d)).ok)
    for spec in specs:
        for unital in (True, False):
            yield dict(spec, unital=unital), ()


def _benchmark_runs():
    for name in sorted(WORKLOADS.KOSZUL_SPECS):
        yield WORKLOADS.KOSZUL_SPECS[name]


def _random_runs():
    rng = random.Random(7)
    for _ in range(1000):
        yield corpus.random_spec(rng), ()


SLICES = {"corpus": _corpus_runs, "benchmark": _benchmark_runs,
          "random": _random_runs}


def _digest(runs, path):
    """sha256 over (exit code, stdout, stderr) of each koszul run."""
    h = hashlib.sha256()
    for spec, extra in runs:
        path.write_text(json.dumps(spec), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["koszul", "--spec", str(path), *extra])
        h.update(json.dumps([rc, out.getvalue(), err.getvalue()]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SLICES))
def test_koszul_slice_is_byte_identical(name, tmp_path):
    assert _digest(SLICES[name](), tmp_path / "spec.json") == DIGESTS[name]


def _relabelled_specs():
    specs = corpus.generate(lambda d: J.validate_spec(J.spec_from_dict(d)).ok)
    for seed in (1, 2, 3):
        yield from corpus.relabel(specs, seed)


RENDER_SLICES = {
    "corpus": lambda: (spec for spec, _ in _corpus_runs()),
    "benchmark": lambda: (spec for spec, _ in _benchmark_runs()),
    "random": lambda: (spec for spec, _ in _random_runs()),
    "relabelled": _relabelled_specs,
}

RENDER_DIGESTS = {
    "corpus": "70b6eb9251c453e507240e2ffcee05cbd713e5b37dac3f762651ff5aa70a2920",
    "benchmark": "b54059e48a62c538c5fc5d726b9b5d0850c8d89e18ed6e2a5faf54864cf1616a",
    "random": "2014d8d270a9b1c3e99998ce6c3110fb0d11db31bf753f5210e1d7f720f6a9b7",
    "relabelled": "37694aca70c39061c76bbe53a8fa2d67f1ff01d56ca737d64fa1d7c442b8faaa",
}


def _render_digest(specs):
    """sha256 over the five renderings of each spec, assembled once."""
    h = hashlib.sha256()
    for data in specs:
        rep = quiver.assemble(J.spec_from_dict(data))
        table = quiver.blocks_to_dict(rep)
        h.update(json.dumps([
            cli._json_dumps(quiver.report_to_dict(rep)), quiver.emit_text(rep),
            quiver.emit_dot(rep), cli._json_dumps(table),
            quiver.emit_blocks_text(table)]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RENDER_SLICES))
def test_rendering_slice_is_byte_identical(name):
    assert _render_digest(RENDER_SLICES[name]()) == RENDER_DIGESTS[name]


def _wide_spec(rng):
    """A `corpus.random_spec` draw pushed past the corpus: a bilinear ideal
    of any dimension up to 80, multiplicity 250, or a label or ideal index
    that may not exist."""
    spec = corpus.random_spec(rng)
    for ideal in spec["ideals"]:
        if ideal["kind"] == "bilinear" and rng.random() < 0.3:
            ideal["dim"] = rng.randint(2, 80)
    for comp in spec["radical"]:
        r = rng.random()
        ref = comp if comp["kind"] == "unital" else comp[rng.choice("ab")]
        if r < 0.15:
            comp["mult"] = 250
        elif r < 0.25:
            ref["label"] = rng.choice(["tr", "nope", "LrV(9)", "V*", "Gamma"])
        elif r < 0.3:
            ref["ideal"] = rng.randint(0, 3)
    return spec


WIDE_DIGEST = "96cf8cbb9fd69defad274fe5e798ba485004d7d9c49ee5b6d86829e460d5079e"


def test_wide_quiver_draw_is_byte_identical(tmp_path):
    # 152 draws exit 0, 80 exit 2 (SpecError) and 68 exit 4 (48
    # TooManyRelations, 20 ModuleTooLarge), each error with its message
    rng = random.Random(11)
    h = hashlib.sha256()
    path = tmp_path / "spec.json"
    for _ in range(300):
        path.write_text(json.dumps(_wide_spec(rng)), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(["quiver", "--spec", str(path)])
        h.update(json.dumps([rc, out.getvalue(), err.getvalue()]).encode())
    assert h.hexdigest() == WIDE_DIGEST
