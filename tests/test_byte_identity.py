"""Byte guard over many inputs: each slice of `koszul` command lines, run in
process through `cli.main`, must hash to its recorded sha256.  A digest
covers every run's exit code, stdout and stderr, in order, so an exit that
changes (a resolution that becomes an error, a message that moves) fails
here as well as a Betti table that changes.  The slices are fixed:

  * corpus: the 200 criterion-8 corpus specs, each as drawn (unital) and
    with `"unital": false`;
  * benchmark: the benchmark's six koszul specs with their extra argv;
  * random: the first 1,000 `corpus.random_spec` draws from
    `random.Random(7)`, valid or not (6 of them exit 4).
"""

import contextlib
import hashlib
import io
import json
import random

import pytest

from helpers import WORKLOADS, bench_module
from smodquiver import cli
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
