"""Relabelling a spec leaves its algebra unchanged (a metamorphic test).

Permuting a spec's ideals and radical components, and swapping the two
sides of a tensor component, renumbers vertices and arrows but names the
same Jordan algebra.  So on every corpus spec the block kinds must not
move, and, where each singular group has W dimension at most 2, neither
may the Hilbert series, the dimensions between the vertices of each
(kind, label) in each degree, nor the Koszul verdict and Betti tables.
The permutation is drawn here, apart from the benchmark's own relabelling.
"""

import random
from collections import Counter

import pytest

from helpers import bench_module
from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q

HOM_CAP = 4


def _relabel(data, rng):
    """`data` with its ideals and radical components permuted, and the sides
    of each tensor component swapped with probability 1/2."""
    order = list(range(len(data["ideals"])))
    rng.shuffle(order)
    new = {old: i for i, old in enumerate(order)}
    radical = []
    for comp in data["radical"]:
        if comp["kind"] == "tensor":
            a, b = ({**comp[s], "ideal": new[comp[s]["ideal"]]}
                    for s in ("a", "b"))
            if rng.random() < 0.5:
                a, b = b, a
            radical.append({**comp, "a": a, "b": b})
        else:
            radical.append({**comp, "ideal": new[comp["ideal"]]})
    rng.shuffle(radical)
    return {**data, "ideals": [data["ideals"][i] for i in order],
            "radical": radical}


def _invariant(data):
    """The block kinds, and for a spec whose singular groups all have W
    dimension <= 2 the algebra's numbers with vertices named by (kind,
    label); None in their place otherwise."""
    spec = J.spec_from_dict(data)
    assert J.validate_spec(spec).ok, data
    rep = Q.assemble(spec)
    kinds = Counter(b.kind for b in rep.blocks)
    if any(g.w_dim > 2 for g in rep.groups if g.singular):
        return kinds, None
    name = {v.vid: (rep.summands[v.color], v.label)
            for v in rep.quiver.vertices}
    alg = P.from_presentation(rep.quiver, rep.relations)
    pairs = [Counter((name[s], name[t], n)
                     for (s, t), n in alg.dims_by_pair(d).items())
             for d in range(len(alg.hilbert()))]
    tables = P.koszul_check(alg, HOM_CAP)
    koszul = all(r.is_linear() for r in tables.values())
    betti = Counter((name[v], i, d, name[w], n)
                    for v, res in tables.items()
                    for (i, d), counts in res.betti.items()
                    for w, n in counts.items() if n)
    return kinds, (alg.hilbert(), pairs, koszul, betti)


@pytest.fixture(scope="module")
def corpus():
    """The criterion-8 corpus specs with their invariants."""
    specs = bench_module("corpus").generate(
        lambda d: J.validate_spec(J.spec_from_dict(d)).ok)
    return [(data, _invariant(data)) for data in specs]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelling_keeps_the_algebra(corpus, seed):
    rng = random.Random(seed)
    compared = 0
    for data, want in corpus:
        moved = _relabel(data, rng)
        assert _invariant(moved) == want, (data, moved)
        compared += want[1] is not None
    assert compared == 176
