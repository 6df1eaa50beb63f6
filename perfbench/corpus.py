"""Seeded random spec corpus for the ``spec-sweep`` workload.

Reproduces the distribution of the criterion-8 acceptance test without
importing from ``tests/``: 1-3 ideals drawn from a fixed 13-ideal pool, 0-4
radical components of multiplicity 1-3, each a tensor of two half simples
(with probability 1/2, when there are at least two ideals) or a short-graded
simple of one ideal.  The label lists are those the catalog gives for each
pool entry, in catalog order, so the generator draws the same specs as the
test.  Specs are plain JSON dicts in the CLI wire format; rejecting invalid
ones is left to the caller, which owns the package import.

The corpus itself is always drawn from the criterion-8 seed: which catalog
labels a corpus happens to hit moves the sweep's cost by tens of percent,
which would drown any code change.  The run seed instead relabels every spec
(``relabel``): it permutes the ideals and the radical components.  That
changes the input bytes and every vertex and arrow number in the output,
but not the work, which is a function of the labels.
"""

import copy
import hashlib
import json
import random

DEFAULT_SEED = 20250810
CORPUS_SIZE = 200

_FIELD = {"kind": "field"}


def _bil(dim):
    return {"kind": "bilinear", "dim": dim}


def _her(comp, n):
    return {"kind": "hermitian", "comp": comp, "n": n}


_SO_EVEN_HALF = ["Gamma+", "Gamma-"]

# (ideal, half simples, short-graded simples) per pool entry
IDEAL_POOL = [
    (_FIELD, ["L"], ["ad"]),
    (_bil(3), ["Gamma"], ["LrV(1)", "LrV(2)"]),
    (_bil(4), _SO_EVEN_HALF, ["LrV(1)", "LrV(2)", "Lambda+", "Lambda-"]),
    (_bil(5), ["Gamma"], ["LrV(1)", "LrV(2)", "LrV(3)"]),
    (_bil(6), _SO_EVEN_HALF,
     ["LrV(1)", "LrV(2)", "LrV(3)", "Lambda+", "Lambda-"]),
    (_bil(7), ["Gamma"], ["LrV(1)", "LrV(2)", "LrV(3)", "LrV(4)"]),
    (_bil(8), _SO_EVEN_HALF,
     ["LrV(1)", "LrV(2)", "LrV(3)", "LrV(4)", "Lambda+", "Lambda-"]),
    (_bil(10), _SO_EVEN_HALF,
     ["LrV(1)", "LrV(2)", "LrV(3)", "LrV(4)", "LrV(5)", "Lambda+",
      "Lambda-"]),
    (_her(1, 3), ["V"], ["ad", "L2V"]),
    (_her(1, 4), ["V"], ["ad", "L2V"]),
    (_her(1, 6), ["V"], ["ad", "L2V"]),
    (_her(2, 3), ["V", "V*"], ["ad", "S2V", "S2V*", "L2V", "L2V*"]),
    (_her(4, 3), ["V"], ["ad", "S2V", "Gamma+"]),
]


def random_spec(rng):
    """One candidate spec dict; the draw order matches criterion 8."""
    picks = [rng.choice(IDEAL_POOL) for _ in range(rng.randint(1, 3))]
    radical = []
    for _ in range(rng.randint(0, 4)):
        mult = rng.randint(1, 3)
        tensorable = list(range(len(picks)))  # every pool entry has half simples
        if rng.random() < 0.5 and len(tensorable) >= 2:
            i, j = rng.sample(tensorable, 2)
            la = rng.choice(picks[i][1])
            lb = rng.choice(picks[j][1])
            radical.append({"kind": "tensor", "a": {"ideal": i, "label": la},
                            "b": {"ideal": j, "label": lb}, "mult": mult})
        else:
            i = rng.randrange(len(picks))
            radical.append({"kind": "unital", "ideal": i,
                            "label": rng.choice(picks[i][2]), "mult": mult})
    return {"ideals": [dict(p[0]) for p in picks], "radical": radical,
            "unital": True}


def generate(is_valid, size=CORPUS_SIZE):
    """The first ``size`` candidates of the criterion-8 seed that ``is_valid``
    accepts."""
    rng = random.Random(DEFAULT_SEED)
    specs = []
    while len(specs) < size:
        spec = random_spec(rng)
        if is_valid(spec):
            specs.append(spec)
    return specs


def relabel(specs, seed):
    """Each spec with its ideals and radical components permuted.

    The default seed keeps the corpus verbatim.
    """
    if seed == DEFAULT_SEED:
        return specs
    rng = random.Random(seed)
    out = []
    for spec in specs:
        n = len(spec["ideals"])
        order = list(range(n))
        rng.shuffle(order)
        new_index = {old: new for new, old in enumerate(order)}
        radical = []
        for comp in spec["radical"]:
            comp = copy.deepcopy(comp)
            for ref in (comp, comp.get("a"), comp.get("b")):
                if ref and "ideal" in ref:
                    ref["ideal"] = new_index[ref["ideal"]]
            radical.append(comp)
        rng.shuffle(radical)
        out.append({"ideals": [spec["ideals"][i] for i in order],
                    "radical": radical, "unital": spec["unital"]})
    return out


def digest(specs):
    text = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
