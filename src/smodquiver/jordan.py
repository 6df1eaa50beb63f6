"""Commutative algebras with the partial associativity law, at the spec level.

A `JordanSpec` names an algebra by its classification: simple ideals
(field, bilinear, hermitian, Albert) plus a square-zero radical whose
components are catalog labels with multiplicities.  This module parses and
validates specs (`spec_from_dict`, `load_spec`, `validate_spec`) and maps a
spec to its graded Lie datum: `lie_datum_of_spec` gives the graded simple
kind of each ideal and the radical entries with their multiplicity spaces,
and `central_extension_dim` the dimension of the universal central extension
of the radical.  No structure constant is built here; the explicit level is
`tables` (structure constants) and `tkk` (the TKK construction).
"""

from __future__ import annotations

import json
from collections import namedtuple

from . import catalog
from .catalog import E7, SL, SL2, SO1, SO2, SP


class SpecError(ValueError):
    def __init__(self, report):
        super().__init__("; ".join(report.violations))
        self.report = report


# ---------------------------------------------------------------------------
# classification-level specs


class SimpleIdealKind(namedtuple("SimpleIdealKind", "kind dim comp n",
                                 defaults=(0, 0, 0))):
    """kind: "field" | "bilinear" | "hermitian" | "albert".

    dim: bilinear, dim of the algebra including the unit; comp: hermitian,
    composition algebra dimension 1|2|4; n: hermitian, matrix size.
    """

    __slots__ = ()

    def __str__(self):
        if self.kind == "field":
            return "k"
        if self.kind == "bilinear":
            return f"bilinear({self.dim})"
        if self.kind == "hermitian":
            return f"hermitian({self.comp},{self.n})"
        return "albert"


def Field():
    return SimpleIdealKind("field")


def Bilinear(dim):
    return SimpleIdealKind("bilinear", dim=dim)


def Hermitian(comp, n):
    return SimpleIdealKind("hermitian", comp=comp, n=n)


def Albert():
    return SimpleIdealKind("albert")


# kind: "unital" | "tensor"; refs: ((ideal, label),) or ((i, labelA), (j, labelB))
RadicalComponentSpec = namedtuple("RadicalComponentSpec", "kind refs mult",
                                  defaults=(1,))


def Unital(ideal, label, mult=1):
    return RadicalComponentSpec("unital", ((ideal, label),), mult)


def TensorOfSpecial(ideal_a, label_a, ideal_b, label_b, mult=1):
    return RadicalComponentSpec("tensor", ((ideal_a, label_a), (ideal_b, label_b)), mult)


JordanSpec = namedtuple("JordanSpec", "ideals radical unital",
                        defaults=((), True))


class ValidationReport:
    __slots__ = ("violations",)

    def __init__(self, violations=None):
        self.violations = [] if violations is None else violations

    @property
    def ok(self):
        return not self.violations


_TRIVIAL_NAMES = {"tr", "trivial"}


def validate_spec(spec: JordanSpec) -> ValidationReport:
    """Report-style validation of a classification-level spec."""
    rep = ValidationReport()
    bad = rep.violations.append
    for i, ideal in enumerate(spec.ideals):
        if ideal.kind == "bilinear" and ideal.dim < 3:
            bad(f"ideal {i}: bilinear requires dim >= 3, got {ideal.dim}")
        elif ideal.kind == "hermitian":
            if ideal.comp not in (1, 2, 4):
                bad(f"ideal {i}: hermitian component dim must be 1, 2 or 4")
            if ideal.n < 3:
                bad(f"ideal {i}: hermitian requires n >= 3, got {ideal.n}")
        elif ideal.kind not in ("field", "bilinear", "hermitian", "albert"):
            bad(f"ideal {i}: unknown kind {ideal.kind!r}")
    if spec.unital and not spec.ideals:
        bad("unital spec with empty ideal list")

    def kind_or_none(idx):
        try:
            return kind_of_ideal(spec.ideals[idx])
        except ValueError:
            return None

    for j, comp in enumerate(spec.radical):
        if comp.mult < 1:
            bad(f"radical {j}: multiplicity must be >= 1")
        idxs = [i for i, _ in comp.refs]
        if any(i < 0 or i >= len(spec.ideals) for i in idxs):
            bad(f"radical {j}: ideal index out of range")
            continue
        if any(lbl in _TRIVIAL_NAMES for _, lbl in comp.refs):
            bad(f"radical {j}: trivial radical component")
            continue
        if comp.kind == "unital":
            (i, label), = comp.refs
            kind = kind_or_none(i)
            if kind is None:
                continue
            names = {s.name for s in catalog.s_one_simples(kind)}
            if label not in names:
                bad(f"radical {j}: {label!r} is not a short-graded simple of {kind}")
        elif comp.kind == "tensor":
            (ia, la), (ib, lb) = comp.refs
            if ia == ib:
                bad(f"radical {j}: tensor components must reference distinct ideals")
                continue
            for i, lbl in comp.refs:
                kind = kind_or_none(i)
                if kind is None:
                    continue
                names = {s.name for s in catalog.s_half_simples(kind)}
                if lbl not in names:
                    bad(f"radical {j}: {lbl!r} is not a half simple of {kind}")
        else:
            bad(f"radical {j}: unknown component kind {comp.kind!r}")
    return rep


def unitalize(spec: JordanSpec) -> JordanSpec:
    """Adjoin a formal identity: append one field ideal; idempotent."""
    if spec.unital:
        return spec
    return JordanSpec(spec.ideals + (Field(),), spec.radical, True)


# -- JSON wire format --------------------------------------------------------


def spec_to_dict(spec: JordanSpec) -> dict:
    ideals = []
    for ideal in spec.ideals:
        if ideal.kind == "field":
            ideals.append({"kind": "field"})
        elif ideal.kind == "bilinear":
            ideals.append({"kind": "bilinear", "dim": ideal.dim})
        elif ideal.kind == "hermitian":
            ideals.append({"kind": "hermitian", "comp": ideal.comp, "n": ideal.n})
        else:
            ideals.append({"kind": "albert"})
    radical = []
    for comp in spec.radical:
        if comp.kind == "unital":
            (i, label), = comp.refs
            radical.append({"kind": "unital", "ideal": i, "label": label,
                            "mult": comp.mult})
        else:
            (ia, la), (ib, lb) = comp.refs
            radical.append({"kind": "tensor", "a": {"ideal": ia, "label": la},
                            "b": {"ideal": ib, "label": lb}, "mult": comp.mult})
    return {"ideals": ideals, "radical": radical, "unital": spec.unital}


def _objects(value, what):
    """Shape check: value must be a JSON list of JSON objects."""
    if not isinstance(value, list) or not all(isinstance(d, dict) for d in value):
        raise ValueError(f"{what} must be a list of objects")
    return value


def _label(d):
    label = d["label"]
    if not isinstance(label, str):
        raise ValueError(f"label {label!r} is not a string")
    return label


def _int(d, key, default=None):
    """d[key] as an integer; only a JSON integer is accepted, so a bool, a
    float (even 5.0) or a string is a parse error, never silently cast."""
    value = d[key] if default is None else d.get(key, default)
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, not {value!r}")
    return value


def spec_from_dict(data: dict) -> JordanSpec:
    if not isinstance(data, dict):
        raise ValueError("spec must be a JSON object")
    ideals = []
    for d in _objects(data["ideals"], "'ideals'"):
        kind = d["kind"]
        if kind == "field":
            ideals.append(Field())
        elif kind == "bilinear":
            ideals.append(Bilinear(_int(d, "dim")))
        elif kind == "hermitian":
            ideals.append(Hermitian(_int(d, "comp"), _int(d, "n")))
        elif kind == "albert":
            ideals.append(Albert())
        else:
            raise ValueError(f"unknown ideal kind {kind!r}")
    radical = []
    for d in _objects(data.get("radical", []), "'radical'"):
        kind = d["kind"]
        mult = _int(d, "mult", 1)
        if kind == "unital":
            radical.append(Unital(_int(d, "ideal"), _label(d), mult))
        elif kind == "tensor":
            a, b = _objects([d["a"], d["b"]], "tensor factors 'a' and 'b'")
            radical.append(TensorOfSpecial(_int(a, "ideal"), _label(a),
                                           _int(b, "ideal"), _label(b), mult))
        else:
            raise ValueError(f"unknown radical kind {kind!r}")
    unital = data.get("unital", True)
    if type(unital) is not bool:   # bool("false") would be True
        raise ValueError(f"'unital' must be true or false, not {unital!r}")
    return JordanSpec(tuple(ideals), tuple(radical), unital)


def load_spec(path) -> JordanSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# the graded Lie datum of a spec


def kind_of_ideal(ideal: SimpleIdealKind):
    """The graded simple `catalog.LieKind` of a simple ideal."""
    if ideal.kind == "field":
        return SL2
    if ideal.kind == "bilinear":
        if ideal.dim < 3:
            raise ValueError("bilinear ideal requires dim >= 3")
        return SO2(ideal.dim + 2)
    if ideal.kind == "hermitian":
        if ideal.n < 3:
            raise ValueError("hermitian ideal requires n >= 3")
        if ideal.comp == 1:
            return SP(2 * ideal.n)
        if ideal.comp == 2:
            return SL(2 * ideal.n)
        if ideal.comp == 4:
            return SO1(4 * ideal.n)
        raise ValueError("hermitian component dim must be 1, 2 or 4")
    if ideal.kind == "albert":
        return E7
    raise ValueError(f"unknown ideal kind {ideal.kind!r}")


class RadicalEntry(namedtuple("RadicalEntry", "support labels w_dim")):
    """A simple summand of the radical, with its multiplicity space.

    support: one or two summand indices; labels: parallel catalog names.
    """

    __slots__ = ()

    @property
    def is_tensor(self):
        return len(self.support) == 2


# summands: LieKind per simple ideal; radical: merged RadicalEntry list
LieDatum = namedtuple("LieDatum", "summands radical")


def lie_datum_of_spec(spec: JordanSpec) -> LieDatum:
    """Classification-level graded Lie datum of a unital spec."""
    report = validate_spec(spec)
    if not report.ok:
        raise SpecError(report)
    return _lie_datum(spec)


def _lie_datum(spec):
    """`lie_datum_of_spec` of a spec already validated."""
    if not spec.unital:
        raise ValueError("spec must be unital (apply unitalize first)")
    kinds = tuple(kind_of_ideal(i) for i in spec.ideals)
    merged = {}
    for comp in spec.radical:
        refs = sorted(comp.refs)
        key = (tuple(i for i, _ in refs), tuple(l for _, l in refs))
        merged[key] = merged.get(key, 0) + comp.mult
    entries = tuple(RadicalEntry(sup, labs, merged[(sup, labs)])
                    for sup, labs in sorted(merged))
    return LieDatum(kinds, entries)


# ---------------------------------------------------------------------------
# central extensions


class CentextReport:
    __slots__ = ("pair_dims", "total")

    def __init__(self, pair_dims=None, total=0):
        # (q, q') with q <= q' -> dim
        self.pair_dims = {} if pair_dims is None else pair_dims
        self.total = total


def _entry_parity(datum, entry):
    """Classical form parity of the base module of a radical entry."""
    ps = [catalog.classical_parity(datum.summands[i], label)
          for i, label in zip(entry.support, entry.labels)]
    return catalog.parity_product(*ps) if entry.is_tensor else ps[0]


def _entries_dual(datum, e1, e2):
    if e1.support != e2.support:
        return False
    duals = tuple(catalog.dual_label(datum.summands[i], l)
                  for i, l in zip(e1.support, e1.labels))
    return duals == e2.labels


def central_extension_dim(datum: LieDatum) -> CentextReport:
    """dim of the invariants of the alternating square of the radical.

    Computed per pair of radical entries: within one entry W(x)M the
    contribution is dim S^2(W) * [M alternating] + dim Lambda^2(W) *
    [M symmetric]; a cross pair contributes dim W * dim W' iff the base
    modules are dual.  Parities come from the character engine (classical
    indicators), so this is the honest cohomological dimension.
    """
    rep = CentextReport()
    entries = datum.radical
    for q, e in enumerate(entries):
        k = e.w_dim
        dim = {"skew": k * (k + 1) // 2,
               "symmetric": k * (k - 1) // 2}.get(_entry_parity(datum, e), 0)
        if dim:
            rep.pair_dims[(q, q)] = dim
        for q2 in range(q + 1, len(entries)):
            e2 = entries[q2]
            if _entries_dual(datum, e, e2):
                rep.pair_dims[(q, q2)] = e.w_dim * e2.w_dim
    rep.total = sum(rep.pair_dims.values())
    return rep
