"""Commutative algebras with the partial associativity law, at the spec level.

A `JordanSpec` names an algebra by its classification: simple ideals
(field, bilinear, hermitian, Albert) plus a square-zero radical whose
components are catalog labels with multiplicities.  This module parses and
validates specs (`spec_from_dict`, `load_spec`, `validate_spec`) and ends at
the spec's graded Lie datum: `lie_datum_of_spec` gives the graded simple kind
of each ideal and the radical entries with their multiplicity spaces.  What
the radical entries do (their parities, dual partners, blocks and central
extension) is decided in `quiver`.  No structure constant is built here; the
explicit level is `tables` (structure constants) and `tkk` (the TKK
construction).
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


# kind: "field" | "bilinear" | "hermitian" | "albert"; dim: bilinear, dim of
# the algebra including the unit; comp: hermitian, composition algebra
# dimension 1|2|4; n: hermitian, matrix size
SimpleIdealKind = namedtuple("SimpleIdealKind", "kind dim comp n",
                             defaults=(0, 0, 0))


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
    # _kinds: ideal index -> LieKind of each ideal with no fault, which
    # lie_datum_of_spec reads so that no ideal is classified twice
    __slots__ = ("violations", "_kinds")

    def __init__(self):
        self.violations = []
        self._kinds = {}

    @property
    def ok(self):
        return not self.violations


_TRIVIAL_NAMES = {"tr", "trivial"}

# the integer fields of each ideal kind, in wire-format order
_IDEAL_FIELDS = {"field": (), "bilinear": ("dim",), "hermitian": ("comp", "n"),
                 "albert": ()}


def _fields(kind):
    """The integer fields of an ideal kind; a ValueError for an unknown kind."""
    if isinstance(kind, str) and kind in _IDEAL_FIELDS:
        return _IDEAL_FIELDS[kind]
    raise ValueError(f"unknown ideal kind {kind!r}")


def _classify_ideal(ideal):
    """The graded simple `catalog.LieKind` of a simple ideal, or the list of
    its faults, one message each, when it is not valid."""
    try:
        _fields(ideal.kind)
    except ValueError:
        return [f"unknown kind {ideal.kind!r}"]
    if ideal.kind == "bilinear":
        return (SO2(ideal.dim + 2) if ideal.dim >= 3
                else [f"bilinear requires dim >= 3, got {ideal.dim}"])
    if ideal.kind == "hermitian":
        faults = []
        if ideal.comp not in (1, 2, 4):
            faults.append("hermitian component dim must be 1, 2 or 4")
        if ideal.n < 3:
            faults.append(f"hermitian requires n >= 3, got {ideal.n}")
        if faults:
            return faults
        if ideal.comp == 4:
            return SO1(4 * ideal.n)
        return (SP if ideal.comp == 1 else SL)(2 * ideal.n)
    return SL2 if ideal.kind == "field" else E7


def validate_spec(spec: JordanSpec) -> ValidationReport:
    """Report-style validation of a classification-level spec."""
    rep = ValidationReport()
    bad = rep.violations.append
    kinds = rep._kinds
    for i, ideal in enumerate(spec.ideals):
        kind = _classify_ideal(ideal)
        if isinstance(kind, list):
            rep.violations.extend(f"ideal {i}: {msg}" for msg in kind)
        else:
            kinds[i] = kind
    if spec.unital and not spec.ideals:
        bad("unital spec with empty ideal list")
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
            kind = kinds.get(i)
            if kind and label not in {s.name for s in catalog.s_one_simples(kind)}:
                bad(f"radical {j}: {label!r} is not a short-graded simple of {kind}")
        elif comp.kind == "tensor":
            (ia, la), (ib, lb) = comp.refs
            if ia == ib:
                bad(f"radical {j}: tensor components must reference distinct ideals")
                continue
            for i, lbl in comp.refs:
                kind = kinds.get(i)
                if kind and lbl not in {s.name for s in catalog.s_half_simples(kind)}:
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
    ideals = [{"kind": ideal.kind}
              | {f: getattr(ideal, f) for f in _fields(ideal.kind)}
              for ideal in spec.ideals]
    radical = []
    for comp in spec.radical:
        if comp.kind == "unital":
            (i, label), = comp.refs
            radical.append({"kind": "unital", "ideal": i, "label": label,
                            "mult": comp.mult})
        elif comp.kind == "tensor":
            (ia, la), (ib, lb) = comp.refs
            radical.append({"kind": "tensor", "a": {"ideal": ia, "label": la},
                            "b": {"ideal": ib, "label": lb}, "mult": comp.mult})
        else:
            raise ValueError(f"unknown radical kind {comp.kind!r}")
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
        fields = _fields(d["kind"])
        ideals.append(SimpleIdealKind(d["kind"], **{f: _int(d, f) for f in fields}))
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
    kind = _classify_ideal(ideal)
    if isinstance(kind, list):
        raise ValueError("; ".join(kind))
    return kind


# a simple summand of the radical with its multiplicity space; support: one
# or two summand indices (two for a tensor entry); labels: parallel names
RadicalEntry = namedtuple("RadicalEntry", "support labels w_dim")

# summands: LieKind per simple ideal; radical: merged RadicalEntry list
LieDatum = namedtuple("LieDatum", "summands radical")


def lie_datum_of_spec(spec: JordanSpec) -> LieDatum:
    """Classification-level graded Lie datum of the unitalization of a spec.

    The spec is validated as given, since unitalizing can bring an ideal
    index into range.  Each ideal keeps the kind validation found for it;
    only the field ideal that unitalizing adjoins is classified here.
    """
    report = validate_spec(spec)
    if not report.ok:
        raise SpecError(report)
    kinds = tuple(report._kinds.get(i) or kind_of_ideal(ideal)
                  for i, ideal in enumerate(unitalize(spec).ideals))
    merged = {}
    for comp in spec.radical:
        refs = sorted(comp.refs)
        key = (tuple(i for i, _ in refs), tuple(l for _, l in refs))
        merged[key] = merged.get(key, 0) + comp.mult
    entries = tuple(RadicalEntry(sup, labs, merged[(sup, labs)])
                    for sup, labs in sorted(merged))
    return LieDatum(kinds, entries)
