"""Record types: value equality, immutability, validation, fresh defaults."""

import json

import pytest

from smodquiver import catalog as C
from smodquiver import jordan as J
from smodquiver import pathalg as P
from smodquiver import quiver as Q
from smodquiver import reference as R
from smodquiver import weights as W

_F = {"kind": "field"}


def _her(comp, n):
    return {"kind": "hermitian", "comp": comp, "n": n}


def _unital(label, mult):
    return {"kind": "unital", "ideal": 0, "label": label, "mult": mult}


def _tensor(la, lb, mult):
    return {"kind": "tensor", "a": {"ideal": 0, "label": la},
            "b": {"ideal": 1, "label": lb}, "mult": mult}


def _spec(ideals, radical):
    return {"ideals": ideals, "radical": radical, "unital": True}


# one spec per block shape, as in the koszul benchmark workload
BLOCK_SHAPE_SPECS = {
    "clifford-odd": _spec([_F], [_unital("ad", 4)]),
    "clifford-even": _spec([_F, _F], [_tensor("L", "L", 3)]),
    "segre-alt": _spec([_F, _her(4, 3)], [_tensor("L", "V", 3)]),
    "segre-sym": _spec([_F, _her(1, 3)], [_tensor("L", "V", 3)]),
    "a2-segre": _spec([_F, _her(2, 3)],
                      [_tensor("L", "V", 2), _tensor("L", "V*", 2)]),
    "basis-ad7": _spec([_F], [_unital("ad", 7)]),
}

# (build, a field name): each call of build makes a new, equal record
_KEY_RECORDS = [
    (lambda: W.RootSystem("B", 3), "rank"),
    (lambda: W.CompositeSystem((W.RootSystem("A", 1), W.RootSystem("D", 2))),
     "components"),
    (lambda: C.LieKind("sp", 6), "size"),
    (lambda: C.SLabel(C.SP(6), "V", (2, 0, 0)), "name"),
    (lambda: J.Hermitian(2, 3), "n"),
    (lambda: J.TensorOfSpecial(0, "L", 1, "V", 3), "mult"),
    (lambda: J.JordanSpec((J.Field(), J.Bilinear(4)),
                          (J.Unital(1, "V"),)), "unital"),
]


def test_record_semantics():
    for build, name in _KEY_RECORDS:
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b), a
        assert {a: 1}[b] == 1
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        assert a == b
    rep = Q.assemble(J.JordanSpec((J.Hermitian(2, 3),), (J.Unital(0, "ad"),)))
    for frozen, name in ((rep, "wild"), (rep.quiver, "thin"),
                         (rep.quiver.vertices[0], "label"),
                         (rep.blocks[0], "kind"), (rep.groups[0], "w_dim"),
                         (C.duality_form(C.SL2, "L"), "parity"),
                         (J.lie_datum_of_spec(J.JordanSpec((J.Field(),))),
                          "radical"),
                         (Q.assemble(J.JordanSpec((J.Field(),))),
                          "centext_total")):
        with pytest.raises(AttributeError):
            setattr(frozen, name, None)

    with pytest.raises(ValueError):
        W.RootSystem("E", 2)
    with pytest.raises(ValueError):
        C.LieKind("sp", 5)

    r1, r2 = P.Resolution(0), P.Resolution(0)
    assert r1.betti is not r2.betti
    v1, v2 = J.ValidationReport(), J.ValidationReport()
    v1.violations.append("x")
    assert v2.violations == [] and v2.ok and not v1.ok

    for name, data in BLOCK_SHAPE_SPECS.items():
        r = Q.assemble(J.spec_from_dict(data))
        wire = json.loads(json.dumps(Q.report_to_dict(r)))
        assert R.report_from_dict(wire) == r, name
