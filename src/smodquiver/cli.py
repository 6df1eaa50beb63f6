"""Command line front end.

Subcommands: quiver, blocks, koszul, verify-appendix, tkk-check.
Exit codes: 0 success, 2 validation error, 3 verification failure,
4 cap exceeded.  Output is deterministic byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFY = 3
EXIT_CAP = 4


class CliError(Exception):
    def __init__(self, code, kind, message):
        super().__init__(message)
        self.code = code
        self.kind = kind


# ---------------------------------------------------------------------------
# rendering


def emit_dot(report) -> str:
    """DOT rendering of a `quiver.QuiverReport`; relations become comments."""
    lines = ["digraph quiver {"]
    for v in report.quiver.vertices:
        lines.append(f'  v{v.vid} [label="c{v.color}:{v.label}"];')
    for t in report.quiver.thin:
        style = ", style=dashed" if t.group % 2 == 1 else ""
        lines.append(f'  v{t.src} -> v{t.dst} [label="g{t.group}w{t.w_index}"'
                     f'{style}];')
    lines.append("}")
    for rel in report.relations:
        parts = []
        for coef, (f, g) in rel.terms:
            prefix = "+" if coef >= 0 else "-"
            mag = abs(coef)
            coefs = "" if mag == 1 else f"{mag}*"
            parts.append(f"{prefix} {coefs}t{f}.t{g}")
        lines.append("// relation: " + " ".join(parts) + " = 0")
    return "\n".join(lines) + "\n"


def emit_text(report) -> str:
    """Plain-text rendering of a `quiver.QuiverReport`."""
    lines = ["summands: " + ", ".join(report.summands)]
    for v in report.quiver.vertices:
        lines.append(f"  vertex v{v.vid}: color {v.color}, {v.label}")
    for a in report.quiver.arrows:
        lines.append(f"  arrow a{a.aid}: v{a.src} -> v{a.dst} "
                     f"(group {a.group}, W dim {a.w_dim})")
    for b in report.blocks:
        desc = f" [{b.descriptor}]" if b.descriptor else ""
        lines.append(f"block {b.kind}{desc}: groups {list(b.groups)}, "
                     f"vertices {list(b.vertices)}, isolated {b.isolated}, "
                     f"{len(b.relations)} relations")
    lines.append(f"wild: {str(report.wild).lower()}")
    lines.append(f"central extension dim: {report.centext_total}")
    for n in report.notes:
        lines.append(f"note: {n}")
    return "\n".join(lines) + "\n"


def _write(out, text):
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_VALIDATION, "out-write", str(exc)) from exc


def _json_dumps(data):
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands


def _load_spec(path):
    from . import jordan

    try:
        spec = jordan.load_spec(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_VALIDATION, "spec-parse", str(exc)) from exc
    return spec


def _assemble(path):
    from . import jordan, quiver, weights

    spec = _load_spec(path)
    try:
        return quiver.assemble(spec)
    except jordan.SpecError as exc:
        raise CliError(EXIT_VALIDATION, "spec-invalid",
                       "; ".join(exc.report.violations)) from exc
    except weights.CharacterTooLarge as exc:
        raise CliError(EXIT_CAP, "character-too-large", str(exc)) from exc


def cmd_quiver(args):
    from . import quiver

    report = _assemble(args.spec)
    if args.format == "dot":
        _write(args.out, emit_dot(report))
    elif args.format == "text":
        _write(args.out, emit_text(report))
    else:
        _write(args.out, _json_dumps(quiver.report_to_dict(report)))
    return EXIT_OK


def cmd_blocks(args):
    report = _assemble(args.spec)
    rows = []
    for b in report.blocks:
        rows.append({
            "kind": b.kind,
            "descriptor": b.descriptor,
            "groups": list(b.groups),
            "vertices": [f"c{report.quiver.vertex(v).color}:"
                         f"{report.quiver.vertex(v).label}" for v in b.vertices],
            "isolated": b.isolated,
            "relations": len(b.relations),
            "notes": list(b.notes),
        })
    payload = {"schemaVersion": report.schema_version, "blocks": rows,
               "wild": report.wild, "centextTotal": report.centext_total}
    if args.format == "text":
        lines = []
        for r in rows:
            desc = f" [{r['descriptor']}]" if r["descriptor"] else ""
            lines.append(f"{r['kind']}{desc}: vertices "
                         f"{', '.join(r['vertices']) or '(none)'}; "
                         f"isolated {r['isolated']}; {r['relations']} relations")
        _write(args.out, "\n".join(lines) + "\n")
    else:
        _write(args.out, _json_dumps(payload))
    return EXIT_OK


def cmd_koszul(args):
    from . import pathalg

    report = _assemble(args.spec)
    try:
        alg = pathalg.from_presentation(report.quiver, report.relations,
                                        deg_cap=args.deg_cap)
        ok, tables = pathalg.koszul_check(alg, hom_cap=args.hom_cap)
    except (pathalg.CapExceeded, pathalg.NonTerminating) as exc:
        raise CliError(EXIT_CAP, "cap-exceeded", str(exc)) from exc
    payload = {
        "schemaVersion": report.schema_version,
        "homCap": args.hom_cap,
        "koszul": ok,
        "betti": {
            f"v{v}": {f"{i},{d}": dict(sorted(
                (f"v{w}", c) for w, c in counts.items()))
                      for (i, d), counts in sorted(res.betti.items())}
            for v, res in sorted(tables.items())
        },
    }
    _write(args.out, _json_dumps(payload))
    return EXIT_OK if ok else EXIT_VERIFY


def _appendix_kinds(max_rank):
    from . import catalog

    kinds = [catalog.SL(n) for n in range(6, 2 * max_rank + 2, 2)
             if n - 1 <= max_rank]
    kinds += [catalog.SP(2 * m) for m in range(3, max_rank + 1)]
    kinds += [catalog.SO1(4 * m) for m in range(3, max_rank // 2 + 1)]
    kinds += [catalog.SO2(2 * m + 1) for m in range(2, max_rank + 1)]
    kinds += [catalog.SO2(2 * m) for m in range(3, max_rank + 1)]
    return kinds


def verify_appendix(max_rank):
    """Duality and tensor-restriction checks for all kinds up to max_rank.

    Returns (failures, lines): one human-readable line per checked identity
    family, 'ok' or 'FAIL'.
    """
    from . import oracles

    lines = []
    failures = 0
    for kind in _appendix_kinds(max_rank):
        for name, ok in oracles.appendix_checks(kind):
            lines.append(f"{'ok  ' if ok else 'FAIL'} {kind}: {name}")
            failures += 0 if ok else 1
    return failures, lines


def cmd_verify_appendix(args):
    failures, lines = verify_appendix(args.max_rank)
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_tkk_check(args):
    from . import jordan

    try:
        with open(args.table, "r", encoding="utf-8") as fh:
            sc = jordan.table_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_VALIDATION, "table-parse", str(exc)) from exc
    from . import tkk  # only a table that parses needs the construction

    if sc.dim > tkk.MAX_EXPLICIT_DIM:
        raise CliError(EXIT_CAP, "cap-exceeded",
                       f"table dim {sc.dim} exceeds the explicit construction "
                       f"bound {tkk.MAX_EXPLICIT_DIM}")
    verdicts = {"jordanIdentity": jordan.check_jordan_identity(sc)}
    if verdicts["jordanIdentity"]:
        try:
            g = tkk.tkk_construct(sc)
            verdicts["jacobi"] = True
            verdicts["dims"] = list(g.dims)
            verdicts["totalDim"] = g.total_dim
            verdicts["minimal"] = tkk.minimality_check(g)
            verdicts["roundTrip"] = tkk.jordan_from_short_pair(g) == sc
        except (tkk.JacobiFails, tkk.NotUnital, ValueError) as exc:
            verdicts["jacobi"] = False
            verdicts["error"] = str(exc)
    ok = verdicts["jordanIdentity"] and verdicts.get("jacobi") \
        and verdicts.get("minimal") and verdicts.get("roundTrip")
    _write(args.out, _json_dumps(verdicts))
    return EXIT_OK if ok else EXIT_VERIFY


# ---------------------------------------------------------------------------


def build_parser():
    p = argparse.ArgumentParser(
        prog="smodquiver",
        description="quivers with relations for special module categories")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, spec=True):
        if spec:
            sp.add_argument("--spec", required=True, help="JordanSpec JSON path")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("quiver", help="emit the quiver with relations")
    add_common(sp)
    sp.add_argument("--format", choices=("dot", "json", "text"), default="json")
    sp.set_defaults(fn=cmd_quiver)

    sp = sub.add_parser("blocks", help="emit the building-block table")
    add_common(sp)
    sp.add_argument("--format", choices=("json", "text"), default="json")
    sp.set_defaults(fn=cmd_blocks)

    sp = sub.add_parser("koszul", help="resolution linearity certificate")
    add_common(sp)
    sp.add_argument("--hom-cap", type=int, default=5, dest="hom_cap")
    sp.add_argument("--deg-cap", type=int, default=8, dest="deg_cap")
    sp.set_defaults(fn=cmd_koszul)

    sp = sub.add_parser("verify-appendix",
                        help="duality and tensor-restriction oracle")
    add_common(sp, spec=False)
    sp.add_argument("--max-rank", type=int, default=6, dest="max_rank")
    sp.set_defaults(fn=cmd_verify_appendix)

    sp = sub.add_parser("tkk-check",
                        help="Jacobi/minimality/round-trip on explicit tables")
    sp.add_argument("--table", required=True,
                    help="structure constants JSON path")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_tkk_check)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if getattr(args, "hom_cap", 1) <= 0 or getattr(args, "max_rank", 1) <= 0 \
            or getattr(args, "deg_cap", 1) <= 0:
        print(json.dumps({"error": "caps must be positive"}), file=sys.stderr)
        return EXIT_VALIDATION
    try:
        return args.fn(args)
    except CliError as exc:
        print(json.dumps({"error": exc.kind, "message": str(exc)}),
              file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
