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

# verify-appendix work grows about 2^r to 3^r with the rank r; the appendix
# starts at rank 2 with so2(5)
MIN_APPENDIX_RANK = 2
MAX_APPENDIX_RANK = 12
# koszul keeps one Betti row per resolution step; goldens and demos use <= 6
MAX_HOM_CAP = 1000


class CliError(Exception):
    def __init__(self, code, kind, message):
        super().__init__(message)
        self.code = code
        self.kind = kind


# engine exceptions by home module, with the exit code and error kind each
# becomes in `main`; a module that was never imported raised nothing
ENGINE_ERRORS = (
    ("jordan", "SpecError", EXIT_VALIDATION, "spec-invalid"),
    ("catalog", "UnknownLabel", EXIT_VALIDATION, "spec-invalid"),
    ("catalog", "ModuleTooLarge", EXIT_CAP, "cap-exceeded"),
    ("quiver", "TooManyRelations", EXIT_CAP, "cap-exceeded"),
    ("pathalg", "NonTerminating", EXIT_CAP, "cap-exceeded"),
    ("pathalg", "NoCertificate", EXIT_VERIFY, "verification-failed"),
    ("pathalg", "PresentationError", EXIT_VERIFY, "verification-failed"),
    ("tkk", "JacobiFails", EXIT_VERIFY, "verification-failed"),
    ("tkk", "NotUnital", EXIT_VERIFY, "verification-failed"),
)


def _engine_error(exc):
    """The `CliError` an engine exception maps to, or None."""
    for module, name, code, kind in ENGINE_ERRORS:
        mod = sys.modules.get(f"{__package__}.{module}")
        if mod is not None and isinstance(exc, getattr(mod, name)):
            # str() of a KeyError would quote its message
            return CliError(code, kind, "; ".join(map(str, exc.args)))
    return None


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
    from . import quiver

    return quiver.assemble(_load_spec(path))


def cmd_quiver(args):
    from . import quiver

    report = _assemble(args.spec)
    if args.format == "dot":
        _write(args.out, quiver.emit_dot(report))
    elif args.format == "text":
        _write(args.out, quiver.emit_text(report))
    else:
        _write(args.out, _json_dumps(quiver.report_to_dict(report)))
    return EXIT_OK


def cmd_blocks(args):
    from . import quiver

    table = quiver.blocks_to_dict(_assemble(args.spec))
    if args.format == "text":
        _write(args.out, quiver.emit_blocks_text(table))
    else:
        _write(args.out, _json_dumps(table))
    return EXIT_OK


def cmd_koszul(args):
    if args.hom_cap > MAX_HOM_CAP:
        raise CliError(EXIT_CAP, "cap-exceeded", f"hom cap {args.hom_cap} "
                       f"exceeds the resolution bound {MAX_HOM_CAP}")
    from . import pathalg

    report = _assemble(args.spec)
    alg = pathalg.from_presentation(report.quiver, report.relations,
                                    deg_cap=args.deg_cap)
    tables = pathalg.koszul_check(alg, hom_cap=args.hom_cap)
    payload = {
        "schemaVersion": report.schema_version,
        "homCap": args.hom_cap,
        "koszul": True,
        "betti": {
            f"v{v}": {f"{i},{d}": {f"v{w}": c for w, c in counts.items()}
                      for (i, d), counts in res.betti.items()}
            for v, res in tables.items()
        },
    }
    _write(args.out, _json_dumps(payload))
    return EXIT_OK


def cmd_verify_appendix(args):
    if args.max_rank < MIN_APPENDIX_RANK:
        raise CliError(EXIT_VALIDATION, "cap-invalid", f"max rank {args.max_rank} "
                       f"is below rank {MIN_APPENDIX_RANK}, where the appendix "
                       "starts (so2(5))")
    if args.max_rank > MAX_APPENDIX_RANK:
        raise CliError(EXIT_CAP, "cap-exceeded", f"max rank {args.max_rank} "
                       f"exceeds the appendix bound {MAX_APPENDIX_RANK}")
    from . import oracles

    failures, lines = oracles.verify_appendix(args.max_rank)
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def cmd_tkk_check(args):
    from . import tables

    try:
        with open(args.table, "r", encoding="utf-8") as fh:
            sc = tables.table_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(EXIT_VALIDATION, "table-parse", str(exc)) from exc
    from . import tkk  # only a table that parses needs the construction

    if sc.dim > tkk.MAX_EXPLICIT_DIM:
        raise CliError(EXIT_CAP, "cap-exceeded",
                       f"table dim {sc.dim} exceeds the explicit construction "
                       f"bound {tkk.MAX_EXPLICIT_DIM}")
    bits = tables.table_bits(sc)
    if bits > tkk.MAX_TABLE_BITS:
        raise CliError(EXIT_CAP, "cap-exceeded",
                       f"table bits {bits} (dim^2 times the longest entry) "
                       f"exceed the bound {tkk.MAX_TABLE_BITS}")
    verdicts = {"jordanIdentity": tables.check_jordan_identity(sc)}
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


class _Parser(argparse.ArgumentParser):
    """Usage errors become a `usage` CliError, so they print JSON too."""

    def error(self, message):
        raise CliError(EXIT_VALIDATION, "usage", message)


def build_parser():
    p = _Parser(
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
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "hom_cap", 1) <= 0 or getattr(args, "max_rank", 1) <= 0 \
                or getattr(args, "deg_cap", 1) <= 0:
            raise CliError(EXIT_VALIDATION, "cap-invalid", "caps must be positive")
        return args.fn(args)
    except Exception as exc:
        err = exc if isinstance(exc, CliError) else _engine_error(exc)
        if err is None:
            raise
        print(json.dumps({"error": err.kind, "message": str(err)}),
              file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
