"""One library session of the ``spec-sweep`` workload, run as a child process.

Usage (the driver builds this command line):

    python3 perfbench/session.py --src SRC --spawned T --seed S \
        [--setup-only] [--trace]

It imports the package from SRC, draws the criterion-8 corpus, relabels it
with the run seed (``corpus.relabel``), then runs every spec once, in corpus
order, with caches kept across specs, the way a user sweeps specs in one
Python session.  A short machine-speed probe runs before the first spec and
after every spec, and each spec's seconds are also given on the probe's
scale (``speed.py``).  One op is
``quiver.assemble`` -> ``report_to_dict`` + ``json.dumps`` as the CLI does ->
``pathalg.from_presentation(...).hilbert()``, the last step only when every
singular group has W dimension at most 2 (criterion 8's cube-zero case;
otherwise the presented algebra need not be finite-dimensional).

After the timed loop it checks criterion 8's structural invariants on every
report and runs every spec again on warm caches, which must give the same
bytes.  It also digests a relabelling-invariant summary of every output
(counts of vertices, arrows and relations, block kinds, W dimensions,
wildness, central extension, Hilbert series), which must match the golden
one for every seed.  The last line of stdout is one JSON object with the
timings, the digests and any violations.
"""

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

# one elimination (about 4-7 ms) after each of the 200 specs
PROBE_REPS = 1


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--spawned", type=float, required=True,
                   help="time.monotonic() when the driver spawned this process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    return p.parse_args(argv)


def invariant_violations(data, hilbert):
    """Criterion 8's structural invariants, on the report dict."""
    bad = []
    thin = {t["id"]: t for t in data["thinArrows"]}
    for rel in data["relations"]:
        for term in rel:
            if len(term["path"]) != 2:
                bad.append("relation not quadratic")
                continue
            f, g = term["path"]
            if thin[f]["src"] != thin[g]["dst"]:
                bad.append("relation path not composable")
            if len(rel) > 1 and thin[g]["src"] != thin[f]["dst"]:
                bad.append("multi-term relation not on a cycle")
    seen = {}
    for a in data["arrows"]:
        groups = seen.setdefault((a["src"], a["dst"]), set())
        if a["group"] in groups:
            bad.append("two arrows of one group between one vertex pair")
        groups.add(a["group"])
        if len(groups) > len(data["groups"]):
            bad.append("more arrow groups than radical groups")
    per_color = {}
    for v in data["vertices"]:
        per_color[v["color"]] = per_color.get(v["color"], 0) + 1
    if any(c > 2 for c in per_color.values()):
        bad.append("more than two vertices of one color")
    per_group = {}
    for a in data["arrows"]:
        per_group.setdefault(a["group"], []).append(a)
    for arrows in per_group.values():
        if len(arrows) > 2:
            bad.append("more than two arrows in a group")
        elif len(arrows) == 2 and (arrows[0]["src"] == arrows[1]["src"]
                                   or arrows[0]["dst"] == arrows[1]["dst"]):
            bad.append("paired arrows share an end")
    if data["wild"] != any(g["wDim"] >= 3 for g in data["groups"]):
        bad.append("wildness flag disagrees with W dimensions")
    if hilbert is not None and len(hilbert) > 3 and hilbert[3] != 0:
        bad.append("cube of the radical is not zero")
    return bad


def summary(data, hilbert):
    """What a relabelling of the spec's ideals and radical leaves unchanged."""
    return [len(data["vertices"]), len(data["arrows"]),
            len(data["thinArrows"]), len(data["relations"]),
            sorted(b["kind"] for b in data["blocks"]),
            sorted(g["wDim"] for g in data["groups"]),
            data["wild"], data["centext"]["total"], hilbert]


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, args.src)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from smodquiver import jordan, pathalg, quiver

    import corpus
    import speed

    if not Path(jordan.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        sys.exit(f"smodquiver imported from {jordan.__file__}, not {args.src}")
    startup = time.monotonic() - args.spawned
    specs = corpus.generate(
        lambda d: jordan.validate_spec(jordan.spec_from_dict(d)).ok)
    corpus_sha256 = corpus.digest(specs)
    specs = corpus.relabel(specs, args.seed)
    setup = time.monotonic() - args.spawned
    result = {"startup_s": startup, "setup_s": setup,
              "corpus_sha256": corpus_sha256}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracing = tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer().install()

    def op(spec_dict):
        rep = quiver.assemble(jordan.spec_from_dict(spec_dict))
        data = quiver.report_to_dict(rep)
        text = json.dumps(data, indent=2, sort_keys=True) + "\n"
        hilbert = None
        if all(g["wDim"] <= 2 for g in data["groups"] if g["singular"]):
            alg = pathalg.from_presentation(rep.quiver, rep.relations)
            hilbert = list(alg.hilbert())
        return data, hilbert, (text + json.dumps(hilbert) + "\n").encode()

    latencies = []
    outputs = []
    aggs = []
    probes = [speed.probe(PROBE_REPS)]
    for k in range(len(specs)):
        if tracer:
            tracer.begin_op(k)
        t0 = time.perf_counter()
        outputs.append(op(specs[k]))
        latencies.append(time.perf_counter() - t0)
        if tracer:
            aggs.append(tracer.end_op())
        probes.append(speed.probe(PROBE_REPS))
    scaled = [speed.scale(t, a, b)
              for t, a, b in zip(latencies, probes, probes[1:])]

    violations = []
    summaries = []
    for k, (data, hilbert, blob) in enumerate(outputs):
        summaries.append(summary(data, hilbert))
        violations += [f"spec {k}: {v}"
                       for v in invariant_violations(data, hilbert)]
        if op(specs[k])[2] != blob:
            violations.append(f"spec {k}: warm repeat gave other bytes")
    digests = [hashlib.sha256(blob).hexdigest() for _, _, blob in outputs]
    summary_text = json.dumps(summaries, sort_keys=True)
    result.update({
        "latencies_s": latencies,
        "scaled_s": scaled,
        "outputs_sha256": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "summaries_sha256": hashlib.sha256(summary_text.encode()).hexdigest(),
        "violations": violations,
    })
    if tracer:
        result["trace"] = tracing.merge(aggs)
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
