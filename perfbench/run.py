#!/usr/bin/env python3
"""Benchmark driver for smodquiver (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/``.  Workloads (op lists and the reasons for them: ``plan.json``):

  spec-sweep  200 criterion-8 specs in one library session, caches kept
  appendix    ``verify-appendix --max-rank R``, one process per op
  koszul      ``koszul --spec S`` over one spec per block shape
  tkk-tables  ``tkk-check --table T`` on valid and invalid tables

Load model: closed loop.  One op at a time, at most one child process alive.
Every workload runs in fresh child processes, so caches start cold.  A run
makes whole passes over the op list: at least ``MIN_PASSES`` (spec-sweep:
``MIN_SESSIONS``), then more while the next pass is expected to end within
``--seconds``.  Every op and every set-up is timed between two runs of a
fixed machine-speed probe and its seconds are put on the probe's scale
(``speed.py``), so that the shared machine's swings in speed cancel out.
Each op's figure is the median of its scaled times over the passes;
``setup_s`` is the median of ``SETUP_REPEATS`` set-ups before the first op
and one more after every pass.

Every op is checked: exit code against the documented one, no traceback, one
JSON object on stderr for error exits, and stdout against ``golden.json``
(spec-sweep: corpus, output and summary digests, criterion 8's structural
invariants and a warm-cache repeat; see ``session.py``).
``failed`` counts ops whose exit code or error channel breaks the contract;
``correct`` is false when any op printed other output than expected.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs two
untraced passes and two traced passes and prints the per-layer metrics: spans
come from wrappers the benchmark installs around the package's public
functions (``tracer.py``); nothing inside the package changes.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
WORKLOADS = ("spec-sweep", "appendix", "koszul", "tkk-tables")
SETUP_REPEATS = 3
MIN_PASSES = 3
MIN_SESSIONS = 2
OP_TIMEOUT_S = 150
GOLDEN = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))


# Metric names and units come from BENCHMARK.json; layer_metrics derives the
# per-layer values: "<module>.<function>.<calls|s|self_s|misses>" from the
# spans and caches, "<function>.<count>" from the tracer's work counts, and
# these names, which are not "<function>.<measure>", from the counter key:
SPECIAL_COUNTS = {
    "quiver.thin_arrows": "quiver.assemble.thin_arrows",
    "quiver.relations": "quiver.assemble.relations",
    "pathalg.betti_total": "pathalg.minimal_resolution.betti_total",
    "pathalg.basis_dim": "pathalg.from_presentation.basis_dim",
    "tkk.total_dim": "tkk.tkk_construct.total_dim",
}


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, package not importable)."""


def metric_units(kind):
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED,
                   help="relabels the spec-sweep specs; CLI op lists are fixed")
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd):
    """Run one child to completion; returns (rc, stdout, stderr, seconds)."""
    t0 = time.perf_counter()
    try:
        p = subprocess.run(cmd, capture_output=True, env=child_env(),
                           cwd=ROOT, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return None, exc.stdout or b"", exc.stderr or b"", \
            time.perf_counter() - t0
    return p.returncode, p.stdout, p.stderr, time.perf_counter() - t0


def p90(xs):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.wrong = []       # ops whose output differs from the expected one
        self.failures = []    # ops that broke the exit-code/error contract
        self.ops = None
        self.setup_s = []
        self.last_probe = None

    def timed(self, step):
        """Run ``step()``, which returns its seconds, between two speed
        probes; returns (seconds, seconds on the probe's scale)."""
        before = self.last_probe or speed.probe()
        seconds = step()
        self.last_probe = speed.probe()
        return seconds, speed.scale(seconds, before, self.last_probe)

    # -- ops -----------------------------------------------------------------

    def check_cli(self, op, rc, out, err):
        self.attempted += 1
        if (rc != op.expect_rc
                or b"Traceback (most recent call last)" in err
                or (rc in (2, 4) and not _one_json_object(err))):
            self.failed += 1
            self.failures.append(f"{op.name}: exit {rc}, stderr "
                                 f"{err.decode(errors='replace')[-160:]!r}")
            return
        want = GOLDEN["cli"][op.name]
        got = hashlib.sha256(out).hexdigest()
        if got != want:
            self.wrong.append(f"{op.name}: stdout sha256 {got}, want {want}")

    def cli_op(self, op, trace_out=None):
        if trace_out is None:
            cmd = [sys.executable, "-m", "smodquiver.cli", *op.argv]
        else:
            cmd = [sys.executable, str(HERE / "launch.py"), "--src", str(SRC),
                   "--spawned", repr(time.monotonic()),
                   "--trace-out", str(trace_out), "--", *op.argv]
        rc, out, err, dt = run_child(cmd)
        self.check_cli(op, rc, out, err)
        return dt

    def session(self, setup_only=False, trace=False):
        cmd = [sys.executable, str(HERE / "session.py"), "--src", str(SRC),
               "--spawned", repr(time.monotonic()),
               "--seed", str(self.args.seed)]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--trace"] if trace else []
        rc, out, err, dt = run_child(cmd)
        if rc != 0:
            if setup_only:
                raise BenchError("spec-sweep session did not start: "
                                 + err.decode(errors="replace")[-400:])
            self.attempted += corpus.CORPUS_SIZE
            self.failed += corpus.CORPUS_SIZE
            self.failures.append("session exit %s: %r" % (
                rc, err.decode(errors="replace")[-300:]))
            return None, dt
        res = json.loads(out.decode().strip().splitlines()[-1])
        keys = ["corpus_sha256"]
        if not setup_only:
            self.attempted += len(res["latencies_s"])
            self.wrong += res["violations"]
            keys.append("summaries_sha256")
            if self.args.seed == corpus.DEFAULT_SEED:
                keys.append("outputs_sha256")  # relabelled specs differ
        for key in keys:
            want = GOLDEN["spec-sweep"][key]
            if res[key] != want:
                self.wrong.append(f"spec-sweep {key} {res[key]}, want {want}")
        return res, dt

    # -- set-up ----------------------------------------------------------------

    def setup_once(self):
        t0 = time.perf_counter()
        if self.args.workload == "spec-sweep":
            self.session(setup_only=True)
        else:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            self.ops = workloads.write_inputs(self.args.workload, self.workdir)
            rc, out, err, _ = run_child(
                [sys.executable, "-c",
                 "import smodquiver.cli, sys; print(smodquiver.cli.__file__)"])
            if rc != 0 or not Path(out.decode().strip()).resolve() \
                    .is_relative_to(SRC.resolve()):
                raise BenchError("smodquiver does not import from "
                                 f"{SRC}: {err.decode(errors='replace')[-400:]}")
        return time.perf_counter() - t0

    def setup(self, repeats):
        if not (SRC / "smodquiver" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'smodquiver'}")
        for _ in range(repeats):
            self.setup_s.append(self.timed(self.setup_once)[1])

    # -- untraced measurement --------------------------------------------------

    def measure_sweep(self, budget, min_passes=MIN_SESSIONS):
        """Fresh sessions, at least ``min_passes`` and more while the next is
        expected to end within ``budget``, each followed by one more set-up
        when ``budget`` is set; returns the session results."""
        t0 = time.perf_counter()
        passes = []
        while True:
            res, dt = self.session()
            if res is None:
                break
            passes.append(res)
            if budget:
                self.setup(1)
            if (len(passes) >= min_passes
                    and time.perf_counter() - t0 + dt > budget):
                break
        if len({p["outputs_sha256"] for p in passes}) > 1:
            self.wrong.append("spec-sweep outputs differ between sessions")
        return passes

    def measure_cli(self, budget, min_passes=MIN_PASSES):
        """Whole passes over the op list, at least ``min_passes`` and more
        while the next is expected to end within ``budget``, each followed by
        one more set-up when ``budget`` is set; returns
        {op name: [scaled seconds, ...]}."""
        t0 = time.perf_counter()
        samples = {op.name: [] for op in self.ops}
        while True:
            p0 = time.perf_counter()
            for op in self.ops:
                samples[op.name].append(self.timed(lambda: self.cli_op(op))[1])
            if budget:
                self.setup(1)
            now = time.perf_counter()
            if (len(samples[self.ops[0].name]) >= min_passes
                    and now - t0 + (now - p0) > budget):
                break
        return samples

    def end_to_end(self):
        if self.args.workload == "spec-sweep":
            passes = self.measure_sweep(self.args.seconds)
            if not passes:
                return None
            per_spec = zip(*(p["scaled_s"] for p in passes))
            lat = [median(xs) for xs in per_spec]
            wall = sum(lat)
            n_ops = f"{len(passes)} sessions x {corpus.CORPUS_SIZE} specs"
        else:
            samples = self.measure_cli(self.args.seconds)
            lat = [median(v) for v in samples.values()]
            wall = sum(lat)
            n_ops = (f"{len(self.ops)} ops x "
                     f"{len(samples[self.ops[0].name])} passes")
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        values = {"wall_s": wall, "op_p50_ms": median(lat) * 1e3,
                  "op_p90_ms": p90(lat) * 1e3, "setup_s": median(self.setup_s),
                  "peak_rss_mb": rss}
        print(f"workload {self.args.workload}: ops {n_ops}; "
              f"set-up repeats {len(self.setup_s)}")
        return values

    # -- traced measurement ----------------------------------------------------

    def traced_pass(self):
        """One traced pass: (merged aggregate, pass wall, pass wall on the
        speed probe's scale, per-op aggregates)."""
        if self.args.workload == "spec-sweep":
            res, dt = self.session(trace=True)
            if res is None:
                return None
            agg = res["trace"]
            agg["absent"] = res["absent"]
            agg["startup_s"] = res["startup_s"]
            return agg, sum(res["latencies_s"]), sum(res["scaled_s"]), {}
        per_op = {}
        wall = scaled = 0.0
        for op in self.ops:
            out = self.workdir / f"trace-{op.name}.json"
            out.unlink(missing_ok=True)
            seconds = self.timed(lambda: self.cli_op(op, trace_out=out))
            wall += seconds[0]
            scaled += seconds[1]
            if out.is_file():
                per_op[op.name] = json.loads(out.read_text(encoding="utf-8"))
        agg = tracing.merge(per_op.values())
        agg["absent"] = next((a["absent"] for a in per_op.values()), [])
        agg["startup_s"] = sum(a["startup_s"] for a in per_op.values())
        return agg, wall, scaled, per_op

    def traced(self, names):
        if self.args.workload == "spec-sweep":
            base = self.measure_sweep(0, min_passes=2)
            if not base:
                return None
            untraced = min(sum(p["scaled_s"]) for p in base)
        else:
            samples = self.measure_cli(0, min_passes=2)
            untraced = min(map(sum, zip(*samples.values())))
        runs = [self.traced_pass() for _ in range(2)]
        if any(r is None for r in runs):
            return None
        (a, wall_a, scaled_a, per_op), (b, _, scaled_b, _) = runs
        same = _work_counts(a) == _work_counts(b)
        if not same:
            self.wrong.append("work counts differ between two traced passes")
        traced_wall = min(scaled_a, scaled_b)
        values = layer_metrics(names, a, b, traced_wall, untraced)
        report_trace(self.args.workload, a, wall_a, per_op, traced_wall,
                     untraced, same)
        return values


def _one_json_object(err):
    try:
        return isinstance(json.loads(err.decode()), dict)
    except ValueError:
        return False


def _work_counts(agg):
    return ({n: f["calls"] for n, f in agg["functions"].items()},
            agg["caches"], agg["counts"], agg["hit_ratio"])


def _function_value(agg, fn, measure):
    if measure == "misses":
        return agg["caches"].get(fn, {}).get("misses", 0)
    return agg["functions"].get(fn, {}).get(measure, 0)


def _shares(agg, base):
    by_fn = {n: f["self_s"] / base for n, f in agg["functions"].items()}
    by_mod = {}
    for n, share in by_fn.items():
        mod = n.split(".")[0]
        by_mod[mod] = by_mod.get(mod, 0.0) + share
    return by_fn, by_mod


def layer_metrics(names, a, b, traced_wall, untraced_wall):
    """Per-layer values: work counts from pass a, seconds averaged over
    passes a and b."""
    counts = a["counts"]
    values = {}
    for name in names:
        if name in SPECIAL_COUNTS:
            v = counts.get(SPECIAL_COUNTS[name], 0)
        elif name.endswith(".kept_ratio"):
            fn = name[:-len(".kept_ratio")]
            offered = counts.get(f"{fn}.offered", 0)
            v = counts.get(f"{fn}.kept", 0) / offered if offered else 0
        elif name == "catalog.hit_ratio":
            h = a["hit_ratio"]
            total = h["hits"] + h["misses"]
            v = h["hits"] / total if total else 0
        elif name == "cli.startup_s":
            v = (a["startup_s"] + b["startup_s"]) / 2
        elif name == "trace.overhead_ratio":
            v = (traced_wall - untraced_wall) / untraced_wall
        elif name in counts:
            v = counts[name]
        else:
            fn, measure = name.rsplit(".", 1)
            v = _function_value(a, fn, measure)
            if measure in ("s", "self_s"):
                v = (v + _function_value(b, fn, measure)) / 2
        values[name] = v
    return values


def report_trace(workload, a, wall_a, per_op, traced_wall, untraced_wall,
                 same):
    fns, mods = _shares(a, wall_a)
    outside = 1 - sum(fns.values())
    print(f"workload {workload} (traced): on the speed probe's scale, "
          f"untraced pass {untraced_wall:.3f} s, traced pass "
          f"{traced_wall:.3f} s, trace.overhead_ratio "
          f"{(traced_wall - untraced_wall) / untraced_wall:.3f}")
    print("  self-time share by module: " + ", ".join(
        f"{m} {s:.1%}" for m, s in sorted(mods.items(), key=lambda x: -x[1]))
        + f", outside traced functions {outside:.1%}")
    print("  self-time share by function (and inclusive share):")
    for n, s in sorted(fns.items(), key=lambda x: -x[1]):
        f = a["functions"][n]
        print(f"    {n:36s} {s:6.1%} ({f['s'] / wall_a:6.1%})  "
              f"calls {f['calls']:>8}  s {f['s']:9.4f}  "
              f"self_s {f['self_s']:9.4f}")
    if fns:
        top = max(fns, key=fns.get)
        print(f"  largest self-time share: {top} ({fns[top]:.1%})")
    for name, agg in per_op.items():
        fns = agg["functions"]
        main_s = fns.get("cli.main", {}).get("s")
        below = {n: f["s"] for n, f in fns.items() if n != "cli.main"}
        if not main_s or not below:
            continue
        own = max(fns, key=lambda n: fns[n]["self_s"])
        incl = max(below, key=below.get)
        print(f"  op {name}: largest self time {own} "
              f"({fns[own]['self_s'] / main_s:.1%} of cli.main), largest "
              f"inclusive time below cli.main {incl} "
              f"({below[incl] / main_s:.1%})")
    print("  work counts repeat exactly across two traced passes: "
          + ("yes" if same else "NO"))
    absent = sorted(set(a.get("absent", [])))
    print("  absent traced names: " + (", ".join(absent) if absent else "none"))


def pin_to_one_cpu():
    """Keep the driver, its speed probes and every child on one CPU, so that
    a probe and the op it scales run on the same processor."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args):
    pin_to_one_cpu()
    workdir = WORKDIR / f"{args.workload}-{os.getpid()}"
    run = Run(args, workdir)
    units = metric_units("per_layer" if args.trace else "end_to_end")
    try:
        run.setup(1 if args.trace else SETUP_REPEATS)
        values = run.traced(units) if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass
    if values is None:
        raise BenchError("no op completed: " + "; ".join(run.failures[:3]))
    for label, msgs in (("FAILED", run.failures), ("WRONG", run.wrong)):
        distinct = list(dict.fromkeys(msgs))
        for msg in distinct[:10]:
            print(f"{label} x{msgs.count(msg)} {msg}")
        if len(distinct) > 10:
            print(f"{label} ... and {len(distinct) - 10} more")
    print(f"fail_ratio {run.failed}/{run.attempted}")
    for name, v in values.items():
        print(f"  {name} = {v:.6g} {units[name]}")
    return {"correct": not run.wrong, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in values.items()}}


def run_all(args):
    """Every workload in its own fresh driver process, then one summary."""
    results = {}
    for w in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT)
        lines = p.stdout.decode().strip().splitlines()
        print("\n".join(lines[:-1]))
        if p.returncode != 0 or not lines:
            raise BenchError(f"workload {w} exited {p.returncode}")
        results[w] = json.loads(lines[-1])
    print(f"{'workload':12s} " + " ".join(
        f"{n:>14s}" for n in results[WORKLOADS[0]]["metrics"]))
    for w, r in results.items():
        print(f"{w:12s} " + " ".join(
            f"{m['value']:10.4g} {m['unit']:>3s}" for m in r["metrics"].values())
            + f"  failed {r['failed']}/{r['attempted']}")
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{n}": m for w, r in results.items()
                        for n, m in r["metrics"].items()}}


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
