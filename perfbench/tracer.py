"""Outside-in tracer for the smodquiver package.

The tracer never edits the package.  It imports every module of the package,
then replaces each traced function by a wrapper that records a span (name,
start, end, parent span, op id).  The wrapper is bound wherever the original
was bound: in its defining module and in every package module that imported
it by name, found by identity (``getattr(mod, n) is original``).  Methods are
replaced on their class.

A traced name that no longer exists is recorded as absent; the run goes on.
Work counts are read at the boundary, from arguments or results, and
``cache_info()`` is read from the original ``lru_cache`` objects.

Spans stay in memory while an op runs; ``end_op`` folds them into per-name
totals (calls, inclusive seconds, self seconds), then drops them.
"""

import functools
import importlib
import pkgutil
from collections import defaultdict
from time import perf_counter

PACKAGE = "smodquiver"


def _pairs(args, kwargs, result):
    mass = args[0].mass()
    return {"pairs": mass * (mass + 1) // 2}


def _product_points(args, kwargs, result):
    return {"points": len(args[0].mults) * len(args[1].mults)}


def _result_points(args, kwargs, result):
    return {"points": len(result.mults)}


def _entries(args, kwargs, result):
    mat = args[0]
    return {"entries": len(mat) * len(mat[0]) if mat else 0}


def _kept(args, kwargs, result):
    return {"offered": 1, "kept": 1 if result else 0}


def _quiver_size(args, kwargs, result):
    return {"thin_arrows": len(result.quiver.thin),
            "relations": len(result.relations)}


def _betti(args, kwargs, result):
    return {"betti_total": sum(sum(row.values())
                               for row in result.betti.values())}


def _basis_dim(args, kwargs, result):
    return {"basis_dim": sum(result.hilbert())}


def _total_dim(args, kwargs, result):
    return {"total_dim": result.total_dim}


# (module, attribute path, work counter or None)
TARGETS = [
    ("weights", "fs_indicator", None),
    ("weights", "ext_sym_square", _pairs),
    ("weights", "trivial_multiplicity", None),
    ("weights", "tensor_decompose", None),
    ("weights", "char_product", _product_points),
    ("weights", "decompose_character", None),
    ("weights", "dominant_character", None),
    ("weights", "weight_multiplicities", _result_points),
    ("weights", "weyl_dim", None),
    ("catalog", "classical_parity", None),
    ("catalog", "restrict_s", None),
    ("catalog", "is_s_half", None),
    ("catalog", "graded_piece_dim", None),
    ("oracles", "tensor_checks", None),
    ("oracles", "duality_checks", None),
    ("oracles", "dimension_checks", None),
    ("quiver", "assemble", _quiver_size),
    ("quiver", "group_radical", None),
    ("quiver", "arrows_of", None),
    ("quiver", "report_to_dict", None),
    ("tkk", "lie_datum_of_spec", None),
    ("tkk", "central_extension_dim", None),
    ("tkk", "tkk_construct", _total_dim),
    ("tkk", "minimality_check", None),
    ("tkk", "jordan_from_short_pair", None),
    ("jordan", "validate_spec", None),
    ("jordan", "load_spec", None),
    ("jordan", "check_jordan_identity", None),
    ("pathalg", "minimal_resolution", _betti),
    ("pathalg", "from_presentation", _basis_dim),
    ("linalg", "SpanSolver.add", _kept),
    ("linalg", "SpanSolver.coords", None),
    ("linalg", "nullspace", _entries),
    ("linalg", "rref", _entries),
    ("linalg", "rank", None),
    ("cli", "main", None),
]

# every lru_cache of this module counts towards catalog.hit_ratio
HIT_RATIO_MODULE = "catalog"


def package_modules():
    """Import and return every module of the package, keyed by short name."""
    pkg = importlib.import_module(PACKAGE)
    mods = {}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return pkg, mods


class Tracer:
    def __init__(self):
        self.names = []            # name id -> "module.function"
        self.spans = []            # (name id, start, end, parent, op, outermost)
        self.stack = []
        self.depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.absent = []
        self.caches = {}           # metric name -> original lru_cache object
        self.hit_ratio_caches = []
        self.op = None
        self._cache_start = {}

    # -- installation ------------------------------------------------------

    def install(self):
        pkg, mods = package_modules()
        everyone = [pkg] + list(mods.values())
        hr = mods.get(HIT_RATIO_MODULE)
        if hr is not None:
            self.hit_ratio_caches = [
                obj for _, obj in sorted(vars(hr).items())
                if callable(getattr(obj, "cache_info", None))]
        for mod_name, path, counter in TARGETS:
            name = f"{mod_name}.{path}"
            mod = mods.get(mod_name)
            owner, attr = mod, path
            if mod is not None and "." in path:
                cls_name, attr = path.split(".", 1)
                owner = getattr(mod, cls_name, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.absent.append(name)
                continue
            if callable(getattr(original, "cache_info", None)):
                self.caches[name] = original
            wrapper = self._wrap(name, original, counter)
            setattr(owner, attr, wrapper)
            if owner is mod:
                for other in everyone:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            setattr(other, key, wrapper)
        return self

    def _wrap(self, name, fn, counter):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, depth = self.spans, self.stack, self.depth

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            outermost = depth[nid] == 0
            depth[nid] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[nid] -= 1
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.op, outermost)
            if counter is not None:
                self._count(name, counter, args, kwargs, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for attr in ("cache_info", "cache_clear", "cache_parameters"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _count(self, name, counter, args, kwargs, result):
        try:
            got = counter(args, kwargs, result)
        except (AttributeError, TypeError, IndexError, KeyError):
            if f"{name} (work count)" not in self.absent:
                self.absent.append(f"{name} (work count)")
            return
        for key, value in got.items():
            self.counts[f"{name}.{key}"] += value

    # -- ops -----------------------------------------------------------------

    def _cache_state(self):
        state = {name: fn.cache_info() for name, fn in self.caches.items()}
        state[HIT_RATIO_MODULE] = [fn.cache_info()
                                   for fn in self.hit_ratio_caches]
        return state

    def begin_op(self, op):
        self.op = op
        self.spans.clear()
        self.counts.clear()
        self._cache_start = self._cache_state()

    def end_op(self):
        """Fold this op's spans into totals; returns a JSON-ready dict."""
        after = self._cache_state()
        before = self._cache_start
        caches = {name: {"hits": after[name].hits - before[name].hits,
                         "misses": after[name].misses - before[name].misses}
                  for name in self.caches}
        hits = sum(a.hits - b.hits for a, b in
                   zip(after[HIT_RATIO_MODULE], before[HIT_RATIO_MODULE]))
        misses = sum(a.misses - b.misses for a, b in
                     zip(after[HIT_RATIO_MODULE], before[HIT_RATIO_MODULE]))
        spans = self.spans
        child = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        funcs = {}
        for i, span in enumerate(spans):
            if span is None:  # still open
                continue
            nid, start, end, _, _, outermost = span
            stat = funcs.setdefault(self.names[nid], [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += (end - start) if outermost else 0.0
            stat[2] += end - start - child[i]
        out = {
            "op": self.op,
            "functions": {n: {"calls": c, "s": s, "self_s": own}
                          for n, (c, s, own) in funcs.items()},
            "counts": dict(self.counts),
            "caches": caches,
            "hit_ratio": {"hits": hits, "misses": misses},
        }
        self.spans.clear()
        self.op = None
        return out


def merge(aggs):
    """Sum per-op aggregates into one."""
    out = {"functions": {}, "counts": defaultdict(int), "caches": {},
           "hit_ratio": {"hits": 0, "misses": 0}}
    for agg in aggs:
        for name, st in agg["functions"].items():
            tot = out["functions"].setdefault(
                name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in tot:
                tot[key] += st[key]
        for key, v in agg["counts"].items():
            out["counts"][key] += v
        for name, c in agg["caches"].items():
            tot = out["caches"].setdefault(name, {"hits": 0, "misses": 0})
            tot["hits"] += c["hits"]
            tot["misses"] += c["misses"]
        for key in ("hits", "misses"):
            out["hit_ratio"][key] += agg["hit_ratio"][key]
    out["counts"] = dict(out["counts"])
    return out
