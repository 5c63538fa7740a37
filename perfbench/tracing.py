"""Per-layer timings for one traced benchmark sample.

Every public function of the library modules is wrapped, plus the entry
points the per-layer metrics name that are private or methods.  Modules
bind each other's functions by name (`from .exactla import kernel`), so a
wrapper replaces the original under every name that holds it in any
superharm module (`exactla.kernel`, `harmonics.kernel`, `branching.kernel`,
`superharm.kernel`, ...), not only in the defining module.

Each wrapped key records calls, total time and self time.  Total time counts
only the outermost call of a key, so recursion (gt_basis, rsquare_power) and
keys that share a layer (contains / contains_subspace) are not counted
twice.  Self time is a call's duration minus the durations of the wrapped
calls it makes directly.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("superpoly", "operators", "exactla", "harmonics", "ck", "branching", "gtbasis", "cli")

# (module, attribute path) -> layer key, for entry points that are private,
# methods, or that share one key.
EXTRA_KEYS = {
    ("exactla", "_rref_fraction_rows"): "exactla.rref",
    ("exactla", "rank"): "exactla.rank",
    ("exactla", "polynomials_rank"): "exactla.rank",
    ("exactla", "Subspace.contains"): "exactla.contains",
    ("exactla", "Subspace.contains_subspace"): "exactla.contains",
    ("exactla", "Subspace.intersect"): "exactla.intersect",
    ("superpoly", "SuperPolynomial.__mul__"): "superpoly.mul",
}


def _materialise_first(args):
    """Rows or polynomials may come as a generator; list them so they can
    be counted and still be consumed once by the library."""
    rows = list(args[0])
    return (rows,) + args[1:], len(rows)


def _prepare_rank(args):
    # rank(A) takes a matrix, polynomials_rank(polys, k) an iterable.
    if hasattr(args[0], "row_dicts"):
        return args, args[0].rows
    return _materialise_first(args)


# key -> (prepare(args) -> (args, input size), size counter name)
INPUT_SIZES = {
    "exactla.rref": (_materialise_first, "exactla.rref.rows"),
    "exactla.rank": (_prepare_rank, "exactla.rank.rows"),
}
# key -> (size of result, counter name, "sum" or "max")
RESULT_SIZES = {
    "exactla.kernel": (lambda r: r.dim, "exactla.kernel.dim", "sum"),
    "exactla.operator_matrix": (
        lambda r: sum(len(row) for row in r.row_dicts()),
        "exactla.operator_matrix.nnz",
        "sum",
    ),
    "superpoly.monomial_basis": (len, "superpoly.basis_dim.max", "max"),
}


def _is_wrappable(obj, module_name: str) -> bool:
    if inspect.isfunction(obj):
        return obj.__module__ == module_name
    # functools.lru_cache wrappers
    return hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == module_name


class Tracer:
    """Wraps the library in place; `uninstall` restores every name."""

    def __init__(self, package):
        self.stats: dict[str, list] = {}  # key -> [calls, total_s, self_s]
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._depth: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._install(package)

    def _targets(self, package):
        """(owner, attribute, original, key) for every entry point."""
        out = []
        for short in MODULES:
            mod = sys.modules[f"{package.__name__}.{short}"]
            for name, obj in vars(mod).items():
                if not name.startswith("_") and _is_wrappable(obj, mod.__name__):
                    out.append((mod, name, obj, EXTRA_KEYS.get((short, name), f"{short}.{name}")))
        for (short, path), key in EXTRA_KEYS.items():
            mod = sys.modules[f"{package.__name__}.{short}"]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            if owner is mod and not attr.startswith("_"):
                continue  # a public function, already listed
            out.append((owner, attr, vars(owner)[attr], key))
        return out

    def _install(self, package) -> None:
        wrappers = {}
        for owner, attr, original, key in self._targets(package):
            wrapper = self._wrap(original, key)
            wrappers[id(original)] = (original, wrapper)
            self._patch(owner, attr, wrapper)
        # Rebind the names other modules imported.
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _patch(self, owner, attr, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn, key):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        self._depth.setdefault(key, 0)
        stack, depth, counters = self._stack, self._depth, self.counters
        clock = time.perf_counter
        prepare, in_counter = INPUT_SIZES.get(key, (None, None))
        measure, out_counter, how = RESULT_SIZES.get(key, (None, None, None))
        for name in filter(None, (in_counter, out_counter)):
            counters.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, size = prepare(args)
                counters[in_counter] += size
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[key] -= 1
                stat[0] += 1
                stat[2] += dt - frame[0]
                if not depth[key]:
                    stat[1] += dt
                if stack:
                    stack[-1][0] += dt
            if measure is not None:
                size = measure(result)
                if how == "sum":
                    counters[out_counter] += size
                elif size > counters[out_counter]:
                    counters[out_counter] = size
            return result

        return wrapper

    def metrics(self) -> dict[str, float]:
        """`<key>.calls`, `<key>.s` (total) and `<key>.self_s` per key, plus
        the size counters."""
        out: dict[str, float] = dict(self.counters)
        for key, (calls, total, self_s) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.s"] = total
            out[f"{key}.self_s"] = self_s
        return out


def cache_stats(package) -> dict[str, int]:
    """Summed cache_info() of the lru_cache functions in harmonics and
    superpoly; every entry of gtbasis._CACHE was computed once, so its size
    counts as misses."""
    hits = misses = 0
    for short in ("harmonics", "superpoly"):
        mod = sys.modules[f"{package.__name__}.{short}"]
        for obj in vars(mod).values():
            obj = inspect.unwrap(obj, stop=lambda f: hasattr(f, "cache_info"))
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                info = obj.cache_info()
                hits += info.hits
                misses += info.misses
    misses += len(sys.modules[f"{package.__name__}.gtbasis"]._CACHE)
    return {"harmonics.cache.hits": hits, "harmonics.cache.misses": misses}
