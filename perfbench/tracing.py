"""Span tracing of pathhopf's public functions from outside the package.

`Tracer.install` rebinds each traced function, in every pathhopf module
namespace that holds it, to a wrapper; `uninstall` restores the originals.
Timed functions record a span (name, start, end, parent, run id) in
compact in-memory arrays; the hottest small operations only count calls,
because a span around each of them would cost more than the work.
Nothing under `src/` is modified.
"""

from __future__ import annotations

import gzip
import json
import sys
import weakref
from array import array
from collections import Counter, defaultdict
from time import perf_counter

#: layer name -> (defining module, attribute); attributes with a dot are
#: methods rebound on their class.
TIMED = {
    "graph_core.parse_graph": ("pathhopf.graph_core", "parse_graph"),
    "graph_core.perron_frobenius": ("pathhopf.graph_core", "perron_frobenius"),
    "path_space.enumerate_paths": ("pathhopf.path_space", "PathSpace.enumerate_paths"),
    "essential_decomp.essential_basis": ("pathhopf.essential_decomp", "essential_basis"),
    "essential_decomp.decompose": ("pathhopf.essential_decomp", "decompose"),
    "essential_decomp.tridiagonal_solve": ("pathhopf.essential_decomp", "tridiagonal_solve"),
    "weak_hopf.projector_P": ("pathhopf.weak_hopf", "projector_P"),
    "weak_hopf.multiply": ("pathhopf.weak_hopf", "multiply"),
    "weak_hopf.multiply_tensor_square": ("pathhopf.weak_hopf", "multiply_tensor_square"),
    "weak_hopf.star_alg": ("pathhopf.weak_hopf", "star_alg"),
    "weak_hopf.antipode": ("pathhopf.weak_hopf", "antipode"),
    "weak_hopf.coproduct": ("pathhopf.weak_hopf", "coproduct"),
    "weak_hopf.coefficient_C": ("pathhopf.weak_hopf", "coefficient_C"),
    "weak_hopf.verify_axioms": ("pathhopf.weak_hopf", "verify_axioms"),
    "cli.run": ("pathhopf.cli", "run"),
}

COUNTED = {
    "path_space.annihilate": ("pathhopf.path_space", "PathSpace.annihilate"),
    "path_space.create": ("pathhopf.path_space", "PathSpace.create"),
    "path_space.concat": ("pathhopf.path_space", "concat"),
    "path_space.inner_product": ("pathhopf.path_space", "inner_product"),
    "weak_hopf.counit": ("pathhopf.weak_hopf", "counit"),
}

#: memo tables read from `space.cache` at the end of each traced round
CACHE_TABLES = ("basis_product", "pair_decomp", "coefficient_C", "star_columns", "essential_basis")


class Tracer:
    def __init__(self):
        self.names = list(TIMED)
        self.name_id = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("i")
        self.stack: list[int] = []
        self.run_id = 0  # 0 = set-up, k = k-th traced round
        self.calls: Counter = Counter()
        self.stats: Counter = Counter()
        self.cache_entries: Counter = Counter()
        self._bases_seen = weakref.WeakKeyDictionary()
        self._touched: dict[int, object] = {}
        self._saved: list[tuple[object, str, object]] = []

    # -- rebinding ----------------------------------------------------------

    def install(self) -> None:
        for name, (module, attr) in TIMED.items():
            self._rebind(module, attr, self._span_wrapper(name, _resolve(module, attr)))
        for name, (module, attr) in COUNTED.items():
            self._rebind(module, attr, self._count_wrapper(name, _resolve(module, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _rebind(self, module: str, attr: str, wrapper) -> None:
        if "." in attr:
            cls_name, meth = attr.split(".")
            owner = getattr(sys.modules[module], cls_name)
            self._saved.append((owner, meth, owner.__dict__[meth]))
            setattr(owner, meth, wrapper)
            return
        original = getattr(sys.modules[module], attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "pathhopf" and not mod_name.startswith("pathhopf."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, name, fn):
        nid = self.name_id[name]
        after = getattr(self, "_after_" + name.split(".")[1], None)
        start, end, parent, stack = self.start, self.end, self.parent, self.stack

        def traced(*args, **kwargs):
            idx = len(start)
            self.span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            self.run.append(self.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            self.calls[name] += 1
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- per-call statistics ------------------------------------------------

    def _after_enumerate_paths(self, args, result):
        self.stats["path_space.enumerate_paths.paths_out"] += len(result)

    def _after_essential_basis(self, args, result):
        space, n = args[0], args[1]
        self._touched[id(space)] = space
        seen = self._bases_seen.setdefault(space, set())
        if n not in seen:
            seen.add(n)
            self.stats["essential_decomp.essential_basis.builds"] += 1
            self.stats["essential_decomp.essential_basis.dim_total"] += len(result)

    def _after_decompose(self, args, result):
        self.stats["essential_decomp.decompose.terms_out"] += len(result.terms)

    # -- rounds -------------------------------------------------------------

    def end_round(self, record: bool = True) -> None:
        """Add the memo-table sizes of every space the round touched."""
        if record:
            for space in self._touched.values():
                for table in CACHE_TABLES:
                    self.cache_entries[table] += len(space.cache.get(table, ()))
        self._touched.clear()

    # -- summary ------------------------------------------------------------

    def self_times(self) -> dict[int, dict[str, float]]:
        """Self time per run id and name: span duration minus the time its
        direct children cover."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(n):
            name = self.names[self.span_name[i]]
            out[self.run[i]][name] += self.end[i] - self.start[i] - child[i]
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON list per line: name, start, end,
        parent index, run id."""
        names = [json.dumps(name) for name in self.names]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(
                f"[{names[k]},{s!r},{e!r},{p},{r}]\n"
                for k, s, e, p, r in zip(self.span_name, self.start, self.end, self.parent, self.run)
            )


def _resolve(module: str, attr: str):
    obj = sys.modules[module]
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj
