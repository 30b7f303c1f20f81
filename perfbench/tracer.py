"""Call tracer for the rtmclab modules, installed from outside the package.

Each traced function is rebound, in every ``rtmclab.*`` module namespace and
module-level dict that holds it, to a wrapper that either records a span
(name, start, end, parent) or only counts calls.  Spans live in flat arrays
in memory and are written out when the benchmark ends; self time is a span's
duration minus the time covered by its direct child spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

import numpy as np

MARK = "__perfbench_original__"


def _resolve(target: str):
    """'transport.wasserstein' or 'driver.DriverPath.state' -> (owner, attr, object), or None."""
    mod_name, *rest = target.split(".")
    try:
        owner = importlib.import_module(f"rtmclab.{mod_name}")
    except ImportError:
        return None
    for part in rest[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, rest[-1], None)
    if obj is None or not callable(obj):
        return None
    return owner, rest[-1], obj


def _package_namespaces():
    """Module dicts of the loaded rtmclab package plus the dicts they hold at top level."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "rtmclab" or name.startswith("rtmclab.")):
            continue
        ns = vars(mod)
        yield ns
        for value in list(ns.values()):
            if isinstance(value, dict) and value is not ns:
                yield value


class Tracer:
    """Spans and counters for a fixed set of rtmclab functions.

    ``timed`` maps a metric prefix ('transport.wasserstein') to the dotted
    target inside rtmclab; ``counted`` does the same for count-only hot
    leaves.  ``hooks`` maps a metric prefix to (pre, post) callables that add
    size statistics: pre(args, kwargs) and post(args, kwargs, result) each
    return a dict of stat name -> increment, or None.
    """

    def __init__(self, timed: dict, counted: dict | None = None, hooks: dict | None = None):
        self.timed = dict(timed)
        self.counted = dict(counted or {})
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self._stack = [-1]
        self.calls: dict[str, list] = {}
        self.stats: dict[str, float] = {}
        self._patches: list = []  # (namespace or class, key, original)
        self.missing: list[str] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for prefix, target in list(self.timed.items()) + list(self.counted.items()):
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr, original = found
            if prefix in self.timed:
                wrapper = self._span_wrapper(prefix, original)
            else:
                wrapper = self._count_wrapper(prefix, original)
            setattr(wrapper, MARK, original)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for ns in _package_namespaces():
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, original))
                        ns[key] = wrapper

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Names in the rtmclab namespaces (and classes) that still hold a tracer wrapper."""
        found = []
        for ns in _package_namespaces():
            for key, value in ns.items():
                if hasattr(value, MARK):
                    found.append(str(key))
                if inspect.isclass(value):
                    found.extend(f"{key}.{k}" for k, v in vars(value).items() if hasattr(v, MARK))
        return sorted(set(found))

    # -- wrappers ---------------------------------------------------------

    def _count_cell(self, prefix: str) -> list:
        return self.calls.setdefault(prefix, [0, 0])  # [calls, failed]

    def _add_stats(self, prefix: str, delta) -> None:
        if delta:
            for stat, value in delta.items():
                key = f"{prefix}.{stat}"
                self.stats[key] = self.stats.get(key, 0) + value

    def _count_wrapper(self, prefix: str, fn):
        cell = self._count_cell(prefix)
        pre = self.hooks.get(prefix, (None, None))[0]
        add_stats = self._add_stats

        if pre is None:
            def counted(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)
        else:
            def counted(*args, **kwargs):
                cell[0] += 1
                add_stats(prefix, pre(args, kwargs))
                return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, prefix: str, fn):
        cell = self._count_cell(prefix)
        if prefix not in self.names:
            self.names.append(prefix)
        nid = self.names.index(prefix)
        pre, post = self.hooks.get(prefix, (None, None))
        starts, ends, name_ids, parents, stack = (
            self.starts, self.ends, self.name_ids, self.parents, self._stack)
        clock = time.perf_counter
        add_stats = self._add_stats

        def traced(*args, **kwargs):
            cell[0] += 1
            if pre is not None:
                add_stats(prefix, pre(args, kwargs))
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                cell[1] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                add_stats(prefix, post(args, kwargs, result))
            return result

        return traced

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        ids = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        return starts, ends, ids, parents

    def summary(self) -> dict:
        """Per name: calls, failed, self_s (duration minus direct children), wall_s."""
        starts, ends, ids, parents = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_t = dur - child
        k = len(self.names)
        self_by = np.bincount(ids, weights=self_t, minlength=k)
        wall_by = np.bincount(ids, weights=dur, minlength=k)
        out = {}
        for prefix, (calls, failed) in self.calls.items():
            entry = {"calls": calls, "failed": failed}
            if prefix in self.names:
                nid = self.names.index(prefix)
                entry["self_s"] = float(self_by[nid])
                entry["wall_s"] = float(wall_by[nid])
            out[prefix] = entry
        return out

    def check(self, window: tuple[float, float]) -> list[str]:
        """Problems with the recorded spans; empty when they nest and add up."""
        problems = []
        if len(self._stack) != 1:
            problems.append("span stack not empty at the end")
        starts, ends, ids, parents = self.arrays()
        if not len(starts):
            return problems
        dur = ends - starts
        if (dur < 0).any():
            problems.append("span ends before it starts")
        has_parent = parents >= 0
        p = parents[has_parent]
        if (starts[has_parent] < starts[p]).any() or (ends[has_parent] > ends[p]).any():
            problems.append("child span outside its parent")
        top = ~has_parent
        lo, hi = window
        if (starts[top] < lo).any() or (ends[top] > hi).any():
            problems.append("top-level span outside the traced pass")
        covered = float(dur[top].sum())
        child = np.bincount(p, weights=dur[has_parent], minlength=len(dur))
        self_total = float((dur - child).sum())
        remainder = (hi - lo) - covered
        if abs(self_total - covered) > 1e-6 * max(1.0, covered):
            problems.append(f"self times sum to {self_total}, top spans cover {covered}")
        if remainder < -1e-6:
            problems.append(f"spans cover more than the traced wall time ({remainder})")
        if (dur - child < -1e-6).any():
            problems.append("negative self time")
        return problems

    def save(self, path) -> None:
        starts, ends, ids, parents = self.arrays()
        np.savez(path, names=np.array(self.names), start=starts, end=ends,
                 name_id=ids, parent=parents)
