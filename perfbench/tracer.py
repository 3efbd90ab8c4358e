"""Out-of-program span tracer for the bairekit layers.

``Tracer.install`` wraps every public function of each bairekit layer module
in every bairekit namespace that holds it, plus ``PrefixOracle.read``, so a
call from one layer into another opens a child span.  Strategy, language and
martingale objects returned by a public factory get their callbacks wrapped
too, attributed to the factory's layer; an object that already carries
wrapped callbacks keeps the innermost factory's attribution.

A layer's self time is its span time minus the time of its child spans.  Per
task the tracer keeps per-layer self time, calls and calls that raised a
``BairekitError``, plus exact work counters.  Span records (name, layer,
start, end, parent, task) stay in memory, up to ``span_cap`` of them (none
by default), and are written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("core", "language", "strategy", "circuits", "zoo", "martingale", "game", "cli")

# Counters kept per task.  The names double as the per-layer metric names.
COUNTS = (
    "circuits.enumerated",
    "circuits.evals",
    "circuits.flip_steps",
    "strategy.ext_bit_calls",
    "strategy.oracle_reads",
    "language.member_calls",
    "game.half_moves",
    "game.blocks",
    "martingale.bets",
    "family.ext_in_game",
    "family.ext_in_member",
)

# Callback attributes wrapped on objects a public factory returns, by class
# name, with the counter each call adds to.
CALLBACKS = {
    "LanguageOracle": (("member", "language.member_calls"),),
    "Constructor": (("extend", None),),
    "IndexedConstructor": (("extend_at", None),),
    "LocalConstructor": (("ext_bit", "strategy.ext_bit_calls"), ("query_set", None)),
    "Martingale": (("bet", "martingale.bets"),),
}

# Counters fed by plain call counts of a public function.
CALL_COUNTERS = {
    "circuits.eval_circuit": "circuits.evals",
    "circuits.majority_or_one": "circuits.flip_steps",
    "strategy.PrefixOracle.read": "strategy.oracle_reads",
}


def _diag_blocks(args, kwargs, result) -> int:
    n_bits = args[1] if len(args) > 1 else kwargs["n_bits"]
    return max(0, n_bits.bit_length() - 1)


def _local_blocks(args, kwargs, result) -> int:
    table = args[1] if len(args) > 1 else kwargs["f_table"]
    return len(table) - 1


# Counters fed by the items a generator function yields.
YIELD_COUNTERS = {"circuits.enumerate_circuits": "circuits.enumerated"}

# Counters fed by a function's arguments and result.
RESULT_COUNTERS = {
    "game.run_game": ("game.half_moves", lambda args, kwargs, result: len(result.records)),
    "game.diag_prefix_global": ("game.blocks", _diag_blocks),
    "game.diag_prefix_local": ("game.blocks", _local_blocks),
}

# Factories whose dict values are the indexed or local families under test;
# extension calls on those objects feed the wasted-work ratios.
FAMILY_FACTORIES = ("zoo.indexed_families", "zoo.local_families")
FAMILY_CALLBACKS = ("extend_at", "ext_bit")

_MARK = "_perfbench_span"


class SpanInfo:
    """One traced callable: its span name, layer and per-task tallies."""

    __slots__ = ("name", "layer", "counter", "calls", "self_s", "raised", "context")

    def __init__(self, name: str, layer: str, counter: str | None = None, context: str | None = None):
        self.name = name
        self.layer = layer
        self.counter = counter
        self.context = context
        self.calls = 0
        self.self_s = 0.0
        self.raised = 0


class Tracer:
    def __init__(self, package, span_cap: int = 0):
        self.package = package
        self.error_type = package.errors.BairekitError
        self.span_cap = span_cap
        self.infos: dict[str, SpanInfo] = {}
        self.stack: list[list] = []  # [info, start, child time, record index]
        self.counts = dict.fromkeys(COUNTS, 0)
        self.context_depth = {"game": 0, "member": 0}
        self.task = -1
        self._restore: list[tuple[object, str, object]] = []
        self._callback_classes = {
            getattr(package, cls): attrs for cls, attrs in CALLBACKS.items()
        }
        self.rec_name = array("l")
        self.rec_start = array("d")
        self.rec_end = array("d")
        self.rec_parent = array("l")
        self.rec_task = array("l")
        self.dropped = 0
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}

    # -- span bookkeeping -------------------------------------------------

    def _info(self, name: str, layer: str, counter=None, context=None) -> SpanInfo:
        info = self.infos.get(name)
        if info is None:
            info = self.infos[name] = SpanInfo(name, layer, counter, context)
        return info

    def _open(self, info: SpanInfo, count: bool = True, rec: int | None = None) -> list:
        """Push a span for ``info``.  A generator's later resumptions pass
        ``count=False`` and the record index of its first resumption, so the
        whole iteration is one call and one span record."""
        if count:
            info.calls += 1
            if info.counter is not None:
                self.counts[info.counter] += 1
        if info.context is not None:
            self.context_depth[info.context] += 1
        if rec is not None:
            pass
        elif len(self.rec_start) < self.span_cap:
            rec = len(self.rec_start)
            nid = self._name_ids.get(info.name)
            if nid is None:
                nid = self._name_ids[info.name] = len(self._names)
                self._names.append(info.name)
            self.rec_name.append(nid)
            self.rec_parent.append(self.stack[-1][3] if self.stack else -1)
            self.rec_task.append(self.task)
            self.rec_end.append(0.0)
            self.rec_start.append(0.0)
        else:
            rec = -1
            self.dropped += 1
        frame = [info, 0.0, 0.0, rec]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        if count and rec >= 0:
            self.rec_start[rec] = frame[1]
        return frame

    def _close(self, frame: list, raised: bool) -> None:
        end = time.perf_counter()
        info, start, child, rec = frame
        self.stack.pop()
        total = end - start
        info.self_s += total - child
        if raised:
            info.raised += 1
        if self.stack:
            self.stack[-1][2] += total
        if rec >= 0:
            self.rec_end[rec] = end
        if info.context is not None:
            self.context_depth[info.context] -= 1

    def _wrap(self, fn, info: SpanInfo, result_hook=None):
        tracer = self
        error_type = self.error_type

        if inspect.isgeneratorfunction(fn):
            yield_counter = YIELD_COUNTERS.get(info.name)

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one call, timed across every resumption of the generator
                it = fn(*args, **kwargs)
                rec = None
                while True:
                    frame = tracer._open(info, rec is None, rec)
                    rec = frame[3]
                    try:
                        item = next(it)
                    except StopIteration:
                        tracer._close(frame, False)
                        return
                    except error_type:
                        tracer._close(frame, True)
                        raise
                    except BaseException:
                        tracer._close(frame, False)
                        raise
                    tracer._close(frame, False)
                    if yield_counter is not None:
                        tracer.counts[yield_counter] += 1
                    yield item

            setattr(gen_wrapper, _MARK, True)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(info)
            try:
                result = fn(*args, **kwargs)
            except error_type:
                tracer._close(frame, True)
                raise
            except BaseException:
                tracer._close(frame, False)
                raise
            tracer._close(frame, False)
            if result_hook is not None:
                result = result_hook(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- factory results ----------------------------------------------------

    def _wrap_object(self, obj, factory: str, layer: str):
        attrs = self._callback_classes.get(type(obj))
        if attrs is None:
            return obj
        changes = {}
        for attr, counter in attrs:
            cb = getattr(obj, attr)
            if getattr(cb, _MARK, False):
                continue  # an inner factory already attributed it
            context = "member" if attr == "member" else None
            info = self._info(f"{factory}.{attr}", layer, counter, context)
            changes[attr] = self._wrap(cb, info)
        return dataclasses.replace(obj, **changes) if changes else obj

    def _mark_family(self, obj):
        for attr in FAMILY_CALLBACKS:
            cb = getattr(obj, attr, None)
            if cb is None:
                continue
            counts, depth = self.counts, self.context_depth

            def family_call(*args, _cb=cb):
                if depth["game"]:
                    counts["family.ext_in_game"] += 1
                if depth["member"]:
                    counts["family.ext_in_member"] += 1
                return _cb(*args)

            setattr(family_call, _MARK, True)
            return dataclasses.replace(obj, **{attr: family_call})
        return obj

    def _factory_hook(self, name: str, layer: str):
        family = name in FAMILY_FACTORIES

        def hook(args, kwargs, result):
            if isinstance(result, dict):
                out = {}
                for key, value in result.items():
                    value = self._wrap_object(value, name, layer)
                    out[key] = self._mark_family(value) if family else value
                return out
            return self._wrap_object(result, name, layer)

        return hook

    def _result_hook(self, name: str, layer: str, fn):
        """What happens to a public function's result: a factory's objects get
        their callbacks wrapped, and result counters are fed."""
        ret = str(getattr(fn, "__annotations__", {}).get("return", ""))
        factory = self._factory_hook(name, layer) if any(c in ret for c in CALLBACKS) else None
        counter = RESULT_COUNTERS.get(name)
        if factory is None and counter is None:
            return None
        counts = self.counts

        def hook(args, kwargs, result):
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return factory(args, kwargs, result) if factory is not None else result

        return hook

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._restore:
            return
        for layer in LAYERS:
            importlib.import_module(f"bairekit.{layer}")
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == "bairekit" or key.startswith("bairekit."))
        ]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"bairekit.{layer}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__ or getattr(fn, _MARK, False):
                    continue
                name = f"{layer}.{attr}"
                info = self._info(name, layer, CALL_COUNTERS.get(name),
                                  "game" if name == "game.run_game" else None)
                wrapped[id(fn)] = self._wrap(fn, info, self._result_hook(name, layer, fn))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                replacement = wrapped.get(id(value))
                if replacement is not None:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, replacement)
        oracle_cls = self.package.strategy.PrefixOracle
        read = oracle_cls.read
        info = self._info("strategy.PrefixOracle.read", "strategy", "strategy.oracle_reads")
        self._restore.append((oracle_cls, "read", read))
        oracle_cls.read = self._wrap(read, info)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- per-task results -----------------------------------------------------

    def begin_task(self, task: int) -> None:
        self.task = task
        for info in self.infos.values():
            info.calls = 0
            info.self_s = 0.0
            info.raised = 0
        for key in self.counts:
            self.counts[key] = 0

    def end_task(self) -> dict:
        """Per-layer self time, calls and raised calls, plus the counters, for
        the task since ``begin_task``."""
        layers = {layer: {"self_s": 0.0, "calls": 0, "raised": 0} for layer in LAYERS}
        for info in self.infos.values():
            agg = layers[info.layer]
            agg["self_s"] += info.self_s
            agg["calls"] += info.calls
            agg["raised"] += info.raised
        return {"layers": layers, "counts": dict(self.counts)}

    def write_spans(self, path) -> int:
        """Write the kept span records as tab-separated lines; returns the
        number written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tlayer\tstart\tend\tparent\ttask\n")
            for i in range(len(self.rec_start)):
                name = self._names[self.rec_name[i]]
                fh.write(
                    f"{i}\t{name}\t{self.infos[name].layer}\t{self.rec_start[i]!r}\t"
                    f"{self.rec_end[i]!r}\t{self.rec_parent[i]}\t{self.rec_task[i]}\n"
                )
        return len(self.rec_start)
