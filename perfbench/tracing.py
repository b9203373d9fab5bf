"""Spans recorded from outside the program.

Tracer.install() replaces every public function attribute of the given
modules with a wrapper, so that calls between modules that go through a
module attribute (trainer.classify -> trainer.xor_f, trainer.train ->
kernels.train_run, cli.main -> surface.project) become nested spans.  A
span is named after the module that defines the function, or the module
it was found in when that one is not a traced layer (kernels re-exports
the backend's functions).  Spans live in memory until the run ends.

Functions named in `count_only` are counted, not timed: they are called
millions of times inside a classifier and a span each would swamp the
time being measured.  Their cost stays in the caller's self time.
"""

from __future__ import annotations

import inspect
import itertools
import json
from dataclasses import dataclass, field
from time import perf_counter


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: "int | None"
    op: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Wraps module functions; records spans only inside an operation."""

    layers: "tuple[str, ...]"
    count_only: "frozenset[str]" = frozenset()
    # name -> fn(args, result) returning {counter: increment}
    probes: dict = field(default_factory=dict)
    spans: "list[Span]" = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)
    _op: "int | None" = None
    _ids: "itertools.count" = field(default_factory=itertools.count)
    _saved: list = field(default_factory=list)

    def span_name(self, module, attr: str, fn) -> str:
        home = getattr(fn, "__module__", "") or ""
        short = home.rpartition(".")[2]
        if short not in self.layers:
            short = module.__name__.rpartition(".")[2]
        return f"{short}.{attr}"

    def install(self, modules) -> None:
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not (
                        inspect.isfunction(fn) or inspect.isbuiltin(fn)):
                    continue
                if not (getattr(fn, "__module__", "") or "").startswith(
                        "xorlab"):
                    continue
                name = self.span_name(mod, attr, fn)
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    def _wrap(self, name: str, fn):
        if name in self.count_only:
            key = f"{name}.calls"

            def counted(*args, **kwargs):
                if self._op is not None:
                    self.counts[key] = self.counts.get(key, 0) + 1
                return fn(*args, **kwargs)
            return counted

        probe = self.probes.get(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            sid = next(self._ids)
            parent = stack[-1]
            stack.append(sid)
            result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, t0, t1, parent, self._op))
                if probe is not None:
                    for key, inc in probe(args, result).items():
                        self.counts[key] = self.counts.get(key, 0) + inc
        return traced

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as the root span 'op' of operation op_id."""
        sid = next(self._ids)
        self._op = op_id
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._op = None
            self.spans.append(Span(sid, "op", t0, t1, None, op_id))

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.sid, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}))
                fh.write("\n")


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0     # inclusive time, nested same-name calls once
    self_s: float = 0.0     # duration minus the time child spans cover
    durations: list = field(default_factory=list)


def analyse(spans: "list[Span]"):
    """Per-name stats plus the list of structural problems.

    Children of one span never overlap (one thread), so the time they
    cover is the sum of their durations.  The self times of one
    operation's spans therefore add up to the root span's duration; a
    span outside its parent, in another operation, or a self-time sum that
    misses the root's wall time is reported as a problem.
    """
    by_id = {s.sid: s for s in spans}
    child_time: dict = {}
    problems = []
    for s in spans:
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None or p.op != s.op or s.start < p.start or s.end > p.end:
            problems.append(f"span {s.sid} {s.name} escapes its parent")
            continue
        child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration

    stats: dict = {}
    op_self: dict = {}
    for s in spans:
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.durations.append(s.duration)
        own = s.duration - child_time.get(s.sid, 0.0)
        st.self_s += own
        op_self[s.op] = op_self.get(s.op, 0.0) + own
        anc = by_id.get(s.parent)
        while anc is not None and anc.name != s.name:
            anc = by_id.get(anc.parent)
        if anc is None:
            st.busy_s += s.duration
    for s in spans:
        if s.parent is None:
            total = op_self.get(s.op, 0.0)
            if abs(total - s.duration) > 1e-9 + 1e-9 * s.duration:
                problems.append(f"op {s.op}: self times sum to {total!r}, "
                                f"wall {s.duration!r}")
    return stats, problems
