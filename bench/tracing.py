"""Per-layer tracing of bandsplit from outside the package.

``Tracer`` replaces the public functions of each module with timing
wrappers, patched where the caller looks the name up
(``bandsplit.engine.heappush``, ``bandsplit.schedulers.optimize``,
``MomentEstimator.add``, ...), and restores the originals on exit.  No
file of the package changes and no private attribute is read.

Spans are kept in memory and written out by ``write_spans``.  Each span
has a run id, its own id, its parent's id, a name, and start and end in
``perf_counter_ns`` units.  A run id is shared by every span of one
simulation run, from ``SimState`` construction to the end of
``SimState.run``; spans outside a run have run id ``None``.

Calls made once per packet or per event (``next_band``, ``release``,
``add``, ``draw``) would need millions of span records, so they are
rolled up: one record per run and name with the call count and total
time, parented to that run's ``engine.run`` span.  ``heappush`` is only
counted, as timing a C call would cost more than the call.

Self time of a span is its duration minus the time its child spans
cover; the stack of open spans carries that child time.
"""

from __future__ import annotations

import json
from pathlib import Path
from time import perf_counter_ns

import bandsplit.config as config_mod
import bandsplit.distributions as distributions
import bandsplit.engine as engine
import bandsplit.estimators as estimators
import bandsplit.reorder as reorder
import bandsplit.runner as runner
import bandsplit.schedulers as schedulers
from bandsplit.errors import InsufficientSamples, OptimizerError

# Rolled-up per-packet calls, in the order of Tracer.leaf.
LEAVES = (
    "schedulers.next_band",
    "reorder.release",
    "estimators.add",
    "distributions.draw",
)
_NEXT_BAND, _RELEASE, _ADD, _DRAW = range(len(LEAVES))

OPTIMIZER_METHODS = ("closed_form_approx", "numeric_gamma", "grid_fallback")


def scheduler_classes() -> list[type]:
    """Every concrete policy class, found by walking the subclass tree."""
    out, todo = [], [schedulers.Scheduler]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls.kind in schedulers.KINDS:
            out.append(cls)
    return sorted(out, key=lambda c: c.kind)


class Tracer:
    """Context manager that installs the wrappers and collects spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (run, id, parent, name, start_ns, end_ns)
        self.rollups: list[tuple] = []  # (run, parent, name, calls, total_ns)
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        # [calls, total_ns] per entry of LEAVES.
        self.leaf = [[0, 0] for _ in LEAVES]
        self.events = 0
        self.methods = dict.fromkeys(OPTIMIZER_METHODS, 0)
        self.optimizer_errors = 0
        self.insufficient = 0
        self.held = 0
        self.peak_pending = 0
        self.runs = 0
        self._run_id: int | None = None
        self._next_id = 0
        # Open spans: [span id, child time in ns].  The root frame
        # collects time of calls made outside any span.
        self._stack: list[list] = [[None, 0]]
        self._patches: list[tuple] = []

    # -- span bookkeeping -----------------------------------------------

    def _open(self) -> tuple[list, list]:
        self._next_id += 1
        frame = [self._next_id, 0]
        parent = self._stack[-1]
        self._stack.append(frame)
        return frame, parent

    def _close(self, name: str, frame: list, parent: list, t0: int, t1: int) -> None:
        self._stack.pop()
        dur = t1 - t0
        parent[1] += dur
        self.spans.append((self._run_id, frame[0], parent[0], name, t0, t1))
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - frame[1]

    def _span(self, name: str, fn, on_ok=None, on_error=None, error=None):
        tracer = self

        def wrapped(*args, **kwargs):
            frame, parent = tracer._open()
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            except error or ():
                on_error()
                raise
            finally:
                tracer._close(name, frame, parent, t0, perf_counter_ns())
            if on_ok is not None:
                on_ok(out)
            return out

        return wrapped

    # -- wrappers ---------------------------------------------------------

    def _wrap_init(self, fn):
        tracer = self
        span = self._span("engine.init", fn)

        def __init__(*args, **kwargs):
            tracer.runs += 1
            tracer._run_id = tracer.runs
            return span(*args, **kwargs)

        return __init__

    def _wrap_run(self, fn):
        tracer = self
        span = self._span("engine.run", fn)

        def run(self_):
            before = [list(acc) for acc in tracer.leaf]
            try:
                return span(self_)
            finally:
                run_span = tracer.spans[-1][1]
                for name, acc, old in zip(LEAVES, tracer.leaf, before):
                    if acc[0] > old[0]:
                        tracer.rollups.append(
                            (tracer._run_id, run_span, name, acc[0] - old[0], acc[1] - old[1])
                        )
                tracer._run_id = None

        return run

    def _wrap_leaf(self, index: int, fn):
        acc = self.leaf[index]
        stack = self._stack

        def leaf(*args):
            t0 = perf_counter_ns()
            out = fn(*args)
            dur = perf_counter_ns() - t0
            stack[-1][1] += dur
            acc[0] += 1
            acc[1] += dur
            return out

        return leaf

    def _wrap_release(self, fn):
        leaf = self._wrap_leaf(_RELEASE, fn)
        tracer = self

        def release(self_, pkt, now):
            out = leaf(self_, pkt, now)
            if not out:
                tracer.held += 1
            if len(self_.pending) > tracer.peak_pending:
                tracer.peak_pending = len(self_.pending)
            return out

        return release

    def _wrap_heappush(self, fn):
        tracer = self

        def heappush(heap, item):
            tracer.events += 1
            return fn(heap, item)

        return heappush

    def _count_method(self, sol) -> None:
        self.methods[sol.method] = self.methods.get(sol.method, 0) + 1

    def _count_optimizer_error(self) -> None:
        self.optimizer_errors += 1

    def _count_insufficient(self) -> None:
        self.insufficient += 1

    # -- install / restore -------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        own = vars(owner)
        raw = own.get(attr)
        new = make(getattr(owner, attr))
        if isinstance(raw, staticmethod):
            new = staticmethod(new)
        self._patches.append((owner, attr, attr in own, raw))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        p = self._patch
        p(engine, "heappush", self._wrap_heappush)
        p(engine.SimState, "__init__", self._wrap_init)
        p(engine.SimState, "run", self._wrap_run)
        p(
            schedulers,
            "optimize",
            lambda fn: self._span(
                "optimizer.optimize", fn, self._count_method, self._count_optimizer_error, OptimizerError
            ),
        )
        p(
            engine,
            "band_stats_from_windows",
            lambda fn: self._span(
                "estimators.band_stats", fn, None, self._count_insufficient, InsufficientSamples
            ),
        )
        for cls in scheduler_classes():
            p(cls, "next_band", lambda fn: self._wrap_leaf(_NEXT_BAND, fn))
            p(cls, "update_feedback", lambda fn: self._span("schedulers.update_feedback", fn))
        p(estimators.MomentEstimator, "add", lambda fn: self._wrap_leaf(_ADD, fn))
        p(reorder.ReorderBuffer, "release", self._wrap_release)
        p(distributions.Sampler, "draw", lambda fn: self._wrap_leaf(_DRAW, fn))
        for name in ("write_records", "read_records", "compare"):
            p(runner, name, lambda fn, name=name: self._span(f"runner.{name}", fn))
        p(config_mod.ScenarioConfig, "from_json", lambda fn: self._span("config.load", fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, owned, raw in reversed(self._patches):
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        """Every count the trace takes; these repeat exactly for one input."""
        out = {
            "engine.events": self.events,
            "engine.runs": self.runs,
            "schedulers.update_feedback.calls": self.calls.get("schedulers.update_feedback", 0),
            "optimizer.optimize.calls": self.calls.get("optimizer.optimize", 0),
            "optimizer.errors": self.optimizer_errors,
            "estimators.band_stats.calls": self.calls.get("estimators.band_stats", 0),
            "estimators.band_stats.insufficient": self.insufficient,
            "reorder.held": self.held,
            "reorder.peak_pending": self.peak_pending,
        }
        for method, n in self.methods.items():
            out[f"optimizer.method.{method}"] = n
        for name, (calls, _) in zip(LEAVES, self.leaf):
            out[f"{name}.calls"] = calls
        return out

    def leaf_ns(self, name: str) -> int:
        return self.leaf[LEAVES.index(name)][1]

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for run, sid, parent, name, t0, t1 in self.spans:
                fh.write(
                    json.dumps({"run": run, "id": sid, "parent": parent, "name": name, "start_ns": t0, "end_ns": t1})
                    + "\n"
                )
            for run, parent, name, calls, total in self.rollups:
                fh.write(
                    json.dumps({"run": run, "parent": parent, "name": name, "calls": calls, "total_ns": total})
                    + "\n"
                )
