"""In-memory span recorder that times calls into the program from outside.

The benchmark does not modify ``src/``: a :class:`Tracer` patches the
public entry points of each layer (and the one private function that builds
the record blocks of every executor) with thin wrappers while it is
installed, and restores the originals on :meth:`Tracer.uninstall`.
Each wrapped call becomes one span ``(id, layer, start, end, parent)``;
a layer's *self time* is its span durations minus the time covered by
the spans nested inside them, so the layers' self times partition the
traced wall clock without double counting.

Only the calling process is visible. Work done inside worker processes
(shard pools, parallel executors) shows up as the parent-side spans
that wait for it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: The suite runner's span is the root of every suite workload: its self
#: time is whatever no other layer claimed, so the coverage figure
#: leaves it out.
ROOT_LAYER = "scenarios.runner"


class Tracer:
    """Records nested spans and per-layer counters while installed."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self._stack: List[List] = []
        self._next_id = 0
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _begin(self, layer: str) -> List:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [layer, time.perf_counter(), 0.0, self._next_id, parent]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _end(self, frame: List) -> None:
        end = time.perf_counter()
        layer, start, child_s, span_id, parent = frame
        if self._stack.pop() is not frame:
            raise RuntimeError(f"span stack out of order at {layer!r}")
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((span_id, layer, start, end, parent))

    def timed(self, layer: str, fn: Callable, after=None) -> Callable:
        """``fn`` wrapped in a span; ``after(args, kwargs, result)`` counts."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._end(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def timed_iter(self, layer: str, fn: Callable, on_item=None) -> Callable:
        """A generator function whose every ``next()`` is one span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def stepped():
                while True:
                    frame = tracer._begin(layer)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer._end(frame)
                        return
                    except BaseException:
                        tracer._end(frame)
                        raise
                    tracer._end(frame)
                    if on_item is not None:
                        on_item(args, item)
                    yield item

            return stepped()

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _resolve(self, target: str):
        module_name, _, qualname = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
            parts = qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]]
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return None, None, None
        return owner, parts[-1], original

    def patch_method(self, target: str, make: Callable) -> None:
        """Replace ``module:Class.method`` with ``make(original)``."""
        owner, name, original = self._resolve(target)
        if owner is None:
            return
        self._patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def patch_function(self, target: str, make: Callable) -> None:
        """Replace ``module:function`` everywhere it was imported by name."""
        owner, name, original = self._resolve(target)
        if owner is None:
            return
        wrapper = make(original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        """Put every patched attribute back, newest patch first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Dump every recorded span as JSON (id, name, start, end, parent)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = sorted(self.spans)
        origin = spans[0][2] if spans else 0.0
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["id", "name", "start_s", "end_s", "parent"],
                    "missing_targets": sorted(set(self.missing)),
                    "spans": [
                        [span_id, name, start - origin, end - origin, parent]
                        for span_id, name, start, end, parent in spans
                    ],
                },
                handle,
            )


def _file_size(path: str) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    counts = tracer.counts

    def plain(layer):
        return lambda original: tracer.timed(layer, original)

    # -- simulators ----------------------------------------------------
    def branch_batch(original):
        def after(args, kwargs, result):
            # run_branches_from_snapshot(self, snapshot, circuit, heads, ...)
            backend, circuit, heads = args[0], args[2], args[3]
            counts["simulators.branch_batch.branches"] += len(heads)
            counts["simulators.branch_batch.state_bytes"] += len(
                heads
            ) * backend.branch_state_nbytes(circuit.num_qubits)

        return tracer.timed("simulators.branch_batch", original, after)

    for cls in (
        "repro.simulators.density_matrix:DensityMatrixSimulator",
        "repro.simulators.statevector:StatevectorSimulator",
    ):
        tracer.patch_method(
            f"{cls}.prefix_snapshot", plain("simulators.prefix_snapshot")
        )
        tracer.patch_method(f"{cls}.run_branches_from_snapshot", branch_batch)
        tracer.patch_method(f"{cls}.run", plain("simulators.run"))
        tracer.patch_method(
            f"{cls}.run_from_snapshot", plain("simulators.run")
        )

    def trajectory_run(original):
        def after(args, kwargs, result):
            trajectories = args[0].trajectories
            counts["simulators.trajectory.trajectories"] += trajectories

        return tracer.timed("simulators.run", original, after)

    tracer.patch_method(
        "repro.simulators.trajectory:TrajectorySimulator.run", trajectory_run
    )
    tracer.patch_method(
        "repro.simulators.segments:SegmentCompiler.tail_plan",
        plain("simulators.tail_plan"),
    )

    # -- machines ------------------------------------------------------
    tracer.patch_method(
        "repro.machines.fake:FakeBackend.run", plain("machines.run")
    )
    tracer.patch_method(
        "repro.machines.emulator:PhysicalMachineEmulator.run",
        plain("machines.run"),
    )

    # -- faults --------------------------------------------------------
    for name in ("score_result", "score_branch_batch"):
        tracer.patch_function(
            f"repro.faults.executor:{name}", plain("faults.score")
        )

    def records_build(original):
        def after(args, kwargs, result):
            counts["faults.records.build.rows"] += len(result)

        return tracer.timed("faults.records.build", original, after)

    # The executors' one record-block constructor; RecordTable.from_columns
    # alone would miss the per-task column fill that dominates the build.
    tracer.patch_function(
        "repro.faults.executor:_table_from_tasks", records_build
    )

    def store_write(rewrites: bool):
        def make(original):
            @functools.wraps(original)
            def wrapper(path, *args, **kwargs):
                before = 0 if rewrites else _file_size(path)
                frame = tracer._begin("faults.store.write")
                try:
                    return original(path, *args, **kwargs)
                finally:
                    tracer._end(frame)
                    counts["faults.store.write.bytes"] += max(
                        _file_size(path) - before, 0
                    )

            return wrapper

        return make

    tracer.patch_function("repro.faults.store:compact", store_write(True))
    tracer.patch_function(
        "repro.faults.store:append_record_segment", store_write(False)
    )

    tracer.patch_function(
        "repro.faults.store:open_store", plain("faults.store.read")
    )

    def store_table(original):
        def after(args, kwargs, result):
            counts["faults.store.read.records"] += len(result)

        return tracer.timed("faults.store.read", original, after)

    tracer.patch_method("repro.faults.store:StoreView.table", store_table)

    def window_rows(args, item):
        counts["faults.store.read.records"] += len(item)

    tracer.patch_method(
        "repro.faults.store:StoreView.iter_tables",
        lambda original: tracer.timed_iter(
            "faults.store.read", original, window_rows
        ),
    )
    for name in (
        "heatmap",
        "per_qubit_qvf",
        "histogram",
        "classification_counts",
        "mean_qvf",
    ):
        tracer.patch_method(
            f"repro.faults.campaign:CampaignResult.{name}",
            plain("faults.campaign.aggregate"),
        )

    # -- analysis ------------------------------------------------------
    for name in ("per_qubit_comparison", "delta_comparison", "export_records"):
        tracer.patch_function(
            f"repro.analysis.query:{name}", plain("analysis.query")
        )

    # -- transpiler ----------------------------------------------------
    tracer.patch_function(
        "repro.transpiler.transpile:transpile", plain("transpiler.transpile")
    )

    # -- scenarios -----------------------------------------------------
    def factory_get(original):
        @functools.wraps(original)
        def wrapper(cache, key, build):
            hits = cache.hits
            frame = tracer._begin("scenarios.factory")
            try:
                return original(cache, key, build)
            finally:
                tracer._end(frame)
                counts["scenarios.factory.gets"] += 1
                counts["scenarios.factory.hits"] += cache.hits - hits

        return wrapper

    tracer.patch_method(
        "repro.scenarios.factory:FactoryCache.get", factory_get
    )

    class _TimedLock:
        """Context manager that times only the wait to acquire."""

        def __init__(self, inner) -> None:
            self._inner = inner

        def __enter__(self):
            frame = tracer._begin("scenarios.cache.lock")
            try:
                return self._inner.__enter__()
            finally:
                tracer._end(frame)

        def __exit__(self, *exc_info):
            return self._inner.__exit__(*exc_info)

    tracer.patch_method(
        "repro.scenarios.cache:ResultCache.lock",
        lambda original: functools.wraps(original)(
            lambda cache, spec_hash: _TimedLock(original(cache, spec_hash))
        ),
    )

    def cache_load(original):
        def after(args, kwargs, result):
            counts["scenarios.cache.load.gets"] += 1
            counts["scenarios.cache.load.hits"] += result is not None

        return tracer.timed("scenarios.cache.load", original, after)

    tracer.patch_method("repro.scenarios.cache:ResultCache.load", cache_load)
    tracer.patch_method(
        "repro.scenarios.cache:ResultCache.put", plain("scenarios.cache.put")
    )
    def shard_submit(original):
        def after(args, kwargs, result):
            counts["scenarios.shard.submit_calls"] += 1

        return tracer.timed("scenarios.shard.submit", original, after)

    tracer.patch_method(
        "repro.scenarios.shard:ShardScheduler.submit", shard_submit
    )

    def shard_drained(args, item):
        # A degraded pool re-runs its jobs in the parent; the scheduler
        # only exposes that through its private flag.
        scheduler = args[0]
        if getattr(scheduler, "_degraded", False):
            counts["scenarios.shard.fallbacks"] += 1

    tracer.patch_method(
        "repro.scenarios.shard:ShardScheduler.results",
        lambda original: tracer.timed_iter(
            "scenarios.shard", original, shard_drained
        ),
    )

    def runner_run(original):
        def after(args, kwargs, result):
            counts["scenarios.runner.computed"] += result.computed
            counts["scenarios.runner.reused"] += result.reused

        return tracer.timed(ROOT_LAYER, original, after)

    tracer.patch_method("repro.scenarios.runner:SuiteRunner.run", runner_run)


#: Every per-layer metric, in report order. A ``.calls`` metric counts
#: the layer's spans, a ``.self_s``/``.wait_s`` metric sums their self
#: time, a ``_frac`` metric is a ratio of two counters (``RATIOS``), and
#: anything else is a counter of the same name.
LAYER_METRICS = (
    ("simulators.prefix_snapshot.calls", "count"),
    ("simulators.prefix_snapshot.self_s", "s"),
    ("simulators.branch_batch.calls", "count"),
    ("simulators.branch_batch.branches", "count"),
    ("simulators.branch_batch.self_s", "s"),
    ("simulators.branch_batch.state_bytes", "bytes_computed"),
    ("simulators.tail_plan.calls", "count"),
    ("simulators.tail_plan.self_s", "s"),
    ("simulators.run.calls", "count"),
    ("simulators.run.self_s", "s"),
    ("simulators.trajectory.trajectories", "count"),
    ("machines.run.calls", "count"),
    ("machines.run.self_s", "s"),
    ("faults.score.calls", "count"),
    ("faults.score.self_s", "s"),
    ("faults.records.build.rows", "count"),
    ("faults.records.build.self_s", "s"),
    ("faults.store.write.bytes", "bytes"),
    ("faults.store.write.self_s", "s"),
    ("faults.store.read.records", "count"),
    ("faults.store.read.self_s", "s"),
    ("faults.campaign.aggregate.calls", "count"),
    ("faults.campaign.aggregate.self_s", "s"),
    ("analysis.query.calls", "count"),
    ("analysis.query.self_s", "s"),
    ("transpiler.transpile.calls", "count"),
    ("transpiler.transpile.self_s", "s"),
    ("scenarios.factory.calls", "count"),
    ("scenarios.factory.self_s", "s"),
    ("scenarios.factory.cache_hit_frac", "ratio"),
    ("scenarios.cache.lock.calls", "count"),
    ("scenarios.cache.lock.wait_s", "s"),
    ("scenarios.cache.load.calls", "count"),
    ("scenarios.cache.load.self_s", "s"),
    ("scenarios.cache.hit_frac", "ratio"),
    ("scenarios.cache.put.calls", "count"),
    ("scenarios.cache.put.self_s", "s"),
    ("scenarios.shard.submit_calls", "count"),
    ("scenarios.shard.wait_s", "s"),
    ("scenarios.shard.fallbacks", "count"),
    ("scenarios.runner.self_s", "s"),
    ("scenarios.runner.computed", "count"),
    ("scenarios.runner.reused", "count"),
)

RATIOS = {
    "scenarios.factory.cache_hit_frac": (
        "scenarios.factory.hits", "scenarios.factory.gets",
    ),
    "scenarios.cache.hit_frac": (
        "scenarios.cache.load.hits", "scenarios.cache.load.gets",
    ),
}


def layer_metrics(tracer: Tracer, reps: int) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, per traced repetition (ratios as is)."""
    metrics = {}
    for name, unit in LAYER_METRICS:
        layer, _, field = name.rpartition(".")
        if name in RATIOS:
            hits, gets = (tracer.counts[key] for key in RATIOS[name])
            metrics[name] = (hits / gets if gets else 0.0, unit)
            continue
        if field == "calls":
            value = tracer.calls[layer]
        elif field in ("self_s", "wait_s"):
            value = tracer.self_s[layer]
        else:
            value = tracer.counts[name]
        metrics[name] = (value / reps, unit)
    return metrics


def covered_self_s(tracer: Tracer) -> float:
    """Self time claimed by every wrapped layer except the suite root."""
    return sum(
        seconds
        for layer, seconds in tracer.self_s.items()
        if layer != ROOT_LAYER
    )
