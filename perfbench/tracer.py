"""Outside-in layer tracer.

The tracer wraps the public functions of each layer *where their
callers look them up* (``repro.core.grid_search.execute_runs``, not only
``repro.runtime.jobs.execute_runs``; class attributes for methods), and
records for each wrapped name its call count, busy time (outermost
calls only, so recursion is not counted twice) and self time (busy time
minus the time its child spans cover on the same thread).  Coarse
layers also keep one span per call — name, start, end, parent, search
id — in memory, written at the end as Chrome trace-event JSON.  Hot
inner layers (stacked kernels, losses, engine, array dispatch) are
aggregated only, so the trace stays small and the overhead low.

Worker-side and agent-side layers are invisible from here: the pool and
TCP workloads see the scheduler, not the training inside workers.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self) -> None:
        #: name -> [calls, busy_s, self_s]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        #: free-form counters (committed candidates, stack widths...)
        self.counters = defaultdict(float)
        #: (name, start, end, parent, search, thread); ``search`` is the
        #: index of the grid search the span belongs to, None outside one
        self.spans: list[tuple] = []
        self.search = -1
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.origin = time.perf_counter()

    # -- wrapping ----------------------------------------------------------

    def _patch(self, owner, attr, make):
        # Class attributes are read from the class dict, so the wrapper
        # replaces exactly the function that method lookup finds.
        original = (
            owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        )
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def count(self, owner, attr, name):
        """Count calls only (for hot dispatch points)."""
        stats = self.stats

        def make(original):
            def wrapper(*args, **kwargs):
                stats[name][0] += 1
                return original(*args, **kwargs)

            return wrapper

        self._patch(owner, attr, make)

    def timed(self, owner, attr, name, keep=False, on_call=None, on_return=None):
        """Time every call; ``keep`` also records one span per call.

        ``on_call(args, kwargs)`` runs before the call and its result is
        handed to ``on_return(token, result, args, kwargs)`` after it;
        both run outside the timed interval.
        """
        tracer = self

        def make(original):
            def wrapper(*args, **kwargs):
                token = on_call(args, kwargs) if on_call else None
                stack = tracer._stack()
                frame = [name, time.perf_counter(), 0.0]
                stack.append(frame)
                try:
                    return_value = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    tracer._close(frame, end, stack, keep)
                if on_return:
                    on_return(token, return_value, args, kwargs)
                return return_value

            return wrapper

        self._patch(owner, attr, make)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, frame, end, stack, keep) -> None:
        name, start, covered = frame
        duration = end - start
        outermost = all(f[0] != name for f in stack)
        with self._lock:
            entry = self.stats[name]
            entry[0] += 1
            entry[2] += duration - covered
            if outermost:
                entry[1] += duration
            if keep:
                parent = stack[-1][0] if stack else None
                inside = name == "grid_search" or any(
                    f[0] == "grid_search" for f in stack
                )
                self.spans.append(
                    (
                        name,
                        start,
                        end,
                        parent,
                        self.search if inside else None,
                        threading.get_ident(),
                    )
                )
        if stack:
            stack[-1][2] += duration

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def busy(self, *names) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_time(self, *names) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def chrome_trace(self, pid: int) -> dict:
        """Spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        events = [
            {
                "name": name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"parent": parent, "search": search},
            }
            for name, start, end, parent, search, tid in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, pid: int) -> None:
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(pid), fh)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from importlib import import_module

    # import_module, not ``import a.b as c``: ``repro.core`` re-exports
    # functions under its submodules' names (``grid_search``).
    experiment = import_module("repro.core.experiment")
    grid_search = import_module("repro.core.grid_search")
    quantum_layer = import_module("repro.hybrid.quantum_layer")
    training = import_module("repro.nn.training")
    engine = import_module("repro.quantum.engine")
    cluster_tcp = import_module("repro.runtime.cluster_tcp")
    jobs = import_module("repro.runtime.jobs")
    parallel = import_module("repro.runtime.parallel")
    from repro.backends import NumpyBackend
    from repro.nn.losses import CrossEntropy
    from repro.nn.optimizers import Adam, StackedAdam
    from repro.nn.stacked import StackedDense
    from repro.runtime.pool import PersistentPool

    counters = tracer.counters

    # Protocol and data layers, looked up by run_protocol/make_level_split.
    tracer.timed(experiment, "make_spiral", "data.make_spiral", keep=True)
    tracer.timed(experiment, "stratified_split", "data.stratified_split", keep=True)
    tracer.timed(
        experiment, "search_space_for_family", "search_space", keep=True
    )

    def search_start(args, kwargs):
        tracer.search += 1

    def search_end(token, outcome, args, kwargs):
        counters["grid_search.candidates_committed"] += len(outcome.evaluated)
        counters["grid_search.runs_committed"] += sum(
            len(c.epochs_run) for c in outcome.evaluated
        )

    tracer.timed(
        experiment,
        "grid_search",
        "grid_search",
        keep=True,
        on_call=search_start,
        on_return=search_end,
    )
    tracer.timed(grid_search, "rank_by_flops", "rank", keep=True)

    # Jobs: the inline search's entry points into training.
    def runs_width(args, kwargs):
        runs = args[3] if len(args) > 3 else kwargs["runs"]
        counters["jobs.slices"] += len(list(runs))

    def group_width(args, kwargs):
        group = args[0] if args else kwargs["group"]
        counters["jobs.slices"] += sum(len(list(runs)) for _, _, runs in group)

    tracer.timed(
        grid_search, "execute_runs", "jobs.execute_runs", keep=True, on_call=runs_width
    )
    tracer.timed(
        grid_search,
        "execute_candidates",
        "jobs.execute_candidates",
        keep=True,
        on_call=group_width,
    )

    # Training loops, where jobs (and VectorizedTrainer) look them up.
    for owner in (jobs, training):
        tracer.timed(owner, "train_stack", "training.train_stack", keep=True)
    tracer.timed(jobs, "train_model", "training.train_model", keep=True)
    tracer.timed(StackedDense, "forward", "stacked.dense_forward")
    tracer.timed(StackedDense, "backward", "stacked.dense_backward")

    def stacked_step(args, kwargs):
        counters["training.stacked_steps"] += 1

    tracer.timed(StackedAdam, "step", "optimizers.step", on_call=stacked_step)
    tracer.timed(Adam, "step", "optimizers.step")
    tracer.timed(CrossEntropy, "value", "losses")
    tracer.timed(CrossEntropy, "gradient", "losses")

    # Quantum layer and engine.
    for cls in (quantum_layer.QuantumLayer, quantum_layer.StackedQuantumLayer):
        tracer.timed(cls, "forward", "quantum_layer.forward")
        tracer.timed(cls, "backward", "quantum_layer.backward")
    tracer.timed(engine.CompiledTape, "execute", "engine.execute")
    tracer.timed(engine.CompiledTape, "adjoint_gradients", "engine.adjoint")

    def cache_before(args, kwargs):
        info = engine.compile_cache_info()
        return info["hits"], info["misses"], info["enabled"]

    def cache_after(token, result, args, kwargs):
        info = engine.compile_cache_info()
        hits, misses, enabled = token
        if enabled and info["enabled"]:
            counters["engine.compile_cache.hits"] += info["hits"] - hits
            counters["engine.compile_cache.misses"] += info["misses"] - misses

    tracer.timed(
        quantum_layer,
        "compiled_tape",
        "engine.compile",
        on_call=cache_before,
        on_return=cache_after,
    )
    tracer.count(NumpyBackend, "einsum", "backends.einsum")
    tracer.count(NumpyBackend, "matmul", "backends.matmul")

    # Pool: dataset publication and chunk traffic.
    tracer.timed(PersistentPool, "publish", "pool.publish", keep=True)
    tracer.timed(PersistentPool, "retire_split", "pool.retire_split", keep=True)
    original_submit = PersistentPool.__dict__["submit"]

    @functools.wraps(original_submit)
    def submit(self, chunk, callback, error_callback):
        counters["pool.runs_submitted"] += len(chunk.jobs)

        def completed(result):
            with tracer._lock:
                counters["pool.chunks_completed"] += 1
            callback(result)

        return original_submit(self, chunk, completed, error_callback)

    PersistentPool.submit = submit
    tracer._patches.append((PersistentPool, "submit", original_submit))

    def driver_cpu_start(args, kwargs):
        return time.process_time()

    def driver_cpu_end(token, result, args, kwargs):
        counters["parallel.driver_cpu_s"] += time.process_time() - token

    tracer.timed(
        parallel,
        "speculative_search",
        "parallel.speculative_search",
        keep=True,
        on_call=driver_cpu_start,
        on_return=driver_cpu_end,
    )

    # TCP coordinator: one per search; its counters are read at the end
    # of each run.
    def coordinator_done(token, result, args, kwargs):
        coordinator = args[0]
        stats = coordinator.stats()
        for key in (
            "committed",
            "completed_chunks",
            "duplicate_results",
            "chunk_retries",
            "sequential_fallbacks",
            "connections_accepted",
            "connections_lost",
            "expired_leases",
            "torn_frames",
        ):
            counters[f"tcp.{key}"] += stats[key]
        counters["tcp.runs_attempted"] += (
            stats["completed_chunks"] * coordinator.settings.runs
        )

    tracer.timed(
        cluster_tcp.TcpCoordinator,
        "run",
        "tcp.run",
        keep=True,
        on_return=coordinator_done,
    )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, pool_stats: dict | None, live_after: int) -> dict:
    """The per-layer metrics of one traced run (name -> value)."""
    t, c = tracer, tracer.counters
    stacked_steps = c["training.stacked_steps"]
    runs_attempted = (
        c["jobs.slices"] + c["pool.runs_submitted"] + c["tcp.runs_attempted"]
    )
    jobs_calls = t.calls("jobs.execute_runs", "jobs.execute_candidates")
    pool_stats = pool_stats or {}
    m = {
        "data.calls": t.calls("data.make_spiral", "data.stratified_split"),
        "data.busy_s": t.busy("data.make_spiral", "data.stratified_split"),
        "search_space.busy_s": t.busy("search_space"),
        "rank.busy_s": t.busy("rank"),
        "grid_search.calls": t.calls("grid_search"),
        "grid_search.busy_s": t.busy("grid_search"),
        "grid_search.self_s": t.self_time("grid_search"),
        "grid_search.candidates_committed": c["grid_search.candidates_committed"],
        "grid_search.runs_attempted": runs_attempted,
        "grid_search.useful_ratio": _ratio(
            c["grid_search.runs_committed"], runs_attempted
        ),
        "jobs.execute_runs.calls": t.calls("jobs.execute_runs"),
        "jobs.execute_candidates.calls": t.calls("jobs.execute_candidates"),
        "jobs.busy_s": t.busy("jobs.execute_runs", "jobs.execute_candidates"),
        "jobs.mean_stack_width": _ratio(c["jobs.slices"], jobs_calls),
        "training.train_stack.calls": t.calls("training.train_stack"),
        "training.busy_s": t.busy("training.train_stack", "training.train_model"),
        "training.self_s": t.self_time(
            "training.train_stack", "training.train_model"
        ),
        "training.stacked_steps": stacked_steps,
        "stacked.dense_forward.calls": t.calls("stacked.dense_forward"),
        "stacked.dense_forward.busy_s": t.busy("stacked.dense_forward"),
        "stacked.dense_backward.calls": t.calls("stacked.dense_backward"),
        "stacked.dense_backward.busy_s": t.busy("stacked.dense_backward"),
        "optimizers.step.calls": t.calls("optimizers.step"),
        "optimizers.step.busy_s": t.busy("optimizers.step"),
        "losses.calls": t.calls("losses"),
        "losses.busy_s": t.busy("losses"),
        "quantum_layer.forward.self_s": t.self_time("quantum_layer.forward"),
        "quantum_layer.backward.self_s": t.self_time("quantum_layer.backward"),
        "engine.execute.calls": t.calls("engine.execute"),
        "engine.execute.busy_s": t.busy("engine.execute"),
        "engine.adjoint.calls": t.calls("engine.adjoint"),
        "engine.adjoint.busy_s": t.busy("engine.adjoint"),
        "engine.compile.calls": t.calls("engine.compile"),
        "engine.compile_cache.hits": c["engine.compile_cache.hits"],
        "engine.compile_cache.misses": c["engine.compile_cache.misses"],
        "backends.einsum.calls": _ratio(t.calls("backends.einsum"), stacked_steps),
        "backends.matmul.calls": _ratio(t.calls("backends.matmul"), stacked_steps),
        "pool.publish.busy_s": t.busy("pool.publish"),
        "pool.retire_split.busy_s": t.busy("pool.retire_split"),
        "pool.chunks_completed": c["pool.chunks_completed"],
        "pool.chunk_retries": pool_stats.get("chunk_retries", 0),
        "pool.chunk_timeouts": pool_stats.get("chunk_timeouts", 0),
        "pool.sequential_fallbacks": pool_stats.get("sequential_fallbacks", 0),
        "pool.memory_degrades": pool_stats.get("memory_degrades", 0),
        "pool.live_segments_after": live_after,
        "parallel.speculative_search.busy_s": t.busy("parallel.speculative_search"),
        "parallel.driver_cpu_s": c["parallel.driver_cpu_s"],
        "cluster.completed_chunks": c["tcp.completed_chunks"],
        "cluster.useful_ratio": _ratio(c["tcp.committed"], c["tcp.completed_chunks"]),
        "cluster.duplicate_results": c["tcp.duplicate_results"],
        "cluster.chunk_retries": c["tcp.chunk_retries"],
        "cluster.sequential_fallbacks": c["tcp.sequential_fallbacks"],
        "tcp.connections_accepted": c["tcp.connections_accepted"],
        "tcp.connections_lost": c["tcp.connections_lost"],
        "tcp.expired_leases": c["tcp.expired_leases"],
        "tcp.torn_frames": c["tcp.torn_frames"],
        "tcp.run.busy_s": t.busy("tcp.run"),
    }
    return {k: float(v) for k, v in m.items()}
