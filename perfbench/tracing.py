"""Span tracing around calls into the circulant_clt layers, from outside src/.

Every wrapped name is patched where its caller looks it up (the modules
import names directly, so patching only the defining module would miss
callers).  All wrapped names live in ``WRAPPED``; a name a later version
of the package removes is skipped and reported as 0 calls.

Each span records wall time (perf_counter_ns) and thread CPU time
(thread_time_ns).  With worker threads the two differ by the time spent
waiting for the GIL or the CPU.  Spans are aggregated per thread and name
in memory (self time = span time minus the time of its child spans) and
read out once the traced command has finished.

Worker threads are covered by their top-level spans plus the gaps between
them: thread CPU between a worker's first span and its last that no span
covers is the replica loop itself and is charged to ``harness``.
"""

from __future__ import annotations

import functools
import math
import threading
import time
from collections import defaultdict

# (module, attribute path, span name).  A class attribute is given as
# "Class.method" and patched on the class.
WRAPPED = (
    ("cli", "_config_from_options", "cli.parse"),
    ("cli", "parse_config", "cli.parse"),
    ("cli", "emit_samples_csv", "cli.samples_csv"),
    ("cli", "emit_summary_json", "cli.summary_json"),
    ("cli", "_write", "cli.write"),
    ("cli", "run_clt_experiment", "harness.run"),
    ("cli", "chatterjee_tv_bound", "harness.run"),
    ("cli", "estimate_kappas", "harness.run"),
    ("cli", "limiting_variance", "combinatorics.variance"),
    ("harness", "estimate_kappas", "harness.run"),
    ("harness", "_map_replicas", "harness.map"),
    ("harness", "standardized_moments", "harness.stats"),
    ("harness", "ks_distance", "harness.stats"),
    ("harness", "limiting_variance", "combinatorics.variance"),
    ("harness", "build_sample", "circulant.build"),
    ("harness", "trace_polynomial", "circulant.trace"),
    ("harness", "gradient_trace_polynomial", "circulant.gradient"),
    ("harness", "hessian_norm_bound", "circulant.norm"),
    ("circulant", "trace_power_spectral", "circulant.power_term"),
    ("circulant", "CirculantSample.spectrum", "circulant.fft"),
    ("circulant", "sample_sequence", "ensembles.draw"),
    ("ensembles", "RandomStream.generator", "ensembles.substream"),
)

# Counted but not timed: a span per polynomial term would cost more than
# the term's own bookkeeping.
COUNT_ONLY = {"circulant.power_term"}
# Spans that also record process CPU (all threads) for parallel efficiency.
PROCESS_CPU = {"harness.map", "harness.run"}


class _ThreadState:
    def __init__(self, main: bool) -> None:
        self.main = main
        self.stack: list[list[int]] = []  # per open span: [child wall, child cpu]
        self.open: dict[str, int] = defaultdict(int)  # open spans per name
        # name -> [calls, wall, cpu, self wall, self cpu, outermost wall] in ns
        self.agg: dict[str, list[int]] = defaultdict(lambda: [0] * 6)
        self.counts: dict[str, float] = defaultdict(float)
        self.first_cpu: int | None = None
        self.last_cpu = 0
        self.top_wall = 0
        self.top_cpu = 0


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident() == self._main)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def span(self, name: str, fn, count=None):
        """Wrap fn in a span; count = (key, amount(args, result)) adds to a
        counter after each call."""
        process_cpu = name in PROCESS_CPU

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._state()
            frame = [0, 0]
            st.stack.append(frame)
            outermost = st.open[name] == 0
            st.open[name] += 1
            p0 = time.process_time_ns() if process_cpu else 0
            w0 = time.perf_counter_ns()
            c0 = time.thread_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1 = time.thread_time_ns()
                w1 = time.perf_counter_ns()
                st.stack.pop()
                st.open[name] -= 1
                wall, cpu = w1 - w0, c1 - c0
                a = st.agg[name]
                a[0] += 1
                a[1] += wall
                a[2] += cpu
                a[3] += wall - frame[0]
                a[4] += cpu - frame[1]
                if outermost:
                    a[5] += wall
                    if process_cpu:
                        st.counts[name + ".process_cpu_ns"] += time.process_time_ns() - p0
                if st.stack:
                    st.stack[-1][0] += wall
                    st.stack[-1][1] += cpu
                else:
                    if st.first_cpu is None:
                        st.first_cpu = c0
                    st.last_cpu = c1
                    st.top_wall += wall
                    st.top_cpu += cpu
            if count is not None:
                key, amount = count
                st.counts[key] += amount(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._state().counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spectrum(self, fn):
        """CirculantSample.spectrum: a cached call is counted, a computed
        one is timed as an FFT with its computed flops and bytes."""
        timed = self.span("circulant.fft", fn)

        @functools.wraps(fn)
        def wrapper(sample):
            counts = self._state().counts
            if getattr(sample, "_spectrum", None) is not None:
                counts["circulant.fft.hits"] += 1
                return fn(sample)
            n = sample.n
            counts["circulant.fft.flop"] += 5.0 * n * math.log2(n)
            counts["circulant.fft.bytes"] += 16.0 * n * math.log2(n)
            return timed(sample)

        return wrapper

    def install(self, modules: dict) -> list[str]:
        """Patch every WRAPPED name; returns the names that do not exist."""
        counts = {
            "ensembles.draw": ("ensembles.draw.values", lambda a, r: len(r)),
            "cli.samples_csv": ("cli.samples_csv.bytes", lambda a, r: len(r.encode())),
            "cli.write": ("cli.write.bytes", lambda a, r: len(a[1].encode())),
        }
        missing = []
        for module, path, name in WRAPPED:
            owner = modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{module}.{path}")
                continue
            if name in COUNT_ONLY:
                wrapped = self.counter(name, original)
            elif name == "circulant.fft":
                wrapped = self.spectrum(original)
            else:
                wrapped = self.span(name, original, counts.get(name))
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        return missing

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        """Per-name totals over all threads, plus the worker-thread gaps."""
        agg: dict[str, list[int]] = defaultdict(lambda: [0] * 6)
        counts: dict[str, float] = defaultdict(float)
        workers = 0
        gap_cpu = wait = 0
        for st in self._states:
            for name, a in st.agg.items():
                agg[name] = [x + y for x, y in zip(agg[name], a)]
            for name, v in st.counts.items():
                counts[name] += v
            if not st.main and st.first_cpu is not None:
                workers += 1
                gap_cpu += (st.last_cpu - st.first_cpu) - st.top_cpu
                wait += st.top_wall - st.top_cpu
        return {
            "spans": {k: dict(zip(("calls", "wall_ns", "cpu_ns", "self_wall_ns",
                                   "self_cpu_ns", "outer_wall_ns"), v))
                      for k, v in agg.items()},
            "counts": dict(counts),
            "worker_threads": workers,
            "worker_gap_cpu_ns": gap_cpu,
            "worker_wait_ns": wait,
        }
