"""Benchmark-side instrumentation: layer wrappers, spans, CPU and memory.

The program is never edited for measurement. A traced run replaces a
layer's public function (on its module, class or instance) with a
wrapper from this file, records one span per call or just a count and a
time total for calls too hot to span, and puts the original back when
the run ends.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import os
import resource
import threading
import time
from collections import Counter, defaultdict

from stats import self_time

#: Saved results and spans, relative to the checkout root.
OUT_DIR = ".perfbench-out"

_CURRENT_SPAN = contextvars.ContextVar("perfbench_span", default=None)


def span_stem(workload: str, seed: int) -> str:
    return os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans")


class Layers:
    """Wrap public functions of the program's layers and time them.

    ``mode="span"`` records one span per call (name, layer, start, end,
    parent: the span that was open in the caller's context, so async
    requests nest correctly across ``await``). ``mode="timed"`` adds
    only to a per-name time total and call count; ``mode="count"`` only
    counts calls (read with :meth:`count`). Call :meth:`restore` to put
    every original back.
    """

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, layer, start, end)
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self._ids = itertools.count(1)
        self._ticks: dict = {}
        self._lock = threading.Lock()
        self._patches: list[tuple] = []

    # -- wrapping ------------------------------------------------------------
    def wrap(self, fn, name: str, layer: str = "", mode: str = "span"):
        if mode == "count":
            # next() on an itertools.count is one atomic C call: safe from
            # the policy-store threads and cheap on million-call paths.
            tick = self._ticks.setdefault(name, itertools.count()).__next__

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tick()
                return fn(*args, **kwargs)

            return counted
        if mode == "timed":
            calls, seconds, lock = self.calls, self.seconds, self._lock
            clock = time.perf_counter

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    with lock:
                        seconds[name] += elapsed
                        calls[name] += 1

            return timed
        if mode != "span":
            raise ValueError(f"unknown wrap mode {mode!r}")
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def spanned_async(*args, **kwargs):
                token, start = self._open()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._close(token, name, layer, start)

            return spanned_async

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            token, start = self._open()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(token, name, layer, start)

        return spanned

    def count(self, name: str) -> int:
        """Calls so far to a ``mode="count"`` wrapper (0 if none)."""
        ticks = self._ticks.get(name)
        # repr(itertools.count(n)) is "count(n)": the next value, i.e.
        # the number of ticks taken from a counter started at 0.
        return 0 if ticks is None else int(repr(ticks)[6:-1])

    def _open(self):
        span_id = next(self._ids)
        token = _CURRENT_SPAN.set((span_id, _CURRENT_SPAN.get()))
        return token, time.perf_counter()

    def _close(self, token, name, layer, start):
        end = time.perf_counter()
        span_id, parent = _CURRENT_SPAN.get()
        _CURRENT_SPAN.reset(token)
        parent_id = None if parent is None else parent[0]
        self.spans.append((span_id, parent_id, name, layer, start, end))
        self.calls[name] += 1
        self.seconds[name] += end - start

    def patch(self, owner, attr: str, name: str, layer: str = "",
              mode: str = "span", inner=None):
        """Replace ``owner.attr`` with a wrapper until :meth:`restore`.

        The wrapper calls ``inner`` when given, else the original.
        """
        had_own = isinstance(owner, type) or attr in getattr(owner, "__dict__", {})
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, property):
            getter = self.wrap(original.fget, name, layer, mode)
            setattr(owner, attr, property(getter))
        else:
            target = inner if inner is not None else getattr(owner, attr)
            setattr(owner, attr, self.wrap(target, name, layer, mode))
        self._patches.append((owner, attr, original, had_own))

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    @contextlib.contextmanager
    def root(self, name: str, layer: str):
        """A span that parents every call made inside the block."""
        token, start = self._open()
        try:
            yield
        finally:
            self._close(token, name, layer, start)

    # -- analysis ------------------------------------------------------------
    def _self_times(self):
        """``(name, layer, self time)`` per span: its duration minus the
        part of it covered by its child spans."""
        children = defaultdict(list)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        return [
            (name, layer, self_time(start, end, children.get(span_id, ())))
            for span_id, _, name, layer, start, end in self.spans
        ]

    def self_seconds(self) -> dict:
        """Self time summed by layer."""
        out: defaultdict = defaultdict(float)
        for _, layer, seconds in self._self_times():
            out[layer] += seconds
        return dict(out)

    def span_self_times(self, name: str) -> list[float]:
        """Self time of every span called ``name``."""
        return [t for span_name, _, t in self._self_times() if span_name == name]

    def export(self, stem: str) -> list[str]:
        """Write the spans with the program's own exporters
        (``<stem>.jsonl`` and ``<stem>.chrome.json``)."""
        from repro.obs.export import write_chrome_trace, write_jsonl
        from repro.obs.trace import Span

        pid = os.getpid()
        spans = [
            Span(
                name=name,
                trace_id="perfbench",
                span_id=f"pb{span_id}",
                parent_id=None if parent is None else f"pb{parent}",
                t_start=start,
                t_end=end,
                attrs={"layer": layer},
                pid=pid,
            )
            for span_id, parent, name, layer, start, end in self.spans
        ]
        return [
            str(write_jsonl(spans, stem + ".jsonl")),
            str(write_chrome_trace(spans, stem + ".chrome.json")),
        ]


# ---------------------------------------------------------------------------
# CPU and memory of this process and its children
# ---------------------------------------------------------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def self_cpu_s() -> float:
    """User + system CPU seconds of this process (all threads)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of another live process, from procfs."""
    with open(f"/proc/{pid}/stat") as fh:
        # The command name may hold spaces; fields resume after its ')'.
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def machine_steal_s() -> float:
    """CPU time the hypervisor took from this machine (all CPUs), from
    /proc/stat: a run that lost much of it was measured on a busy host."""
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0


def _status_kb(pid, key: str) -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(key)


def rss_mb(pid="self") -> float:
    return _status_kb(pid, "VmRSS") / 1024.0


def peak_rss_mb(pid="self") -> float:
    """The process's high-water resident set (VmHWM)."""
    return _status_kb(pid, "VmHWM") / 1024.0


class RssSampler:
    """Peak resident set of this process over a window, sampled on a
    thread every ``interval`` seconds (VmHWM cannot be scoped to one
    phase of a run)."""

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.peak = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while True:
            self.peak = max(self.peak, rss_mb())
            if self._stop.wait(self.interval):
                return

    def __enter__(self):
        self.start = rss_mb()
        self.peak = self.start
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, rss_mb())
        return False

    @property
    def rise_mb(self) -> float:
        return self.peak - self.start


# ---------------------------------------------------------------------------
# The hardware/software fingerprint every result carries
# ---------------------------------------------------------------------------


def fingerprint(seed: int) -> dict:
    import importlib.util
    import platform

    import numpy
    import scipy

    from repro.fastsim import kernel_info

    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "fastsim_default_tier": kernel_info()["default_tier"],
        "seed": seed,
    }
