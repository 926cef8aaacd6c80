"""The fit-trace and figure-fig6 workloads: whole offline jobs.

fit-trace packs a seeded CSV latency trace into the store, sorts it
out of core and fits SingleR/SingleD policies from the sorted store.
figure-fig6 regenerates paper figure 6 at quick scale from a cold cache.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import random
import shutil
import time

import probes

TRACE_ROWS = 1_000_000
TRACE_MU, TRACE_SIGMA = 2.0, 0.6
CSV_CHUNK_ROWS = 65_536
#: (percentile, budget) targets, each fitted for both policy families.
OBJECTIVES = ((0.95, 0.05), (0.99, 0.05), (0.99, 0.2))
FAMILIES = ("single-r", "single-d")

FIGURE = "fig6"
FIGURE_SCALE = "quick"
#: The figure's own seed: its committed golden digest is for this seed.
FIGURE_SEED = 42
GOLDENS = os.path.join("tests", "goldens", "experiment_rows_quick.json")


# ---------------------------------------------------------------------------
# fit-trace
# ---------------------------------------------------------------------------


def fit_setup():
    """Import the layers the job drives (the timed set-up)."""
    import repro.io.tracelog  # noqa: F401
    import repro.optimize  # noqa: F401
    import repro.store  # noqa: F401


def trace_chunks(seed: int):
    """The job's input, a chunk at a time: seeded LogNormal latencies.

    Drawn with the standard library so the input can be written before
    the program (and numpy) are imported, in bounded memory.
    """
    draw = random.Random(seed).lognormvariate
    for lo in range(0, TRACE_ROWS, CSV_CHUNK_ROWS):
        n = min(CSV_CHUNK_ROWS, TRACE_ROWS - lo)
        yield [draw(TRACE_MU, TRACE_SIGMA) for _ in range(n)]


def write_trace_csv(seed: int, path: str) -> None:
    """Write the input CSV trace (``repr`` floats parse back exactly)."""
    with open(path, "w") as fh:
        fh.write("# repro-trace v1\nkind,x,y\n")
        for chunk in trace_chunks(seed):
            fh.write("".join(f"primary,{x!r},\n" for x in chunk))


def _store_counters() -> dict:
    from repro.obs.metrics import get_metrics

    registry = get_metrics()
    out = {}
    for name in ("store.blocks_loaded", "store.cache_hits"):
        metric = registry.get(name)
        out[name] = int(metric.value) if metric is not None else 0
    return out


def fit_job(csv_path: str, workdir: str, layers=None, sampler=None) -> dict:
    """pack -> sort -> fit every objective; returns fits and timings."""
    from repro.io import tracelog
    from repro import optimize, store

    trace_to_store, sort_trace, solve = (
        tracelog.trace_to_store, store.sort_trace, optimize.solve,
    )
    if layers is not None:
        trace_to_store = layers.wrap(trace_to_store, "io.trace_to_store", "io")
        sort_trace = layers.wrap(sort_trace, "store.sort_trace", "store")
        solve = layers.wrap(solve, "optimize.solve", "optimize")
    packed = os.path.join(workdir, "trace.store")
    ordered = os.path.join(workdir, "trace.sorted.store")
    counters = _store_counters()
    cpu0 = probes.self_cpu_s()
    t0 = time.perf_counter()
    trace_to_store(csv_path, packed).close()
    t1 = time.perf_counter()
    reader = sort_trace(packed, ordered)
    t2 = time.perf_counter()
    fits = []
    with sampler if sampler is not None else contextlib.nullcontext():
        samples = store.EmpiricalStore(reader)
        for family in FAMILIES:
            for percentile, budget in OBJECTIVES:
                fits.append(solve(optimize.FitRequest(
                    percentile=percentile, budget=budget, family=family,
                    rx=samples,
                ), solver="empirical"))
        samples.close()
    t3 = time.perf_counter()
    cpu = probes.self_cpu_s() - cpu0
    reader.close()
    after = _store_counters()
    sorted_bytes = os.path.getsize(ordered)
    os.remove(packed)
    os.remove(ordered)
    return {
        "fits": fits,
        "run_s": t3 - t0,
        "pack_s": t1 - t0,
        "sort_s": t2 - t1,
        "fit_s": t3 - t2,
        "cpu_s": cpu,
        "store_bytes": sorted_bytes,
        "counters": {k: after[k] - counters[k] for k in after},
    }


def check_fits(seed: int, jobs) -> tuple[list[str], int]:
    """Every store-backed fit must be bit-identical to the in-memory
    vectorized sweep on the same samples. Returns the problems and the
    number of fits that failed."""
    from repro.optimize import (
        compute_optimal_singled_vectorized,
        compute_optimal_singler_vectorized,
    )

    import numpy as np

    samples = np.array([x for chunk in trace_chunks(seed) for x in chunk])
    problems = []
    expected = []
    for family in FAMILIES:
        sweep = (
            compute_optimal_singled_vectorized
            if family == "single-d"
            else compute_optimal_singler_vectorized
        )
        for percentile, budget in OBJECTIVES:
            expected.append(
                (family, percentile, budget,
                 sweep(samples, samples, percentile, budget))
            )
    bad = 0
    for fits in jobs:
        if len(fits) != len(expected):
            problems.append(f"{len(fits)} fits for {len(expected)} objectives")
            bad += abs(len(expected) - len(fits))
        for got, (family, percentile, budget, want) in zip(fits, expected):
            where = f"{family} at ({percentile}, {budget})"
            found = []
            if repr(dataclasses.astuple(got.fit)) != repr(dataclasses.astuple(want)):
                found.append(f"{where}: store fit {got.fit} != in-memory {want}")
            if got.meta.get("store") is not True:
                found.append(f"{where} did not fit from the store")
            if got.meta.get("n_samples") != TRACE_ROWS:
                found.append(f"{where} saw {got.meta.get('n_samples')} samples")
            problems += found
            bad += bool(found)
    return problems, bad


# ---------------------------------------------------------------------------
# figure-fig6
# ---------------------------------------------------------------------------


def figure_setup():
    import repro.experiments  # noqa: F401


class _FastsimTally:
    """Counts simulated replications and queries, and the kernel tiers."""

    def __init__(self):
        from collections import Counter

        self.replications = 0
        self.queries = 0
        self.tiers = Counter()

    def wrap(self, fn):
        def tallied(*args, **kwargs):
            run, tier = fn(*args, **kwargs)
            self.replications += 1
            self.queries += int(run.latencies.size)
            self.tiers[tier] += 1
            return run, tier

        return tallied


def figure_job(cache_dir: str, layers=None) -> dict:
    """One cold, serial ``repro figure run fig6 --scale quick``."""
    from repro.experiments import run_experiment

    run = run_experiment
    tally = None
    if layers is not None:
        import repro.core.adaptive
        import repro.core.correlated
        import repro.fastsim.batch
        import repro.fastsim.kernel
        import repro.optimize

        run = layers.wrap(run_experiment, "pipeline.run_experiment", "pipeline")
        layers.patch(repro.optimize, "fit_singler_protocol",
                     "optimize.fit_singler_protocol", "optimize")
        layers.patch(repro.core.adaptive, "compute_optimal_singler_correlated",
                     "core.compute_optimal_singler_correlated", "core")
        # One DominanceSweep.count_x_above call per success_rate evaluation.
        layers.patch(repro.core.correlated.DominanceSweep, "count_x_above",
                     "core.success_rate", "core", mode="count")
        tally = _FastsimTally()
        tiered = tally.wrap(repro.fastsim.kernel.simulate_replication_tiered)
        for module in (repro.fastsim.kernel, repro.fastsim.batch):
            layers.patch(module, "simulate_replication_tiered",
                         "fastsim.simulate_replication_tiered", "fastsim",
                         inner=tiered)
    cpu0 = probes.self_cpu_s()
    t0 = time.perf_counter()
    try:
        result = run(FIGURE, scale=FIGURE_SCALE, seed=FIGURE_SEED,
                     cache_dir=cache_dir)
    finally:
        if layers is not None:
            layers.restore()
    run_s = time.perf_counter() - t0
    return {
        "result": result,
        "run_s": run_s,
        "cpu_s": probes.self_cpu_s() - cpu0,
        "tally": tally,
    }


def check_figure(result, root: str) -> list[str]:
    from repro.pipeline.golden import rows_digest

    with open(os.path.join(root, GOLDENS)) as fh:
        golden = json.load(fh)["figures"][FIGURE]
    problems = []
    if result.headers != golden["headers"]:
        problems.append(f"{FIGURE} headers {result.headers} != golden")
    if len(result.rows) != golden["n_rows"]:
        problems.append(f"{FIGURE} has {len(result.rows)} rows, golden {golden['n_rows']}")
    digest = rows_digest(result.rows)
    if digest != golden["digest"]:
        problems.append(f"{FIGURE} rows digest {digest} != golden {golden['digest']}")
    return problems


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Measuring the two jobs
# ---------------------------------------------------------------------------


def _job_metrics(times, cpus, peak_mb: float) -> dict:
    """End-to-end metrics of an offline workload, whose "request" is one
    whole job: median job time and CPU per job."""
    import statistics

    run_s = statistics.median(times)
    return {
        "run_s": run_s,
        "p50_ms": run_s * 1e3,
        "cpu_ms_per_req": statistics.median(cpus) * 1e3,
        "peak_rss_mb": peak_mb,
    }


def _repeat(job, seconds: float) -> list:
    """Back-to-back jobs while another one fits in ``seconds`` (at least
    one), judging a job's length by the one before it."""
    jobs = [job()]
    start = time.perf_counter() - jobs[0]["run_s"]
    while time.perf_counter() - start + jobs[-1]["run_s"] <= seconds:
        jobs.append(job())
    return jobs


def _self_time_metrics(layers, named, plain_run_s: float) -> dict:
    self_s = layers.self_seconds()
    out = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in (*named, "bench")}
    out["trace.unaccounted_s"] = plain_run_s - sum(self_s.get(n, 0.0) for n in named)
    return out


def _accounting_line(metrics: dict, named) -> str:
    gap = metrics["trace.unaccounted_s"]
    overhead = metrics["trace.overhead_run_s"]
    verdict = "within" if abs(gap) <= abs(overhead) else "OUTSIDE"
    return (
        f"self time of {', '.join(named)} accounts for the untraced run_s "
        f"to {gap:+.3f} s, {verdict} the tracing overhead of {overhead:+.3f} s"
    )


def measure_fit(csv_path: str, scratch: str, seed: int, seconds: float,
                trace: int) -> dict:
    baseline = probes.rss_mb()
    workdir = fresh_dir(os.path.join(scratch, "fit"))
    metrics = {}
    report = []
    if trace:
        plain = fit_job(csv_path, workdir)
        layers = probes.Layers()
        sampler = probes.RssSampler()
        with layers.root("bench.fit_job", "bench"):
            traced = fit_job(csv_path, workdir, layers=layers, sampler=sampler)
        jobs = [plain, traced]
        n_fits = len(traced["fits"])
        metrics.update({
            "io.pack_s": traced["pack_s"],
            "io.rows_per_s": TRACE_ROWS / traced["pack_s"],
            "store.sort_s": traced["sort_s"],
            "store.bytes": traced["store_bytes"],
            "store.blocks_loaded": traced["counters"]["store.blocks_loaded"],
            "store.cache_hits": traced["counters"]["store.cache_hits"],
            "optimize.empirical_fit_s": traced["fit_s"],
            "optimize.samples_per_s": TRACE_ROWS * n_fits / traced["fit_s"],
            "optimize.fit_rss_mb": sampler.rise_mb,
            "trace.overhead_run_s": traced["run_s"] - plain["run_s"],
            "trace.overhead_p50_ms": (traced["run_s"] - plain["run_s"]) * 1e3,
            **_self_time_metrics(layers, ("io", "store", "optimize"), plain["run_s"]),
        })
        report.append(_accounting_line(metrics, ("io", "store", "optimize")))
        report.append(f"spans: {', '.join(layers.export(probes.span_stem('fit-trace', seed)))}")
    else:
        jobs = _repeat(lambda: fit_job(csv_path, workdir), seconds)
        metrics.update(_job_metrics(
            [j["run_s"] for j in jobs], [j["cpu_s"] for j in jobs],
            probes.peak_rss_mb() - baseline,
        ))
    times = [round(j["run_s"], 3) for j in jobs]
    report.insert(0, f"{len(jobs)} fit job(s) of {TRACE_ROWS} rows, "
                     f"{len(OBJECTIVES) * len(FAMILIES)} fits each: {times} s")
    problems, failed = check_fits(seed, [j["fits"] for j in jobs])
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": sum(len(j["fits"]) for j in jobs),
        "failed": failed,
        "report": report,
        "info": {"job_s": times},
    }


def measure_figure(scratch: str, root: str, seed: int, seconds: float,
                   trace: int) -> dict:
    baseline = probes.rss_mb()
    caches = itertools.count()

    def cold():
        return fresh_dir(os.path.join(scratch, f"cache{next(caches)}"))

    metrics = {}
    report = []
    if trace:
        from repro.fastsim import TIERS

        plain = figure_job(cold())
        layers = probes.Layers()
        with layers.root("bench.figure_job", "bench"):
            traced = figure_job(cold(), layers=layers)
        jobs = [plain, traced]
        tally = traced["tally"]
        named = ("pipeline", "optimize", "core", "fastsim")
        pipeline = traced["result"].meta["pipeline"]
        tier = tally.tiers.most_common(1)[0][0] if tally.tiers else None
        metrics.update({
            "optimize.protocol_s": layers.seconds["optimize.fit_singler_protocol"],
            "core.correlated_s": layers.seconds["core.compute_optimal_singler_correlated"],
            "core.success_rate_calls": layers.count("core.success_rate"),
            "fastsim.kernel_s": layers.seconds["fastsim.simulate_replication_tiered"],
            "fastsim.replications": tally.replications,
            "fastsim.queries_per_s": tally.queries / layers.seconds["fastsim.simulate_replication_tiered"],
            # 1 + index into TIERS (compiled, numpy, ...); 0: no kernel ran.
            "fastsim.tier": 0 if tier is None else 1 + TIERS.index(tier),
            "pipeline.cells": _cells(pipeline),
            "pipeline.batches": pipeline["batches"],
            "pipeline.cache_misses": pipeline["cache_misses"],
            "trace.overhead_run_s": traced["run_s"] - plain["run_s"],
            "trace.overhead_p50_ms": (traced["run_s"] - plain["run_s"]) * 1e3,
            **_self_time_metrics(layers, named, plain["run_s"]),
        })
        report.append(_accounting_line(metrics, named))
        report.append(f"spans: {', '.join(layers.export(probes.span_stem('figure-fig6', seed)))}")
    else:
        jobs = _repeat(lambda: figure_job(cold()), seconds)
        metrics.update(_job_metrics(
            [j["run_s"] for j in jobs], [j["cpu_s"] for j in jobs],
            probes.peak_rss_mb() - baseline,
        ))
    per_job = [check_figure(job["result"], root) for job in jobs]
    problems = [p for found in per_job for p in found]
    times = [round(j["run_s"], 3) for j in jobs]
    report.insert(0, f"{len(jobs)} cold {FIGURE} --scale {FIGURE_SCALE} run(s): {times} s")
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": len(jobs),
        "failed": sum(bool(found) for found in per_job),
        "report": report,
        "info": {"job_s": times},
    }


def _cells(pipeline_report: dict) -> int:
    """Cells the pipeline executed, summed over its waves."""
    return sum(wave["cells"] for wave in pipeline_report["per_wave"])
