"""The serve-procs and serve-loop workloads: an open loop against a fleet.

Both fleets serve the bundled ``fleet-tail-quick`` scenario
(LogNormal(3, 0.8) service, fixed SingleR(40, 0.2), no tuner, no probes)
at ``time_scale`` 2e-5 with two shards. Open-loop slices at ``REF_RPS``,
together as long as the run, give the latency and CPU figures. The
traced run adds one slice with the layers wrapped, then climbs a ladder
of higher rates to find the highest offered rate that still meets the SLO.
"""

from __future__ import annotations

import asyncio
import gc
import math
import time

import probes
from stats import (
    highest_supported_percentile,
    lateness_grows,
    max_rate_search,
    quantile,
)

SCENARIO = "fleet-tail-quick"
TIME_SCALE = 2e-5
SHARDS = 2
REF_RPS = 1000.0

#: The SLO a ladder rung must meet: wall p99 from the due time, the
#: share of issued requests that failed, and no growing backlog.
SLO_P99_MS = 20.0
SLO_FAIL_FRAC = 0.001
#: Stop dispatching a rung once the generator is this late: the rung has
#: already failed, and draining a longer backlog only wastes the run.
ABORT_LATE_S = 0.5
LADDER_FACTOR = 1.4
LADDER_CEILING = 20000.0
LADDER_FLOOR = 100.0
BISECTIONS = 2
#: Length of each ladder rung as a share of ``--seconds``.
RUNG_SHARE = 0.1
#: The reference rate runs as this many back-to-back slices of the run.
#: The reported p50 comes from the slice that lost the least CPU to the
#: hypervisor: on a shared virtual machine a burst of steal inflates every
#: latency in its window, and that is the host's noise, not the program's.
#: Both commits of a comparison get the same rule. CPU time is summed over
#: every slice: it is a count of work, and more of it is steadier.
REF_SLICES = 3

#: Tolerances of the model-latency check against a fastsim-engine run of
#: the same scenario (relative; fastsim uses FASTSIM_QUERIES queries).
MODEL_P50_TOL = 0.05
MODEL_P99_TOL = 0.15
REISSUE_RATE_TOL = 0.25
FASTSIM_QUERIES = 40_000


def setup(kind: str, seed: int):
    """Import the program and build the fleet (the timed set-up)."""
    from repro.scenarios import bundled_scenario

    scenario = bundled_scenario(SCENARIO)
    policy = scenario.build_policy()
    if kind == "procs":
        from repro.serving import ProcessFleet

        return ProcessFleet(
            SHARDS,
            scenario,
            policy=policy,
            time_scale=TIME_SCALE,
            transport="unix",
            seed=seed,
        )
    from repro.scenarios.engines import serving_backend
    from repro.serving import ServingFleet

    return ServingFleet.build(
        SHARDS,
        lambda shard, rng: serving_backend(scenario, TIME_SCALE, rng),
        policy=policy,
        seed=seed,
    )


def close(fleet) -> None:
    if hasattr(fleet, "workers"):
        fleet.close()
        # Spawning the workers also started multiprocessing's resource
        # tracker; stop it and wait for it so no process outlives the run.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


def schedule(seed: int, rung: int, rate: float, seconds: float) -> list[float]:
    """Poisson arrival offsets (s) for one rung, drawn from the seed."""
    import numpy as np

    rng = np.random.default_rng([seed, rung])
    n = max(int(rate * seconds), 1)
    return np.cumsum(rng.exponential(1.0 / rate, n)).tolist()


class Rung:
    """What one open-loop rung measured."""

    def __init__(self, rate: float, offsets):
        self.rate = rate
        self.offsets = offsets
        self.due: list[float] = []
        self.sent: list[float] = []
        self.done: list[float] = []
        self.backlog: list[int] = []
        # Per request, flat (no outcome objects kept: a heap of live
        # objects would lengthen the collector's pauses mid-run).
        self.ok: list[bool] = []
        self.model_ms: list[float] = []
        self.planned: list[int] = []
        self.reissues: list[int] = []
        self.reissue_won: list[bool] = []
        self.cancelled: list[int] = []
        self.aborted = False
        self.errors = 0
        self.wall_s = 0.0
        self.cpu_s = {}
        self.steal_s = 0.0

    @property
    def issued(self) -> int:
        return len(self.due)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def offered_rps(self) -> float:
        return self.issued / self.offsets[self.issued - 1]

    def latencies_ms(self) -> list[float]:
        """Wall latency from the due time; a failed request never meets
        a limit, so it sorts last as +inf."""
        return sorted(
            (done - due) * 1e3 if ok else math.inf
            for due, done, ok in zip(self.due, self.done, self.ok)
        )

    def per_second(self):
        """Per-second (p99 lateness ms, peak backlog) by due time."""
        start = self.due[0] if self.due else 0.0
        late, backlog = {}, {}
        for due, sent, depth in zip(self.due, self.sent, self.backlog):
            sec = int(due - start)
            late.setdefault(sec, []).append((sent - due) * 1e3)
            backlog[sec] = max(backlog.get(sec, 0), depth)
        secs = sorted(late)
        return (
            [quantile(sorted(late[s]), 0.99) for s in secs],
            [backlog[s] for s in secs],
        )

    def passes(self) -> bool:
        lat = self.latencies_ms()
        late, _ = self.per_second()
        return (
            not self.aborted
            and quantile(lat, 0.99) <= SLO_P99_MS
            and self.failed <= SLO_FAIL_FRAC * self.issued
            and not lateness_grows(late)
        )


async def run_rung(fleet, rung: Rung, qid0: int) -> None:
    """Send ``rung``'s schedule open-loop: each request is dispatched at
    its due time however many are still in flight."""
    loop = asyncio.get_running_loop()
    in_flight = 0

    async def one(i: int, qid: int) -> None:
        nonlocal in_flight
        try:
            outcome = await fleet.request(qid)
        except Exception:  # noqa: BLE001 - a leaked error is a failed request
            rung.errors += 1
            outcome = None
        rung.done[i] = loop.time()
        in_flight -= 1
        if outcome is not None:
            rung.ok[i] = True
            rung.model_ms[i] = outcome.latency_ms
            rung.planned[i] = outcome.n_planned
            rung.reissues[i] = outcome.n_reissues
            rung.reissue_won[i] = outcome.winner == "reissue"
            rung.cancelled[i] = outcome.cancelled_attempts

    n = len(rung.offsets)
    rung.done = [0.0] * n
    rung.ok = [False] * n
    rung.model_ms = [0.0] * n
    rung.planned = [0] * n
    rung.reissues = [0] * n
    rung.reissue_won = [False] * n
    rung.cancelled = [0] * n
    tasks = []
    t0 = loop.time() + 0.005
    for i, offset in enumerate(rung.offsets):
        due = t0 + offset
        now = loop.time()
        if now < due:
            await asyncio.sleep(due - now)
            now = loop.time()
        if now - due > ABORT_LATE_S:
            rung.aborted = True
            break
        rung.due.append(due)
        rung.sent.append(now)
        rung.backlog.append(in_flight)
        in_flight += 1
        tasks.append(asyncio.create_task(one(i, qid0 + i)))
    await asyncio.gather(*tasks)
    for column in (rung.done, rung.ok, rung.model_ms, rung.planned,
                   rung.reissues, rung.reissue_won, rung.cancelled):
        del column[len(tasks):]
    rung.wall_s = max(rung.done) - rung.due[0]


def _cpu_now(fleet) -> dict:
    cpu = {"frontdoor": probes.self_cpu_s()}
    for worker in getattr(fleet, "workers", ()):
        cpu[f"worker{worker.shard_id}"] = probes.proc_cpu_s(worker.process.pid)
    return cpu


class Driver:
    """Runs rungs against one fleet inside one event loop."""

    def __init__(self, fleet, seed: int):
        self.fleet = fleet
        self.seed = seed
        self.rungs: list[Rung] = []
        self.next_qid = 0

    async def rung(self, rate: float, seconds: float) -> Rung:
        rung = Rung(rate, schedule(self.seed, len(self.rungs), rate, seconds))
        # Start every rung from the same collector state. A full
        # collection of this process's heap stalls the loop for ~50 ms;
        # left to chance, whether one lands inside a rung would decide
        # its p99. After this, the first one comes a fixed number of
        # requests in, so every run measures the same number of stalls.
        gc.collect()
        before = _cpu_now(self.fleet)
        steal = probes.machine_steal_s()
        await run_rung(self.fleet, rung, self.next_qid)
        rung.steal_s = probes.machine_steal_s() - steal
        after = _cpu_now(self.fleet)
        rung.cpu_s = {k: after[k] - before[k] for k in before}
        self.next_qid += rung.issued
        self.rungs.append(rung)
        return rung

    async def ladder(self, rung_seconds: float):
        """Climb and bisect rates above the reference; returns the
        highest passing rung (or ``None``)."""
        search = max_rate_search(
            REF_RPS * LADDER_FACTOR,
            factor=LADDER_FACTOR,
            ceiling=LADDER_CEILING,
            floor=LADDER_FLOOR,
            bisections=BISECTIONS,
        )
        best = None
        try:
            rate = next(search)
            while True:
                rung = await self.rung(rate, rung_seconds)
                passed = rung.passes()
                if passed:
                    best = rung
                rate = search.send(passed)
        except StopIteration:
            pass
        return best


def _hedge_stats(pool: dict, time_scale: float) -> dict:
    idx = [i for i, ok in enumerate(pool["ok"]) if ok]
    model_ms, done, due = pool["model_ms"], pool["done"], pool["due"]
    model = sorted(model_ms[i] for i in idx)
    overhead = sorted(
        (done[i] - due[i]) * 1e3 - model_ms[i] * time_scale * 1e3 for i in idx
    )
    reissues = sum(pool["reissues"][i] for i in idx)
    wins = sum(pool["reissue_won"][i] for i in idx)
    return {
        "hedge.reissue_rate": reissues / len(idx),
        "hedge.planned_rate": sum(pool["planned"][i] for i in idx) / len(idx),
        "hedge.reissue_win_frac": wins / reissues if reissues else 0.0,
        "hedge.cancelled_per_req": sum(pool["cancelled"][i] for i in idx) / len(idx),
        "hedge.model_p50_ms": quantile(model, 0.5),
        "hedge.model_p99_ms": quantile(model, 0.99),
        "hedge.overhead_p50_ms": quantile(overhead, 0.5),
        "hedge.overhead_p99_ms": quantile(overhead, 0.99),
    }


def _fastsim_reference(seed: int) -> dict:
    """Model p50/p99 and reissue rate of the scenario on the fastsim engine."""
    import numpy as np

    from repro.scenarios import Scenario, bundled_scenario, run_scenario

    spec = bundled_scenario(SCENARIO).to_dict()
    spec["scale"]["n_queries"] = FASTSIM_QUERIES
    report = run_scenario(Scenario.from_dict(spec), "fastsim", seeds=[seed, seed + 1])
    lat = np.concatenate([r.latencies for r in report.runs])
    return {
        "p50": float(np.quantile(lat, 0.5)),
        "p99": float(np.quantile(lat, 0.99)),
        "reissue_rate": float(np.mean([r.reissue_rate for r in report.runs])),
    }


def _check(fleet, driver: Driver, ref_samples: int, hedge: dict, seed: int):
    """Output checks: returns the failures (empty: correct) and the
    fastsim figures the model latencies were held to."""
    problems = []
    issued = sum(r.issued for r in driver.rungs)
    stats = fleet.stats()
    if stats["requests"] != issued:
        problems.append(f"fleet saw {stats['requests']} requests, the generator issued {issued}")
    answered = sum(sum(done > 0.0 for done in r.done) for r in driver.rungs)
    if answered != issued:
        problems.append(f"{issued - answered} scheduled requests never returned")
    for shard in stats["per_shard"]:
        if shard["issued"] != shard["completed"] + shard["shed"] + shard["errors"]:
            problems.append(f"shard {shard['shard']}: issued != completed + shed + errors")
    routed = sum(s["issued"] for s in stats["per_shard"]) + stats.get("shed_unrouted", 0)
    if routed != issued:
        problems.append(f"shards account for {routed} of {issued} requests")
    raised = sum(r.errors for r in driver.rungs)
    if raised:
        problems.append(f"fleet.request raised {raised} times instead of containing the failure")
    completed = sum(r.issued - r.failed for r in driver.rungs)
    if stats["completed"] != completed:
        problems.append(f"fleet completed {stats['completed']}, the generator saw {completed}")
    if (highest_supported_percentile(ref_samples) or 0.0) < 0.99:
        problems.append(f"reference rate gave {ref_samples} samples, too few for p99")
    expect = _fastsim_reference(seed)
    for key, tol, got in (
        ("p50", MODEL_P50_TOL, hedge["hedge.model_p50_ms"]),
        ("p99", MODEL_P99_TOL, hedge["hedge.model_p99_ms"]),
    ):
        if abs(got - expect[key]) > tol * expect[key]:
            problems.append(
                f"model {key} {got:.4g} ms differs from fastsim {expect[key]:.4g} ms "
                f"by more than {tol:.0%}"
            )
    # Wall-clock timers can only fire late, never invent a reissue: the
    # measured rate may exceed the model's (a primary delayed past d by
    # event-loop lateness is reissued), but not the share of requests
    # whose coin planned a reissue, and not fall below the model's.
    rate = hedge["hedge.reissue_rate"]
    low = (1 - REISSUE_RATE_TOL) * expect["reissue_rate"]
    if not low <= rate <= hedge["hedge.planned_rate"]:
        problems.append(
            f"reissue rate {rate:.4f} outside [{low:.4f}, planned "
            f"{hedge['hedge.planned_rate']:.4f}] (fastsim {expect['reissue_rate']:.4f})"
        )
    return problems, expect


def _instrument(fleet, layers, frame_bytes: list) -> None:
    """Wrap the front door's layers (traced run only)."""
    layers.patch(fleet, "request", "fleet.request", "fleet")
    layers.patch(fleet.store, "get", "policystore.get", "policystore", mode="count")
    if not hasattr(fleet, "workers"):
        for shard in fleet.shards:
            layers.patch(shard.client, "request", "hedge.request", "hedge")
            layers.patch(shard.client.metrics, "record", "metrics.record",
                         "metrics", mode="timed")
        return
    from repro.serving import procfleet

    encode, decode = procfleet.encode_frame, procfleet.decode_payload

    def encode_counted(msg_type, body):
        frame = encode(msg_type, body)
        frame_bytes.append(len(frame))
        return frame

    def decode_counted(msg_type, payload):
        frame_bytes.append(len(payload) + 5)  # + length prefix and type byte
        return decode(msg_type, payload)

    layers.patch(procfleet, "encode_frame", "procfleet.encode", "procfleet",
                 mode="timed", inner=encode_counted)
    layers.patch(procfleet, "decode_payload", "procfleet.decode", "procfleet",
                 mode="timed", inner=decode_counted)
    layers.patch(procfleet.WorkerHandle, "alive", "procfleet.alive", "procfleet",
                 mode="count")
    for worker in fleet.workers:
        layers.patch(worker.shadow, "record", "metrics.record", "metrics",
                     mode="timed")


def _rss_now(fleet) -> dict:
    rss = {"self": probes.rss_mb()}
    for worker in getattr(fleet, "workers", ()):
        rss[worker.process.pid] = probes.rss_mb(worker.process.pid)
    return rss


def _peak_growth(baseline: dict) -> dict:
    return {pid: probes.peak_rss_mb(pid) - base for pid, base in baseline.items()}


def _pooled(rungs) -> dict:
    """Per-request columns of several rungs, concatenated."""
    out = {}
    for name in ("due", "sent", "done", "backlog", "ok", "model_ms",
                 "planned", "reissues", "reissue_won", "cancelled"):
        out[name] = [x for r in rungs for x in getattr(r, name)]
    return out


def measure(fleet, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run the serving workload on a built fleet; see the module doc."""
    baseline = _rss_now(fleet)
    driver = Driver(fleet, seed)
    layers = probes.Layers() if trace else None
    frame_bytes: list = []
    peak: dict = {}
    slice_s = seconds / REF_SLICES

    async def go():
        refs = [await driver.rung(REF_RPS, slice_s) for _ in range(REF_SLICES)]
        peak.update(_peak_growth(baseline))
        if not trace:
            return refs, None, None
        _instrument(fleet, layers, frame_bytes)
        try:
            traced = await driver.rung(REF_RPS, slice_s)
        finally:
            layers.restore()
        return refs, traced, await driver.ladder(RUNG_SHARE * seconds)

    refs, traced, best = asyncio.run(go())
    start = time.perf_counter()
    merged = fleet.metrics()
    merge_ms = (time.perf_counter() - start) * 1e3

    # The p50 comes from the slice the host disturbed least (see
    # REF_SLICES); CPU, the tail and the model statistics pool all slices.
    ref = min(refs, key=lambda r: r.steal_s)
    pool = _pooled(refs)
    hedge = _hedge_stats(pool, TIME_SCALE)
    problems, expect = _check(fleet, driver, len(pool["due"]), hedge, seed)
    completed = sum(r.issued - r.failed for r in driver.rungs)
    if merged.completed != completed:
        problems.append(f"merged metrics count {merged.completed} completions, the generator saw {completed}")

    lat = ref.latencies_ms()
    tail = sorted(
        (done - due) * 1e3 if ok else math.inf
        for due, done, ok in zip(pool["due"], pool["done"], pool["ok"])
    )
    ok = sum(r.issued - r.failed for r in refs)
    cpu = {k: sum(r.cpu_s[k] for r in refs) for k in ref.cpu_s}
    metrics = {
        "run_s": sum(r.wall_s for r in refs),
        "p50_ms": quantile(lat, 0.5),
        "cpu_ms_per_req": sum(cpu.values()) * 1e3 / ok,
        "peak_rss_mb": sum(peak.values()),
        "driver.wall_p99_ms": quantile(tail, 0.99),
        "driver.wall_p999_ms": quantile(tail, 0.999),
        "driver.max_rps_at_slo": best.offered_rps if best is not None else 0.0,
        "driver.late_p99_ms": quantile(sorted(
            (s - d) * 1e3 for s, d in zip(pool["sent"], pool["due"])), 0.99),
        "driver.backlog_max": max(pool["backlog"]),
        "metrics.merge_ms": merge_ms,
        **hedge,
    }
    if hasattr(fleet, "workers"):
        metrics["procfleet.frontdoor_cpu_us_per_req"] = cpu["frontdoor"] * 1e6 / ok
        metrics["procfleet.worker_cpu_us_per_req"] = sum(
            v for k, v in cpu.items() if k != "frontdoor") * 1e6 / ok
    if traced is not None:
        n = traced.issued
        calls, secs = layers.calls, layers.seconds
        metrics.update({
            "policystore.gets_per_req": layers.count("policystore.get") / n,
            "policystore.publishes": len(fleet.store.publishes),
            "metrics.record_us": secs["metrics.record"] * 1e6 / max(calls["metrics.record"], 1),
            "trace.overhead_run_s": traced.wall_s - ref.wall_s,
            "trace.overhead_p50_ms": quantile(traced.latencies_ms(), 0.5) - metrics["p50_ms"],
        })
        if hasattr(fleet, "workers"):
            frames = calls["procfleet.encode"] + calls["procfleet.decode"]
            metrics.update({
                "procfleet.frames_per_req": frames / n,
                "procfleet.frame_bytes_per_req": sum(frame_bytes) / n,
                "procfleet.encode_us": secs["procfleet.encode"] * 1e6 / max(calls["procfleet.encode"], 1),
                "procfleet.decode_us": secs["procfleet.decode"] * 1e6 / max(calls["procfleet.decode"], 1),
                "procfleet.liveness_checks_per_req": layers.count("procfleet.alive") / n,
            })
        else:
            self_times = layers.span_self_times("fleet.request")
            metrics["fleet.request_self_us"] = sum(self_times) * 1e6 / len(self_times)

    report = [
        f"reference rate {REF_RPS:g} req/s in {REF_SLICES} slices of {slice_s:g} s; "
        f"{len(tail)} requests: wall p99 {metrics['driver.wall_p99_ms']:.3f} ms, "
        f"p99.9 {metrics['driver.wall_p999_ms']:.3f} ms (highest percentile the "
        f"sample supports: p{100 * highest_supported_percentile(len(tail)):g})",
    ]
    for k, r in enumerate(refs):
        late, backlog = r.per_second()
        report += [
            f"  slice {k}: {r.issued} issued, {r.failed} failed, host steal {r.steal_s:.2f} s, "
            f"wall p50 {quantile(r.latencies_ms(), 0.5):.3f} ms"
            + ("  <- reported" if r is ref else ""),
            f"    lateness p99 per second (ms): {[round(x, 2) for x in late]}",
            f"    peak backlog per second: {backlog}",
        ]
    report.append(
        f"  model p50 {hedge['hedge.model_p50_ms']:.2f} / p99 {hedge['hedge.model_p99_ms']:.2f} ms, "
        f"reissue rate {hedge['hedge.reissue_rate']:.4f} (planned {hedge['hedge.planned_rate']:.4f}); "
        f"fastsim p50 {expect['p50']:.2f} / p99 {expect['p99']:.2f} ms, reissue rate {expect['reissue_rate']:.4f}"
    )
    if traced is not None:
        report.append(
            f"traced slice: wall p50 {quantile(traced.latencies_ms(), 0.5):.3f} ms, "
            f"host steal {traced.steal_s:.2f} s"
        )
    for rung in driver.rungs[REF_SLICES + (traced is not None):]:
        rl = rung.latencies_ms()
        report.append(
            f"rung {rung.rate:8.1f} req/s: offered {rung.offered_rps:8.1f}, "
            f"p99 {quantile(rl, 0.99):8.2f} ms, failed {rung.failed}, "
            f"aborted {rung.aborted}, lateness {[round(x, 1) for x in rung.per_second()[0]]} "
            f"-> {'pass' if rung.passes() else 'FAIL'}"
        )
    if layers is not None:
        report.append(f"spans: {', '.join(layers.export(probes.span_stem(workload, seed)))}")
    attempted = sum(r.issued for r in driver.rungs)
    failed = sum(r.failed for r in driver.rungs)
    return {
        "metrics": metrics,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "report": report,
        "info": {
            "rungs": [
                {"rate": r.rate, "offered_rps": r.offered_rps, "issued": r.issued,
                 "failed": r.failed, "aborted": r.aborted, "passed": r.passes(),
                 "steal_s": r.steal_s,
                 "p50_ms": quantile(r.latencies_ms(), 0.5),
                 "lateness_p99_ms_per_s": r.per_second()[0],
                 "backlog_max_per_s": r.per_second()[1]}
                for r in driver.rungs
            ],
            "reported_slice": refs.index(ref),
            "fail_frac": failed / attempted,
            "ref_samples": len(tail),
            "fastsim": expect,
        },
    }
