#!/usr/bin/env python3
"""The reissue stack's benchmark: one workload per run, one JSON result.

Run from the repository root::

    python3 perfbench/run.py --workload serve-loop --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1                  # every workload, a table
    python3 perfbench/run.py --compare A.json B.json         # two saved results

The last line of a workload run is the result: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric of BENCHMARK.json with
``--trace 0``, every per-layer metric with ``--trace 1``). The full record,
with the hardware fingerprint, is saved under ``.perfbench-out/``.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TMP_DIR = ".perfbench-tmp"
#: Set-up is timed this many times per run (the main process plus fresh
#: subprocesses); the median is reported.
SETUP_SAMPLES = 3
SUBPROCESS_TIMEOUT_S = 170

import probes  # noqa: E402  (stdlib only: keeps the set-up timing honest)
import stats  # noqa: E402


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _prepare(workload: str) -> str:
    """Run from the checkout root against its own ``src``; keep every
    temporary file inside the checkout. Returns the scratch directory."""
    os.chdir(ROOT)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"error: no program source at {src}")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src + os.pathsep + os.environ.get("PYTHONPATH", "")
    scratch = os.path.join(TMP_DIR, f"{workload}-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    # Relative: Unix socket paths under a deep checkout would pass the
    # 107-byte limit; worker processes inherit this working directory.
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = os.path.abspath(scratch)
    return scratch


def _check_source() -> None:
    import repro

    expected = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != expected:
        raise SystemExit(f"error: imported repro from {repro.__file__}, not {expected}")


# ---------------------------------------------------------------------------
# Set-up: import the program and build what the workload drives
# ---------------------------------------------------------------------------


def timed_setup(workload: str, seed: int):
    import offline
    import serve

    start = time.perf_counter()
    if workload == "serve-procs":
        state = serve.setup("procs", seed)
    elif workload == "serve-loop":
        state = serve.setup("loop", seed)
    elif workload == "fit-trace":
        state = offline.fit_setup()
    else:
        state = offline.figure_setup()
    return time.perf_counter() - start, state


def setup_sample_in_subprocess(workload: str, seed: int) -> float:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-sample"]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    spec = load_spec()
    scratch = _prepare(args.workload)
    try:
        if args.setup_sample:
            setup_s, state = timed_setup(args.workload, args.seed)
            _check_source()
            if args.workload.startswith("serve-"):
                import serve

                serve.close(state)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_samples = [
            setup_sample_in_subprocess(args.workload, args.seed)
            for _ in range(SETUP_SAMPLES - 1)
        ]
        if args.workload == "fit-trace":
            import offline

            csv_path = os.path.join(scratch, "trace.csv")
            offline.write_trace_csv(args.seed, csv_path)
        setup_s, state = timed_setup(args.workload, args.seed)
        setup_samples.append(setup_s)
        _check_source()
        fp = probes.fingerprint(args.seed)
        steal0 = probes.machine_steal_s()
        if args.workload.startswith("serve-"):
            import serve

            try:
                res = serve.measure(state, args.workload, args.seed,
                                    args.seconds, args.trace)
            finally:
                serve.close(state)
        elif args.workload == "fit-trace":
            import offline

            res = offline.measure_fit(csv_path, scratch, args.seed,
                                      args.seconds, args.trace)
        else:
            import offline

            res = offline.measure_figure(scratch, ROOT, args.seed, args.seconds,
                                         args.trace)
        res.setdefault("info", {})["steal_s"] = probes.machine_steal_s() - steal0
        metrics = dict(res["metrics"])
        metrics["setup_s"] = statistics.median(setup_samples)
        if args.trace:
            wanted = spec["per_layer"]
            # A layer the workload never calls did no work: it reads 0.
            values = {m["name"]: float(metrics.get(m["name"], 0.0)) for m in wanted}
        else:
            wanted = spec["end_to_end"]
            values = {m["name"]: float(metrics[m["name"]]) for m in wanted}
        problems = res["problems"]
        result = {
            "correct": not problems,
            "attempted": int(res["attempted"]),
            "failed": int(res["failed"]),
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in wanted
            },
        }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": fp,
            "setup_samples_s": setup_samples,
            "problems": problems,
            "info": res.get("info", {}),
            "result": result,
        }
        os.makedirs(probes.OUT_DIR, exist_ok=True)
        path = os.path.join(probes.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, default=str)
        for line in res.get("report", []):
            print(line)
        for problem in problems:
            print(f"CHECK FAILED: {problem}")
        print(f"host CPU steal during the run: {res['info']['steal_s']:.2f} s")
        print(f"fingerprint: {json.dumps(fp)}")
        print(f"record: {path}")
        print(json.dumps(result))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(TMP_DIR)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Every workload in one command, and comparing saved results
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    spec = load_spec()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    results, status = {}, 0
    for workload in [w["name"] for w in spec["workloads"]]:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{workload}] {line}")
        try:
            results[workload] = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"[{workload}] no result (exit {proc.returncode}): {proc.stderr.strip()[-800:]}")
            status = 1
            continue
        if proc.returncode != 0 or not results[workload]["correct"]:
            status = 1
    names = list(results)
    print()
    print(f"{'metric':<36s} {'unit':<7s} {'better':<7s} " + " ".join(f"{n:>13s}" for n in names))
    for m in metrics:
        cells = " ".join(f"{results[n]['metrics'][m['name']]['value']:>13.5g}" for n in names)
        print(f"{m['name']:<36s} {m['unit']:<7s} {m.get('better', ''):<7s} {cells}")
    print(f"{'correct':<52s} " + " ".join(f"{str(results[n]['correct']):>13s}" for n in names))
    print(f"{'failed/attempted':<52s} " + " ".join(
        f"{results[n]['failed']:>6d}/{results[n]['attempted']:<6d}" for n in names))
    return status


def compare(paths) -> int:
    """Print metric ratios of two saved records; refuse differing machines."""
    records = []
    for path in paths:
        with open(path) as fh:
            records.append(json.load(fh))
    a, b = records
    mismatch = stats.fingerprint_mismatch(a["fingerprint"], b["fingerprint"])
    if mismatch:
        print(f"refused: fingerprints differ in {', '.join(mismatch)}", file=sys.stderr)
        return 2
    if (a["workload"], a["trace"]) != (b["workload"], b["trace"]):
        print("refused: the records are of different workloads or modes", file=sys.stderr)
        return 2
    for name, entry in a["result"]["metrics"].items():
        va, vb = entry["value"], b["result"]["metrics"][name]["value"]
        ratio = f"{vb / va:8.3f}x" if va else "     n/a"
        print(f"{name:<36s} {va:>13.5g} {vb:>13.5g} {ratio}")
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload is required (or --all / --compare)")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
