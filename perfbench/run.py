"""The repository benchmark: crawl, search, analyze and serve workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload <crawl|search|analyze|serve> \\
        --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --self-check

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` for
one workload with nothing traced.  ``--trace 1`` is the separate traced
run: it times every layer from outside, through its public functions,
on every workload's inputs, and reports the per-layer metrics (the same
full set whichever workload is named).  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it name each metric with
its unit, and a fuller record (host, named metrics, spans) is written
to ``.perfbench-work/``.  The exit code is 1 when a correctness check
fails.

``--self-check`` runs all four workloads end to end at tiny sizes, plus
the traced run, checks that the emitted metric names are exactly those
of ``BENCHMARK.json``, and checks that a tampered serve reply is caught.
"""

from __future__ import annotations

import time

PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import batch  # noqa: E402
from common import (  # noqa: E402
    BENCH_DIR,
    ROOT,
    SETUP_SAMPLES,
    SIZES,
    SRC,
    WORK_DIR,
    Child,
    Sizes,
    host_record,
    peak_rss_mb,
    quantile,
    ref_loop_ms,
)

WORKLOADS = ("crawl", "search", "analyze", "serve")

#: A round runs at least this many operations even past its share of
#: ``--seconds``: a crawl takes 3-4 s, and a median of three crawls per
#: run moved with every burst of load on the host.
MIN_OPS_PER_ROUND = 2

#: What one unit of ``throughput_per_s`` is on each workload, and the
#: name each end-to-end metric goes by there.
NAMES = {
    "crawl": ("client-days", {
        "throughput_per_s": "crawl_client_days_per_s",
        "cpu_ms_per_op": "crawl_cpu_ms_per_client_day",
        "latency_p50_ms": "crawl_wall_p50_ms",
        "latency_p90_ms": "crawl_wall_p90_ms",
    }),
    "search": ("requests", {
        "throughput_per_s": "search_requests_per_s",
        "cpu_ms_per_op": "search_cpu_ms_per_request",
        "latency_p50_ms": "search_sweep_p50_ms",
        "latency_p90_ms": "search_sweep_p90_ms",
    }),
    "analyze": ("snapshots", {
        "throughput_per_s": "analyze_snapshots_per_s",
        "cpu_ms_per_op": "analyze_cpu_ms_per_snapshot",
        "latency_p50_ms": "analyze_pass_p50_ms",
        "latency_p90_ms": "analyze_pass_p90_ms",
    }),
    "serve": ("requests", {
        "throughput_per_s": "serve_saturation_rps",
        "cpu_ms_per_op": "serve_cpu_ms_per_req",
        "latency_p50_ms": "serve_p50_ms",
        "latency_p90_ms": "serve_p90_ms",
    }),
}

UNITS = {
    "throughput_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def p90(values) -> float:
    return quantile(values, 0.90)


def _metrics(values) -> dict:
    return {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}


def named(workload: str, metrics: dict) -> dict:
    """The metrics under the names they go by on ``workload``."""
    aliases = NAMES[workload][1]
    return {aliases.get(name, f"{workload}_{name}"): m for name, m in metrics.items()}


def print_named(workload: str, metrics: dict) -> None:
    unit_name = NAMES[workload][0]
    for (alias, m), name in zip(named(workload, metrics).items(), metrics):
        note = f" ({unit_name})" if name == "throughput_per_s" else ""
        print(f"{workload}: {alias} = {m['value']:.6g} {m['unit']}{note}  [{name}]")


# ----------------------------------------------------------------------
# Batch workloads: crawl, search, analyze


def run_batch(workload: str, seed: int, seconds: float, size: str) -> dict:
    """``SETUP_SAMPLES`` rounds of: set the workload's process up, then
    run timed operations in it for an equal share of ``seconds``.

    Spreading the measurement over the rounds spreads it over more of
    the host's time, so a burst of load from other tenants slows a share
    of the operations rather than all of them.  Each figure is a median
    over operations of one kind: a job (one operation of each kind) is
    the sum of the kinds' medians.
    """
    setups, references, results = [], [], []
    rss = 0.0
    for round_ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        argv = [os.path.join(BENCH_DIR, "batch.py"), workload, str(seed), size]
        if workload == "analyze":
            batch.build_store_child(size)
            argv.append(batch.store_path())
        child = Child(argv, f"{workload}.log")
        try:
            references.append(child.wait_ready())
            setups.append(time.perf_counter() - start)
            stop = time.perf_counter() + seconds / SETUP_SAMPLES
            ops = 0
            while True:
                result = child.call(f"run {len(results)}")
                result["round"] = round_
                results.append(result)
                ops += 1
                kinds = max(1, len(references[-1]))
                if time.perf_counter() >= stop and ops >= MIN_OPS_PER_ROUND and (
                    round_ < SETUP_SAMPLES - 1 or len(results) >= 2 * kinds
                ):
                    break
            rss = max(rss, peak_rss_mb(child.pid))
        finally:
            child.close()
            if workload == "analyze":
                shutil.rmtree(batch.store_path(), ignore_errors=True)

    # Checks, after timing: every operation reproduced its kind's output
    # from its process's reference run (a crawl has none: it must match
    # the run's first crawl), and every set-up agreed.
    first = {}
    for r in results:
        first.setdefault(r["kind"], r["digest"])
    failed = sum(
        r["digest"] != references[r["round"]].get(r["kind"], first[r["kind"]])
        for r in results
    )
    problems = []
    if failed:
        problems.append(f"{failed} of {len(results)} operations changed output")
    if any(ref != references[0] for ref in references):
        problems.append("set-ups disagree on the reference output")
    by_kind = {}
    for r in results:
        by_kind.setdefault(r["kind"], []).append(r)
    units = sum(rs[0]["units"] for rs in by_kind.values())

    def job(stat, field):
        """One job (an operation of each kind), from each kind's ``stat``."""
        return sum(stat([r[field] for r in rs]) for rs in by_kind.values())

    return {
        "attempted": len(results),
        "failed": failed,
        "problems": problems,
        "values": {
            "throughput_per_s": units / job(statistics.median, "wall_s"),
            "cpu_ms_per_op": job(statistics.median, "cpu_s") * 1000.0 / units,
            "latency_p50_ms": job(statistics.median, "wall_s") * 1000.0,
            "latency_p90_ms": job(p90, "wall_s") * 1000.0,
            "peak_rss_mb": rss,
            "setup_s": statistics.median(setups),
        },
        "detail": {"units": units, "results": results, "setups_s": setups},
    }


# ----------------------------------------------------------------------
# serve


def run_serve_workload(
    seed: int, seconds: float, sizes: Sizes, started: float, tamper: bool = False
) -> dict:
    """``SETUP_SAMPLES`` rounds of: start and publish a server, then run
    its segments (together they take about ``seconds``).

    ``started`` is when the benchmark process started: the plan's share
    of set-up runs from there (imports, trace generation, frame
    encoding), and each round's server set-up is added on.
    """
    import serve

    plan = serve.build_plan(seed, sizes, seconds)
    plan_s = time.perf_counter() - started
    setups, problems, readings, replies = [], [], [], []
    timeouts = 0
    for _ in range(SETUP_SAMPLES):
        server, driver, _publish_s, setup_s, bad = serve.start_server(
            seed, plan, sizes
        )
        try:
            setups.append(setup_s)
            problems += bad
            readings += serve.run_segments(server, driver, plan, sizes)
        finally:
            driver.close()
            code = server.stop()
        if code != 0:
            problems.append(f"repro serve exited {code} instead of draining")
        replies += driver.replies
        timeouts += driver.timeouts
    figures = serve.summarize(readings)
    failed, bad = serve.check_replies(plan, replies, tamper=tamper)
    problems += bad
    if timeouts:
        problems.append(f"{timeouts} requests timed out")
    return {
        "attempted": len(replies) + timeouts,
        "failed": failed + timeouts,
        "problems": problems,
        "values": {
            "throughput_per_s": figures["saturation_rps"],
            "cpu_ms_per_op": figures["cpu_ms_per_req"],
            "latency_p50_ms": figures["p50_ms"],
            "latency_p90_ms": figures["p90_ms"],
            "peak_rss_mb": figures["peak_rss_mb"],
            "setup_s": plan_s + statistics.median(setups),
        },
        "detail": dict(
            figures,
            plan_s=plan_s,
            server_setups_s=setups,
            replies_checked=len(replies),
        ),
    }


# ----------------------------------------------------------------------
# Output


def emit(workload: str, seed: int, trace: int, outcome: dict, host: dict) -> int:
    """Print the named metrics, write the full record, print the result
    line; returns the exit code."""
    failed = outcome["failed"]
    correct = failed == 0 and not outcome["problems"]
    metrics = outcome["metrics"]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "host": host,
        "correct": correct,
        "problems": outcome["problems"],
        "metrics": metrics,
        "detail": outcome.get("detail", {}),
    }
    if trace == 0:
        record["named"] = named(workload, metrics)
        print_named(workload, metrics)
    else:
        record["spans"] = outcome.get("spans", [])
        for name, m in metrics.items():
            print(f"{name} = {m['value']:.6g} {m['unit']}")
    for problem in outcome["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"host: {json.dumps(host, sort_keys=True)}")
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def measure(workload: str, seed: int, seconds: float, trace: int, size: str,
            started: float, tamper: bool = False) -> dict:
    sizes = SIZES[size]
    if trace:
        import layers

        return layers.trace_all(seed, seconds, sizes, size)
    if workload == "serve":
        outcome = run_serve_workload(seed, seconds, sizes, started, tamper=tamper)
    else:
        outcome = run_batch(workload, seed, seconds, size)
    outcome["metrics"] = _metrics(outcome.pop("values"))
    return outcome


def run_one(workload, seed, seconds, trace, size="full") -> int:
    host = host_record()
    host["ref_loop_ms_before"] = ref_loop_ms()
    outcome = measure(workload, seed, seconds, trace, size, PROCESS_T0)
    host["ref_loop_ms_after"] = ref_loop_ms()
    host["loadavg_after"] = list(os.getloadavg())
    return emit(workload, seed, trace, outcome, host)


def self_check() -> int:
    """Every workload end to end at tiny sizes, the traced run, the
    metric names against BENCHMARK.json, and a tampered serve reply."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want_e2e = {m["name"] for m in spec["end_to_end"]}
    want_layer = {m["name"] for m in spec["per_layer"]}
    ok = True
    for workload in WORKLOADS:
        outcome = measure(workload, 1, 1.0, 0, "tiny", time.perf_counter())
        ok &= outcome["failed"] == 0 and not outcome["problems"]
        for problem in outcome["problems"]:
            print(f"CHECK FAILED: {workload}: {problem}")
        if set(outcome["metrics"]) != want_e2e:
            print(f"CHECK FAILED: {workload} metrics differ from BENCHMARK.json")
            ok = False
        print_named(workload, outcome["metrics"])
    traced = measure("crawl", 1, 1.0, 1, "tiny", time.perf_counter())
    ok &= traced["failed"] == 0 and not traced["problems"]
    for problem in traced["problems"]:
        print(f"CHECK FAILED: traced: {problem}")
    if set(traced["metrics"]) != want_layer:
        missing = sorted(want_layer - set(traced["metrics"]))
        extra = sorted(set(traced["metrics"]) - want_layer)
        print(f"CHECK FAILED: per-layer metrics differ: missing={missing} "
              f"extra={extra}")
        ok = False
    for name, m in traced["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    tampered = measure(
        "serve", 1, 1.0, 0, "tiny", time.perf_counter(), tamper=True
    )
    if tampered["failed"] == 0:
        print("CHECK FAILED: a tampered serve reply went unnoticed")
        ok = False
    else:
        print(f"tampered serve reply caught ({tampered['failed']} failed)")
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
