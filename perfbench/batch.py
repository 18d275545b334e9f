"""The batch workloads' process under test: crawl, search and analyze.

``run.py`` starts this file as a child, once per set-up sample::

    python3 perfbench/batch.py <crawl|search|analyze> <seed> <full|tiny> [store]

The child sets up (imports, inputs, warm-up), prints one ``ready`` line,
then runs one timed operation per ``run`` line on stdin and answers with
its wall time, CPU time, units of work and output digest.  Running each
workload in its own process keeps its peak memory and CPU apart from the
benchmark's own bookkeeping.

``build-store <full|tiny> <path>`` is the analyze workload's store
builder: it generates the temporal trace and writes it as a trace store,
so the analysis process never holds the generator's memory.

Data sets (the crawled network, the static and temporal traces) are
generated from the paper's seed, so every run does the same amount of
work; ``<seed>`` drives what a run samples from its data set: the
crawler's browse order, the search simulator's request streams and
strategy draws, and the analysis's sample of client pairs.  Seeding the
data sets too made the work itself vary by up to 15% between seeds
(the number of replicas, and which index servers answer nickname
queries, depend on the generator's seed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    CHILD_TIMEOUT_S,
    ROOT,
    SIZES,
    WORK_DIR,
    Sizes,
    child_env,
    digest,
    ensure_src_on_path,
    child_loop,
)

ensure_src_on_path()

#: The six search configurations of one sweep.  lru@5 and lru@20 bound
#: the list-size axis; history and random carry the costliest strategy
#: upkeep; two-hop and weighted requests take the other request paths.
SEARCH_CONFIGS = (
    ("lru5", dict(strategy="lru", list_size=5)),
    ("lru20", dict(strategy="lru", list_size=20)),
    ("history20", dict(strategy="history", list_size=20)),
    ("random20", dict(strategy="random", list_size=20)),
    ("lru_two_hop10", dict(strategy="lru", list_size=10, two_hop=True)),
    ("lru_weighted20", dict(strategy="lru", list_size=20, weighted_requests=True)),
)

#: The streaming analysis of one pass, as in ``benchmarks/bench_store.py``.
TOP_K = 5
OVERLAP_LEVELS = [1, 2, 5, 10]
MAX_PAIRS = 200


def data_seed() -> int:
    """The seed every data set is generated from: the paper's."""
    from repro.runtime.scale import DEFAULT_SEED

    return DEFAULT_SEED


def scale_of(sizes: Sizes):
    from repro.runtime.scale import Scale

    return Scale[sizes.scale.upper()]


# ----------------------------------------------------------------------
# crawl


def crawl_network_config(sizes: Sizes):
    """bench_profile's crawl workload at ``sizes.crawl_clients`` clients:
    15 files per client over ``sizes.crawl_days`` days."""
    from repro.edonkey.network import NetworkConfig
    from repro.runtime.scale import Scale, workload_config

    clients = sizes.crawl_clients
    files = max(clients * 15, 500)
    workload = dataclasses.replace(
        workload_config(Scale.SMALL),
        num_clients=clients,
        num_files=files,
        days=sizes.crawl_days,
        mainstream_pool_size=min(clients, files),
    )
    return NetworkConfig(workload=workload)


def server_messages(network) -> int:
    """Messages the crawl sent to index servers."""
    from repro.edonkey.protocol import SERVER_HANDLERS

    names = {cls.__name__ for cls in SERVER_HANDLERS}
    return sum(n for name, n in network.stats.sent.items() if name in names)


def crawl_digest(trace, crawler) -> str:
    snapshots = [
        [day, sorted([cid, sorted(files)] for cid, files in snaps.items())]
        for day, snaps in trace.iter_day_snapshots()
    ]
    return digest(
        {
            "snapshots": snapshots,
            "stats": crawler.stats.as_dict(),
            "messages": crawler.network.stats.sent,
        }
    )


def crawl_once(seed: int, sizes: Sizes):
    """One whole crawl, network build included (users pay it every crawl)."""
    from repro.edonkey.crawler import Crawler, CrawlerConfig
    from repro.edonkey.network import build_network

    network = build_network(crawl_network_config(sizes), seed=data_seed())
    crawler = Crawler(network, CrawlerConfig(days=sizes.crawl_days), seed=seed)
    return crawler.crawl(), crawler


# ----------------------------------------------------------------------
# search


def static_trace(sizes: Sizes):
    from repro.runtime.cache import TraceCache

    return TraceCache().static(scale_of(sizes), data_seed())


def search_config(name_kwargs, seed: int):
    from repro.core.search import SearchConfig

    return SearchConfig(seed=seed, **name_kwargs)


def result_counts(result) -> list:
    rates = result.rates
    return [
        rates.requests,
        rates.hits,
        rates.one_hop_hits,
        rates.two_hop_hits,
        rates.contributions,
        result.unresolvable,
        sum(result.load.messages.values()),
        result.num_peers,
        result.num_files,
    ]


def search_sweep(static, seed: int, obs=None):
    """One sweep of every config; returns ``{config: counts}``."""
    from repro.core.search import simulate_search

    return {
        name: result_counts(
            simulate_search(static, search_config(kwargs, seed), obs=obs)
        )
        for name, kwargs in SEARCH_CONFIGS
    }


# ----------------------------------------------------------------------
# analyze


def build_store(sizes: Sizes, path: str) -> dict:
    from repro.runtime.scale import workload_config
    from repro.trace.store import TraceStoreWriter
    from repro.workload.generator import SyntheticWorkloadGenerator

    start = time.perf_counter()
    trace = SyntheticWorkloadGenerator(
        config=workload_config(scale_of(sizes)), seed=data_seed()
    ).generate()
    generate_s = time.perf_counter() - start
    start = time.perf_counter()
    with TraceStoreWriter.create(path) as writer:
        writer.append_trace(trace)
    return {
        "snapshots": trace.num_snapshots,
        "generate_s": generate_s,
        "write_s": time.perf_counter() - start,
    }


def store_path() -> str:
    return os.path.join(WORK_DIR, "analyze-store")


def build_store_child(size: str) -> dict:
    """Write the analyze workload's trace store from a child process."""
    path = store_path()
    shutil.rmtree(path, ignore_errors=True)
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "batch.py"),
         "build-store", size, path],
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if out.returncode != 0:
        raise RuntimeError(f"store build failed:\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.splitlines()[-1])


def analyze_digest(output) -> str:
    """bench_store's ``_digest_series`` of the series, and the max spread."""
    series, max_spread = output
    payload = json.dumps([[s.name, list(s.xs), list(s.ys)] for s in series])
    return f"{hashlib.sha256(payload.encode()).hexdigest()[:16]}/{max_spread!r}"


def analyze_pass(path: str, seed: int, timings=None):
    """Open the store and run the three streaming analyses.

    Returns ``(snapshots, (series, max_spread))``.  ``timings`` (a dict),
    when given, receives each step's wall time.
    """
    from repro.analysis.streaming import (
        streaming_max_spread_fraction,
        streaming_overlap_evolution,
        streaming_rank_evolution,
    )
    from repro.trace.store import open_store

    steps = [time.perf_counter()]
    store = open_store(path)
    try:
        first = store.days()[0]
        snapshots = store.num_snapshots
        steps.append(time.perf_counter())
        series = streaming_rank_evolution(store, reference_day=first, top_k=TOP_K)
        steps.append(time.perf_counter())
        series += streaming_overlap_evolution(
            store,
            overlap_levels=OVERLAP_LEVELS,
            max_pairs_per_level=MAX_PAIRS,
            seed=seed,
        )
        steps.append(time.perf_counter())
        spread = streaming_max_spread_fraction(store)
        steps.append(time.perf_counter())
    finally:
        store.close()
    if timings is not None:
        for name, (a, b) in zip(
            ("open_s", "rank_evolution_s", "overlap_evolution_s", "max_spread_s"),
            zip(steps, steps[1:]),
        ):
            timings[name] = b - a
    return snapshots, (series, spread)


# ----------------------------------------------------------------------
# The child process


def _timed(kind, op, fingerprint):
    """Run ``op`` (returning ``(units, output)``) under the clocks; the
    output's digest is taken after they stop."""
    wall0, cpu0 = time.perf_counter(), time.process_time()
    units, output = op()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {
        "kind": kind,
        "wall_s": wall,
        "cpu_s": cpu,
        "units": units,
        "digest": fingerprint(output),
    }


def main(argv) -> int:
    mode = argv[0]
    if mode == "build-store":
        print(json.dumps(build_store(SIZES[argv[1]], argv[2])), flush=True)
        return 0
    seed, sizes = int(argv[1]), SIZES[argv[2]]
    # ``next_op(i)`` returns the run's ``i``-th operation as
    # ``(kind, operation)``; an operation returns ``(units, output)`` and
    # ``fingerprint(output)`` digests the output.  The reference digests
    # of the set-up are keyed by kind.
    if mode == "crawl":
        client_days = sizes.crawl_clients * sizes.crawl_days

        def crawl():
            return client_days, crawl_once(seed, sizes)

        def fingerprint(output):
            return crawl_digest(*output)

        def next_op(_i):
            return "crawl", crawl

        def setup():
            # Imports and lazy first-call costs, on a crawl small enough
            # to stay out of the way; the network build of the measured
            # crawl stays inside its timed operation.
            crawl_once(seed, SIZES["tiny"])
            return {}

    elif mode == "search":
        from repro.core.search import simulate_search

        static = None

        def config_op(kwargs):
            def run():
                result = simulate_search(static, search_config(kwargs, seed))
                return result.rates.requests, result

            return run

        def fingerprint(output):
            return digest(result_counts(output))

        def next_op(i):
            name, kwargs = SEARCH_CONFIGS[i % len(SEARCH_CONFIGS)]
            return name, config_op(kwargs)

        def setup():
            nonlocal static
            static = static_trace(sizes)
            static.compiled()
            # The first sweep pays lazy first-call costs; it belongs to
            # set-up, and its digests are the reference for the timed ones.
            return {
                name: fingerprint(config_op(kwargs)()[1])
                for name, kwargs in SEARCH_CONFIGS
            }

    elif mode == "analyze":
        path = argv[3]

        def analyze():
            return analyze_pass(path, seed)

        fingerprint = analyze_digest

        def next_op(_i):
            return "pass", analyze

        def setup():
            return {"pass": fingerprint(analyze()[1])}

    else:
        raise SystemExit(f"unknown mode {mode!r}")

    child_loop(setup, lambda i: _timed(*next_op(i), fingerprint))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
