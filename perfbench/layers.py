"""The traced run: per-layer metrics, each layer timed from outside.

Every layer is driven through its public functions and timed by a span
recorded here, in the benchmark, around the call; nothing inside the
program is instrumented except the search simulator's existing
``Observer`` spans, which are switched on for one sweep.  Each metric
name says which layer it measures; ``BENCHMARK.json`` lists them all.

The traced run profiles every workload's layers whichever workload is
named, so one traced run gives the whole table.  Each workload's
tracing overhead is its traced against its untraced end-to-end time.
"""

from __future__ import annotations

import collections
import contextlib
import os
import shutil
import time

import batch
import serve
from common import WORK_DIR, Sizes, ref_loop_ms


class Spans:
    """In-memory spans: name, start, end and the enclosing span."""

    def __init__(self) -> None:
        self.records = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
        }
        self._stack.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records if r["name"] == name)


class Outcome:
    """Collects metrics and check results of the traced run."""

    def __init__(self) -> None:
        self.metrics = {}
        self.attempted = 0
        self.problems = []

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(problem)


# ----------------------------------------------------------------------
# crawl: workload.generator, edonkey.network / crawler / server


def trace_crawl(seed: int, sizes: Sizes, spans: Spans, out: Outcome) -> None:
    from repro.edonkey.crawler import Crawler, CrawlerConfig
    from repro.edonkey.network import build_network
    from repro.trace.model import Trace
    from repro.workload.generator import SyntheticWorkloadGenerator

    config = batch.crawl_network_config(sizes)
    batch.crawl_once(seed, batch.SIZES["tiny"])  # imports, first calls

    with spans.span("workload.generator.build") as s:
        SyntheticWorkloadGenerator(
            config=config.workload, seed=batch.data_seed()
        ).build()
    out.put("crawl.generator_build_s", s["end"] - s["start"], "s")

    with spans.span("crawl.untraced") as s:
        trace, crawler = batch.crawl_once(seed, sizes)
    untraced_s = s["end"] - s["start"]
    untraced_digest = batch.crawl_digest(trace, crawler)
    # Drop the first crawl before the second: its network kept alive
    # slowed the second crawl by a fifth (a larger heap for the GC).
    del trace, crawler

    # The crawl again, phase by phase through the public methods, in the
    # order Crawler.crawl runs them.
    phases = {
        "build_network": "edonkey.network.build_network",
        "refresh_servers": "edonkey.crawler.refresh_server_list",
        "sweep_nicknames": "edonkey.crawler.sweep_nicknames",
        "browse": "edonkey.crawler.browse_all",
        "advance_day": "edonkey.network.advance_day",
    }
    crawl_config = CrawlerConfig(days=sizes.crawl_days)
    with spans.span("crawl.traced") as wall:
        with spans.span(phases["build_network"]):
            network = build_network(config, seed=batch.data_seed())
        crawler = Crawler(network, crawl_config, seed=seed)
        trace = Trace()
        with spans.span(phases["refresh_servers"]):
            crawler.refresh_server_list()
        for day_offset in range(sizes.crawl_days):
            if day_offset % crawl_config.refresh_users_every == 0:
                with spans.span(phases["sweep_nicknames"]):
                    crawler.sweep_nicknames()
            budget = crawl_config.budget_on(day_offset)
            with spans.span(phases["browse"]):
                crawler.browse_all(trace, network.day, budget)
            with spans.span(phases["advance_day"]):
                network.advance_day()
    wall_s = wall["end"] - wall["start"]
    phase_s = {key: spans.total(name) for key, name in phases.items()}
    for key, seconds in phase_s.items():
        out.put(f"crawl.{key}_s", seconds, "s")
    stats = crawler.stats
    out.put("crawl.wall_s", wall_s, "s")
    out.put("crawl.phase_sum_ratio", sum(phase_s.values()) / wall_s, "ratio")
    out.put("crawl.trace_overhead_ratio", wall_s / untraced_s, "ratio")
    out.put("crawl.nickname_queries", stats.nickname_queries, "count")
    out.put("crawl.snapshots", trace.num_snapshots, "count")
    out.put("crawl.server_messages", batch.server_messages(network), "count")
    out.put("crawl.browse_success_ratio", stats.browse_success_rate, "ratio")
    out.put(
        "crawl.query_users_us",
        phase_s["sweep_nicknames"] * 1e6 / stats.nickname_queries,
        "us",
    )
    out.check(
        batch.crawl_digest(trace, crawler) == untraced_digest,
        "the phase-by-phase crawl differs from Crawler.crawl",
    )
    out.check(
        abs(sum(phase_s.values()) / wall_s - 1.0) <= 0.05,
        "crawl phases do not add up to the crawl's wall time",
    )


# ----------------------------------------------------------------------
# search: trace.compiled, core.requests / vectorized / search / neighbours


def trace_search(seed: int, sizes: Sizes, spans: Spans, out: Outcome) -> None:
    from repro.core.requests import iter_requests_compiled
    from repro.core.search import simulate_search
    from repro.obs import Observer
    from repro.util.rng import RngStream

    with spans.span("trace.static") as s:
        static = batch.static_trace(sizes)
    out.put("search.static_trace_s", s["end"] - s["start"], "s")
    with spans.span("trace.compiled.compile") as s:
        compiled = static.compiled()
    out.put("search.compile_s", s["end"] - s["start"], "s")

    reference = batch.search_sweep(static, seed)  # warm-up: lazy first calls

    for label, weighted in (("uniform", False), ("weighted", True)):
        with spans.span(f"core.requests.{label}") as s:
            drawn = sum(
                1
                for _ in iter_requests_compiled(
                    compiled,
                    RngStream(seed, "perfbench-draw"),
                    weighted_by_cache=weighted,
                )
            )
        out.put(f"search.request_draw_s.{label}", s["end"] - s["start"], "s")
        out.check(drawn > 0, f"the {label} request stream is empty")

    untraced = {}
    with spans.span("search.untraced") as sweep:
        for name, kwargs in batch.SEARCH_CONFIGS:
            with spans.span(f"core.search.{name}") as s:
                result = simulate_search(static, batch.search_config(kwargs, seed))
            untraced[name] = batch.result_counts(result)
            out.put(f"search.config_s.{name}", s["end"] - s["start"], "s")
    untraced_s = sweep["end"] - sweep["start"]

    obs = Observer()
    with spans.span("search.traced") as sweep:
        traced = batch.search_sweep(static, seed, obs=obs)
    traced_s = sweep["end"] - sweep["start"]

    for phase in ("one_hop", "two_hop", "fallback"):
        stat = obs.span_stats.get(f"search/{phase}")
        out.put(f"search.{phase}_s", stat.total_s if stat else 0.0, "s")
    counters = obs.counters
    requests = counters["search/requests"]
    probes = obs.histograms["search/probes_per_request"].total
    out.put("search.requests", requests, "count")
    out.put("search.hit_ratio", counters["search/hits"] / requests, "ratio")
    out.put("search.fallbacks", counters["search/fallbacks"], "count")
    out.put("search.hits_per_probe", counters["search/hits"] / probes, "ratio")
    out.put("search.trace_overhead_ratio", traced_s / untraced_s, "ratio")
    out.check(untraced == reference, "search counts changed between passes")
    out.check(traced == reference, "the observed search sweep changed counts")


# ----------------------------------------------------------------------
# analyze: trace.store, analysis.streaming


def trace_analyze(
    seed: int, sizes: Sizes, size: str, spans: Spans, out: Outcome
) -> None:
    with spans.span("trace.store.build"):
        built = batch.build_store_child(size)
    path = batch.store_path()
    try:
        out.put("analyze.store_write_s", built["write_s"], "s")
        out.put(
            "analyze.store_bytes",
            sum(
                os.path.getsize(os.path.join(path, name))
                for name in os.listdir(path)
            ),
            "B",
        )
        _n, reference = batch.analyze_pass(path, seed)  # warm-up
        with spans.span("analyze.untraced") as s:
            _n, untraced = batch.analyze_pass(path, seed)
        untraced_s = s["end"] - s["start"]
        timings = {}
        with spans.span("analyze.traced") as s:
            _n, traced = batch.analyze_pass(path, seed, timings)
        traced_s = s["end"] - s["start"]
        digests = {batch.analyze_digest(x) for x in (reference, untraced, traced)}
    finally:
        shutil.rmtree(path, ignore_errors=True)
    for name, seconds in timings.items():
        out.put(f"analyze.{name}", seconds, "s")
    out.put("analyze.trace_overhead_ratio", traced_s / untraced_s, "ratio")
    out.check(len(digests) == 1, "streaming analysis output changed between passes")


# ----------------------------------------------------------------------
# serve: edonkey.wire / protocol, service.server


def trace_serve(
    seed: int, seconds: float, sizes: Sizes, spans: Spans, out: Outcome
) -> None:
    with spans.span("serve.plan"):
        plan = serve.build_plan(seed, sizes, seconds)
    with spans.span("serve.setup"):
        server, driver, publish_s, _setup_s, bad = serve.start_server(
            seed, plan, sizes
        )
    try:
        with spans.span("serve.phases"):
            phases = serve.summarize(
                serve.run_segments(server, driver, plan, sizes)
            )
    finally:
        driver.close()
        code = server.stop()
    with spans.span("serve.replay"):
        expected, costs = serve.replay(plan, range(len(plan.frames)), timed=True)
    for problem in bad:
        out.check(False, problem)
    out.check(code == 0, f"repro serve exited {code} instead of draining")
    out.check(driver.timeouts == 0, f"{driver.timeouts} requests timed out")
    failed, bad = serve.check_replies(plan, driver.replies, expected)
    out.check(failed == 0, f"{failed} serve replies differ from the replay: {bad}")

    out.put("serve.publish_s", publish_s, "s")
    total = sum(costs[k]["count"] for k in serve.KINDS)
    out.put(
        "serve.request_decode_us",
        sum(costs[k]["request_decode_us"] * costs[k]["count"] for k in serve.KINDS)
        / total,
        "us",
    )
    for kind in serve.KINDS:
        out.put(f"serve.handle_us.{kind}", costs[kind]["handle_us"], "us")
        out.put(f"serve.encode_us.{kind}", costs[kind]["encode_us"], "us")
        out.put(f"serve.decode_us.{kind}", costs[kind]["decode_us"], "us")
        out.put(f"serve.reply_bytes.{kind}", costs[kind]["reply_bytes"], "B")
    # What the server spent per request beyond decode + handle + encode,
    # weighted by the closed-loop slice's mix: the asyncio and stream share.
    sent = collections.Counter(plan.kinds[i] for i in plan.a_slice)
    n_sent = len(plan.a_slice)
    codec_handle_ms = sum(
        sent.get(kind, 0) / n_sent * (
            costs[kind]["request_decode_us"]
            + costs[kind]["handle_us"]
            + costs[kind]["encode_us"]
        ) / 1000.0
        for kind in serve.KINDS
    )
    out.put("serve.loop_overhead_ms", phases["cpu_ms_per_req"] - codec_handle_ms, "ms")
    out.put("serve.driver_cpu_ms_per_req", phases["driver_cpu_ms_per_req"], "ms")
    out.put("serve.send_lag_p99_ms", phases["send_lag_p99_ms"], "ms")
    out.put("serve.open.p99_ms", phases["p99_ms"], "ms")
    out.put("serve.backlog_max", phases["backlog_max"], "count")


def trace_all(seed: int, seconds: float, sizes: Sizes, size: str) -> dict:
    spans = Spans()
    out = Outcome()
    out.put("host.ref_loop_ms.before", ref_loop_ms(), "ms")
    out.put("host.loadavg", os.getloadavg()[0], "load")
    os.makedirs(WORK_DIR, exist_ok=True)
    trace_crawl(seed, sizes, spans, out)
    trace_search(seed, sizes, spans, out)
    trace_analyze(seed, sizes, size, spans, out)
    trace_serve(seed, seconds, sizes, spans, out)
    out.put("host.ref_loop_ms.after", ref_loop_ms(), "ms")
    return {
        "attempted": out.attempted,
        "failed": len(out.problems),
        "problems": out.problems,
        "metrics": dict(sorted(out.metrics.items())),
        "spans": spans.records,
    }
