"""The serve workload: a ``repro serve`` child driven over two connections.

The traffic follows the live index server of *Ten weeks in the life of
an eDonkey server*: the sharers of the paper-seed static trace connect
and publish their file lists, then a mix of small keyword and source
queries, browses, nickname and server-list queries, and republishes of a
session's unchanged list (a real index write that leaves the index, and
so every reply, as it was).  The queries come from ``repro loadgen``'s
plan over the same trace, in exactly the mix of ``MIX``; like the trace,
the set of requests is drawn from the paper's seed, and the run's seed
orders them.  Sessions' list sizes are heavy-tailed (median 14 files,
largest 2,000), so which requests a run draws moved its p90 by 3x
between seeds; a fixed set keeps the runs comparable.

The driver measures the server, not itself: every request frame is
encoded once, during set-up; replies are read as raw frames and checked
only after the timed phases; the driver's own CPU per request and how
late it sent are reported beside the server's numbers.

A run starts ``SETUP_SAMPLES`` servers in turn and measures each in
``SEGMENTS`` pairs of segments:

- A, closed loop: the plan's A slice, with each of the two connections
  keeping ``depth`` requests in flight; gives a saturation rate and the
  server's CPU (utime + stime from ``/proc``) per request.
- B, open loop at the fixed ``serve_rate``: the plan's B slice, request
  ``i`` due at ``start + i / rate`` whatever happened before, and timed
  from that moment, so a stall is charged to every request queued
  behind it; gives a p50 and a p90.

Every segment of a kind does the same work, so segments differ only by
how the host ran them, and each figure is the median across segments.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import os
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import batch
from common import (
    CHILD_TIMEOUT_S,
    ROOT,
    SETUP_SAMPLES,
    WORK_DIR,
    Sizes,
    child_env,
    cpu_seconds,
    ensure_src_on_path,
    peak_rss_mb,
    quantile,
)

ensure_src_on_path()

#: The request mix: ``repro loadgen``'s query mix scaled to 90%, plus 10%
#: republishes.
MIX = (
    ("search", 0.36),
    ("sources", 0.27),
    ("browse", 0.108),
    ("users", 0.09),
    ("serverlist", 0.072),
    ("republish", 0.10),
)
KINDS = tuple(kind for kind, _ in MIX)
#: Queries drawn by ``repro loadgen`` for the plan to pick from.
POOL_REQUESTS = 4000
CONNECTIONS = 2
#: Requests of each server's warm-up (closed loop, as in segment A).
WARMUP_REQUESTS = 300
#: Pairs of A and B segments per server.
SEGMENTS = 2
#: Share of ``--seconds`` given to the A segments; B gets the rest.
PHASE_A_SHARE = 0.4
#: A request unanswered this long after it was sent counts as failed.
REPLY_TIMEOUT_S = 30.0


@dataclasses.dataclass
class Plan:
    """Everything the driver sends, encoded before any timing starts."""

    #: Per connection: ConnectRequest then PublishFiles of its sessions.
    session_frames: List[List[bytes]]
    kinds: List[str]  # per plan op
    frames: List[bytes]  # per plan op, seq = plan index
    warmup: range
    a_slice: range
    b_slice: range


def segment_sizes(sizes: Sizes, seconds: float) -> Tuple[int, int]:
    """Requests per A and per B segment.  Derived from ``seconds`` at
    the fixed reference rates only, so both sides of a comparison send
    the same work."""
    segments = SETUP_SAMPLES * SEGMENTS
    a = sizes.serve_ref_rps * seconds * PHASE_A_SHARE / segments
    b = sizes.serve_rate * seconds * (1.0 - PHASE_A_SHARE) / segments
    return max(10, round(a)), max(10, round(b))


def _mix_kinds(n: int) -> List[str]:
    """``n`` kinds in exactly ``MIX``'s proportions (largest remainder)."""
    exact = [n * share for _, share in MIX]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(MIX)), key=lambda i: counts[i] - exact[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return [kind for (kind, _), c in zip(MIX, counts) for _ in range(c)]


def build_plan(seed: int, sizes: Sizes, seconds: float) -> Plan:
    """Sessions and a pool of queries from ``repro loadgen``'s plan over
    the paper-seed trace; the warm-up, A and B requests are drawn from
    the pool with the paper's seed, and ``seed`` orders each slice."""
    from repro.edonkey.messages import ConnectRequest, PublishFiles
    from repro.edonkey.wire import encode_frame
    from repro.runtime import SHARED_TRACE_CACHE, Scale
    from repro.service.loadgen import LoadGenConfig
    from repro.service.loadgen import build_plan as loadgen_plan
    from repro.util.rng import RngStream

    data_seed = batch.data_seed()
    compiled = SHARED_TRACE_CACHE.compiled(Scale[sizes.scale.upper()], data_seed)
    sharers = sum(1 for cache in compiled.cache_sets if cache)
    pool = loadgen_plan(
        LoadGenConfig(
            requests=POOL_REQUESTS, sessions=sharers, seed=data_seed,
            scale=sizes.scale,
        )
    )
    # The plan holds what it needs; a cached trace would only make every
    # garbage collection in this process (driver and replay) slower.
    del compiled
    SHARED_TRACE_CACHE.clear()
    queries = collections.defaultdict(list)
    for op in pool.ops:
        queries[op.kind].append(op.message)
    draw = RngStream(data_seed, "perfbench-serve").child("requests").py
    order = RngStream(seed, "perfbench-serve").child("order").py
    n_a, n_b = segment_sizes(sizes, seconds)
    kinds: List[str] = []
    messages: list = []
    for n in (WARMUP_REQUESTS, n_a, n_b):
        chosen = []
        for kind in _mix_kinds(n):
            if kind == "republish":
                session = pool.sessions[draw.randrange(len(pool.sessions))]
                message = PublishFiles(
                    client_id=session.client_id, files=session.files
                )
            else:
                message = draw.choice(queries[kind])
            chosen.append((kind, message))
        order.shuffle(chosen)
        kinds += [kind for kind, _ in chosen]
        messages += [message for _, message in chosen]
    session_frames: List[List[bytes]] = [[] for _ in range(CONNECTIONS)]
    for number, session in enumerate(pool.sessions):
        frames = session_frames[number % CONNECTIONS]
        frames.append(
            encode_frame(
                ConnectRequest(
                    client_id=session.client_id,
                    nickname=session.nickname,
                    firewalled=False,
                )
            )
        )
        frames.append(
            encode_frame(
                PublishFiles(client_id=session.client_id, files=session.files)
            )
        )
    return Plan(
        session_frames=session_frames,
        kinds=kinds,
        frames=[encode_frame(m, seq=i) for i, m in enumerate(messages)],
        warmup=range(0, WARMUP_REQUESTS),
        a_slice=range(WARMUP_REQUESTS, WARMUP_REQUESTS + n_a),
        b_slice=range(WARMUP_REQUESTS + n_a, len(kinds)),
    )


# ----------------------------------------------------------------------
# Raw-frame connections


class Conn:
    """One non-blocking connection: an output buffer, an input buffer and
    the FIFO of requests awaiting replies (the server answers each
    connection in order)."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.inbuf = bytearray()
        self.pending: collections.deque = collections.deque()
        self.writing = False

    def flush(self) -> None:
        while self.out:
            try:
                sent = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:sent]

    def frames(self) -> List[bytes]:
        """Receive what is available; return the complete payloads."""
        try:
            chunk = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not chunk:
            raise ConnectionError("server closed the connection")
        self.inbuf += chunk
        payloads = []
        buf = self.inbuf
        while len(buf) >= 4:
            length = int.from_bytes(buf[:4], "big")
            if len(buf) < 4 + length:
                break
            payloads.append(bytes(buf[4 : 4 + length]))
            del buf[: 4 + length]
        return payloads

    def close(self) -> None:
        self.sock.close()


class Driver:
    """Sends pre-encoded frames over the connections and reads the
    replies as raw payloads.  ``replies`` collects ``(plan index,
    payload)`` of every plan op for the after-run check."""

    def __init__(self, port: int) -> None:
        self.conns = [Conn(port) for _ in range(CONNECTIONS)]
        self.sel = selectors.DefaultSelector()
        for conn in self.conns:
            self.sel.register(conn.sock, selectors.EVENT_READ, conn)
        self.replies: List[Tuple[int, bytes]] = []
        self.timeouts = 0

    def close(self) -> None:
        self.sel.close()
        for conn in self.conns:
            conn.close()

    def _send(self, conn: Conn, frame: bytes, tag) -> None:
        conn.out += frame
        conn.pending.append(tag)
        conn.flush()
        want = bool(conn.out)
        if want != conn.writing:
            events = selectors.EVENT_READ | (selectors.EVENT_WRITE if want else 0)
            self.sel.modify(conn.sock, events, conn)
            conn.writing = want

    def _poll(self, timeout: float):
        """Wait up to ``timeout``; yield ``(conn, tag, payload, t)``."""
        for key, events in self.sel.select(timeout):
            conn = key.data
            if events & selectors.EVENT_WRITE:
                conn.flush()
                if not conn.out:
                    self.sel.modify(conn.sock, selectors.EVENT_READ, conn)
                    conn.writing = False
            if events & selectors.EVENT_READ:
                payloads = conn.frames()
                now = time.perf_counter()
                for payload in payloads:
                    yield conn, conn.pending.popleft(), payload, now

    def _outstanding(self) -> int:
        return sum(len(c.pending) for c in self.conns)

    def closed_loop(self, per_conn: List[list], depth: int):
        """Send each connection its ``(tag, frame)`` list in order, keeping
        ``depth`` in flight on each.  Returns the ``(tag, payload)``
        replies and the seconds from first send to last reply."""
        queues = {
            conn: collections.deque(frames)
            for conn, frames in zip(self.conns, per_conn)
        }
        replies = []

        def fill(conn: Conn) -> None:
            queue = queues[conn]
            while queue and len(conn.pending) < depth:
                tag, frame = queue.popleft()
                self._send(conn, frame, tag)

        start = time.perf_counter()
        deadline = start + CHILD_TIMEOUT_S
        for conn in self.conns:
            fill(conn)
        last = start
        while self._outstanding():
            if time.perf_counter() > deadline:
                self.timeouts += self._outstanding()
                break
            for conn, tag, payload, t in list(self._poll(1.0)):
                replies.append((tag, payload))
                last = t
                fill(conn)
        return replies, last - start

    def plan_loop(self, plan: Plan, indices: range, depth: int) -> float:
        """Closed loop over plan ops, dealt to the connections in turn;
        returns the elapsed seconds."""
        per_conn = [
            [(i, plan.frames[i]) for i in indices[c::CONNECTIONS]]
            for c in range(CONNECTIONS)
        ]
        replies, elapsed = self.closed_loop(per_conn, depth)
        self.replies += replies
        return elapsed

    def open_loop(self, plan: Plan, indices: range, rate: float) -> Dict:
        """Send op ``i`` of ``indices`` due at ``start + i / rate``; time
        each from its due moment."""
        latencies: List[float] = []
        lags: List[float] = []
        backlog = 0
        sent = 0
        total = len(indices)
        start = time.perf_counter() + 0.01
        deadline = start + total / rate + REPLY_TIMEOUT_S
        while sent < total or self._outstanding():
            now = time.perf_counter()
            while sent < total and start + sent / rate <= now:
                due = start + sent / rate
                conn = self.conns[sent % CONNECTIONS]
                index = indices[sent]
                self._send(conn, plan.frames[index], (index, due))
                lags.append(time.perf_counter() - due)
                sent += 1
            backlog = max(backlog, self._outstanding())
            if sent < total:
                timeout = max(0.0, start + sent / rate - time.perf_counter())
            elif now > deadline:
                self.timeouts += self._outstanding()
                break
            else:
                timeout = 1.0
            for _conn, (index, due), payload, t in list(self._poll(timeout)):
                self.replies.append((index, payload))
                latencies.append(t - due)
        return {"latencies_s": latencies, "send_lags_s": lags, "backlog": backlog}


# ----------------------------------------------------------------------
# The server process


class ServerProcess:
    """A ``repro serve`` child on a free port."""

    def __init__(self, seed: int) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.port_file = os.path.join(WORK_DIR, "serve.port")
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        self._log = open(os.path.join(WORK_DIR, "serve.log"), "w")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--port-file", self.port_file,
                "--grace", "1",
                "--seed", str(seed),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            env=child_env(),
            cwd=ROOT,
        )
        deadline = time.perf_counter() + CHILD_TIMEOUT_S
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not start; see serve.log")
            time.sleep(0.005)
        with open(self.port_file) as fh:
            self.port = int(fh.read().strip())

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> int:
        """SIGTERM (the graceful drain), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self._log.close()
        return self.proc.returncode


def start_server(seed: int, plan: Plan, sizes: Sizes):
    """Start a server, publish every session, warm it up.

    Returns ``(server, driver, publish_s, setup_s, problems)``.
    """
    from repro.edonkey.wire import decode_payload

    started = time.perf_counter()
    server = ServerProcess(seed)
    driver = Driver(server.port)
    acks, publish_s = driver.closed_loop(
        [[(None, frame) for frame in frames] for frames in plan.session_frames],
        depth=64,
    )
    problems = []
    for _tag, payload in acks:
        reply, _seq = decode_payload(payload)
        name = type(reply).__name__
        if not (
            (name == "ConnectReply" and reply.accepted)
            or (name == "Ack" and reply.ok)
        ):
            problems.append(f"set-up reply {reply!r}")
    driver.plan_loop(plan, plan.warmup, sizes.serve_depth)
    setup_s = time.perf_counter() - started
    return server, driver, publish_s, setup_s, problems


def run_segments(server, driver, plan: Plan, sizes: Sizes) -> List[dict]:
    """``SEGMENTS`` pairs of an A and a B segment on a started, warmed
    server; returns one reading per pair."""
    readings = []
    for _ in range(SEGMENTS):
        cpu0 = cpu_seconds(server.pid)
        drv0 = time.process_time()
        elapsed = driver.plan_loop(plan, plan.a_slice, sizes.serve_depth)
        server_cpu = cpu_seconds(server.pid) - cpu0
        driver_cpu = time.process_time() - drv0
        b = driver.open_loop(plan, plan.b_slice, sizes.serve_rate)
        latencies = [x * 1000.0 for x in b["latencies_s"]]
        n_a = len(plan.a_slice)
        readings.append({
            "rate": n_a / elapsed,
            "cpu_ms": server_cpu * 1000.0 / n_a,
            "driver_cpu_ms": driver_cpu * 1000.0 / n_a,
            "p50_ms": quantile(latencies, 0.50),
            "p90_ms": quantile(latencies, 0.90),
            "latencies_ms": latencies,
            "send_lags_ms": [x * 1000.0 for x in b["send_lags_s"]],
            "backlog": b["backlog"],
        })
    readings[-1]["peak_rss_mb"] = peak_rss_mb(server.pid)
    return readings


def summarize(readings: List[dict]) -> dict:
    """The figures of a run: medians across its segment readings, plus
    the tail and driver figures over all of its requests."""

    def each(key):
        return [r[key] for r in readings if key in r]

    latencies = [x for r in readings for x in r["latencies_ms"]]
    return {
        "saturation_rps": statistics.median(each("rate")),
        "cpu_ms_per_req": statistics.median(each("cpu_ms")),
        "p50_ms": statistics.median(each("p50_ms")),
        "p90_ms": statistics.median(each("p90_ms")),
        "p99_ms": quantile(latencies, 0.99),
        "driver_cpu_ms_per_req": statistics.median(each("driver_cpu_ms")),
        "send_lag_p99_ms": quantile(
            [x for r in readings for x in r["send_lags_ms"]], 0.99
        ),
        "backlog_max": max(each("backlog")),
        "peak_rss_mb": max(each("peak_rss_mb")),
        "segments": {
            key: each(key) for key in ("rate", "cpu_ms", "p50_ms", "p90_ms")
        },
    }


# ----------------------------------------------------------------------
# In-process replay: the correctness oracle and the per-layer costs


def _wire_reply(reply):
    """What ``repro serve`` puts on the wire for a handler's return value."""
    from repro.edonkey.messages import Ack

    if reply is None:
        return Ack()
    if isinstance(reply, bool):
        return Ack(ok=reply)
    return reply


def replay(plan: Plan, indices, timed: bool = False):
    """Replay the publishes and the plan ops ``indices`` through
    ``ServerProtocolHandler`` and ``encode_payload`` on an in-process
    server configured as ``repro serve`` is.

    Returns ``(expected, costs)``: the SHA-1 of each op's expected reply
    payload, and (when ``timed``) per-kind mean microseconds of request
    decode, handle, reply encode and reply decode, plus mean reply bytes.
    """
    from repro.edonkey.protocol import ServerProtocolHandler
    from repro.edonkey.server import Server, ServerConfig
    from repro.edonkey.wire import decode_payload, encode_payload
    from repro.service.server import ServiceConfig

    service = ServiceConfig()
    handler = ServerProtocolHandler(
        Server(
            server_id=0,
            config=ServerConfig(
                max_users=service.max_users,
                reply_limit=service.reply_limit,
                supports_query_users=service.supports_query_users,
            ),
        )
    )
    clock = time.perf_counter
    t0 = clock()
    for frame in (f for frames in plan.session_frames for f in frames):
        message, _seq = decode_payload(frame[4:])
        handler.handle(message)
    publish_s = clock() - t0

    expected: Dict[int, str] = {}
    sums = collections.defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0, 0])
    for index in sorted(indices):
        kind = plan.kinds[index]
        t0 = clock()
        message, seq = decode_payload(plan.frames[index][4:])
        t1 = clock()
        reply = _wire_reply(handler.handle(message))
        t2 = clock()
        payload = encode_payload(reply, seq=seq)
        t3 = clock()
        if timed:
            decode_payload(payload)
            t4 = clock()
            acc = sums[kind]
            acc[0] += 1
            acc[1] += t1 - t0
            acc[2] += t2 - t1
            acc[3] += t3 - t2
            acc[4] += t4 - t3
            acc[5] += len(payload)
        expected[index] = sha1(payload)
    costs = {"publish_s": publish_s}
    for kind, (n, dec, han, enc, rdec, nbytes) in sums.items():
        costs[kind] = {
            "count": n,
            "request_decode_us": dec * 1e6 / n,
            "handle_us": han * 1e6 / n,
            "encode_us": enc * 1e6 / n,
            "decode_us": rdec * 1e6 / n,
            "reply_bytes": nbytes / n,
        }
    return expected, costs


def sha1(payload: bytes) -> str:
    return hashlib.sha1(payload).hexdigest()


def check_replies(plan: Plan, replies, expected=None, tamper: bool = False):
    """Compare every received reply with the in-process replay.

    Returns ``(failed, problems)``: a reply counts as failed when its
    payload differs from the replay's (which also catches a wrong seq
    echo and an ``ErrorReply``).  ``expected`` is a replay's digest map
    when one was already made.  ``tamper`` alters one byte of the first
    reply first, which the check must catch.
    """
    if tamper and replies:
        index, payload = replies[0]
        replies = [(index, payload[:-2] + b"!" + payload[-1:])] + replies[1:]
    if expected is None:
        expected, _costs = replay(plan, {index for index, _ in replies})
    failed = 0
    problems = []
    for index, payload in replies:
        if sha1(payload) != expected[index]:
            failed += 1
            if len(problems) < 3:
                problems.append(
                    f"reply to plan op {index} ({plan.kinds[index]}) differs "
                    f"from the in-process replay: {payload[:120]!r}"
                )
    return failed, problems
