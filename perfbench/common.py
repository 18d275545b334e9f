"""Shared helpers of the repository benchmark: sizes, host record, /proc
readers, percentiles and the child-process plumbing.

Everything here is measurement scaffolding; the program under test is
reached only through its public functions (``repro.*``) or its CLI.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

#: Root of the checkout the benchmark runs in (the parent of this file's
#: directory).  Every file the benchmark writes lives below ``WORK_DIR``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Fresh-process set-ups measured per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3

#: Longest the benchmark waits on any child before declaring it hung.
CHILD_TIMEOUT_S = 120.0

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes of every workload.  ``FULL`` is the benchmark; ``TINY``
    is the self-check, which runs the same code paths in seconds."""

    crawl_clients: int
    crawl_days: int
    #: ``repro.runtime.Scale`` name of the search, analyze and serve traces.
    scale: str
    #: Requests each of the two connections keeps in flight in phase A.
    serve_depth: int
    #: Offered load of the open-loop phase B, requests/s.  Fixed once at
    #: about 40% of phase A's saturation rate measured on the commit
    #: that introduced the benchmark, so later commits are compared at
    #: the same offered load.
    serve_rate: float
    #: Phase A's rate on that commit: with ``--seconds`` it sizes the
    #: closed-loop segments (see ``serve.segment_sizes``).
    serve_ref_rps: float


FULL = Sizes(
    crawl_clients=2400,
    crawl_days=3,
    scale="default",
    serve_depth=4,
    serve_rate=100.0,
    serve_ref_rps=500.0,
)
TINY = Sizes(
    crawl_clients=60,
    crawl_days=2,
    scale="tiny",
    serve_depth=2,
    serve_rate=100.0,
    serve_ref_rps=500.0,
)
SIZES = {"full": FULL, "tiny": TINY}


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # A fixed string hash gives every run the same set and dict layouts,
    # so runs repeat the same work; outputs never depend on it (the
    # serve check compares a server child's replies with a replay in the
    # benchmark's own process, whose hash seed is random).
    env["PYTHONHASHSEED"] = "0"
    return env


def ensure_src_on_path() -> None:
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


# ----------------------------------------------------------------------
# /proc readers (Linux)


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        stat = fh.read()
    # Fields after the parenthesised command name; utime and stime are
    # fields 14 and 15 of the whole line.
    fields = stat[stat.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


# ----------------------------------------------------------------------
# Host record


def ref_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the host's speed right now."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_record() -> Dict[str, object]:
    """Facts about the host, recorded beside every result.  They explain
    a slow run; they never scale a metric."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Statistics and digests


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of a sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def digest(obj) -> str:
    """Short canonical digest of a JSON-serialisable value."""
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Child processes


class Child:
    """A benchmark child speaking JSON lines over stdin/stdout.

    The child prints ``{"ready": ...}`` once set up, then answers one
    JSON line per command line it reads.  Its stderr is captured to a
    file under ``WORK_DIR`` so a failure can be explained.
    """

    def __init__(self, argv: List[str], log_name: str) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.log_path = os.path.join(WORK_DIR, log_name)
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(),
            cwd=ROOT,
            text=True,
        )

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
            with open(self.log_path) as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(
                f"child exited ({self.proc.returncode}) without a reply:\n{tail}"
            )
        return json.loads(line)

    def wait_ready(self):
        """Block until the child is set up; returns its ready payload."""
        return self._read()["ready"]

    def call(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        """Ask the child to exit, and make sure it has."""
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("exit\n")
                self.proc.stdin.flush()
            except (BrokenPipeError, OSError):
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self._log.close()


def child_loop(setup, operation) -> None:
    """Body of a benchmark child: set up, announce, answer commands.

    ``setup()`` returns the ready payload; each ``run <i>`` command calls
    ``operation(i)`` and replies with its result; ``exit`` (or EOF) ends
    the loop.
    """
    ready = setup()
    print(json.dumps({"ready": ready}), flush=True)
    for line in sys.stdin:
        command, _, arg = line.strip().partition(" ")
        if command == "exit":
            break
        if command != "run":
            raise SystemExit(f"unknown command {line!r}")
        print(json.dumps(operation(int(arg))), flush=True)
