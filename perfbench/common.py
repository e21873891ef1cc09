"""Shared pieces of the benchmark: repository layout, statistics,
layer spans, child processes and the result line.

Every workload module exposes ``run(seed, seconds, traced) -> Result``.
Timings are taken with :func:`time.perf_counter`; spans are recorded
with the program's public :class:`repro.obs.trace.Tracer` and written
as a Chrome ``trace_event`` file that ``python -m repro.obs.validate``
checks.
"""

from __future__ import annotations

import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RULEBASES = ROOT / "examples" / "rulebases"
OUT = BENCH_DIR / "out"

#: Hash seed of every interpreter the benchmark runs, so set iteration
#: order (and with it every engine counter) repeats across runs.
HASH_SEED = "0"

#: Tail percentiles in the order the tail rule tries them.
TAIL_PERCENTILES = (99, 95, 90)

#: Samples the tail rule leaves beyond the chosen percentile.
TAIL_BEYOND = 10

#: Longest the benchmark waits on any one reply from a child process.
REPLY_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark cannot run here (missing source, dead child)."""


def require_source() -> None:
    """Put the checkout's ``src`` on the import path, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment of every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = HASH_SEED
    env.pop("PYTHONSTARTUP", None)
    return env


def pin() -> None:
    """Pin this process, and so every process it starts, to the last
    allowed CPU, away from the host's own daemons on the first.  A
    closed loop runs one side at a time, so its client and server lose
    nothing by sharing a CPU and wake each other without crossing
    CPUs; on a shared two-CPU host this cut the spread of the serve
    read median across runs from 0.19 to 0.02."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def work_dir(workload: str) -> Path:
    """A fresh per-process directory for generated input files."""
    path = OUT / f"{workload}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- statistics --------------------------------------------------------


def nearest_rank(values: list[float], percent: float) -> float:
    """The nearest-rank percentile of ``values`` (any order)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(percent / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(count: int, percent: float) -> int:
    """Samples that sort strictly after the nearest-rank percentile."""
    return count - max(1, math.ceil(percent / 100.0 * count))


def tail_percentile(count: int) -> int:
    """The highest of p99/p95/p90 leaving ``TAIL_BEYOND`` samples
    beyond it, for a sample count; p90 when none does."""
    for percent in TAIL_PERCENTILES:
        if beyond(count, percent) >= TAIL_BEYOND:
            return percent
    return TAIL_PERCENTILES[-1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    """``part / whole``, 0 when nothing was attempted."""
    return part / whole if whole else 0.0


# -- samples and results -----------------------------------------------


@dataclass
class Samples:
    """Latencies of one request kind; a failed request is timed as
    the whole timed phase, so it sorts above every good sample."""

    name: str
    percent: int
    good: list[float] = field(default_factory=list)
    failures: int = 0

    def add(self, seconds: float, good: bool) -> None:
        """One request: its latency when its answer was right."""
        if good:
            self.good.append(seconds * 1e3)
        else:
            self.failures += 1

    @property
    def count(self) -> int:
        return len(self.good) + self.failures

    def values(self, phase_ms: float) -> list[float]:
        return self.good + [phase_ms] * self.failures

    def p50(self, phase_ms: float) -> float:
        return median(self.values(phase_ms))

    def tail(self, phase_ms: float) -> float:
        return nearest_rank(self.values(phase_ms), self.percent)


@dataclass
class Result:
    """What one workload run measured."""

    reads: Samples
    writes: Samples
    phase_s: float
    setup_s: list[float]
    peak_rss_mb: float
    extra_failures: int = 0
    answers: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.reads.count + self.writes.count

    @property
    def failed(self) -> int:
        return self.reads.failures + self.writes.failures + self.extra_failures

    def end_to_end(self) -> dict:
        phase_ms = self.phase_s * 1e3
        good = len(self.reads.good) + len(self.writes.good)
        return {
            "setup_s": (median(self.setup_s), "s"),
            "read_p50_ms": (self.reads.p50(phase_ms), "ms"),
            "read_tail_ms": (self.reads.tail(phase_ms), "ms"),
            "write_p50_ms": (self.writes.p50(phase_ms), "ms"),
            "write_tail_ms": (self.writes.tail(phase_ms), "ms"),
            "throughput_rps": (good / self.phase_s, "1/s"),
            "peak_rss_mb": (self.peak_rss_mb, "MiB"),
            "success_ratio": (ratio(good, self.attempted), "ratio"),
        }

    def describe(self) -> list[str]:
        """Human-readable lines: each metric with its samples."""
        metrics = self.end_to_end()
        lines = [
            f"setup_s = {metrics['setup_s'][0]:.4f} s "
            f"(median of {len(self.setup_s)} set-ups)"
        ]
        for samples, kind in ((self.reads, "read"), (self.writes, "write")):
            lines.append(
                f"{kind}_p50_ms = {metrics[kind + '_p50_ms'][0]:.3f} ms "
                f"({samples.count} {samples.name})"
            )
            lines.append(
                f"{kind}_tail_ms = {metrics[kind + '_tail_ms'][0]:.3f} ms "
                f"(p{samples.percent} of {samples.count} {samples.name}, "
                f"{beyond(samples.count, samples.percent)} beyond)"
            )
        lines.append(
            f"throughput_rps = {metrics['throughput_rps'][0]:.3f} 1/s "
            f"({self.attempted - self.failed} correct in "
            f"{self.phase_s:.2f} s)"
        )
        lines.append(f"peak_rss_mb = {self.peak_rss_mb:.2f} MiB")
        lines.append(
            f"success_ratio = {metrics['success_ratio'][0]:.4f} "
            f"({self.failed} failed of {self.attempted})"
        )
        return lines


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of a process (this one by default), in MiB."""
    path = f"/proc/{pid or 'self'}/status"
    with open(path, encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM in {path}")


# -- layer spans -------------------------------------------------------

#: Span kinds whose self time is reported, one per program layer.
LAYERS = (
    "cli",
    "parser",
    "analysis",
    "session",
    "model",
    "prove",
    "topdown",
    "server",
)


class Spans:
    """Layer spans recorded around calls into the program.

    Untraced runs hold the program's ``NULL_TRACER``, so the timed code
    is the same in both modes and records nothing when off.
    """

    def __init__(self, traced: bool) -> None:
        from repro.obs.trace import NULL_TRACER, Tracer

        self.tracer = Tracer() if traced else NULL_TRACER
        self.durations: dict[str, list[float]] = {}

    def span(self, kind: str, label: str = ""):
        return self.tracer.span(kind, label)

    def timed(self, kind: str, label: str, call):
        """Run ``call()`` inside a span; keep its duration by label."""
        started = time.perf_counter()
        with self.tracer.span(kind, label):
            value = call()
        self.durations.setdefault(label, []).append(
            (time.perf_counter() - started) * 1e3
        )
        return value

    def self_times(self) -> dict[str, float]:
        """Self time per span kind in ms: duration minus children."""
        from repro.obs.trace import walk

        totals: dict[str, float] = {}
        root = self.tracer.finish()
        for _, node in walk(root):
            if not node.is_span or node is root:
                continue
            children = sum(
                child.duration_ns for child in node.children if child.is_span
            )
            totals[node.kind] = totals.get(node.kind, 0.0) + (
                node.duration_ns - children
            ) / 1e6
        return totals

    def write(self, path: Path, metrics=None) -> None:
        from repro.obs.export import write_chrome_trace

        path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(str(path), self.tracer, metrics=metrics)


def trace_layers(spans: Spans, trace_path: Path, metrics=None) -> dict:
    """Self time per layer and span coverage of the timed phases, then
    the Chrome trace file, checked by ``python -m repro.obs.validate``.

    Timed phases are spans of kind ``phase``; their own self time is
    the part of the timed wall time no layer span covers.
    """
    selfs = spans.self_times()
    phase_ms = sum(
        node.duration_ns / 1e6
        for node in spans.tracer.root.children
        if node.is_span and node.kind == "phase"
    )
    unattributed = selfs.get("phase", 0.0)
    layers = {f"self.{kind}_ms": selfs.get(kind, 0.0) for kind in LAYERS}
    layers["trace.unattributed_ms"] = unattributed
    layers["trace.coverage_ratio"] = ratio(phase_ms - unattributed, phase_ms)
    spans.write(trace_path, metrics)
    check = subprocess.run(
        [sys.executable, "-m", "repro.obs.validate", str(trace_path)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=REPLY_TIMEOUT_S,
    )
    layers["trace.valid"] = check.returncode == 0
    return layers


# -- child processes ---------------------------------------------------


class LineReader:
    """Reads whole lines from a pipe or socket with a deadline, so a
    hung child fails the run instead of hanging it."""

    def __init__(self, fd: int) -> None:
        self._fd = fd
        self._buffer = b""

    def readline(self) -> bytes:
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        while b"\n" not in self._buffer:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError("timed out waiting for a reply")
            ready, _, _ = select.select([self._fd], [], [], left)
            if not ready:
                continue
            chunk = os.read(self._fd, 65536)
            if not chunk:
                raise BenchError("peer closed before replying")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return line + b"\n"


def stop(process: subprocess.Popen) -> None:
    """Kill a child that is still running and wait for it."""
    if process.poll() is None:
        process.kill()
    process.wait()


def untraced_read_p50(workload: str, seed: int, seconds: int) -> float:
    """``read_p50_ms`` of an untraced run of the same workload, in a
    fresh interpreter: the base of the tracing-overhead ratio."""
    done = subprocess.run(
        [
            sys.executable,
            str(BENCH_DIR / "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", "0",
        ],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"untraced {workload} run failed: {done.stderr[-500:]}")
    return json.loads(lines[-1])["metrics"]["read_p50_ms"]["value"]
