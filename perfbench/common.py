"""Shared pieces of the benchmark: span recorder, statistics, processes.

Nothing here imports ``repro``; ``run.py`` puts the checkout's ``src``
on ``sys.path`` before any workload module is imported.
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import json
import multiprocessing
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckFailed(Exception):
    """A program output differed from its reference."""


def check(condition: bool, message: str) -> None:
    """Raise :class:`CheckFailed` unless ``condition`` holds."""
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------- #
# Results
# --------------------------------------------------------------------- #


@dataclass
class Outcome:
    """What one workload run produced.

    ``metrics`` maps a metric name to ``(value, unit)``; ``report`` holds
    the workload's own named figures, printed before the result line.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


def p50(values: Sequence[float]) -> float:
    """Median; ``values`` must not be empty."""
    return statistics.median(values)


def p95(values: Sequence[float]) -> float:
    """95th percentile (exclusive method, as ``statistics.quantiles``)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=20)[18]


def seeded(seed: int, label: str) -> random.Random:
    """An independent random stream for one fixture, keyed by ``label``."""
    return random.Random(f"{seed}:{label}")


def distinct_secrets(rng: random.Random, count: int) -> List[int]:
    """``count`` distinct 256-bit secret values ``R``."""
    values: List[int] = []
    seen = set()
    while len(values) < count:
        value = rng.getrandbits(256)
        if value not in seen:
            seen.add(value)
            values.append(value)
    return values


# --------------------------------------------------------------------- #
# Machine speed
# --------------------------------------------------------------------- #

#: Seconds the calibration kernel takes on the reference machine speed.
REFERENCE_KERNEL_S = 0.0025
_KERNEL_WORDS = [f"tok-{i:04d}" for i in range(1000)]


def _kernel() -> None:
    """Fixed work in the program's mix: dict counting, SHA-256, sorting.

    It runs no code of the program, so a change to the program cannot
    move it; only the machine's speed does.
    """
    counts: Dict[str, int] = {}
    for i in range(12000):
        word = _KERNEL_WORDS[(i * 7919) % 1000]
        counts[word] = counts.get(word, 0) + 1
    for word in _KERNEL_WORDS[:150]:
        hashlib.sha256(word.encode() + b"\x00" + b"x" * 32).digest()
    sorted(counts.items(), key=lambda item: -item[1])


def _kernel_helper(connection) -> None:
    """Child side of a two-core gauge.

    ``True`` asks for one kernel run, whose time is sent back; ``False``
    ends the helper.
    """
    while connection.recv():
        start = time.perf_counter()
        _kernel()
        connection.send(time.perf_counter() - start)


class Speed:
    """How fast the machine runs now, from a kernel timed between ops.

    Co-tenants on a shared host move this machine's speed by tens of
    percent over seconds to minutes, in a way no averaging inside one
    run removes. End-to-end times are therefore reported scaled to a
    reference speed: ``raw * REFERENCE_KERNEL_S / kernel time``, where
    the kernel time is the median of the samples taken nearest to the
    op. :meth:`sample` runs while the program idles, so its own load
    never enters the gauge.

    With ``cores=2`` a helper process runs the kernel at the same time
    as this one and a sample is the mean of both: ops that keep both
    cores busy (worker pools, a server beside its client) depend on both.
    """

    #: Samples around an op that set its local speed.
    NEIGHBOURS = 9

    def __init__(self, cores: int = 1) -> None:
        self.samples: List[Tuple[float, float]] = []  # (when, seconds)
        self._helpers = []
        context = multiprocessing.get_context("spawn")
        for _ in range(cores - 1):
            ours, theirs = context.Pipe()
            process = context.Process(target=_kernel_helper, args=(theirs,), daemon=True)
            process.start()
            self._helpers.append((process, ours))

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            for _process, connection in self._helpers:
                connection.send(True)
            start = time.perf_counter()
            _kernel()
            end = time.perf_counter()
            times = [end - start] + [connection.recv() for _p, connection in self._helpers]
            self.samples.append((end, sum(times) / len(times)))

    def close(self) -> None:
        """Stop the helper processes and wait for them."""
        for process, connection in self._helpers:
            connection.send(False)
            process.join(timeout=10)
            if process.is_alive():
                process.kill()
                process.join()
        self._helpers = []

    def factor(
        self, when: Optional[float] = None, samples: Optional[List[Tuple[float, float]]] = None
    ) -> float:
        """Multiplier from raw to reference-speed seconds.

        ``when`` (a perf-counter time) selects the samples nearest to an
        op; ``None`` uses every sample. ``samples`` defaults to the ones
        :meth:`sample` took.
        """
        chosen = self.samples if samples is None else samples
        if when is not None:
            chosen = sorted(chosen, key=lambda item: abs(item[0] - when))[: self.NEIGHBOURS]
        return REFERENCE_KERNEL_S / p50([seconds for _when, seconds in chosen])

    def scaled(self, ops: Sequence[Tuple[float, float]]) -> List[float]:
        """``(when, raw seconds)`` ops scaled by their local speed."""
        return [raw * self.factor(when) for when, raw in ops]


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


class Recorder:
    """In-memory spans around calls into the program's layers.

    Each span has an id, a parent, a name and perf-counter start/end
    times. A disabled recorder records nothing, so the same op code runs
    traced and untraced. Spans nest strictly (one thread), so a span's
    self time is its duration minus its children's durations.
    """

    def __init__(self, enabled: bool, label: str = "") -> None:
        self.enabled = enabled
        self.label = label
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def _self_seconds(self) -> List[Tuple[Optional[int], str, float]]:
        """``(parent, name, self seconds)`` for every span."""
        child_total: Dict[int, float] = {}
        for _span_id, parent, _name, start, end in self.spans:
            if parent is not None:
                child_total[parent] = child_total.get(parent, 0.0) + (end - start)
        return [
            (parent, name, (end - start) - child_total.get(span_id, 0.0))
            for span_id, parent, name, start, end in self.spans
        ]

    def self_times(self) -> Dict[str, List[float]]:
        """Self time in seconds of every span, grouped by span name."""
        grouped: Dict[str, List[float]] = {}
        for _parent, name, seconds in self._self_seconds():
            grouped.setdefault(name, []).append(seconds)
        return grouped

    def root_seconds(self) -> Tuple[float, float]:
        """``(unattributed, total)`` seconds over root (op) spans.

        The unattributed part of an op is the time its root span covers
        that no child span does.
        """
        total = sum(end - start for _i, parent, _n, start, end in self.spans if parent is None)
        remainder = sum(s for parent, _name, s in self._self_seconds() if parent is None)
        return remainder, total

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Calls and total self time (ms) per span name."""
        return {
            name: {"calls": len(values), "self_ms": 1000.0 * sum(values)}
            for name, values in sorted(self.self_times().items())
        }

    def write(self, handle: IO[str], origin: float) -> None:
        """Write every span as one JSON line, times relative to ``origin``."""
        for span_id, parent, name, start, end in sorted(self.spans, key=lambda s: s[3]):
            record = {
                "recorder": self.label,
                "id": span_id,
                "parent": parent,
                "name": name,
                "start_s": round(start - origin, 9),
                "end_s": round(end - origin, 9),
            }
            handle.write(json.dumps(record) + "\n")


def write_trace(path: Path, recorders: Sequence[Recorder]) -> None:
    """Write the spans of several recorders to one JSON-lines file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    starts = [span[3] for recorder in recorders for span in recorder.spans]
    origin = min(starts, default=0.0)
    with path.open("w", encoding="utf-8") as handle:
        for recorder in recorders:
            recorder.write(handle, origin)


def unattributed_pct(recorders: Sequence[Recorder]) -> float:
    """Unattributed share of all op time across ``recorders``, in %."""
    parts = [recorder.root_seconds() for recorder in recorders]
    total = sum(t for _r, t in parts)
    return 100.0 * sum(r for r, _t in parts) / total if total else 0.0


def median_self_ms(recorder: Recorder, name: str) -> float:
    """Median self time in ms of the spans called ``name`` (0 if none)."""
    values = recorder.self_times().get(name)
    return 1000.0 * p50(values) if values else 0.0


# --------------------------------------------------------------------- #
# Memory and processes
# --------------------------------------------------------------------- #


def reset_peak_rss() -> None:
    """Reset this process's peak RSS, so it covers only what follows."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of ``pid`` (default: this process) in MB."""
    status = Path(f"/proc/{pid if pid else 'self'}/status").read_text()
    match = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
    return int(match.group(1)) / 1024.0 if match else 0.0


def steal_seconds() -> float:
    """CPU seconds the hypervisor has given other tenants, all cores."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


def program_env() -> Dict[str, str]:
    """Environment for child interpreters running the checkout's ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("FREQYWM_TELEMETRY", None)
    return env


def spawn_cli(arguments: Sequence[str], stderr_path: Path) -> subprocess.Popen:
    """Start ``python -m repro.cli ARGS`` with stderr sent to a file."""
    with stderr_path.open("wb") as stderr:
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *arguments],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=stderr,
            env=program_env(),
            cwd=str(ROOT),
        )


def stop(process: subprocess.Popen, timeout: float = 5.0) -> None:
    """Terminate a child, then kill it if it lingers; always reap it.

    SIGTERM, not SIGINT: a child inherits an ignored SIGINT from a
    parent started in the background, and would then linger.
    """
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
    process.wait()


#: ``prctl`` option that makes orphaned descendants re-parent to the caller.
_PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of its descendants' orphans (Linux).

    A child that dies before its own children (a worker's pool process,
    its ``multiprocessing`` resource tracker) leaves them to this
    process instead of to init, so :func:`stop_descendants` finds them.
    """
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces and parentheses; fields after
        # its closing parenthesis are: state, ppid, ...
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            found.append(int(entry.name))
    return found


def _reap(pids: Sequence[int], deadline: float) -> List[int]:
    """Reap ``pids`` as they exit until ``deadline``; return the living."""
    living = list(pids)
    while living:
        for pid in list(living):
            try:
                done, _status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done = pid
            if done:
                living.remove(pid)
        if not living or time.monotonic() >= deadline:
            break
        time.sleep(0.01)
    return living


def stop_descendants(timeout: float = 5.0) -> None:
    """End every process this one started, and wait until each has ended.

    The ``multiprocessing`` resource tracker, started by the program's
    shared-memory data plane, outlives pools and would outlive this
    process; it exits (unlinking any leaked segment) once its pipe is
    closed. Any other child left is sent SIGTERM, then SIGKILL.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
        if tracker._pid is not None:
            _reap([tracker._pid], time.monotonic() + timeout)
            tracker._pid = None
    for _round in range(10):
        children = _children()
        if not children:
            return
        for pid in children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in _reap(children, time.monotonic() + timeout):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            _reap([pid], time.monotonic() + timeout)
    raise RuntimeError(f"child processes would not end: {_children()}")


def wait_for_line(path: Path, needle: str, process: subprocess.Popen, timeout: float) -> None:
    """Poll a child's stderr file until it contains ``needle``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if needle in path.read_text(errors="replace"):
            return
        if process.poll() is not None:
            raise RuntimeError(f"child exited early: {path.read_text(errors='replace')}")
        time.sleep(0.005)
    raise RuntimeError(f"timed out waiting for {needle!r} in {path}")


def import_probe() -> Tuple[float, int, float, float]:
    """A fresh interpreter's ``import repro.cli``.

    Returns the import's wall seconds, the number of modules it loaded
    (exact) and the median times of the speed kernel run in that same
    process right before and right after the import, which together
    scale the import to reference speed.
    """
    code = "\n".join(
        [
            "import hashlib, statistics, sys, time",
            f"_KERNEL_WORDS = {_KERNEL_WORDS!r}",
            "Dict = dict",
            inspect.getsource(_kernel),
            "def gauge():",
            "    times = []",
            "    for _ in range(15):",
            "        begin = time.perf_counter()",
            "        _kernel()",
            "        times.append(time.perf_counter() - begin)",
            "    return statistics.median(times)",
            "before_kernel = gauge()",
            "before = set(sys.modules)",
            "start = time.perf_counter()",
            "import repro.cli",
            "elapsed = time.perf_counter() - start",
            "modules = len(set(sys.modules) - before)",
            "print(elapsed, modules, before_kernel, gauge())",
        ]
    )
    output = subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        capture_output=True,
        text=True,
        env=program_env(),
        cwd=str(ROOT),
    ).stdout
    elapsed, modules, before_kernel, after_kernel = output.split()
    return float(elapsed), int(modules), float(before_kernel), float(after_kernel)
