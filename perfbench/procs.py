"""Process accounting, the noise floor and the teardown (leak) check.

CPU time and peak memory are read from ``/proc`` for the benchmark
process and every live descendant, while each is still alive: the
``os.times()`` children fields only count children that were already
reaped, which undercounts lanes that outlive the measurement.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_SHM_DIR = Path("/dev/shm")
_TCP_TABLES = ("/proc/net/tcp", "/proc/net/tcp6")
_LISTEN = "0A"


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError, PermissionError):
        return None
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: int | None = None) -> dict[int, str]:
    """Live descendants of ``root`` (default: this process), pid -> state."""
    root = os.getpid() if root is None else root
    children: dict[int, list[int]] = {}
    states: dict[int, str] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        fields = _stat_fields(int(entry.name))
        if fields is None:
            continue
        pid = int(entry.name)
        states[pid] = fields[0]
        children.setdefault(int(fields[1]), []).append(pid)
    found: dict[int, str] = {}
    frontier = [root]
    while frontier:
        for child in children.get(frontier.pop(), []):
            if child not in found:
                found[child] = states[child]
                frontier.append(child)
    return found


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of one live process (0 if gone)."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    # utime and stime are fields 14 and 15 of stat; 11 and 12 here.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def program_pids() -> list[int]:
    """This process plus every live, non-zombie descendant."""
    return [os.getpid()] + [pid for pid, state in descendants().items()
                            if state != "Z"]


def cpu_snapshot(pids) -> dict[int, float]:
    return {pid: cpu_seconds(pid) for pid in pids}


def cpu_used(before: dict[int, float], pids) -> float:
    """CPU seconds the given processes used since ``before``."""
    return sum(cpu_seconds(pid) - before.get(pid, 0.0) for pid in pids)


def noise_floor(iterations: int = 2_000_000) -> float:
    """Seconds a fixed pure-Python loop takes on this machine right now.

    Timed at the start and the end of every run and reported beside the
    metrics, so a slow machine can be told apart from a slow program.
    """
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i & 7
    return time.perf_counter() - started


def _listening_inodes() -> dict[str, int]:
    """Socket inode -> local port for every listening TCP socket."""
    found: dict[str, int] = {}
    for table in _TCP_TABLES:
        try:
            lines = Path(table).read_text().splitlines()[1:]
        except FileNotFoundError:
            continue
        for line in lines:
            parts = line.split()
            if len(parts) > 9 and parts[3] == _LISTEN:
                found[parts[9]] = int(parts[1].rsplit(":", 1)[1], 16)
    return found


def _own_socket_inodes() -> set[str]:
    inodes = set()
    fd_dir = Path("/proc/self/fd")
    for fd in fd_dir.iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[8:-1])
    return inodes


def _shm_names() -> set[str]:
    try:
        return {entry.name for entry in _SHM_DIR.iterdir()}
    except FileNotFoundError:
        return set()


@dataclass
class Baseline:
    """What existed before the run started, to tell leaks from it."""

    children: set = field(default_factory=set)
    shm: set = field(default_factory=set)
    listening: set = field(default_factory=set)

    @classmethod
    def take(cls) -> "Baseline":
        return cls(children=set(descendants()), shm=_shm_names(),
                   listening=set(_listening_inodes()))


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker process lanes started.

    Process lanes start the stdlib tracker before forking; it would
    otherwise outlive the benchmark's own teardown until interpreter
    exit.  Only the stdlib's private ``_stop`` can end it early.
    """
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def wait_for_children(baseline: Baseline, wait_s: float = 15.0) -> dict:
    """Wait up to ``wait_s`` for the run's child processes to end,
    reaping multiprocessing children on the way; returns any left."""
    # The resource tracker lives until stop_resource_tracker().
    tracker = getattr(getattr(resource_tracker, "_resource_tracker", None),
                      "_pid", None)
    deadline = time.monotonic() + wait_s
    while True:
        multiprocessing.active_children()  # reaps finished children
        live = {pid: state for pid, state in descendants().items()
                if pid not in baseline.children and pid != tracker}
        if not live or time.monotonic() > deadline:
            return live
        time.sleep(0.02)


def leaks(baseline: Baseline, ports=()) -> list[str]:
    """Everything the run started that outlived its teardown: child
    processes, listening sockets (on ``ports`` or owned by this
    process) and new ``/dev/shm`` segments."""
    found = [f"process {pid} ({state})"
             for pid, state in wait_for_children(baseline).items()]
    own = _own_socket_inodes()
    for inode, port in _listening_inodes().items():
        if inode in baseline.listening:
            continue
        if port in set(ports) or inode in own:
            found.append(f"listening socket on port {port}")
    found += [f"/dev/shm/{name}" for name in _shm_names() - baseline.shm]
    return found
