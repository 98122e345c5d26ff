"""Shared fixtures for the test suite.

``rng`` is the single entry point for randomness in stochastic tests
(backend equivalence, randomized networks): it derives a deterministic
seed from the test's node id, so a failure always reproduces by re-running
that test — and ``REPRO_TEST_SEED=<n>`` forces one global seed to explore
other draws.  ``fabric_leak_check`` fails a fabric test that leaves
worker-group threads, child processes, shm segments or open file
descriptors behind.
"""

import os
import threading
import time
import zlib
from multiprocessing import resource_tracker

import numpy as np
import pytest


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running test (deselect with -m 'not slow')")


def seed_for(name: str) -> int:
    """Deterministic per-test seed (overridable via REPRO_TEST_SEED)."""
    env = os.environ.get("REPRO_TEST_SEED")
    if env is not None:
        return int(env)
    return zlib.adler32(name.encode())


@pytest.fixture
def rng(request) -> np.random.Generator:
    """Per-test deterministic numpy Generator for stochastic tests."""
    return np.random.default_rng(seed_for(request.node.nodeid))


@pytest.fixture
def open_credit(monkeypatch):
    """``open_credit(group, lanes=(0,))`` opens each listed lane's
    dispatch credit to its executor's ``pipeline_depth``.

    The credit is ``1 + ceil(dispatch cost / service time)`` and starts
    stop-and-wait until a lane has served a chunk, so this makes the
    dispatch cost one no service time covers and runs one warm item on
    each lane (re-run if an idle peer stole it).  A lane then keeps a
    full window in flight from its next chunk on.
    """
    from repro.runtime import WorkItem
    from repro.runtime import group as group_module

    monkeypatch.setattr(group_module, "DEFAULT_DISPATCH_COST_S", 10.0)

    def open_lanes(group, lanes=(0,)) -> None:
        deployment = group.deployments[0]
        images = np.zeros((1,) + deployment.network.input_shape)
        for lane in lanes:
            name = group.workers[lane].name
            for attempt in range(20):
                warm = WorkItem(item_id=-1 - attempt, deployment=0,
                                images=images)
                if group.run([warm], assignment=[lane])[0].worker == name:
                    break
            else:
                raise AssertionError(f"lane {name!r} never served")

    return open_lanes


def _open_fds() -> dict[int, str]:
    """This process's open file descriptors and what each points at,
    less the resource tracker's pipe (a process-wide singleton, like the
    tracker process itself)."""
    fds = {}
    try:
        entries = os.listdir("/proc/self/fd")
    except OSError:
        return fds
    tracker = getattr(resource_tracker._resource_tracker, "_fd", None)
    for entry in entries:
        if int(entry) == tracker:
            continue
        try:
            fds[int(entry)] = os.readlink(f"/proc/self/fd/{entry}")
        except OSError:
            continue            # the listing's own descriptor, now closed
    return fds


def _fabric_resources() -> tuple[set, set, set]:
    """What the worker fabric can leak, as seen from this process:
    group threads, live (non-zombie) child processes and the shared-
    memory arena segments this process created."""
    threads = {thread.ident for thread in threading.enumerate()
               if thread.name.startswith("repro-runtime-")}
    me = os.getpid()
    # The resource tracker is a process-wide singleton child that
    # outlives every group by design; it is not a fabric resource.
    tracker = getattr(resource_tracker._resource_tracker, "_pid", None)
    children = set()
    try:
        entries = os.listdir("/proc")
    except OSError:
        entries = []
    for entry in entries:
        if not entry.isdigit() or int(entry) == tracker:
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Fields after the command name, which may hold spaces/parens.
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if int(ppid) == me and state != "Z":
            children.add(int(entry))
    try:
        segments = {name for name in os.listdir("/dev/shm")
                    if name.startswith(f"repro-arena-{me}-")}
    except OSError:
        segments = set()
    return threads, children, segments


@pytest.fixture
def fabric_leak_check():
    """Fail a test that leaves fabric threads, child processes, shm
    segments or more open file descriptors than it found behind (after
    a bounded poll for orderly shutdowns)."""
    before = _fabric_resources()
    fds_before = _open_fds()
    yield
    deadline = time.monotonic() + 5.0
    while True:
        leaked = [now - then for now, then
                  in zip(_fabric_resources(), before)]
        fds = _open_fds()
        extra_fds = len(fds) - len(fds_before)
        if (not any(leaked) and extra_fds <= 0) \
                or time.monotonic() > deadline:
            break
        time.sleep(0.05)
    threads, children, segments = leaked
    if threads or children or segments or extra_fds > 0:
        new_fds = sorted(target for fd, target in fds.items()
                         if fds_before.get(fd) != target)
        pytest.fail(f"fabric leak: {len(threads)} repro-runtime thread(s), "
                    f"child pid(s) {sorted(children)}, shm segment(s) "
                    f"{sorted(segments)}, {max(extra_fds, 0)} more open "
                    f"file descriptor(s) {new_fds}")
