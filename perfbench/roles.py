"""Program processes the benchmark starts from its own entry point.

``worker`` runs a TCP engine worker exactly as ``repro worker --listen
127.0.0.1:0`` does; ``server`` runs the LeNet-5 ``InferenceServer``
behind ``start_tcp_server`` with the default serving shape.  Each
prints ``port N`` once it listens and exits when its standard input
closes.  Under ``--trace 1`` the span wrappers are installed before
anything starts, and the spans are written at exit.
"""

from __future__ import annotations

import argparse
import asyncio
import atexit
import sys


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py --role")
    parser.add_argument("--role", required=True, choices=("worker",
                                                          "server"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    if args.trace:
        from perfbench.spans import SpanLog, install

        log = SpanLog(args.spans)
        install(log)
        atexit.register(log.flush)
    return worker() if args.role == "worker" else server()


def worker() -> int:
    from repro.runtime import WorkerServer

    listener = WorkerServer("127.0.0.1", 0).start()
    print(f"port {listener.port}", flush=True)
    try:
        sys.stdin.read()
    finally:
        listener.close()
    return 0


def server() -> int:
    from repro.core.engine import warm_engine
    from repro.serve import InferenceServer
    from repro.serve.transport import start_tcp_server

    from perfbench.workloads import lenet5

    network, config = lenet5()
    warm_engine(network, config, "sparse")

    async def serve() -> None:
        async with InferenceServer(network, config,
                                   backend="sparse") as inference:
            tcp, port = await start_tcp_server(inference, "127.0.0.1", 0)
            print(f"port {port}", flush=True)
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, sys.stdin.read)
            finally:
                tcp.close()
                await tcp.wait_closed()

    asyncio.run(serve())
    return 0
