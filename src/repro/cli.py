"""Command-line interface: regenerate any experiment from the terminal.

Usage::

    python -m repro table1            # accuracy & latency vs T
    python -m repro table2            # units sweep
    python -m repro table3 [--no-vgg] # cross-accelerator comparison
    python -m repro encoding          # radix vs rate ablation
    python -m repro dataflow          # memory-traffic ablation
    python -m repro figures           # Fig. 1 / Fig. 2 diagrams
    python -m repro sweep             # sharded accuracy sweep (fabric)
    python -m repro calibrate         # measure codec + dispatch costs
    python -m repro serve             # async micro-batching server (TCP)
    python -m repro loadgen           # drive a server, report latency SLOs
    python -m repro worker            # TCP engine worker (join a fabric)
    python -m repro deployments       # inspect the deployment registry
    python -m repro rollout           # blue/green alias flip on a server
    python -m repro top               # live stats off a running server
    python -m repro all               # everything above (except daemons)

Models are trained on first use and cached under ``artifacts/``; set
``REPRO_FAST=1`` for a smoke-scale run.  ``--backend vectorized`` runs
the functional simulations on the batched tensor engine (bit-identical
results, orders of magnitude faster than the unit-level model).

``sweep`` scores LeNet T-configs hardware-in-the-loop over the full test
set, sharding (config × image-range) work units across the runtime
worker fabric.  ``--workers`` takes a process count (``--workers 4``) or
an explicit lane mix — ``--workers thread,host:7601,host:7602`` spans
one in-process lane plus two remote TCP engine workers (hosts running
``repro worker --listen host:port``).  ``--accept host:port`` opens the
run to ``repro worker --join`` hosts, which enter as lanes *mid-run*;
``--stream out.jsonl`` emits one JSON line per completed shard
(deployment, image range, cycles, running top-1) for live dashboards.
Results are bit-identical for any lane mix, ``--shard-size`` or lane
churn and are persisted in the artifact store.  ``--saturate`` sizes
shards from measured per-image/per-batch/dispatch costs instead of a
fixed ``--shard-size``, growing them until lanes spend their time
computing rather than dispatching.

``calibrate`` measures a deployment's COO wire-encoding crossover and
fabric dispatch cost from probe batches and persists the
:class:`~repro.core.engine.calibrate.CalibrationTable` in the artifact
store keyed by the model's content key; the codec and ``sweep
--saturate`` pick the table up automatically, and ``--force``
re-measures an existing table.  ``--backend sparse`` names the same
engine as ``--backend vectorized``, which skips silent images itself.

``worker`` turns this host into a TCP engine worker, two ways:
``--listen host:port`` accepts drivers (sweeps or serving pools on
other machines); ``--join host:port`` dials a driver that is accepting
joiners and serves over its own connection, retrying until the driver
appears.  Only use either on networks you trust — deployments arrive as
pickled payloads; ``--token SECRET`` adds a shared-secret handshake
that rejects unauthenticated payloads before anything is unpickled.

``serve`` starts the asyncio micro-batching inference server over TCP —
on the trained LeNet by default, or on several named deployments at
once: ``--model lenet:3 --model fang:4`` serves both from one engine
pool with per-deployment batching, metrics and admission limits
(requests route with a ``deployment`` field; ``repro deployments``
prints the registry).  ``--replicas N`` runs every request N times on
distinct fabric lanes and runtime-asserts the answers bit-identical
before replying (``--quorum Q`` tolerates ``N - Q`` replica failures
under lane churn).  ``rollout`` flips a serving alias between named
deployments on a *running* server over TCP — the atomic blue/green
step — e.g. ``repro rollout --port 7700 --alias prod --to lenet:4``.
``loadgen`` offers an open-loop request stream
(in-process by default, ``--port`` for a running server; ``--arrival
poisson --seed N`` makes the offered-load trace random yet exactly
reproducible), prints the latency/throughput report, persists it to the
artifact store, and — in-process — asserts every served prediction
against direct ``Accelerator.run_logits`` output.
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

import numpy as np

from repro.core import Accelerator, AcceleratorConfig, available_backends
from repro.errors import SimulationError
from repro.harness import (
    ExperimentRunner,
    Table,
    render_conv_unit,
    render_overview,
)
from repro.serve import (
    LoadGenerator,
    TcpClient,
    available_policies,
    start_tcp_server,
)

__all__ = ["main"]


def _print_table1(runner: ExperimentRunner) -> None:
    print(runner.run_table1()["table"].render())


def _print_table2(runner: ExperimentRunner) -> None:
    print(runner.run_table2()["table"].render())


def _print_table3(runner: ExperimentRunner, include_vgg: bool) -> None:
    print(runner.run_table3(include_vgg=include_vgg)["table"].render())


def _print_encoding(runner: ExperimentRunner) -> None:
    result = runner.run_encoding_ablation()
    print(result["table"].render())
    comparison = result["comparison"]
    print(f"\nradix reaches the target at T={comparison.radix_steps}, "
          f"rate at T={comparison.rate_steps}")
    if comparison.efficiency_gain is not None:
        print(f"efficiency gain: {comparison.efficiency_gain * 100:.0f}% "
              "(paper: ~40%)")


def _print_dataflow(runner: ExperimentRunner) -> None:
    print(runner.run_dataflow_ablation()["table"].render())


def _print_figures(runner: ExperimentRunner) -> None:
    snn, _ = runner.lenet_snn(3)
    accelerator = Accelerator(AcceleratorConfig())
    compiled = accelerator.deploy(snn, name="LeNet-5")
    print("Fig. 1 - accelerator overview\n")
    print(render_overview(accelerator.config, compiled))
    print("\nFig. 2 - convolution unit\n")
    print(render_conv_unit(accelerator.config, kernel_rows=5))


def _print_sweep(runner: ExperimentRunner, steps: tuple) -> None:
    result = runner.run_accuracy_sweep(steps=steps)
    print(result["table"].render())
    summary = result["summary"]
    if summary is None:
        print("\nall sweep cells already scored this session "
              "(in-memory cache)")
    elif summary.num_images:
        print(f"\n{summary.num_images} images through {summary.num_units} "
              f"work units on {summary.workers} worker(s) in "
              f"{summary.wall_s:.2f} s "
              f"({summary.images_per_second:.1f} images/s)")
        if summary.lanes_joined:
            print(f"{summary.lanes_joined} lane(s) joined mid-run; "
                  "merge bit-identical by the fabric contract "
                  "(runtime-asserted against the SNN reference)")
    else:
        print(f"\nall {summary.num_tasks} sweep cells served from the "
              "artifact store")


def _run_calibrate(runner: ExperimentRunner, args) -> None:
    spec = (args.models or [f"lenet:{_parse_steps(args.steps)[0]}"])[0]
    name, _, table, cached = runner.calibrate_model(
        spec, force=args.force, measure_dispatch=True)
    print(f"calibration for {name} "
          f"(content key {table.content_key[:12]})")
    print(f"  {'codec COO':<24} raw buffers above "
          f"{table.coo_ratio:.3f} of raw bytes")
    if table.dispatch_cost_s is not None:
        print(f"  {'fabric dispatch':<24} "
              f"{table.dispatch_cost_s * 1e3:.3f} ms/unit")
    if cached:
        print("calibration table reused from the artifact store "
              "(cache hit); --force re-measures")
    else:
        print("calibration table measured and persisted "
              f"(artifact key calibration_{table.content_key[:12]}...)")


def _serve_images(runner, count: int, unique: int = None) -> np.ndarray:
    """``count`` request images: the MNIST test set, tiled as needed.

    ``unique`` caps the distinct images, so ``--unique 6 --requests 48``
    offers a duplicate-heavy trace (8 byte-identical submissions per
    image) that exercises the content-addressed result cache.
    """
    _, test = runner.mnist()
    pool = test.images if unique is None else test.images[:unique]
    reps = -(-count // len(pool))
    return np.tile(pool, (reps, 1, 1, 1))[:count]


def _serve_kwargs(args) -> dict:
    kwargs = {
        "policy": args.policy,
        "max_batch": args.max_batch,
        "max_wait_ms": args.max_wait_ms,
        "slo_ms": args.slo_ms,
        "queue_depth": args.queue_depth,
        "engines": args.engines,
        "token": args.token,
        "replicas": args.replicas,
        "quorum": args.quorum,
        "result_cache": args.result_cache,
    }
    if isinstance(args.workers, list):
        # An explicit lane mix extends serving onto the fabric too:
        # micro-batches fan out across the named workers.
        kwargs["workers"] = args.workers
    elif args.workers > 1:
        # A count keeps its fabric meaning everywhere: N process lanes
        # (overrides --engines; the pool takes one spec or the other).
        kwargs["workers"] = ["process"] * args.workers
    return kwargs


def _render_serve_report(
    metrics: dict, report=None,
    title: str = "Serving report - latency percentiles and throughput",
) -> Table:
    """One report table for both loadgen paths.

    ``metrics`` is a snapshot payload (``MetricsSnapshot.to_dict()``
    locally, or the same shape straight off the TCP wire), so the
    in-process and remote reports can never drift apart.
    """
    table = Table(title, ["metric", "value"])
    if report is not None:
        table.add_row("offered load (rps)", f"{report.offered_rps:.1f}")
        table.add_row("achieved (rps)", f"{report.achieved_rps:.1f}")
        table.add_row("requests ok/failed",
                      f"{report.completed}/{report.failed}")
        for name in ("p50", "p95", "p99"):
            table.add_row(f"client latency {name} (ms)",
                          f"{report.client_latency_ms[name]:.2f}")
    table.add_row("server throughput (rps)",
                  f"{metrics['throughput_rps']:.1f}")
    table.add_row("mean batch size", f"{metrics['mean_batch_size']:.2f}")
    for name in ("p50", "p95", "p99", "max"):
        table.add_row(f"server latency {name} (ms)",
                      f"{metrics['latency_ms'][name]:.2f}")
    table.add_row("queue wait p99 (ms)",
                  f"{metrics['queue_wait_ms']['p99']:.2f}")
    table.add_row("rejected (backpressure)", metrics["rejected"])
    return table


def _run_serve(runner: ExperimentRunner, args) -> None:
    if args.models:
        server, registry, accuracies = runner.build_multi_server(
            args.models, **_serve_kwargs(args))
        banner = [f"serving {len(registry)} deployment(s) from one pool:"]
        banner += [
            f"  {row['name']:<12} backend={row['backend']} "
            f"fp={row['fingerprint']} "
            f"hw-acc={accuracies[row['name']] * 100:.2f}%"
            for row in registry.describe()]
        banner.append('route requests with {"deployment": "<name>"}')
    else:
        t = _parse_steps(args.steps)[0]
        server, _, accuracy = runner.build_server(num_steps=t,
                                                  **_serve_kwargs(args))
        banner = [f"serving LeNet-5 T={t} "
                  f"(hardware accuracy {accuracy * 100:.2f}%)"]
    if args.replicas > 1:
        banner.append(
            f"replicated serving: {args.replicas} replicas per request "
            f"(quorum {args.quorum or args.replicas}), answers "
            "runtime-asserted bit-identical")

    metrics_server = None
    if args.metrics_port is not None:
        from repro.telemetry import configure
        from repro.telemetry.exposition import MetricsServer

        configure(tracing=True)  # the scrape plane implies tracing
        metrics_server = MetricsServer(
            host=args.host, port=args.metrics_port,
            snapshot_fn=lambda: server.snapshot().to_dict()).start()
        banner.append(f"telemetry: {metrics_server.url}/metrics "
                      "(Prometheus), /metrics.json, /traces; "
                      "tracing enabled")

    async def main() -> None:
        async with server:
            tcp, port = await start_tcp_server(server, args.host,
                                               args.port)
            print(f"{banner[0]} on {args.host}:{port}"
                  if len(banner) == 1 else
                  "\n".join(banner) + f"\nlistening on {args.host}:{port}")
            print(f"policy={args.policy} max_batch={args.max_batch} "
                  f"max_wait_ms={args.max_wait_ms} slo_ms={args.slo_ms}; "
                  "Ctrl-C to stop")
            try:
                await asyncio.Event().wait()
            finally:
                tcp.close()
                await tcp.wait_closed()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("\nserver stopped")
    finally:
        if metrics_server is not None:
            metrics_server.stop()


def _print_deployments(runner: ExperimentRunner, args) -> None:
    """The `repro deployments` command: list/inspect the registry."""
    models = args.models or ["lenet", "fang"]
    registry, accuracies = runner.build_registry(models)
    table = Table(
        "Deployment registry - named models over one worker fabric",
        ["name", "idx", "backend", "fingerprint", "input", "T",
         "layers", "hw acc %"])
    for row in registry.describe():
        table.add_row(
            row["name"], row["index"], row["backend"],
            row["fingerprint"],
            "x".join(str(d) for d in row["input_shape"]),
            row["num_steps"], row["layers"],
            f"{accuracies[row['name']] * 100:.2f}")
    print(table.render())
    print(f"\n{len(registry)} deployment(s), "
          f"{len(registry.table())} distinct model(s) "
          "(content-equal registrations share a warm engine slot)")


def _run_loadgen(runner: ExperimentRunner, args) -> None:
    if args.port:
        _run_loadgen_tcp(runner, args)
    else:
        _run_loadgen_inprocess(runner, args)


def _run_loadgen_inprocess(runner: ExperimentRunner, args) -> None:
    """Offer load to an in-process server and verify every prediction."""
    t = _parse_steps(args.steps)[0]
    server, snn, _ = runner.build_server(num_steps=t,
                                         **_serve_kwargs(args))
    images = _serve_images(runner, args.requests, unique=args.unique)

    async def main():
        async with server:
            report = await LoadGenerator(
                server.submit, rate_rps=args.rate,
                arrival=args.arrival, seed=args.seed,
                latency_out=args.latency_out).run(images)
            return report, server.snapshot()

    report, snapshot = asyncio.run(main())

    # Runtime contract: serving must predict exactly what a direct
    # batched Accelerator run predicts for the same images.
    accelerator = Accelerator(
        AcceleratorConfig.for_network(snn.network),
        backend=runner.score_backend, warm=True)
    accelerator.deploy(snn, name=f"LeNet-5 T={t}")
    direct_logits, _ = accelerator.run_logits(images)
    served = [r.prediction if r is not None else -1
              for r in report.results]
    if report.failed or not np.array_equal(
            served, direct_logits.argmax(axis=1)):
        raise SimulationError(
            f"served predictions diverge from Accelerator.run_logits "
            f"({report.failed} failed of {report.num_requests})")
    print(_render_serve_report(snapshot.to_dict(), report).render())
    print(f"\nall {report.num_requests} served predictions match "
          "direct Accelerator.run_logits output")
    if args.result_cache and snapshot.completed:
        print(f"result cache: {snapshot.cached} of "
              f"{snapshot.completed} requests answered from cache "
              f"({100.0 * snapshot.cached / snapshot.completed:.0f}% "
              "hit rate)")
    payload = runner.save_serve_metrics(
        f"loadgen_{args.policy}", snapshot,
        extra={"load": report.to_dict(), "num_steps": t})
    print(f"p99 latency {payload['snapshot']['latency_ms']['p99']:.2f} ms "
          f"at {report.offered_rps:.0f} rps offered "
          f"(slo_ms={args.slo_ms})")


def _run_loadgen_tcp(runner: ExperimentRunner, args) -> None:
    """Offer load over TCP to an already-running ``repro serve``."""
    images = _serve_images(runner, args.requests, unique=args.unique)

    async def main():
        async with TcpClient(args.host, args.port) as client:
            report = await LoadGenerator(
                client.infer, rate_rps=args.rate,
                arrival=args.arrival, seed=args.seed,
                deployment=args.deployment,
                latency_out=args.latency_out).run(images)
            metrics = await client.metrics(deployment=args.deployment)
            return report, metrics

    report, metrics = asyncio.run(main())
    target = args.deployment or "default deployment"
    print(_render_serve_report(
        metrics, report,
        title=f"Load report - {args.host}:{args.port} ({target})"
    ).render())
    if args.latency_out:
        print(f"per-request latency records appended to "
              f"{args.latency_out}")


def _run_top(args) -> None:
    """The `repro top` command: live stats off a running server."""
    from repro.telemetry.top import run_top

    if not args.port:
        raise SystemExit("top needs --port (a running repro serve)")
    run_top(args.host, args.port, interval_s=args.interval,
            once=args.once, deployment=args.deployment)


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_workers(raw: str):
    """``--workers``: a count (historical) or a fabric lane mix.

    ``4`` means four local process lanes; anything else is parsed as
    comma-separated lane specs (``thread``, ``process``, ``process:4``,
    ``host:port``) and validated against the fabric's grammar.
    """
    from repro.errors import ConfigurationError
    from repro.runtime import normalize_worker_specs

    raw = raw.strip()
    if raw.lstrip("+-").isdigit():
        return _positive_int(raw)
    specs = [token.strip() for token in raw.split(",") if token.strip()]
    try:
        normalize_worker_specs(specs)
    except ConfigurationError as error:
        raise argparse.ArgumentTypeError(str(error)) from None
    return specs


def _parse_listen(raw: str) -> tuple[str, int]:
    host, _, port = raw.rpartition(":")
    try:
        return (host or "127.0.0.1"), int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {raw!r}") from None


def _run_rollout(args) -> None:
    """The `repro rollout` command: blue/green alias flip over TCP."""
    if not args.port:
        raise SystemExit("rollout needs --port (a running repro serve)")
    if not args.alias or not args.to:
        raise SystemExit("rollout needs --alias NAME and --to NAME")

    async def main() -> dict:
        async with TcpClient(args.host, args.port) as client:
            return await client.rollout(args.alias, args.to,
                                        drain=not args.no_drain)

    outcome = asyncio.run(main())
    previous = outcome.get("from") or "(new alias)"
    print(f"alias {outcome['alias']!r}: {previous} -> {outcome['to']!r} "
          f"(atomic flip; old lane "
          f"{'drained' if outcome.get('drained') else 'not drained'})")


def _run_worker(args) -> None:
    """Join the fabric: serve deploy/execute requests until Ctrl-C."""
    import threading

    from repro.runtime import WorkerServer, join_fabric

    window = args.window if args.window is not None else 8
    if args.join is not None:
        host, port = args.join
        print(f"joining fabric at {host}:{port} "
              f"({'token-authenticated' if args.token else 'no token'}; "
              "trusted networks only); retrying until the driver "
              "accepts; Ctrl-C to stop")
        # Run the join loop on a thread so Ctrl-C lands here and a
        # stop_event exit hands the JoinStats back for the sign-off
        # line (an exception would lose them).
        stop = threading.Event()
        stats_box: list = []
        daemon = threading.Thread(
            target=lambda: stats_box.append(join_fabric(
                host, port, token=args.token, retry_s=args.retry_s,
                stop_event=stop, window=window)),
            name="repro-join", daemon=True)
        daemon.start()
        try:
            while daemon.is_alive():
                daemon.join(timeout=0.5)
        except KeyboardInterrupt:
            stop.set()
            daemon.join(timeout=10.0)
        if stats_box:
            stats = stats_box[0]
            print(f"\nworker stopped: {stats.attempts} dial attempt(s), "
                  f"{stats.connects} serve session(s), "
                  f"{stats.disconnects} disconnect(s)")
        else:
            print("\nworker stopped")
        return

    host, port = args.listen
    server = WorkerServer(host, port, token=args.token,
                          window=window).start()
    print(f"engine worker listening on {server.host}:{server.port} "
          f"({'token-authenticated' if args.token else 'no token'}; "
          "trusted networks only); Ctrl-C to stop")
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        print("\nworker stopped")
    finally:
        server.close()


def _parse_steps(raw: str) -> tuple:
    try:
        steps = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise SystemExit(f"--steps must be comma-separated ints: {raw!r}")
    if not steps:
        raise SystemExit("--steps selected no spike-train lengths")
    if any(t < 1 for t in steps):
        raise SystemExit(
            f"--steps must be positive spike-train lengths: {raw!r}")
    return steps


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument(
        "experiment",
        choices=["table1", "table2", "table3", "encoding", "dataflow",
                 "figures", "sweep", "calibrate", "serve", "loadgen",
                 "worker", "deployments", "rollout", "top", "all"],
        help="which experiment to run")
    parser.add_argument("--no-vgg", action="store_true",
                        help="skip the VGG-11 row of table3")
    parser.add_argument("--model", action="append", dest="models",
                        metavar="NAME[:T]", default=None,
                        help="serve/deployments: a named deployment "
                             "(lenet[:T], fang[:T]); repeat for "
                             "multi-model serving from one pool")
    parser.add_argument("--token", default=None, metavar="SECRET",
                        help="fabric shared secret: workers started "
                             "with --token reject unauthenticated "
                             "payloads; drivers attach it to remote "
                             "lanes and join handshakes")
    parser.add_argument("--backend", choices=available_backends(),
                        default=None,
                        help="execution engine (default: reference for "
                             "trace-level sims, vectorized for accuracy "
                             "scoring and sweeps)")
    parser.add_argument("--workers", type=_parse_workers, default=1,
                        metavar="N|SPEC,...",
                        help="fabric lanes for sweeps/serving: a process "
                             "count, or comma-separated specs mixing "
                             "'thread', 'process', 'process:4' and "
                             "remote 'host:port' TCP workers "
                             "(default: 1)")
    parser.add_argument("--listen", type=_parse_listen,
                        default=("127.0.0.1", 7601), metavar="HOST:PORT",
                        help="worker: bind address for the TCP engine "
                             "worker (default: 127.0.0.1:7601)")
    parser.add_argument("--join", type=_parse_listen, default=None,
                        metavar="HOST:PORT",
                        help="worker: dial a driver accepting joiners "
                             "(sweep --accept) and serve over the "
                             "connection, retrying until it appears")
    parser.add_argument("--retry-s", dest="retry_s", type=float,
                        default=1.0, metavar="S",
                        help="worker --join: reconnect period "
                             "(default: 1.0)")
    parser.add_argument("--accept", type=_parse_listen, default=None,
                        metavar="HOST:PORT",
                        help="sweep: accept `repro worker --join` hosts "
                             "as lanes for the duration of the run")
    parser.add_argument("--stream", default=None, metavar="PATH",
                        help="sweep: append one JSON line per completed "
                             "shard (deployment, range, cycles, top-1 "
                             "so far) to PATH for live dashboards")
    parser.add_argument("--shard-size", type=_positive_int, default=64,
                        metavar="M",
                        help="images per sweep work unit (default: 64)")
    parser.add_argument("--saturate", action="store_true",
                        help="sweep: size shards from measured "
                             "per-image, per-batch and calibrated "
                             "dispatch costs, growing them until lanes "
                             "saturate (overrides --shard-size)")
    parser.add_argument("--window", type=_positive_int, default=None,
                        metavar="W",
                        help="sweep: in-flight dispatch chunks per "
                             "pipelined lane (default: credit-based "
                             "from calibrated dispatch cost vs. "
                             "measured service time; 1 forces "
                             "stop-and-wait); worker: cap advertised "
                             "to dispatchers (default: 8)")
    parser.add_argument("--force", action="store_true",
                        help="calibrate: re-measure even when a table "
                             "for this deployment already exists")
    parser.add_argument("--steps", default="3,4", metavar="T,T,...",
                        help="spike-train lengths for the sweep command "
                             "(default: 3,4; serve/loadgen deploy the "
                             "first)")
    serving = parser.add_argument_group(
        "serving options (serve / loadgen)")
    serving.add_argument("--host", default="127.0.0.1",
                         help="bind/connect address (default: 127.0.0.1)")
    serving.add_argument("--port", type=int, default=0, metavar="P",
                         help="serve: TCP port (default: ephemeral); "
                              "loadgen: target a running server instead "
                              "of the in-process one")
    serving.add_argument("--policy", choices=available_policies(),
                         default="greedy",
                         help="micro-batch flush policy (default: greedy)")
    serving.add_argument("--max-batch", type=_positive_int, default=32,
                         metavar="B",
                         help="micro-batch size cap (default: 32)")
    serving.add_argument("--max-wait-ms", type=float, default=2.0,
                         metavar="MS",
                         help="greedy policy: max coalescing wait "
                              "(default: 2.0)")
    serving.add_argument("--slo-ms", type=float, default=50.0,
                         metavar="MS",
                         help="deadline policy: p99 latency target "
                              "(default: 50.0)")
    serving.add_argument("--queue-depth", type=_positive_int,
                         default=1024, metavar="N",
                         help="bounded request queue (default: 1024)")
    serving.add_argument("--engines", type=_positive_int, default=1,
                         metavar="N",
                         help="warm thread-lane engines in the serving "
                              "pool (default: 1; --workers overrides "
                              "with explicit fabric lanes)")
    serving.add_argument("--replicas", type=_positive_int, default=1,
                         metavar="N",
                         help="serve: execute every request N times on "
                              "distinct lanes and runtime-assert the "
                              "answers bit-identical (default: 1)")
    serving.add_argument("--quorum", type=_positive_int, default=None,
                         metavar="Q",
                         help="serve --replicas: how many replicas must "
                              "answer; tolerates N-Q replica failures "
                              "(default: all N)")
    serving.add_argument("--result-cache", dest="result_cache",
                         type=int, default=128, metavar="N",
                         help="serve/loadgen: content-addressed result "
                              "cache capacity — byte-identical images "
                              "answer from an LRU at admission instead "
                              "of executing again (default: 128; 0 "
                              "disables)")
    serving.add_argument("--alias", default=None, metavar="NAME",
                         help="rollout: the serving alias to flip")
    serving.add_argument("--to", dest="to", default=None, metavar="NAME",
                         help="rollout: the deployment the alias should "
                              "point at (must already be serving)")
    serving.add_argument("--no-drain", action="store_true",
                         help="rollout: return right after the atomic "
                              "flip instead of waiting for the old "
                              "lane's queue to empty")
    serving.add_argument("--requests", type=_positive_int, default=256,
                         metavar="N",
                         help="loadgen: requests to offer (default: 256)")
    serving.add_argument("--unique", type=_positive_int, default=None,
                         metavar="N",
                         help="loadgen: cap distinct request images — "
                              "the trace tiles N images across "
                              "--requests submissions, so duplicates "
                              "exercise the result cache (default: all "
                              "distinct)")
    serving.add_argument("--rate", type=float, default=500.0,
                         metavar="RPS",
                         help="loadgen: offered load in requests/s "
                              "(default: 500)")
    serving.add_argument("--arrival", choices=["even", "poisson"],
                         default="even",
                         help="loadgen: arrival discipline — evenly "
                              "spaced, or seeded-Poisson gaps "
                              "(default: even)")
    serving.add_argument("--seed", type=int, default=0, metavar="N",
                         help="loadgen: RNG seed for --arrival poisson; "
                              "the same seed reproduces the identical "
                              "offered-load trace (default: 0)")
    serving.add_argument("--deployment", default=None, metavar="NAME",
                         help="loadgen over TCP: route every request to "
                              "this named deployment of a multi-model "
                              "server")
    serving.add_argument("--metrics-port", dest="metrics_port",
                         type=int, default=None, metavar="P",
                         help="serve: expose Prometheus /metrics, "
                              "/metrics.json and /traces over HTTP on "
                              "this port (0 = ephemeral) and enable "
                              "request tracing")
    serving.add_argument("--latency-out", dest="latency_out",
                         default=None, metavar="PATH",
                         help="loadgen: append one JSON line per "
                              "request (index, latency_ms, deployment, "
                              "trace_id) to PATH")
    serving.add_argument("--once", action="store_true",
                         help="top: print a single frame and exit "
                              "(scripting / CI smoke)")
    serving.add_argument("--interval", type=float, default=2.0,
                         metavar="S",
                         help="top: refresh period in seconds "
                              "(default: 2.0)")
    args = parser.parse_args(argv)

    # --backend drives the trace-level sims; accuracy scoring stays on
    # the vectorized engine (full test sets are intractable on the
    # reference model) — except for the fabric commands (sweep, serve,
    # loadgen), where the flag explicitly names the lane engine: every
    # backend is bit-identical, so the flag only changes speed, never
    # a score or a served prediction.
    score_backend = "vectorized"
    if args.backend and args.experiment in ("sweep", "serve", "loadgen"):
        score_backend = args.backend
    stream_fh = None
    sweep_stream = None
    if args.experiment == "sweep" and args.stream:
        import json

        stream_fh = open(args.stream, "w", encoding="utf-8")

        def sweep_stream(record: dict) -> None:
            stream_fh.write(json.dumps(record) + "\n")
            stream_fh.flush()  # a dashboard tails this file live

    runner = ExperimentRunner(
        backend=args.backend or "reference",
        score_backend=score_backend,
        sweep_workers=args.workers,
        sweep_shard_size=args.shard_size,
        sweep_saturate=args.saturate,
        sweep_stream=sweep_stream,
        sweep_accept=args.accept,
        sweep_window=args.window,
        fabric_token=args.token,
    )
    if args.accept is not None and args.experiment == "sweep":
        print(f"sweep accepting `repro worker --join "
              f"{args.accept[0]}:{args.accept[1]}` hosts mid-run")
    dispatch = {
        "table1": lambda: _print_table1(runner),
        "table2": lambda: _print_table2(runner),
        "table3": lambda: _print_table3(runner, not args.no_vgg),
        "encoding": lambda: _print_encoding(runner),
        "dataflow": lambda: _print_dataflow(runner),
        "figures": lambda: _print_figures(runner),
        "sweep": lambda: _print_sweep(runner, _parse_steps(args.steps)),
        "calibrate": lambda: _run_calibrate(runner, args),
        "serve": lambda: _run_serve(runner, args),
        "loadgen": lambda: _run_loadgen(runner, args),
        "worker": lambda: _run_worker(args),
        "deployments": lambda: _print_deployments(runner, args),
        "rollout": lambda: _run_rollout(args),
        "top": lambda: _run_top(args),
    }
    try:
        if args.experiment == "all":
            for name, fn in dispatch.items():
                if name in ("sweep", "calibrate", "serve", "loadgen",
                            "worker", "deployments", "rollout", "top"):
                    continue  # sweep covered by table1; deployments
                    # re-trains serving models; the rest are daemons
                print(f"\n===== {name} =====")
                fn()
        else:
            dispatch[args.experiment]()
    finally:
        if stream_fh is not None:
            stream_fh.close()
            print(f"per-shard stream written to {args.stream}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
