"""Command-line interface.

    python -m repro catalog
    python -m repro run Q5 --people 16 --epsilon 1.0
    python -m repro run "SELECT HISTO(COUNT(*)) FROM neigh(1)" --noiseless
    python -m repro run Q5 --backend numpy --workers 4
    python -m repro figures
    python -m repro demo
    python -m repro bench --quick
    python -m repro audit --seed 0 --trials 50 --shrink
    python -m repro adversary --profile combined --intensities 0,1,1.5
    python -m repro campaign --dir /tmp/c --num-queries 3
    python -m repro campaign --dir /tmp/c --resume
    python -m repro serve --port 7844 --max-inflight 64

``run`` generates a synthetic epidemic workload, stands up a deployment
at the TEST ring, and executes the query end to end; ``figures`` prints
the analytic series behind the paper's evaluation plots; ``demo`` runs a
query over the real mix network; ``bench`` times the ring-multiplication
hot path across every available compute backend and a worker sweep (see
``docs/PERFORMANCE.md``); ``audit`` drives the seeded
differential-testing and invariant-audit harness (see
``docs/CORRECTNESS.md``); ``adversary`` sweeps a seeded Byzantine
attack profile across intensities and prints the
:class:`~repro.adversary.survivability.SurvivabilityReport` — goodput,
quarantines, and exactness under attack (see ``docs/RESILIENCE.md``);
``campaign`` runs a durable multi-query
campaign through the write-ahead journal — killable at any phase
boundary (exit code 42) and resumable bit-identically with ``--resume``
(see ``docs/RESILIENCE.md``); ``serve`` runs the long-lived asyncio
query service with DP admission control over a localhost socket (see
``docs/SERVICE.md``).

The full generated reference for every subcommand lives in
``docs/CLI.md`` (regenerate with ``make cli-docs``; a test keeps it in
sync).
"""

from __future__ import annotations

import argparse
import dataclasses
import random
import sys

from repro.params import PAPER, SystemParameters
from repro.query.catalog import CATALOG, all_queries


def _build_workload(people: int, degree: int, seed: int):
    from repro.workloads.epidemic import build_campaign_graph

    rng = random.Random(seed)
    return build_campaign_graph(people, degree, rng), rng


def _runtime_from_args(args: argparse.Namespace):
    """Explicit flags beat the MYCELIUM_* environment overrides."""
    from repro.runtime import RuntimeConfig

    flags = {
        name: getattr(args, name)
        for name in ("workers", "backend", "shards")
        if getattr(args, name, None) is not None
    }
    return dataclasses.replace(RuntimeConfig.from_env(), **flags)


def cmd_catalog(_args: argparse.Namespace) -> int:
    params = SystemParameters()
    print(f"{'id':<4} {'cts':>3} {'mults':>5} {'paper-feasible':>14}  description")
    for entry in all_queries():
        plan = entry.plan(params)
        budget = plan.budget_report(PAPER)
        print(
            f"{entry.qid:<4} {plan.ciphertexts_per_contribution:>3} "
            f"{budget.multiplications_required:>5} "
            f"{str(budget.feasible):>14}  {entry.description}"
        )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.core.system import MyceliumSystem
    from repro.query.ast import OutputKind
    from repro.query.schema import scaled_schema

    runtime = _runtime_from_args(args)
    query = CATALOG[args.query] if args.query in CATALOG else args.query
    graph, rng = _build_workload(args.people, args.degree, args.seed)
    params = SystemParameters(
        num_devices=graph.num_vertices,
        degree_bound=args.degree,
        hops=2,
        committee_size=3,
        replicas=2,
        forwarder_fraction=0.3,
    )
    system = MyceliumSystem.setup(
        num_devices=graph.num_vertices,
        rng=rng,
        params=params,
        schema=scaled_schema(),
        committee_size=3,
        committee_threshold=2,
        total_epsilon=max(10.0, args.epsilon),
    )
    result = system.run_query(
        query, graph, epsilon=args.epsilon, noiseless=args.noiseless,
        runtime=runtime,
    )
    md = result.metadata
    print(f"query: {md.query_text}")
    print(
        f"epsilon={md.epsilon} sensitivity={md.sensitivity:.0f} "
        f"scale={md.noise_scale:.2f} origins={md.contributing_origins} "
        f"rejected={md.rejected_origins}"
    )
    if result.kind is OutputKind.HISTO:
        for group in result.groups:
            nonzero = [
                (value, count)
                for value, count in enumerate(group.counts)
                if abs(count) > 0.5
            ]
            if nonzero:
                print(f"group {group.group}: {nonzero}")
    else:
        for group, value in enumerate(result.values):
            print(f"group {group}: {value:+.3f}")
    return 0


def cmd_figures(_args: argparse.Namespace) -> int:
    from repro.analysis import anonymity, bandwidth, committee_model, duration, goodput

    defaults = SystemParameters()
    print("Figure 5(a) — anonymity set vs hops (r=2, mal=2%):")
    for k, size in anonymity.figure_5a_series()[2]:
        print(f"  k={k}: {size:,.0f}")
    print("Figure 5(c) — goodput at r=2:")
    for failure, success in goodput.figure_5c_series()[2]:
        print(f"  {failure:.0%} failure: {success:.4f}")
    print("Figure 5(d) — C-rounds:")
    for k, rounds in duration.figure_5d_series()["telescoping"]:
        print(f"  k={k}: setup {rounds}, query {duration.forwarding_crounds(k)}")
    print("Figure 7 — per-device MB at (k=3, r=2):")
    print(f"  forwarder {bandwidth.forwarder_mb(defaults):.0f}")
    print(f"  non-forwarder {bandwidth.non_forwarder_mb(defaults):.0f}")
    print(f"  expected {bandwidth.expected_user_mb(defaults):.0f}")
    print("Figure 8(a) — committee privacy failure at 4% malice:")
    for size in (10, 20, 40):
        p = committee_model.privacy_failure_probability(size, 0.04)
        print(f"  C={size}: {p:.2e}")
    return 0


def cmd_schedule(args: argparse.Namespace) -> int:
    from repro.core.rounds import build_schedule, queries_per_path_epoch
    from repro.query.compiler import compile_query
    from repro.query.parser import parse

    text = CATALOG[args.query].text if args.query in CATALOG else args.query
    params = SystemParameters(hops=args.hops)
    plan = compile_query(parse(text), params)
    schedule = build_schedule(plan, params, reuse_paths=args.reuse_paths)
    print(f"query: {text}")
    print(f"mixnet hops k={args.hops}; one C-round = 1 hour\n")
    for name, crounds, description in schedule.table():
        print(f"  {name:<26} {crounds:>3} C-rounds  ({description})")
    print(
        f"\ntotal: {schedule.total_crounds} C-rounds "
        f"(~{schedule.total_hours():.0f} hours)"
    )
    print(
        f"queries per 7-day path epoch: "
        f"{queries_per_path_epoch(plan, params)}"
    )
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.core.system import MyceliumSystem
    from repro.mixnet.network import MixnetWorld
    from repro.query.schema import scaled_schema

    graph, rng = _build_workload(args.people, 2, args.seed)
    params = SystemParameters(
        num_devices=graph.num_vertices, hops=2, replicas=1,
        forwarder_fraction=0.45, degree_bound=2, pseudonyms_per_device=2,
    )
    world = MixnetWorld(
        params, num_devices=graph.num_vertices, rng=rng, rsa_bits=512,
        pseudonyms_per_device=2,
    )
    system = MyceliumSystem.setup(
        num_devices=graph.num_vertices, rng=rng, params=params,
        schema=scaled_schema(), max_relin_power=6,
    )
    query = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"
    with telemetry.session() as collected:
        result = system.run_query(
            query, graph, epsilon=1.0, world=world, noiseless=True
        )
    released = [int(c) for group in result.groups for c in group.counts]
    expected = [
        c
        for histogram in system.plaintext_answer(query, graph).histograms
        for c in histogram.counts
    ]
    proofs = int(collected.metrics.value("aggregator.proofs.verified"))
    print(f"C-rounds: {result.metadata.recovery.crounds}")
    print(f"proofs verified: {proofs}")
    print(f"decrypted == plaintext oracle: {released == expected}")
    print(f"histogram: {released}")
    return 0


def _bench_mul_task(context, seed: int):
    """Fabric task: one seeded negacyclic multiply on the active backend.

    Module-level so worker processes can import it by reference; the
    seed makes every worker's operands independent of scheduling.
    """
    from repro.crypto.polyring import RingElement, RingParams

    n, q = context
    params = RingParams(n=n, q=q)
    rng = random.Random(seed)
    a = RingElement.random_uniform(params, rng)
    b = RingElement.random_uniform(params, rng)
    return (a * b).coeffs[0]


def cmd_bench(args: argparse.Namespace) -> int:
    import time

    from repro.params import SMALL, TEST
    from repro.runtime import TaskFabric, available_backends, use_backend

    profile = TEST if args.quick else SMALL
    ops = 8 if args.quick else 16
    worker_counts = (1, 2) if args.quick else (1, 2, 4)
    ring = profile.ring
    context = (ring.n, ring.q)
    seeds = list(range(1000, 1000 + ops))
    print(
        f"ring multiply: n={ring.n}, log2(q)={ring.q.bit_length()}, "
        f"{ops} ops per cell (profile {profile.name!r})"
    )
    print(f"{'backend':<8} {'workers':>7} {'total_s':>9} {'ms/op':>9} {'speedup':>8}")
    baseline = None
    for backend in available_backends():
        for workers in worker_counts:
            # chunk_size=2 keeps several chunks in flight so workers>1
            # really dispatches out of process (same chunking at every
            # worker count, so all cells do identical work).
            with use_backend(backend), TaskFabric(
                workers=workers, chunk_size=2
            ) as fabric:
                started = time.perf_counter()
                fabric.map(
                    _bench_mul_task, seeds, context=context, label="bench.mul"
                )
                elapsed = time.perf_counter() - started
            if baseline is None:
                baseline = elapsed
            print(
                f"{backend:<8} {workers:>7} {elapsed:>9.3f} "
                f"{1000 * elapsed / ops:>9.3f} {baseline / elapsed:>7.2f}x"
            )
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.errors import ProtocolError
    from repro.faults.chaos import ChaosQuery

    chaos = ChaosQuery.build(
        args.people, args.failure, args.seed, epsilon=args.epsilon,
        committee_outage=True,
    )
    print(
        f"chaos: people={chaos.graph.num_vertices} failure={args.failure} "
        f"seed={args.seed} fault_start=C-round {chaos.fault_start}"
    )
    telemetry.enable()
    try:
        result, got_counts, expected_counts = chaos.run()
    except ProtocolError as exc:
        print(f"query failed with a typed error: {type(exc).__name__}: {exc}")
        if args.trace:
            telemetry.export_jsonl(args.trace)
            print(f"telemetry trace written to {args.trace}")
        telemetry.disable()
        return 1
    print(result.metadata.recovery.summary())
    print(f"histogram: {got_counts}")
    print(
        "result matches the degraded plaintext oracle: "
        f"{got_counts == expected_counts}"
    )
    if args.trace:
        telemetry.export_jsonl(args.trace)
        print(f"telemetry trace written to {args.trace}")
    telemetry.disable()
    return 0 if got_counts == expected_counts else 1


#: Process exit code for a simulated coordinator crash (`campaign
#: --kill-at`); distinct from ordinary failures so the chaos driver and
#: the CI crash-recovery matrix can assert the kill actually fired.
CRASH_EXIT_CODE = 42


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.durability.campaign import (
        CampaignConfig,
        CampaignRunner,
        KillSpec,
    )
    from repro.errors import CoordinatorCrash, ProtocolError
    from repro.workloads.epidemic import campaign_queries

    runtime = _runtime_from_args(args)
    kill = None
    if args.kill_at and args.kill_before:
        print("--kill-at and --kill-before are mutually exclusive")
        return 2
    try:
        if args.kill_at:
            kill = KillSpec.parse(args.kill_at, before=False)
        elif args.kill_before:
            kill = KillSpec.parse(args.kill_before, before=True)
    except ProtocolError as exc:
        print(exc)
        return 2

    if args.resume:
        runner = CampaignRunner.resume(
            args.dir, runtime=runtime, kill=kill, fsync=not args.no_fsync
        )
    else:
        queries = tuple(
            (q, args.epsilon) for q in args.queries
        ) if args.queries else campaign_queries(
            args.num_queries, args.epsilon
        )
        config = CampaignConfig(
            master_seed=args.seed,
            queries=queries,
            people=args.people,
            degree=args.degree,
            total_epsilon=args.total_epsilon,
            rotate_every=args.rotate_every,
            churn_fraction=args.churn,
            fault_seed=args.fault_seed,
            committee_churn_members=args.committee_churn_members,
            committee_churn_start=args.committee_churn_start,
            committee_churn_rounds=args.committee_churn_rounds,
            committee_size=args.committee_size,
            committee_threshold=args.committee_threshold,
            committee_corrupt_members=args.committee_corrupt_members,
        )
        runner = CampaignRunner.start(
            config, args.dir, runtime=runtime, kill=kill,
            fsync=not args.no_fsync,
        )
    try:
        result = runner.run()
    except CoordinatorCrash as exc:
        print(
            f"coordinator crashed at phase {exc.phase!r}"
            + (
                f" of query {exc.query_index}"
                if exc.query_index is not None
                else ""
            )
        )
        print(f"journal is resumable: repro campaign --resume --dir {args.dir}")
        return CRASH_EXIT_CODE
    print(f"queries released: {len(result.results)}")
    print(
        "epochs: "
        + ", ".join(f"{e['epoch']}({e['reason']})" for e in result.epochs)
    )
    print(f"emergency reshares: {result.emergency_reshares}")
    print(f"quorum wait rounds: {result.quorum_wait_rounds}")
    print(f"campaign clock: {result.clock_rounds} C-rounds")
    print(f"digest: {result.digest}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import QueryService, ServiceConfig

    runtime = _runtime_from_args(args)
    config = ServiceConfig(
        master_seed=args.seed,
        people=args.people,
        degree=args.degree,
        total_epsilon=args.total_epsilon,
        rotate_every=args.rotate_every,
        max_batch=args.max_batch,
        max_inflight=args.max_inflight,
        directory=args.dir,
        fsync=not args.no_fsync,
        default_deadline_seconds=args.deadline_seconds,
    )

    async def main() -> int:
        service = QueryService(config, runtime=runtime)
        server = await service.serve(args.host, args.port)
        host, port = server.sockets[0].getsockname()[:2]
        print(f"mycelium query service on {host}:{port}")
        print(
            f"  deployment: people={config.people} "
            f"epsilon-budget={config.total_epsilon} "
            f"max-batch={config.max_batch} "
            f"max-inflight={config.max_inflight}"
        )
        print(f"  round journals under {service.directory}")
        print("  Ctrl-C drains in-flight rounds and exits")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            print("draining…")
            await service.shutdown()
            stats = service.stats()
            budget = stats["budget"]
            print(
                f"served {stats['admitted']} queries over "
                f"{stats['scheduler']['rounds']} rounds; "
                f"epsilon spent {budget['spent']:.3f}/"
                f"{budget['total_epsilon']} "
                f"(ledger conserved: {budget['conserved']})"
            )
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:
        return 0


def cmd_adversary(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.adversary import PROFILES, get_profile, run_survivability

    if args.list:
        for profile in PROFILES.values():
            print(f"{profile.name:<24} {profile.description}")
        return 0
    profile = get_profile(args.profile)
    intensities = tuple(
        float(x) for x in args.intensities.split(",") if x.strip()
    )
    telemetry.enable()
    try:
        report = run_survivability(
            profile,
            seed=args.seed,
            num_devices=args.people,
            num_queries=args.queries,
            intensities=intensities,
            epsilon=args.epsilon,
            log=lambda message: print(message, flush=True),
        )
    finally:
        if args.trace:
            telemetry.export_jsonl(args.trace)
            print(f"telemetry trace written to {args.trace}")
        telemetry.disable()
    if args.json:
        import json

        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.summary())
    return 0 if report.survived else 1


def cmd_audit(args: argparse.Namespace) -> int:
    from repro.audit.runner import run_audit, run_self_test

    def log(message: str) -> None:
        print(message, flush=True)

    if args.self_test:
        report = run_self_test(log=log)
        print(report.summary())
        return 0 if report.passed else 1
    if args.replay:
        from repro.audit.replay import load_bundle
        from repro.audit.runner import run_single_case

        bundle = load_bundle(args.replay)
        case = bundle.reproducer
        print(
            f"replaying {args.replay}: seed={bundle.master_seed} "
            f"trial={bundle.trial_index} kind={case.kind}"
            + (" (shrunk reproducer)" if bundle.shrunk is not None else "")
        )
        outcome = run_single_case(case)
        for check in outcome.checks:
            print(f"  {check}")
        return 0 if outcome.passed else 1
    kinds = None
    if args.kinds:
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
    report = run_audit(
        args.seed,
        args.trials,
        shrink=args.shrink,
        bundle_dir=args.bundle_dir,
        log=log,
        kinds=kinds,
    )
    print(report.summary())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mycelium reproduction: private distributed graph queries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list the Figure 2 query catalog").set_defaults(
        fn=cmd_catalog
    )

    run = sub.add_parser("run", help="run a query over a synthetic workload")
    run.add_argument("query", help="catalog id (Q1..Q10) or query text")
    run.add_argument("--people", type=int, default=14)
    run.add_argument("--degree", type=int, default=3)
    run.add_argument("--epsilon", type=float, default=1.0)
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--noiseless", action="store_true")
    run.add_argument(
        "--backend", default=None,
        help="compute backend: pure, numpy, or auto (default: "
        "$MYCELIUM_BACKEND or auto)",
    )
    run.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for parallel stages (default: "
        "$MYCELIUM_WORKERS or 1); results are identical at any count",
    )
    run.set_defaults(fn=cmd_run)

    bench = sub.add_parser(
        "bench",
        help="time the ring-multiply hot path per backend and worker count",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="small ring and short sweep (seconds, not minutes)",
    )
    bench.set_defaults(fn=cmd_bench)

    sub.add_parser(
        "figures", help="print the evaluation-figure series"
    ).set_defaults(fn=cmd_figures)

    schedule = sub.add_parser(
        "schedule", help="show a query's C-round timeline"
    )
    schedule.add_argument("query", help="catalog id (Q1..Q10) or query text")
    schedule.add_argument("--hops", type=int, default=3)
    schedule.add_argument("--reuse-paths", action="store_true")
    schedule.set_defaults(fn=cmd_schedule)

    demo = sub.add_parser("demo", help="full-stack query over the mixnet")
    demo.add_argument("--people", type=int, default=10)
    demo.add_argument("--seed", type=int, default=91)
    demo.set_defaults(fn=cmd_demo)

    chaos = sub.add_parser(
        "chaos",
        help="run one faulted query end-to-end and print the RecoveryReport",
    )
    chaos.add_argument("--people", type=int, default=10)
    chaos.add_argument(
        "--failure", type=float, default=0.1,
        help="overall fault intensity in [0, 1] (split across churn and "
        "wire drop/delay/corrupt rates)",
    )
    chaos.add_argument("--seed", type=int, default=7)
    chaos.add_argument("--epsilon", type=float, default=1.0)
    chaos.add_argument(
        "--trace", help="write the telemetry JSONL trace to this path"
    )
    chaos.set_defaults(fn=cmd_chaos)

    campaign = sub.add_parser(
        "campaign",
        help="durable multi-query campaign with write-ahead journal, "
        "crash/resume, and committee epoch lifecycle",
    )
    campaign.add_argument(
        "--dir", required=True,
        help="campaign directory (holds journal.jsonl)",
    )
    campaign.add_argument(
        "--resume", action="store_true",
        help="resume a crashed campaign from its journal",
    )
    campaign.add_argument("--seed", type=int, default=7)
    campaign.add_argument("--people", type=int, default=12)
    campaign.add_argument("--degree", type=int, default=3)
    campaign.add_argument(
        "--num-queries", type=int, default=3,
        help="length of the default epidemic campaign cycle",
    )
    campaign.add_argument(
        "--queries", nargs="*", default=None,
        help="explicit catalog ids overriding the default cycle",
    )
    campaign.add_argument("--epsilon", type=float, default=0.5)
    campaign.add_argument("--total-epsilon", type=float, default=10.0)
    campaign.add_argument(
        "--rotate-every", type=int, default=1,
        help="scheduled VSR handoff after every k-th query (0 = never)",
    )
    campaign.add_argument(
        "--churn", type=float, default=0.0,
        help="random device churn fraction per fault-plan window",
    )
    campaign.add_argument("--fault-seed", type=int, default=0)
    campaign.add_argument(
        "--committee-churn-members", type=int, default=0,
        help="knock this many genesis committee members offline "
        "(deterministic emergency-reshare scenario)",
    )
    campaign.add_argument("--committee-churn-start", type=int, default=0)
    campaign.add_argument("--committee-churn-rounds", type=int, default=40)
    campaign.add_argument(
        "--committee-size", type=int, default=3,
        help="members per committee epoch",
    )
    campaign.add_argument(
        "--committee-threshold", type=int, default=2,
        help="Shamir threshold for the committee key sharing",
    )
    campaign.add_argument(
        "--committee-corrupt-members", type=int, default=0,
        help="make this many genesis committee members submit corrupted "
        "partial decryptions (robust decode corrects and flags them)",
    )
    campaign.add_argument(
        "--kill-at", default=None, metavar="PHASE[:QUERY]",
        help="crash the coordinator right after this phase's journal "
        f"record is durable (exit code {CRASH_EXIT_CODE})",
    )
    campaign.add_argument(
        "--kill-before", default=None, metavar="PHASE[:QUERY]",
        help="crash after computing the phase but before its record is "
        "written (exercises the re-run path)",
    )
    campaign.add_argument(
        "--no-fsync", action="store_true",
        help="skip the per-record fsync barrier (benchmarking only)",
    )
    campaign.add_argument("--backend", default=None)
    campaign.add_argument("--workers", type=int, default=None)
    campaign.add_argument(
        "--shards", type=int, default=None,
        help="aggregator shard count (K): verify/sum origins in K "
        "independent shards with a claim-checked root reduction; "
        "results are bit-identical at any K (docs/SHARDING.md)",
    )
    campaign.set_defaults(fn=cmd_campaign)

    serve = sub.add_parser(
        "serve",
        help="long-lived asyncio query service: budget-gated admission, "
        "batched journaled rounds, localhost frame protocol "
        "(docs/SERVICE.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7844,
        help="listening port (0 picks a free port and prints it)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=64,
        help="bound of the admission queue; submissions past this get a "
        "queue_full rejection (backpressure)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=4,
        help="most submissions batched into one scheduled round",
    )
    serve.add_argument("--seed", type=int, default=7)
    serve.add_argument("--people", type=int, default=8)
    serve.add_argument("--degree", type=int, default=3)
    serve.add_argument(
        "--total-epsilon", type=float, default=10.0,
        help="the deployment's epsilon ledger; admission rejects past it",
    )
    serve.add_argument(
        "--rotate-every", type=int, default=0,
        help="VSR handoff cadence inside each round's campaign (0 = never)",
    )
    serve.add_argument(
        "--dir", default=None,
        help="root for per-round campaign journals (default: a tempdir)",
    )
    serve.add_argument(
        "--no-fsync", action="store_true",
        help="skip per-record journal fsync (benchmarking only)",
    )
    serve.add_argument(
        "--deadline-seconds", type=float, default=None,
        help="default per-query deadline, enforced end to end; a "
        "submission may override it (docs/SERVICE.md)",
    )
    serve.add_argument("--backend", default=None)
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument(
        "--shards", type=int, default=None,
        help="aggregator shard count for every served round "
        "(docs/SHARDING.md); results are bit-identical at any K",
    )
    serve.set_defaults(fn=cmd_serve)

    audit = sub.add_parser(
        "audit",
        help="seeded differential-testing / invariant-audit harness "
        "(encrypted vs plaintext oracle, budget, sensitivity, Shamir, "
        "mixnet invariants)",
    )
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--trials", type=int, default=50)
    audit.add_argument(
        "--shrink", action="store_true",
        help="minimize any failing case to a small reproducer",
    )
    audit.add_argument(
        "--bundle-dir", default=None,
        help="write a JSON replay bundle per failure into this directory",
    )
    audit.add_argument(
        "--replay", default=None, metavar="BUNDLE",
        help="re-run the reproducer from a replay bundle and exit",
    )
    audit.add_argument(
        "--self-test", action="store_true",
        help="inject the known mutants and verify the harness catches "
        "every one",
    )
    audit.add_argument(
        "--kinds", default=None, metavar="KIND[,KIND...]",
        help="restrict the run to these trial families, round-robin "
        "(e.g. byzantine_survival,quarantine_soundness)",
    )
    audit.set_defaults(fn=cmd_audit)

    adversary = sub.add_parser(
        "adversary",
        help="sweep a seeded Byzantine attack profile across intensities "
        "and report survivability: goodput vs the Figure 5c model, "
        "quarantines, and answer exactness (docs/RESILIENCE.md)",
    )
    adversary.add_argument(
        "--profile", default="combined",
        help="attack profile name (see --list)",
    )
    adversary.add_argument(
        "--list", action="store_true",
        help="list the built-in attack profiles and exit",
    )
    adversary.add_argument(
        "--intensities", default="0,0.5,1,1.5",
        help="comma-separated intensity multipliers to sweep",
    )
    adversary.add_argument("--seed", type=int, default=7)
    adversary.add_argument("--people", type=int, default=10)
    adversary.add_argument(
        "--queries", type=int, default=3,
        help="queries per sweep point (the honest workload)",
    )
    adversary.add_argument("--epsilon", type=float, default=0.5)
    adversary.add_argument(
        "--json", action="store_true",
        help="print the full report as JSON instead of the summary",
    )
    adversary.add_argument(
        "--trace", help="write the telemetry JSONL trace to this path"
    )
    adversary.set_defaults(fn=cmd_adversary)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.runtime import RuntimeConfig, set_runtime_config

    # Every subcommand honors MYCELIUM_WORKERS / MYCELIUM_BACKEND;
    # explicit flags (e.g. `run --workers`) still win over these.
    set_runtime_config(RuntimeConfig.from_env())
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
