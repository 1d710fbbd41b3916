"""The four workloads: inputs made from the seed, timed rounds, checks.

Each workload function takes ``(seed, seconds, setups, tracer)`` and
returns an :class:`Outcome`:

- ``e2e`` — the end-to-end metrics of an untraced run;
- ``layer`` — the per-layer figures the workload owns (filled when a
  :class:`~tracing.Tracer` is passed, i.e. in the traced run);
- ``checks`` — every output check made, each one operation.

A run repeats one **round** — the same operations on the same inputs —
until ``seconds`` have passed, so it always ends on a round boundary and
every run attempts the same operations per round. Host-time figures are
medians over the rounds (:func:`round_metrics`), which a stretch of a
few slow seconds on a shared machine does not move. Every reference a
check compares against is computed in the same run.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import repro.cluster.replica
import repro.cluster.router
import repro.exec.continuous
import repro.exec.executor
import repro.hw.accelerator
import repro.models.zoo
import repro.program.cache
import repro.serve.batched
import repro.serve.cache
import repro.serve.continuous
from repro.cluster import (
    ClusterRequest,
    PoissonProcess,
    ServiceTimeModel,
    build_replicas,
    make_router,
    percentile,
    simulate_cluster,
)
from repro.core.config import ExionConfig
from repro.core.pipeline import ExionPipeline
from repro.core.sparsity import RunStats
from repro.hw.accelerator import ExionAccelerator
from repro.program.cache import get_plan_cache, reset_plan_cache
from repro.serve import (
    BatchingPolicy,
    ContinuousPolicy,
    ContinuousServer,
    ExionServer,
)
from repro.workloads.metrics import psnr

from tracing import Tracer

#: The generation mix: one model of each network type, Table I configs.
SOLO_MIX = ("mdm", "stable_diffusion", "dit")
#: Distinct inputs per model in a solo round (a round is 9 samples). Three
#: per model put the round's median sample in the middle of one model's
#: samples rather than on the boundary between two models.
SOLO_INPUTS_PER_MODEL = 3
#: Prompt vocabulary for the text-conditioned model.
PROMPT_WORDS = (
    "a", "red", "bicycle", "leaning", "on", "old", "stone", "wall", "cat",
    "sleeping", "under", "warm", "lamp", "city", "street", "at", "night",
    "mountain", "lake", "sunrise", "painting", "of", "blue", "boat",
)
#: ``|ffn_output_sparsity - ffn_target_sparsity|`` allowed per sample.
SPARSITY_TOLERANCE = 0.02
#: DiT-XL/2 at the paper scale: tokens, width, depth, iterations.
DIT_PAPER = (256, 1152, 28, 100)

SERVE_MODEL = "dit"
#: Denoising iterations per served request (the spec's 100 would make
#: one round of 24 requests last about ten seconds).
SERVE_ITERATIONS = 20
SERVE_CLIENTS = 12
SERVE_MAX_BATCH = 8
#: Requests each client sends per round (a round is 24 requests).
SERVE_REQUESTS_PER_CLIENT = 2
#: Distinct (seed, label) inputs a round cycles through, so every input
#: repeats in different batches.
SERVE_POOL = 6
#: Inputs whose first completion is checked against the solo oracle.
SERVE_ORACLE_INPUTS = 2

FLEET_REPLICAS = 16
FLEET_ACCELERATOR = "exion24"
#: Poisson rates of the load-latency curve the simulated figures come
#: from, in requests per simulated second, and requests per rate.
FLEET_RATES = (60.0, 120.0, 160.0)
FLEET_SIM_REQUESTS = 1000
#: Poisson rates stepped in every timed round, and requests per rate. They
#: stay below saturation: near it, the host cost of a 200-request trace
#: follows its random backlog (at 160 rps it ranged 0.9-1.4 s over eight
#: seeds on one machine), which would swamp a change to the simulator.
FLEET_TIMED_RATES = (40.0, 70.0, 100.0)
FLEET_REQUESTS = 200
FLEET_REFERENCE_RATE = 120.0
#: p99 latency limit (simulated seconds) that ``max_rps_at_slo`` meets.
FLEET_SLO_P99_S = 0.5
FLEET_TENANTS = ("gold", "silver", "bronze")
FLEET_TENANT_WEIGHTS = {"gold": 4.0, "silver": 2.0, "bronze": 1.0}


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
class Checks:
    """Output checks of one run; each is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failures.extend(other.failures)


@dataclass
class Outcome:
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    checks: Checks = field(default_factory=Checks)


def repeated_setup(setup: Callable, times: int):
    """Run ``setup`` ``times`` times from cold; median seconds, last state."""
    durations, state = [], None
    for _ in range(times):
        state = None  # let the previous set-up go before the next one
        start = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations), state


def timed_rounds(seconds: float, one_round: Callable) -> list:
    """Repeat ``one_round()`` until ``seconds`` have passed (at least once).

    ``one_round`` returns ``(latencies_s, payload)``; each round is kept
    as ``(round_s, latencies_s, payload)``.
    """
    rounds, spent = [], 0.0
    while not rounds or spent < seconds:
        start = time.perf_counter()
        latencies, payload = one_round()
        round_s = time.perf_counter() - start
        spent += round_s
        rounds.append((round_s, latencies, payload))
    return rounds


def round_metrics(rounds: list, requests_per_round: int) -> dict:
    """Throughput and median latency, each the median over the rounds."""
    return {
        "requests_per_s": requests_per_round / statistics.median(
            r[0] for r in rounds),
        "latency_p50_ms": 1e3 * statistics.median(
            percentile(r[1], 50) for r in rounds),
    }


def same_generation(a, b) -> bool:
    """Byte-equal samples and equal ``RunStats`` summaries."""
    return (
        a.sample.dtype == b.sample.dtype
        and a.sample.shape == b.sample.shape
        and a.sample.tobytes() == b.sample.tobytes()
        and a.stats.summary() == b.stats.summary()
    )


def span_ms(summary: dict, name: str, per: Optional[float] = None) -> float:
    """Milliseconds in spans ``name``: per call, or per ``per`` units."""
    row = summary.get(name)
    if row is None:
        return 0.0
    return 1e3 * row["total_s"] / (per if per is not None else row["count"])


def trace_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every measured layer."""
    tracer.wrap(repro.models.zoo, "build_model", "models.build")
    tracer.wrap(repro.serve.cache, "build_model", "models.build")

    plan_cache = repro.program.cache.PlanCache
    tracer.wrap(plan_cache, "plan", "program.plan")
    tracer.wrap(plan_cache, "compiled", "program.plan")
    tracer.wrap(plan_cache, "profile", "hw.profile")
    tracer.wrap(repro.hw.accelerator.ExionAccelerator, "simulate_plan",
                "hw.simulate_plan")

    executor = repro.exec.executor
    tracer.wrap(executor, "ffn_dense_compile", "core.ffn_dense")
    tracer.wrap(executor, "ffn_sparse_step", "core.ffn_sparse")
    tracer.wrap(executor, "ep_attention_step", "core.ep_attention")
    tracer.wrap(executor, "ep_cross_kv", "core.ep_cross_kv")
    tracer.wrap(executor.CompiledExecutor, "generate", "exec.generate")

    def tick_kind(args, kwargs) -> str:
        continuous, runs = args[0], args[1]
        dense = continuous.compiled_plan.steps[runs[0].cursor].is_dense
        return "exec.tick_dense" if dense else "exec.tick_sparse"

    tracer.wrap(repro.exec.continuous.ContinuousExecutor, "run_tick",
                tick_kind)
    tracer.wrap(repro.serve.batched.BatchedPipeline, "run_batch",
                "serve.run_batch")
    tracer.wrap(repro.serve.continuous.ContinuousServer, "step",
                "serve.continuous_step")
    tracer.wrap(repro.cluster.router.JoinShortestQueueRouter, "choose",
                "cluster.route")
    tracer.wrap(repro.cluster.replica.ContinuousReplica, "try_dispatch",
                "cluster.dispatch")


# ----------------------------------------------------------------------
# solo: one client, compiled generation over the three-model mix
# ----------------------------------------------------------------------
def _solo_input(rng: np.random.Generator, name: str) -> tuple:
    """``(name, seed, kwargs)``: a seed plus the model's conditioning."""
    seed = int(rng.integers(2**31 - 1))
    if name == "stable_diffusion":
        words = rng.choice(PROMPT_WORDS, size=5)
        return name, seed, {"prompt": " ".join(str(w) for w in words)}
    if name == "dit":
        return name, seed, {"class_label": int(rng.integers(1000))}
    return name, seed, {}


def _solo_setup() -> dict:
    reset_plan_cache()
    warmup = np.random.default_rng(0)
    pipelines = {}
    for name in SOLO_MIX:
        model = repro.models.zoo.build_model(name)
        pipeline = ExionPipeline(model, ExionConfig.for_model(name),
                                 compiled=True)
        _, seed, kwargs = _solo_input(warmup, name)
        pipeline.generate(seed=seed, **kwargs)  # compiles the plan
        pipelines[name] = pipeline
    return pipelines


def solo(seed: int, seconds: float, setups: int,
         tracer: Optional[Tracer] = None) -> Outcome:
    setup_s, pipelines = repeated_setup(_solo_setup, setups)
    first_span = len(tracer.spans) if tracer else 0
    rng = np.random.default_rng([seed, 1])
    inputs = [
        _solo_input(rng, name)
        for _ in range(SOLO_INPUTS_PER_MODEL) for name in SOLO_MIX
    ]

    def one_round():
        latencies, results = [], []
        for name, sample_seed, kwargs in inputs:
            began = time.perf_counter()
            results.append(
                pipelines[name].generate(seed=sample_seed, **kwargs))
            latencies.append(time.perf_counter() - began)
        return latencies, results

    rounds = timed_rounds(seconds, one_round)
    timed_spans = tracer.summary(first_span) if tracer else {}
    out = Outcome(e2e={"setup_s": setup_s,
                       **round_metrics(rounds, len(inputs))})

    checks = out.checks
    oracles = [
        ExionPipeline(pipelines[name].model, pipelines[name].config)
        .generate(seed=sample_seed, **kwargs)
        for name, sample_seed, kwargs in inputs
    ]
    for *_, results in rounds:
        for (name, sample_seed, _), result, oracle in zip(
                inputs, results, oracles):
            config = pipelines[name].config
            checks.expect(
                same_generation(result, oracle),
                f"solo {name} seed {sample_seed}: compiled sample or stats "
                f"differ from the interpreted oracle",
            )
            total = pipelines[name].model.spec.total_iterations
            stats = result.stats
            checks.expect(
                stats.dense_iterations
                == -(-total // (config.sparse_iters_n + 1))
                and stats.dense_iterations + stats.sparse_iterations == total,
                f"solo {name} seed {sample_seed}: dense/sparse iteration "
                f"counts {stats.dense_iterations}/{stats.sparse_iterations}",
            )
            checks.expect(
                abs(stats.ffn_output_sparsity - config.ffn_target_sparsity)
                <= SPARSITY_TOLERANCE,
                f"solo {name} seed {sample_seed}: FFN output sparsity "
                f"{stats.ffn_output_sparsity:.4f} vs target "
                f"{config.ffn_target_sparsity}",
            )
    # The base-ablation check needs one vanilla sample per model; PSNR,
    # in the traced run, needs them all.
    vanillas = [
        pipelines[name].generate_vanilla(seed=sample_seed, **kwargs)
        for name, sample_seed, kwargs in (
            inputs if tracer is not None else inputs[:len(SOLO_MIX)])
    ]
    for (name, sample_seed, kwargs), vanilla in zip(
            inputs[:len(SOLO_MIX)], vanillas):
        base = ExionPipeline(pipelines[name].model,
                             pipelines[name].config.ablation("base"),
                             compiled=True)
        checks.expect(
            same_generation(base.generate(seed=sample_seed, **kwargs),
                            vanilla),
            f"solo {name}: compiled base ablation differs from vanilla",
        )

    accelerator = ExionAccelerator.exion24()
    priced = {}
    for name in SOLO_MIX:
        spec = pipelines[name].model.spec
        full = accelerator.simulate(spec)
        base = accelerator.simulate(spec, enable_ffn_reuse=False,
                                    enable_eager_prediction=False)
        priced[name] = full
        checks.expect(
            full.computed_ops <= full.dense_equivalent_ops,
            f"solo {name}: simulated computed ops exceed dense ops",
        )
        checks.expect(
            full.latency_s < base.latency_s,
            f"solo {name}: simulated all-ablation latency "
            f"{full.latency_s} not below base {base.latency_s}",
        )
    tokens, dim, depth, iterations = DIT_PAPER
    dit_ops = iterations * 2 * depth * (
        12 * tokens * dim * dim + 2 * tokens * tokens * dim
    )
    checks.expect(
        priced["dit"].dense_equivalent_ops == dit_ops,
        f"solo dit: simulated dense-equivalent ops "
        f"{priced['dit'].dense_equivalent_ops} != {dit_ops}",
    )

    if tracer is not None:
        n = len(inputs) * len(rounds)
        merged = RunStats.merged([r.stats for r in oracles])
        reports = list(priced.values())
        out.layer = {
            "core.ffn_dense_ms": span_ms(timed_spans, "core.ffn_dense", n),
            "core.ffn_sparse_ms": span_ms(timed_spans, "core.ffn_sparse", n),
            "core.ep_attention_ms": span_ms(
                timed_spans, "core.ep_attention", n),
            "core.ep_cross_kv_ms": span_ms(
                timed_spans, "core.ep_cross_kv", n),
            "core.ffn_output_sparsity": merged.ffn_output_sparsity,
            "core.ffn_ops_reduction": merged.ffn_ops_reduction,
            "core.attention_output_sparsity":
                merged.attention_output_sparsity,
            "core.q_skip_rate": merged.q_projection_skip_rate,
            "core.kv_skip_rate": merged.kv_projection_skip_rate,
            "core.psnr_db": statistics.fmean(
                psnr(v.sample, o.sample) for v, o in zip(vanillas, oracles)),
            "exec.generate_ms": span_ms(timed_spans, "exec.generate"),
            "hw.computed_ops_ratio": (
                sum(r.computed_ops for r in reports)
                / sum(r.dense_equivalent_ops for r in reports)
            ),
            "hw.exion_ms_per_sample": 1e3 * statistics.fmean(
                r.latency_s for r in reports),
            "hw.exion_mj_per_sample": 1e3 * statistics.fmean(
                r.energy_j for r in reports),
        }
    return out


# ----------------------------------------------------------------------
# serve: a closed loop of clients against one of the two servers
# ----------------------------------------------------------------------
def _serve_setup(continuous: bool) -> Callable:
    def setup():
        reset_plan_cache()
        if continuous:
            server = ContinuousServer(
                SERVE_MODEL,
                policy=ContinuousPolicy(max_batch_size=SERVE_MAX_BATCH),
                total_iterations=SERVE_ITERATIONS,
                retain_results=False,
            )
        else:
            server = ExionServer(
                SERVE_MODEL,
                policy=BatchingPolicy(max_batch_size=SERVE_MAX_BATCH),
                total_iterations=SERVE_ITERATIONS,
                retain_results=False,
            )
        server.submit(seed=0, class_label=0)  # warm-up request
        server.run_until_drained()
        return server

    return setup


def _closed_loop_round(server, pool: list) -> tuple:
    """Every client sends its requests back to back.

    Returns ``(latencies_s, payload)``; the payload holds the submitted
    request ids, ``(pool_index, request_id, RequestResult)`` per
    completion, completions of requests not outstanding, and how many
    server steps completed something.
    """
    pending = {}  # request_id -> (client, pool_index, submitted_at)
    sent = [0] * SERVE_CLIENTS
    submitted, completed, latencies, stray = [], [], [], []
    working_steps = 0

    def send(client: int) -> None:
        index = len(submitted) % len(pool)
        sample_seed, label = pool[index]
        at = time.perf_counter()
        request_id = server.submit(seed=sample_seed, class_label=label)
        pending[request_id] = (client, index, at)
        submitted.append(request_id)
        sent[client] += 1

    for client in range(SERVE_CLIENTS):
        send(client)
    while pending:
        served = server.step()
        done_at = time.perf_counter()
        working_steps += bool(served)
        for record in served:
            entry = pending.pop(record.request_id, None)
            if entry is None:
                stray.append(record.request_id)
                continue
            client, index, at = entry
            latencies.append(done_at - at)
            completed.append((index, record.request_id, record))
            if sent[client] < SERVE_REQUESTS_PER_CLIENT:
                send(client)
    return latencies, (submitted, completed, stray, working_steps)


def _serve(continuous: bool, seed: int, seconds: float, setups: int,
           tracer: Optional[Tracer]) -> Outcome:
    setup_s, server = repeated_setup(_serve_setup(continuous), setups)
    first_span = len(tracer.spans) if tracer else 0
    rng = np.random.default_rng([seed, 2 if continuous else 3])
    pool = [
        (int(rng.integers(2**31 - 1)), int(rng.integers(1000)))
        for _ in range(SERVE_POOL)
    ]
    before = server.report()
    rounds = timed_rounds(seconds, lambda: _closed_loop_round(server, pool))
    after = server.report()
    timed_spans = tracer.summary(first_span) if tracer else {}
    out = Outcome(e2e={
        "setup_s": setup_s,
        **round_metrics(rounds,
                        SERVE_CLIENTS * SERVE_REQUESTS_PER_CLIENT),
    })

    name = "serve_continuous" if continuous else "serve_drain"
    checks = out.checks
    completed = [c for *_, payload in rounds for c in payload[1]]
    counts: dict = {}
    for _, request_id, _ in completed:
        counts[request_id] = counts.get(request_id, 0) + 1
    for *_, (submitted, _, stray, _) in rounds:
        for request_id in submitted:
            checks.expect(
                counts.get(request_id, 0) == 1,
                f"{name}: request {request_id} completed "
                f"{counts.get(request_id, 0)} times",
            )
        for request_id in stray:
            checks.expect(False, f"{name}: completion of request "
                                 f"{request_id}, which was not outstanding")
    first: dict = {}
    for index, request_id, record in completed:
        if index not in first:
            first[index] = record.result
            continue
        checks.expect(
            same_generation(record.result, first[index]),
            f"{name}: request {request_id} differs from an earlier "
            f"request with the same seed and label",
        )
    oracle = ExionPipeline(
        repro.models.zoo.build_model(SERVE_MODEL,
                                     total_iterations=SERVE_ITERATIONS),
        ExionConfig.for_model(SERVE_MODEL),
    )
    for index in range(SERVE_ORACLE_INPUTS):
        sample_seed, label = pool[index]
        checks.expect(
            index in first and same_generation(
                first[index],
                oracle.generate(seed=sample_seed, class_label=label)),
            f"{name}: input {pool[index]} differs from the solo "
            f"interpreted oracle",
        )

    if tracer is not None:
        waits = 1e3 * statistics.fmean(c[2].wait_s for c in completed)
        if continuous:
            ticks = after.ticks - before.ticks
            out.layer = {
                "exec.tick_dense_ms": span_ms(timed_spans, "exec.tick_dense"),
                "exec.tick_sparse_ms": span_ms(
                    timed_spans, "exec.tick_sparse"),
                "serve.continuous.queue_wait_ms": waits,
                "serve.continuous.occupancy": (
                    (after.occupancy_ticks - before.occupancy_ticks) / ticks
                ),
                "serve.joins": (after.joins - before.joins) / len(rounds),
            }
        else:
            cache = server.cache
            out.layer = {
                "serve.run_batch_ms": span_ms(timed_spans, "serve.run_batch"),
                "serve.drain.queue_wait_ms": waits,
                "serve.drain.occupancy": len(completed) / sum(
                    payload[3] for *_, payload in rounds),
                "serve.cache_hit_rate": (
                    cache.hits / (cache.hits + cache.misses)
                ),
            }
    return out


def serve_drain(seed, seconds, setups, tracer=None) -> Outcome:
    return _serve(False, seed, seconds, setups, tracer)


def serve_continuous(seed, seconds, setups, tracer=None) -> Outcome:
    return _serve(True, seed, seconds, setups, tracer)


# ----------------------------------------------------------------------
# fleet: an open-loop rate ladder over continuous replicas, sim time
# ----------------------------------------------------------------------
def _fleet_setup() -> ServiceTimeModel:
    """Price every tick the ladder can dispatch, from a cold plan cache."""
    reset_plan_cache()
    service = ServiceTimeModel(FLEET_ACCELERATOR)
    for model in SOLO_MIX:
        service.calibration_s(model)
        for batch in range(1, SERVE_MAX_BATCH + 1):
            service.tick_latency_s(model, "all", batch, "dense")
    return service


def _fleet_ladder(seed: int, requests: int, rates: tuple) -> list:
    """One Poisson trace per rate, made from the seed.

    Models and tenants are assigned in turn (equal shares of each), so
    that the seed moves arrival times, generation seeds and labels but
    not how much work of each model a trace holds.
    """
    ladder = []
    for i, rate in enumerate(rates):
        rng = np.random.default_rng([seed, 4, i, int(rate)])
        arrivals = PoissonProcess(rate_rps=rate).times(requests, rng)
        ladder.append([
            ClusterRequest(
                arrival_s=float(at),
                model=SOLO_MIX[k % len(SOLO_MIX)],
                seed=int(rng.integers(2**31 - 1)),
                class_label=int(rng.integers(1000)),
                tenant=FLEET_TENANTS[k // len(SOLO_MIX) % len(FLEET_TENANTS)],
            )
            for k, at in enumerate(arrivals)
        ])
    return ladder


def _fleet_simulate(service: ServiceTimeModel, trace: list):
    replicas = build_replicas(
        FLEET_REPLICAS,
        continuous=True,
        policy=ContinuousPolicy(max_batch_size=SERVE_MAX_BATCH),
        tenant_weights=FLEET_TENANT_WEIGHTS,
        service_model=service,
    )
    return simulate_cluster(trace, replicas, make_router("jsq"))


def fleet(seed: int, seconds: float, setups: int,
          tracer: Optional[Tracer] = None) -> Outcome:
    setup_s, service = repeated_setup(_fleet_setup, setups)
    first_span = len(tracer.spans) if tracer else 0
    traces = _fleet_ladder(seed, FLEET_REQUESTS, FLEET_TIMED_RATES)

    def one_round():
        start = time.perf_counter()
        reports = [_fleet_simulate(service, trace) for trace in traces]
        # A fleet user waits for the whole load-latency curve.
        return [time.perf_counter() - start], reports

    rounds = timed_rounds(seconds, one_round)
    timed_spans = tracer.summary(first_span) if tracer else {}
    plan_stats = get_plan_cache().stats()
    out = Outcome(e2e={
        "setup_s": setup_s,
        **round_metrics(rounds, len(FLEET_TIMED_RATES) * FLEET_REQUESTS),
    })

    checks = out.checks
    for *_, reports in rounds:
        for rate, report in zip(FLEET_TIMED_RATES, reports):
            checks.expect(
                report.served == report.submitted and report.dropped == 0,
                f"fleet {rate} rps: served {report.served} of "
                f"{report.submitted}, dropped {report.dropped}",
            )
            checks.expect(
                all(0.0 <= r["utilization"] <= 1.0 for r in report.replicas),
                f"fleet {rate} rps: a replica utilisation is outside [0, 1]",
            )
    first = rounds[0][2][0]
    rerun = _fleet_simulate(
        service, _fleet_ladder(seed, FLEET_REQUESTS, FLEET_TIMED_RATES)[0])
    checks.expect(
        rerun.to_json() == first.to_json(),
        f"fleet {FLEET_TIMED_RATES[0]} rps: same-seed rerun is not "
        f"byte-identical",
    )

    if tracer is not None:
        ladder = [
            _fleet_simulate(service, trace)
            for trace in _fleet_ladder(seed, FLEET_SIM_REQUESTS, FLEET_RATES)
        ]
        within = [
            rate for rate, report in zip(FLEET_RATES, ladder)
            if report.latency["latency_p99_s"] <= FLEET_SLO_P99_S
        ]
        reference = ladder[FLEET_RATES.index(FLEET_REFERENCE_RATE)]
        lookups = plan_stats["hits"] + plan_stats["misses"]
        out.layer = {
            "program.cache_hit_rate": plan_stats["hits"] / lookups,
            "serve.step_us": 1e3 * span_ms(
                timed_spans, "serve.continuous_step"),
            "cluster.route_us": 1e3 * span_ms(timed_spans, "cluster.route"),
            "cluster.dispatch_us": 1e3 * span_ms(
                timed_spans, "cluster.dispatch"),
            "cluster.dispatches": sum(
                r["batches_served"] for report in rounds[0][2]
                for r in report.replicas
            ),
            "cluster.utilization": reference.mean_utilization,
            "cluster.wait_p99_s": reference.latency["wait_p99_s"],
            "cluster.max_rps_at_slo": max(within, default=0.0),
            "cluster.sim_latency_p50_s": reference.latency["latency_p50_s"],
            "cluster.sim_latency_p99_s": reference.latency["latency_p99_s"],
        }
    return out


WORKLOADS = {
    "solo": solo,
    "serve_drain": serve_drain,
    "serve_continuous": serve_continuous,
    "fleet": fleet,
}
