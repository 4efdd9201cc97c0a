"""The ``service-warm`` workload: a real ``python -m repro serve`` under load.

Set-up starts the server (journal on, one local worker, fresh artifact,
cell-cache and journal directories), waits for ``/healthz`` and fills the
cell cache by running every request template once.  The measured phase is a
closed loop of ``nproc`` client threads, each sending its next request only
after the previous one's event stream reached the terminal event.  Every run
sends the same number of requests, in an order drawn from the seed, so each
run ends with the same number of artifacts in the store (a write's cost grows
with it).  The mix holds fixed shares of:

* ``repeat`` — a template scenario again: served from the artifact store;
* ``renamed`` — a template under a fresh name: misses the artifact store,
  reads every cell from the cell cache, writes an artifact and a journal entry;
* ``query`` — a renamed best-of query over cached cells;
* ``composite`` — a renamed two-node composite over cached cells.

The shares are an assumption, not measured usage (the repository has none),
so each kind's own latency percentiles are reported beside the overall ones.

Every payload is checked against the in-process ``run_scenario`` /
``run_query`` / ``run_composite`` result for its template, computed afresh
with the cell cache off, and every best-of winner against the winner of the
exhaustive sweep.
"""

from __future__ import annotations

import json
import random
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

from common import (
    BENCH_DIR, Checks, check_recorded, digest, median, peak_rss_mb, percentile, subprocess_env)

_clock = time.perf_counter

# Set-ups of one run: three before the loop (the last one serves it) and two
# after, so the median spans the run rather than one spell of the host.
SETUP_REPEATS = 3
SETUP_AFTER = 2
ROUND_REQUESTS = 100  # wall_s is the loop time per this many completions
# Requests of one run: at least 1000, so p99 has at least 10 samples beyond
# it.  --seconds only caps the loop, at CAP_FACTOR times its value.
REQUESTS = {"full": 1_000, "tiny": 24}
CAP_FACTOR = 6
# Assumed shares of each request kind; there is no usage data to draw them
# from.  Repeats and renamed scenarios dominate, so the overall p50 falls
# inside the renamed scenarios' latencies rather than between two kinds.
MIX = (("repeat", 0.40), ("renamed", 0.35), ("query", 0.10), ("composite", 0.15))
KIND = {"repeat": "scenario", "renamed": "scenario", "query": "query",
        "composite": "composite"}
TECHNIQUES = ["ITCA", "PTCA", "ASM", "GDP", "GDP-O"]
POLICIES = ["LRU", "UCP", "ASM", "MCP", "MCP-O"]
_RENAME = re.compile(r"~r\d+")


def templates(seed: int, tiny: bool = False) -> dict[str, tuple[str, dict]]:
    """``{template name: (kind, spec dict)}``: small 2- and 4-core scenarios."""
    instructions = 1_000 if tiny else 4_000

    def scenario(name, kind, cores, groups, **fields):
        spec = {"name": name, "kind": kind,
                "machine": {"core_counts": [cores], "llc_kilobytes": 64},
                "workloads": {"generator": "auto", "groups": groups, "per_group": 1,
                              "seed": seed},
                "instructions_per_core": instructions,
                "interval_instructions": instructions // 2}
        spec.update(fields)
        return spec

    accuracy2 = scenario("acc-2c", "accuracy", 2, ["H", "M", "L"], techniques=TECHNIQUES)
    accuracy4 = scenario("acc-4c", "accuracy", 4, ["H", "M"], techniques=TECHNIQUES)
    throughput2 = scenario("tp-2c", "throughput", 2, ["H", "M"], policies=POLICIES,
                           repartition_interval_cycles=4_000.0)
    margin = {"rule": "margin", "margin": 0.05, "min_cells": 2}
    race_techniques = dict(accuracy2, name="race-2c", techniques=["ASM", "GDP", "GDP-O"])
    race_policies = dict(throughput2, name="race-tp-2c", policies=["LRU", "UCP", "MCP"])
    return {
        "acc-2c": ("scenario", accuracy2),
        "acc-4c": ("scenario", accuracy4),
        "tp-2c": ("scenario", throughput2),
        "best-technique": ("query", {"name": "best-technique", "kind": "best_of",
                                     "base": race_techniques, "wave_cells": 1,
                                     "stopping": margin}),
        "best-policy": ("query", {"name": "best-policy", "kind": "best_of",
                                  "base": race_policies, "wave_cells": 1, "stopping": margin}),
        "chain": ("composite", {"name": "chain", "nodes": [
            {"name": "accuracy", "spec": accuracy4},
            {"name": "throughput", "depends_on": ["accuracy"], "spec": throughput2}]}),
    }


def renamed(kind: str, spec: dict, suffix: str) -> dict:
    """A copy of a template under fresh names (same cells, new digests)."""
    copy = json.loads(json.dumps(spec))
    copy["name"] += suffix
    if kind == "composite":
        for node in copy["nodes"]:
            node["spec"]["name"] += suffix
    return copy


def normalise(payload) -> str:
    """Canonical JSON of a payload with every rename suffix removed."""
    return _RENAME.sub("", json.dumps(payload, sort_keys=True))


def request_plan(seed: int, templates: dict, count: int) -> list[tuple[str, str]]:
    """The run's requests as (mix, template) in issue order.

    Each kind gets its exact share of ``count``; the seed draws the order and
    the template of each request.
    """
    rng = random.Random(f"service-warm/{seed}")
    names = {kind: sorted(name for name, (k, _) in templates.items() if k == kind)
             for kind in ("scenario", "query", "composite")}
    mixes = [mix for mix, share in MIX for _ in range(round(share * count))]
    rng.shuffle(mixes)
    return [(mix, rng.choice(names[KIND[mix]])) for mix in mixes]


def served_instructions(templates: dict, payloads: dict[str, Counter]) -> int:
    """Simulated instructions whose results the completed requests delivered."""
    from repro.scenarios import ScenarioSpec, expand_cells
    from sweeps import instructions_per_sweep

    def count(spec_dict: dict, indices=None) -> int:
        spec = ScenarioSpec.from_dict(spec_dict)
        cells = expand_cells(spec)
        if indices is not None:
            cells = [cells[index] for index in indices]
        return instructions_per_sweep(spec, cells)

    total = 0
    for name, seen in payloads.items():
        kind, spec = templates[name]
        for text, requests in seen.items():
            if kind == "scenario":
                work = count(spec)
            elif kind == "composite":
                work = sum(count(node["spec"]) for node in spec["nodes"])
            else:
                work = sum(count(arm["spec"], arm["cells"])
                           for arm in json.loads(text)["evaluated"].values())
            total += requests * work
    return total


class Server:
    """A ``repro serve`` subprocess on an ephemeral port."""

    def __init__(self, base, jobs: int, traced: bool, trace_out=None):
        env = subprocess_env(REPRO_CACHE="1", REPRO_CACHE_DIR=str(base / "cells"),
                             REPRO_ARTIFACT_DIR=str(base / "artifacts"),
                             REPRO_JOB_JOURNAL=str(base / "jobs.journal"))
        launcher = ([str(BENCH_DIR / "traced_serve.py"), str(trace_out)] if traced
                    else ["-m", "repro"])
        command = [sys.executable, "-u", *launcher, "serve", "--port", "0",
                   "--jobs", str(jobs), "--local-workers", "1"]
        self.process = subprocess.Popen(command, env=env, cwd=base, stdout=subprocess.PIPE,
                                        stderr=subprocess.STDOUT, text=True)
        self.url = None
        for line in self.process.stdout:
            if "listening on " in line:
                self.url = line.split("listening on ")[1].strip()
                break
        if self.url is None:
            self.process.wait(timeout=30)
            raise RuntimeError(f"server exited with {self.process.returncode} before listening")
        # Keep draining the request log so the server never blocks on a pipe.
        self._drain = threading.Thread(target=self.process.stdout.read, daemon=True)
        self._drain.start()

    def stop(self) -> None:
        """SIGTERM (graceful drain), escalating to SIGKILL; always reaps."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._drain.join(timeout=10)
        self.process.stdout.close()


def complete(client, kind: str, spec: dict) -> tuple[float, float, float, str, dict | None]:
    """Submit one request and follow it to its terminal event.

    Returns (submit seconds, submit-to-terminal seconds, result seconds,
    terminal event, payload).
    """
    start = _clock()
    if kind == "scenario":
        job = client.submit(spec)
    elif kind == "query":
        job = client.submit_query(spec)
    else:
        job = client.submit_composite(spec)
    submitted = _clock()
    terminal = None
    for event in client.iter_events(job["id"]):
        terminal = event.get("event")
    finished = _clock()
    payload = client.result(job["id"]) if terminal == "done" else None
    return submitted - start, finished - start, _clock() - finished, terminal, payload


class ServiceRun(Checks):
    """One invocation of the ``service-warm`` workload."""

    def __init__(self, seed: int, seconds: float, rundir, jobs: int, tiny: bool = False):
        super().__init__()
        self.seed = seed
        self.seconds = seconds
        self.rundir = rundir
        self.jobs = jobs
        self.tiny = tiny
        self.size = "tiny" if tiny else "full"
        self.templates = templates(seed, tiny)

    # ----------------------------------------------------------------- set-up

    def set_up(self):
        """Start a server on fresh directories and fill its cell cache."""
        from repro.service.client import ServiceClient

        base = self.rundir.fresh("service")
        start = _clock()
        server = Server(base, self.jobs, traced=False)
        try:
            client = ServiceClient(server.url)
            client.healthz()
            for name, (kind, spec) in self.templates.items():
                _, _, _, terminal, _ = complete(client, kind, spec)
                if terminal != "done":
                    raise RuntimeError(f"set-up request '{name}' ended {terminal}")
        except BaseException:
            server.stop()
            raise
        return server, base, _clock() - start

    # --------------------------------------------------------------- the loop

    def closed_loop(self, url: str, sample_stats: bool) -> dict:
        from repro.service.client import ServiceClient

        plan = request_plan(self.seed, self.templates, REQUESTS[self.size])
        records: list[tuple] = []  # (mix, template, submit, latency, result seconds)
        payloads: dict[str, Counter] = defaultdict(Counter)
        queue_depths: list[int] = []
        start = _clock()
        cutoff = start + CAP_FACTOR * self.seconds
        issued = [0]

        stop = threading.Event()
        lock = threading.Lock()

        def next_request():
            with lock:
                if stop.is_set() or issued[0] == len(plan) or _clock() >= cutoff:
                    return None
                issued[0] += 1
                return issued[0], plan[issued[0] - 1]

        def client_loop() -> None:
            client = ServiceClient(url)
            while (request := next_request()) is not None:
                number, (mix, name) = request
                kind, spec = self.templates[name]
                if mix != "repeat":
                    spec = renamed(kind, spec, f"~r{number}")
                self.attempt()
                try:
                    submit, latency, result, terminal, payload = complete(client, kind, spec)
                    if sample_stats and number % 20 == 0:
                        queue_depths.append(client.stats()["queue_depth"])
                except Exception as error:  # a refused or broken request
                    self.fail(1, f"{mix} request failed: {error}")
                    continue
                if terminal != "done":
                    self.fail(1, f"{mix} request on '{name}' ended {terminal}")
                    continue
                text = normalise(payload)
                with lock:
                    records.append((mix, name, submit, latency, result))
                    payloads[name][text] += 1

        threads = [threading.Thread(target=client_loop) for _ in range(self.jobs)]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        finally:
            stop.set()  # if interrupted, each client finishes its request and stops
            for thread in threads:
                thread.join()
        elapsed = _clock() - start
        if issued[0] < len(plan):
            print(f"note: the loop hit its cap of {CAP_FACTOR} x --seconds after "
                  f"{issued[0]} of {len(plan)} requests; figures are not comparable")
        return {"records": records, "payloads": payloads, "elapsed": elapsed,
                "queue_depths": queue_depths}

    # ------------------------------------------------------------- checking

    def check_payloads(self, payloads: dict[str, Counter]) -> None:
        """Every payload equals the fresh in-process result of its template."""
        references, winners = reference_results(self.templates)
        for name, (winner, best) in winners.items():
            self.report.append(f"  {name}: winner {winner}, exhaustive winner {best}")
            if winner != best:
                count = sum(payloads.get(name, Counter()).values()) or 1
                self.fail(count, f"query '{name}' picked {winner}, the exhaustive sweep {best}")
        for name, seen in payloads.items():
            wrong = sum(count for text, count in seen.items() if text != references[name])
            if wrong:
                self.fail(wrong, f"{wrong} payload(s) for '{name}' differ from the in-process result")
        check_recorded(self, "service-warm", self.size, self.seed,
                       {"results": results_digest(references)})

    # ------------------------------------------------------------------ runs

    def _measure(self, traced: bool):
        setups = []
        server = base = None
        try:
            for _ in range(SETUP_REPEATS):
                if server is not None:
                    server.stop()
                server, base, seconds = self.set_up()
                setups.append(seconds)
            trace_out = None
            if traced:
                # Same warm directories, traced server: only the loop is traced.
                server.stop()
                trace_out = base / "server-trace.json"
                server = Server(base, self.jobs, traced=True, trace_out=trace_out)
            from repro.service.client import ServiceClient

            before = ServiceClient(server.url).stats()
            loop = self.closed_loop(server.url, sample_stats=traced)
            after = ServiceClient(server.url).stats()
        finally:
            if server is not None:
                server.stop()
        for _ in range(0 if traced else SETUP_AFTER):
            server, _, seconds = self.set_up()
            server.stop()
            setups.append(seconds)
        # Every server is reaped now; the checks have not run in this process yet.
        loop["peak_rss_mb"] = peak_rss_mb()
        server_trace = json.loads(trace_out.read_text()) if traced else None
        return setups, loop, before, after, server_trace

    def run_untraced(self) -> dict[str, float]:
        setups, loop, _, _, _ = self._measure(traced=False)
        records = loop["records"]
        latencies = [record[3] for record in records]
        mix = Counter(record[0] for record in records)
        print(f"{len(records)} requests in {loop['elapsed']:.2f} s by {self.jobs} clients "
              f"({', '.join(f'{k} {v}' for k, v in sorted(mix.items()))}); "
              f"setup_s samples: {', '.join(f'{s:.3f}' for s in setups)}")
        self.report.append("latency by request kind (the mix's shares are assumed, not measured)")
        for name, value in kind_latencies(records).items():
            self.report.append(f"  {name:<36} {value:8.2f} ms")
        self.check_payloads(loop["payloads"])
        return {
            "setup_s": median(setups),
            "wall_s": loop["elapsed"] * ROUND_REQUESTS / len(records),
            "sim_minstr_per_s": (served_instructions(self.templates, loop["payloads"])
                                 / 1e6 / loop["elapsed"]),
            "peak_rss_mb": loop["peak_rss_mb"],
            "requests_per_s": len(records) / loop["elapsed"],
            "request_p50_ms": 1e3 * percentile(latencies, 0.50),
            "request_p99_ms": 1e3 * percentile(latencies, 0.99),
        }

    def run_traced(self) -> dict[str, float]:
        _, loop, before, after, server_trace = self._measure(traced=True)
        self.check_payloads(loop["payloads"])
        records = loop["records"]
        hits = after["scenario_cache"]["hits"] - before["scenario_cache"]["hits"]
        misses = after["scenario_cache"]["misses"] - before["scenario_cache"]["misses"]
        ratios = []
        for name, seen in loop["payloads"].items():
            if self.templates[name][0] == "query":
                for text, count in seen.items():
                    cells = json.loads(text)["cells"]
                    ratios += [cells["evaluated"] / cells["total"]] * count
        metrics = server_layer_metrics(server_trace)
        metrics.update(kind_latencies(records))
        metrics.update({
            "service.submit.s": median([r[2] for r in records]),
            "service.wait.s": median([r[3] - r[2] for r in records]),
            "service.result.s": median([r[4] for r in records]),
            "service.scenario_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "service.worker.busy_s": after["busy_seconds"] - before["busy_seconds"],
            "service.queue_depth.max": max(loop["queue_depths"], default=0),
            "service.query.cells_evaluated_ratio": sum(ratios) / len(ratios) if ratios else 0.0,
            "experiments.supervisor.retries": (after["supervisor"]["retries"]
                                               - before["supervisor"]["retries"]),
        })
        print(f"{len(records)} traced requests in {loop['elapsed']:.2f} s; "
              f"server spans: {sum(server_trace['calls'].values())}")
        return metrics


def kind_latencies(records) -> dict[str, float]:
    """p50 and p99 latency of each request kind (0 for a kind never completed)."""
    metrics = {}
    for mix, _ in MIX:
        ms = [1e3 * record[3] for record in records if record[0] == mix]
        for label, share in (("p50", 0.50), ("p99", 0.99)):
            metrics[f"service.request.{mix}.{label}_ms"] = percentile(ms, share) if ms else 0.0
    return metrics


def reference_results(templates: dict) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """Fresh in-process result of every template, with the cell cache off.

    Returns each template's normalised result, and for each best-of query its
    winner and the exhaustive sweep's winner.
    """
    from repro.scenarios import (
        CompositeSpec, QuerySpec, ScenarioSpec, run_composite, run_query, run_scenario)

    references: dict[str, str] = {}
    winners: dict[str, tuple[str, str]] = {}
    for name, (kind, spec) in templates.items():
        if kind == "scenario":
            result = run_scenario(ScenarioSpec.from_dict(spec), jobs=1, cache=False)
        elif kind == "query":
            result = run_query(QuerySpec.from_dict(spec), jobs=1, cache=False)
            base = run_scenario(ScenarioSpec.from_dict(spec["base"]), jobs=1, cache=False)
            outcomes = [outcome for results in base.cells.values() for outcome in results]
            winners[name] = (result.answer["winner"], exhaustive_winner(spec["base"], outcomes))
        else:
            result = run_composite(CompositeSpec.from_dict(spec), jobs=1, cache=False)
        references[name] = normalise(result.to_dict())
    return references, winners


def results_digest(references: dict[str, str]) -> str:
    return digest(f"{name}\t{text}" for name, text in sorted(references.items()))


def exhaustive_winner(spec: dict, outcomes: list) -> str:
    """The best candidate over every cell, ranked like a best-of query."""
    if spec["kind"] == "throughput":
        from repro.experiments.case_study import average_throughput

        scores = {p: average_throughput(outcomes, p) for p in spec["policies"]}
        return min(scores, key=lambda name: (-scores[name], name))
    from repro.experiments.accuracy import summarize_rms

    scores = {t: summarize_rms(outcomes, t) for t in spec["techniques"]}
    return min(scores, key=lambda name: (scores[name], name))


def server_layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics from the traced server's own span totals."""
    from sweeps import sweep_layer_metrics
    from layers import LayerTrace

    trace = LayerTrace()
    trace.calls.update(dump["calls"])
    trace.seconds.update(dump["seconds"])
    trace.counters.update(dump["counters"])
    metrics = sweep_layer_metrics(trace, [0.0])
    metrics.update({"experiments.transport.bytes": 0.0, "bench.pooled_wall_s": 0.0,
                    "bench.untraced_serial_s": 0.0, "bench.tracing_overhead_ratio": 0.0,
                    "experiments.cell.s_p50": 0.0, "experiments.cell.s_max": 0.0})
    return metrics
