"""The ``advisor-replay`` workload: one user talking to ``repro serve``.

Each round starts a fresh ``repro serve --regime-map`` process with a cold
answer cache and a cold job cache, and replays the same request stream over
one keep-alive connection as a closed loop (the next request leaves when
the previous answer arrived).  The stream is made from the seed:

* a pool of distinct ``/optimize`` questions -- on-grid checkpoint costs
  inside the map hull (answered by map interpolation) and off-grid costs
  (answered by the analytical optimizer) -- drawn with Zipf-skewed
  repetition, so most requests are answer-cache hits;
* then three ``/simulate`` jobs, submitted together right after the stream
  (requests 4000-4002) and polled through ``/jobs/<id>`` while the stream
  goes on from its start, with a short think time after each answer, until
  every job is done.

The answer-latency metrics come from the first stretch, where no job runs;
the second stretch gives the job times and the interactive latency beside
background Monte-Carlo work (``service.busy_p99_ms``).  Kept apart, each
stays one steady population: mixed, the p99 flips between the idle and the
busy tail from run to run.

The regime map the server loads is an input, made once per run by
``repro optimize map`` (analytical, dense: platform MTBFs a factor of two
apart, the grid on which the service documents its interpolation bound).
"""

from __future__ import annotations

import http.client
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import exact
from common import (
    CHILD,
    SETUP_SAMPLES,
    SRC,
    BenchError,
    Checks,
    Operations,
    child_env,
    median,
    run_child,
    tail,
)

YEAR = 365 * 86400.0
NODES = 1000
#: Node MTBFs (years) of the served map: platform MTBFs 3942 s .. 252288 s,
#: adjacent lines a factor of two apart.
NODE_MTBF_YEARS = (0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0)
CHECKPOINTS = (300.0, 600.0)
PHIS = (1.03, 1.1)
TOTAL_TIME = 86400.0
DOWNTIME = 60.0

MAP_QUESTIONS = 120
ANALYTICAL_QUESTIONS = 180
ZIPF_EXPONENT = 1.1
STREAM_REQUESTS = 4000
JOB_TRIALS = 10_000
#: (platform MTBF, period as a multiple of Eq. 11) of each job.  They are
#: fixed so every seed asks for the same amount of Monte-Carlo work; the
#: seed draws the jobs' campaign seeds.
JOB_PLATFORMS = ((7200.0, 1.0), (10800.0, 0.9), (14400.0, 1.15))
#: Background job slots of the server.  One slot runs the jobs back to back,
#: so the server's peak memory is one campaign's rather than a race between
#: two, and the later jobs show queueing in their pending time.
JOB_WORKERS = 1
#: Seconds between two polls of the outstanding jobs.
POLL_INTERVAL_S = 0.025
#: Think time of the user between an answer and the next question while
#: jobs run.  Without it the closed loop takes about a quarter of the one CPU
#: from the jobs, and how large a share it takes varies from round to round.
BUSY_THINK_S = 0.005
#: Standard errors a /simulate mean makespan may sit from the exact value.
JOB_SIGMAS = 5.0
PERIOD_RTOL = 1e-6


def _scenario(mtbf: float, checkpoint: float, phi: float) -> Dict[str, Any]:
    return {
        "name": "advisor-replay",
        "platform": {"mtbf": mtbf, "checkpoint": checkpoint, "abft_overhead": phi},
        "workload": {"total_time": TOTAL_TIME, "alpha": 0.8},
    }


def make_inputs(seed: int) -> Dict[str, Any]:
    """The question pool, the request stream and the jobs of one seed."""
    rng = random.Random(seed)
    lo = NODE_MTBF_YEARS[0] * YEAR / NODES
    hi = NODE_MTBF_YEARS[-1] * YEAR / NODES

    def mtbf() -> float:
        return round(math.exp(rng.uniform(math.log(lo), math.log(hi))), 1)

    pool: List[Dict[str, Any]] = []
    for _ in range(MAP_QUESTIONS):
        pool.append({"kind": "map", "body": {"scenario": _scenario(
            mtbf(), rng.choice(CHECKPOINTS), rng.choice(PHIS))}})
    for _ in range(ANALYTICAL_QUESTIONS):
        checkpoint = float(rng.randrange(120, 900))
        while checkpoint in CHECKPOINTS:
            checkpoint = float(rng.randrange(120, 900))
        pool.append({"kind": "analytical", "body": {"scenario": _scenario(
            mtbf(), checkpoint, rng.choice(PHIS))}})
    rng.shuffle(pool)
    weights = [1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(pool))]
    stream = rng.choices(range(len(pool)), weights=weights, k=STREAM_REQUESTS)

    jobs = []
    for job_mtbf, scale in JOB_PLATFORMS:
        period = round(exact.young_daly_period(600.0, job_mtbf, DOWNTIME, 600.0) * scale, 3)
        jobs.append({
            "scenario": {
                "name": "advisor-job",
                "protocols": ["PurePeriodicCkpt"],
                "platform": {"mtbf": job_mtbf, "checkpoint": 600.0,
                             "recovery": 600.0, "downtime": DOWNTIME},
                "workload": {"total_time": TOTAL_TIME, "alpha": 0.8},
            },
            "protocol": "PurePeriodicCkpt",
            "periods": {"period": period},
            "runs": JOB_TRIALS,
            "seed": rng.randrange(2**31),
            "backend": "vectorized",
        })
    for question in pool:
        question["bytes"] = json.dumps(question["body"], sort_keys=True).encode()
    return {"pool": pool, "stream": stream, "jobs": jobs}


def _parse_prometheus(text: str) -> Dict[str, Dict[str, float]]:
    """``family -> {label-string: value}`` for the samples of a scrape."""
    out: Dict[str, Dict[str, float]] = {}
    for line in text.splitlines():
        match = re.match(r"^([a-zA-Z_:][\w:]*)(\{[^}]*\})?\s+(\S+)$", line)
        if match:
            out.setdefault(match.group(1), {})[match.group(2) or ""] = float(match.group(3))
    return out


class Server:
    """One ``repro serve`` process: start, observe, stop."""

    def __init__(self, round_dir: Path, map_path: Path, traced: bool) -> None:
        self.round_dir = round_dir
        self.traced = traced
        self.stats_path = round_dir / "server-stats.json"
        argv = ["serve", "--regime-map", str(map_path), "--port", "0",
                "--cache-dir", str(round_dir / "jobs-cache"),
                "--workers", str(JOB_WORKERS)]
        if traced:
            config = {"argv": argv, "stats": str(self.stats_path)}
            self.command = [sys.executable, str(CHILD), "serve", json.dumps(config)]
        else:
            self.command = [sys.executable, "-m", "repro.cli", *argv]
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.health_requests = 0

    def start(self) -> float:
        """Spawn and wait for ``/healthz``; returns the set-up seconds."""
        self.round_dir.mkdir(parents=True, exist_ok=True)
        err_path = self.round_dir / "server.err"
        spawn = time.monotonic()
        with err_path.open("w") as err:
            self.proc = subprocess.Popen(
                self.command, cwd=str(self.round_dir), stdout=subprocess.DEVNULL,
                stderr=err, env=child_env(PERFBENCH_SPAWN=repr(spawn)),
            )
        deadline = spawn + 120.0
        while True:
            match = re.search(r"listening on http://[^:]+:(\d+)", err_path.read_text())
            if match:
                self.port = int(match.group(1))
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError(f"server did not start: {err_path.read_text()[-300:]}")
            time.sleep(0.002)
        while True:
            self.health_requests += 1
            try:
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
                connection.request("GET", "/healthz")
                if connection.getresponse().status == 200:
                    return time.monotonic() - spawn
            except OSError:
                if time.monotonic() > deadline:
                    raise
                time.sleep(0.002)
            finally:
                connection.close()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self) -> Optional[Dict[str, Any]]:
        if self.proc is None:
            return None
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a process started in the background may
            # inherit an ignored SIGINT, and asyncio then never sees it.
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.traced and self.stats_path.is_file():
            return json.loads(self.stats_path.read_text())
        return None


class Client:
    """A closed-loop client on one keep-alive connection."""

    def __init__(self, port: int, ops: Operations) -> None:
        self.connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.ops = ops
        #: Client-side seconds of every request, in sending order.
        self.latencies: List[float] = []

    def request(self, kind: str, method: str, path: str, body: bytes = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        begin = time.perf_counter()
        self.connection.request(method, path, body=body, headers=headers)
        response = self.connection.getresponse()
        payload = response.read()
        elapsed = time.perf_counter() - begin
        self.latencies.append(elapsed)
        self.ops.record(kind, ok=response.status in (200, 202))
        return response, payload, elapsed

    def close(self) -> None:
        self.connection.close()


class AdvisorReplay:
    name = "advisor-replay"

    def __init__(self, seed: int, workdir: Path) -> None:
        # The client and every server it starts share one CPU.  Spread over
        # two vCPUs, each request of the closed loop waits for a cross-CPU
        # wake-up, and when the host is busy that made whole runs up to
        # twice as slow as others (see README.md, "Noise").
        self.cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.cpu})
        self.seed = seed
        self.workdir = workdir
        self.ops = Operations()
        self.inputs = make_inputs(seed)
        self.map_path = workdir / "regime-map.json"
        self._make_map()
        self.setups: List[float] = []
        self.rounds: Dict[bool, List[Dict[str, Any]]] = {False: [], True: []}
        self.checks = Checks()
        #: Miss bodies of round 0, keyed by question index, for later rounds.
        self.reference: Dict[int, bytes] = {}
        self.job_results: List[Dict[str, Any]] = []

    def _make_map(self) -> None:
        """The served regime map: an input, made before any timed round."""
        argv = ["optimize", "map", "--nodes", str(NODES),
                "--node-mtbf-years", *map(str, NODE_MTBF_YEARS),
                "--checkpoint", *map(str, CHECKPOINTS), "--phi", *map(str, PHIS),
                "--t0", str(TOTAL_TIME), "--downtime", str(DOWNTIME),
                "--json", str(self.map_path)]
        run_child("cli", {"argv": argv}, self.workdir)

    # ------------------------------------------------------------------ #
    def round(self, index: int, traced: bool) -> None:
        server = Server(self.workdir / f"round-{index}", self.map_path, traced)
        try:
            try:
                setup = server.start()
            except (BenchError, OSError) as exc:
                print(f"perfbench: advisor-replay round {index}: {exc}", file=sys.stderr)
                self.ops.record("server-start", ok=False)
                return
            self.ops.record("server-start", ok=True)
            client = Client(server.port, self.ops)
            try:
                sample = self._replay(client, first=not self.reference)
                replayed = len(client.latencies)
                if traced:
                    _, text, _ = client.request("metrics", "GET", "/metrics")
                    sample["scrape"] = _parse_prometheus(text.decode())
                if index == 0:
                    self._verify_tiers(client)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                print(f"perfbench: advisor-replay round {index}: {exc}", file=sys.stderr)
                self.ops.record("round", ok=False)
                return
            finally:
                client.close()
            sample["setup_s"] = setup
            sample["peak_rss_mb"] = server.peak_rss_mb()
            sample["client_s"] = client.latencies[:replayed]
        finally:
            stats = server.stop()
        if traced and stats is not None:
            sample["stats"] = stats
            sample["health_requests"] = server.health_requests
        if not traced:
            self.setups.append(setup)
        self.rounds[traced].append(sample)

    def _replay(self, client: Client, first: bool) -> Dict[str, Any]:
        """Two stretches on one connection: the question stream with no job
        running, then the jobs, submitted together while the stream goes on
        (from its start again) until every job is done."""
        pool, stream = self.inputs["pool"], self.inputs["stream"]
        answers, tiers, busy_flags = [], [], []
        seen: Dict[int, bytes] = {}
        outstanding: Dict[str, float] = {}
        sim_job_s: List[float] = []

        def ask(question_index: int, busy: bool) -> None:
            question = pool[question_index]
            response, payload, elapsed = client.request(
                "optimize", "POST", "/optimize", question["bytes"])
            answers.append(elapsed * 1e3)
            tiers.append(response.getheader("X-Repro-Tier"))
            busy_flags.append(busy)
            self._check_answer(question_index, question, response, payload, seen, first)

        def poll() -> None:
            for job_id, submitted in list(outstanding.items()):
                response, payload, _ = client.request("poll", "GET", f"/jobs/{job_id}")
                snapshot = json.loads(payload)
                if snapshot.get("state") in ("done", "failed"):
                    sim_job_s.append(time.perf_counter() - submitted)
                    del outstanding[job_id]
                    if snapshot["state"] == "failed":
                        self.ops.record("simulate-job", ok=False)
                    else:
                        self.ops.record("simulate-job", ok=True)
                        self.job_results.append(snapshot)

        began = time.perf_counter()
        for question_index in stream:
            ask(question_index, busy=False)
        session_s = time.perf_counter() - began

        for job in self.inputs["jobs"]:
            submitted = time.perf_counter()
            response, payload, _ = client.request(
                "simulate", "POST", "/simulate", json.dumps(job).encode())
            if response.status == 202:
                outstanding[json.loads(payload)["job"]["id"]] = submitted
        last_poll = time.perf_counter()
        position = 0
        while outstanding:
            ask(stream[position % len(stream)], busy=True)
            position += 1
            time.sleep(BUSY_THINK_S)
            if time.perf_counter() - last_poll >= POLL_INTERVAL_S:
                last_poll = time.perf_counter()
                poll()
        return {
            "session_s": session_s,
            "answers_ms": answers,
            "tiers": tiers,
            "busy": busy_flags,
            "sim_job_s": sim_job_s,
        }

    def _check_answer(self, index, question, response, payload, seen, first) -> None:
        cache = response.getheader("X-Repro-Cache")
        if cache == "hit":
            self.checks.check("a hit returns exactly the bytes of its miss",
                              seen.get(index) == payload, f"question {index}")
            return
        self.checks.check("a question misses only once", index not in seen,
                          f"question {index}")
        seen[index] = payload
        if first:
            self.reference[index] = payload
            answer = json.loads(payload)
            tier = response.getheader("X-Repro-Tier")
            self.checks.check("question lands on its expected tier",
                              tier == question["kind"], f"{question['kind']} -> {tier}")
            if tier == "analytical":
                self._check_closed_form(question, answer)
        else:
            self.checks.check("answers repeat byte for byte across rounds",
                              self.reference.get(index) == payload, f"question {index}")

    def _check_closed_form(self, question, answer) -> None:
        platform = question["body"]["scenario"]["platform"]
        closed = exact.young_daly_period(
            platform["checkpoint"], platform["mtbf"], DOWNTIME, platform["checkpoint"])
        got = answer["results"]["PurePeriodicCkpt"]["periods"]["period"]
        self.checks.check("tier-3 PurePeriodicCkpt period equals sqrt(2C(mu-D-R))",
                          abs(got - closed) <= PERIOD_RTOL * closed,
                          f"{got!r} vs {closed!r}")

    def _verify_tiers(self, client: Client) -> None:
        """Ask every map-tier question again with the analytical tier forced."""
        # The service's documented tier-2 accuracy contract.
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        from repro.service.tiers import INTERPOLATION_WASTE_ATOL as atol
        from repro.service.tiers import INTERPOLATION_WASTE_RTOL as rtol

        from_map = [i for i, q in enumerate(self.inputs["pool"])
                    if q["kind"] == "map" and i in self.reference]
        for index in from_map:
            question = self.inputs["pool"][index]
            body = dict(question["body"], tier="analytical")
            _, payload, _ = client.request(
                "verify", "POST", "/optimize", json.dumps(body).encode())
            forced = json.loads(payload)
            self._check_closed_form(question, forced)
            interpolated = json.loads(self.reference[index])
            for name, result in interpolated["results"].items():
                w2, w3 = result["waste"], forced["results"][name]["waste"]
                self.checks.check(
                    "tier-2 waste within INTERPOLATION_WASTE_RTOL of tier 3",
                    abs(w2 - w3) <= max(rtol * abs(w3), atol),
                    f"{name}: map {w2:.6g}, analytical {w3:.6g}",
                )

    # ------------------------------------------------------------------ #
    def probe_setups(self) -> None:
        """Extra server starts until the run holds enough set-up samples."""
        while len(self.setups) < SETUP_SAMPLES:
            server = Server(self.workdir / "probe", self.map_path, False)
            try:
                self.setups.append(server.start())
                self.ops.record("server-start", ok=True)
            except (BenchError, OSError) as exc:
                print(f"perfbench: advisor-replay set-up probe: {exc}", file=sys.stderr)
                self.ops.record("server-start", ok=False)
                return
            finally:
                server.stop()

    def check(self) -> None:
        checks = self.checks
        checks.check("every request answered 200 or 202",
                     self.ops.failed == 0, f"{self.ops.failed} failed")
        checks.check("every round finished its jobs",
                     all(len(r["sim_job_s"]) == len(JOB_PLATFORMS)
                         for rounds in self.rounds.values() for r in rounds))
        for snapshot in self.job_results:
            request, summary = snapshot["request"], snapshot["result"]["summary"]
            platform = request["scenario"]["platform"]
            expected = exact.expected_makespan(
                TOTAL_TIME, request["periods"]["period"], mtbf=platform["mtbf"],
                checkpoint=platform["checkpoint"], recovery=platform["recovery"],
                downtime=platform["downtime"])
            # Delta method: makespan = T0 / (1 - waste).
            spread = TOTAL_TIME * summary["waste_std"] / (1.0 - summary["waste_mean"]) ** 2
            sem = spread / math.sqrt(summary["runs"])
            checks.check(
                "/simulate mean makespan matches the exact expectation",
                abs(summary["makespan_mean"] - expected) <= JOB_SIGMAS * sem
                and summary["truncated"] == 0,
                f"mean {summary['makespan_mean']:.1f} +- {sem:.1f} s, exact {expected:.1f} s",
            )

    def describe(self) -> Dict[str, Any]:
        """Per-round figures for the run record."""
        rounds = []
        for traced in (False, True):
            for r in self.rounds[traced]:
                tiers: Dict[str, int] = {}
                for tier in r["tiers"]:
                    tiers[tier] = tiers.get(tier, 0) + 1
                rounds.append({
                    "traced": traced,
                    "setup_s": r["setup_s"],
                    "session_s": r["session_s"],
                    "peak_rss_mb": r["peak_rss_mb"],
                    "sim_job_s": r["sim_job_s"],
                    "answers": len(r["answers_ms"]),
                    "busy_answers": sum(r["busy"]),
                    "tiers": tiers,
                })
        return {"cpu": self.cpu, "setup_s": self.setups, "rounds": rounds}

    # ------------------------------------------------------------------ #
    def end_to_end(self) -> Dict[str, float]:
        rounds = self.rounds[False]
        answers = [a for r in rounds
                   for a, busy in zip(r["answers_ms"], r["busy"]) if not busy]
        return {
            "setup_s": median(self.setups),
            "job_s": median([r["session_s"] for r in rounds]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in rounds]),
            "answer_p50_ms": median(answers),
            "answer_p99_ms": tail(answers),
            "sim_job_s": median([s for r in rounds for s in r["sim_job_s"]]),
        }

    def per_layer(self) -> Dict[str, float]:
        traced, plain = self.rounds[True], self.rounds[False]
        layer_names = sorted({k for r in traced for k in r["stats"]["layers"]})
        out = {name: median([r["stats"]["layers"][name] for r in traced])
               for name in layer_names}

        by_tier: Dict[str, List[float]] = {}
        idle, busy, server_ms, transport_ms, pending = [], [], [], [], []
        requests, ratios = [], []
        for r in traced:
            for ms, tier, is_busy in zip(r["answers_ms"], r["tiers"], r["busy"]):
                by_tier.setdefault(tier, []).append(ms)
                (busy if is_busy else idle).append(ms)
            served = r["stats"]["server_seconds"][r["health_requests"]:]
            for client_s, server_s in zip(r["client_s"], served):
                server_ms.append(server_s * 1e3)
                transport_ms.append((client_s - server_s) * 1e3)
            pending.extend(r["stats"]["pending_seconds"])
            scrape = r["scrape"]
            requests.append(sum(scrape.get("repro_service_requests_total", {}).values()))
            events = scrape.get("repro_service_answer_cache_events_total", {})
            hits = sum(v for k, v in events.items() if '"hit"' in k)
            total = sum(events.values())
            ratios.append(hits / total if total else 0.0)
        out.update({
            "service.requests": median(requests),
            "service.cache.hit_ratio": median(ratios),
            "service.answer-cache.p50_ms": median(by_tier.get("answer-cache", [])),
            "service.map.p50_ms": median(by_tier.get("map", [])),
            "service.analytical.p50_ms": median(by_tier.get("analytical", [])),
            "service.server_ms": median(server_ms),
            "service.transport_ms": median(transport_ms),
            "service.idle_p99_ms": tail(idle),
            "service.busy_p99_ms": tail(busy),
            "jobs.count": median([len(r["stats"]["pending_seconds"]) for r in traced]),
            "jobs.pending_s": median(pending),
            "setup.import_s": median(
                [r["stats"]["imported"] - r["stats"]["spawn"] for r in traced]),
        })
        out["setup.build_s"] = median(
            [r["setup_s"] - (r["stats"]["imported"] - r["stats"]["spawn"])
             - r["stats"]["layers"]["setup.map_load_s"] for r in traced])
        base = median([r["session_s"] for r in plain])
        out["trace.overhead_ratio"] = (
            median([r["session_s"] for r in traced]) / base if base else 0.0
        )
        return out
