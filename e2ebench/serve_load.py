"""The ``serve_mixed`` workload: a closed loop of two clients against
``repro serve``.

Each client holds one connection at a time: it submits a single-scenario
job, follows the job's SSE stream to its terminal event, and only then
submits the next.  It takes the next cold job from the run's shared job
list (a fresh master seed on an EEMBC kernel x {rm, hrp}), then resubmits
three specs it has already seen finish, which resolve from the store.  The
run's work is fixed by ``--seconds``: the list holds whole seed-shuffled
cycles of the 22 kernel x setup pairs, so every run has the same mix and
the machine's speed changes how long the run takes, not what it measures.
Failed jobs are counted, never retried or hidden.
"""

from __future__ import annotations

import json
import os
import random
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from common import ENGINE, RUNS, Child, current_rss_mb, reference_cycles

#: Concurrent closed-loop clients (the container has two cores).
CLIENTS = 2
#: Warm resubmits per cold job.
WARM_PER_COLD = 3
#: Cold jobs per second of ``--seconds`` (about what two clients complete
#: per second on a 2-core container at the seed commit).
COLD_JOBS_PER_SECOND = 66 / 25
#: The analysis grid ``repro submit`` sends (secondary and primary cutoff).
CUTOFFS = (1e-12, 1e-15)
#: Seconds a single job may take before the client gives up on it.
JOB_TIMEOUT = 120.0


class JobGenerator:
    """The deterministic job list of one run, from the workload seed."""

    def __init__(self, seed: int, seconds: float) -> None:
        from repro.workloads.eembc import eembc_kernel_names

        self.seed = seed
        rng = random.Random(f"serve_mixed:{seed}")
        pairs = [(kernel, setup) for kernel in eembc_kernel_names() for setup in ("rm", "hrp")]
        cycles = max(1, round(seconds * COLD_JOBS_PER_SECOND / len(pairs)))
        order: List[tuple] = []
        for _ in range(cycles):
            block = list(pairs)
            rng.shuffle(block)
            order.extend(block)
        self.cold = [make_scenario(kernel, setup, rng.randrange(1, 2**31)) for kernel, setup in order]
        self._taken = 0
        self._lock = threading.Lock()

    def take_cold(self):
        """The next cold scenario of the list (shared by the clients), or None."""
        with self._lock:
            if self._taken == len(self.cold):
                return None
            self._taken += 1
            return self.cold[self._taken - 1]

    def warm_picker(self, client: int):
        """Client ``client``'s choice among the scenarios it saw finish."""
        rng = random.Random(f"serve_mixed:{self.seed}:{client}")
        return lambda finished: finished[rng.randrange(len(finished))]


def make_scenario(kernel: str, setup: str, master_seed: int):
    from dataclasses import replace

    from repro.platform.leon3 import Leon3Parameters
    from repro.pwcet import MbptaConfig
    from repro.study.scenario import HierarchySpec, Scenario, WorkloadSpec

    return Scenario(
        workload=WorkloadSpec.eembc(kernel),
        hierarchy=HierarchySpec.named(setup, Leon3Parameters()),
        runs=RUNS,
        master_seed=master_seed,
        engine=ENGINE,
        mbpta=replace(MbptaConfig(), exceedance_probabilities=CUTOFFS),
    )


def job_request(scenario) -> Dict[str, object]:
    """The ``POST /v1/jobs`` body, with the engine pinned explicitly (a
    submit without ``"engine"`` runs on the server's default engine)."""
    return {"spec": scenario.spec_dict(), "engine": ENGINE, "jobs": 1, "cutoffs": list(CUTOFFS)}


@dataclass
class JobRecord:
    kind: str
    scenario: object
    submitted: float
    job_id: str = ""
    state: str = "failed"
    error: str = ""
    submit_rtt: float = 0.0
    first_event: Optional[float] = None
    started: Optional[float] = None
    finished: Optional[float] = None
    events: int = 0

    def latency(self) -> float:
        return self.finished - self.submitted  # type: ignore[operator]


def run_job(client, kind: str, scenario) -> JobRecord:
    """Submit one job and follow its event stream to the terminal event."""
    from repro.service import ServiceError

    record = JobRecord(kind=kind, scenario=scenario, submitted=time.perf_counter())
    try:
        record.job_id = str(client.submit(job_request(scenario))["job_id"])
        record.submit_rtt = time.perf_counter() - record.submitted
        for event in client.events(record.job_id, timeout=JOB_TIMEOUT):
            now = time.perf_counter()
            record.events += 1
            if record.first_event is None:
                record.first_event = now
            kind_of_event = event.get("event")
            if kind_of_event == "job-started":
                record.started = now
            if kind_of_event in ("job-completed", "job-failed"):
                record.finished = now
                record.state = "done" if kind_of_event == "job-completed" else "failed"
                record.error = str(event.get("error", ""))
                break
        else:
            record.error = "event stream ended without a terminal event"
    except ServiceError as error:
        record.error = str(error)
    return record


def client_loop(url: str, generator: JobGenerator, client: int, finished: List[object],
                records: List[JobRecord]) -> None:
    """Closed loop: one cold job, then warm resubmits, until the list is done."""
    from repro.service import ServiceClient

    service = ServiceClient(url, timeout=JOB_TIMEOUT)
    pick_warm = generator.warm_picker(client)
    while True:
        scenario = generator.take_cold()
        if scenario is None:
            return
        record = run_job(service, "cold", scenario)
        records.append(record)
        if record.state == "done":
            finished.append(scenario)
        for _ in range(WARM_PER_COLD):
            records.append(run_job(service, "warm", pick_warm(finished)))


@dataclass
class Session:
    """One server process: set-up, optionally a timed closed-loop phase."""

    work: Path
    seed: int
    trace: bool = False
    setup_s: float = 0.0
    records: List[JobRecord] = field(default_factory=list)
    phase_s: float = 0.0
    peak_rss_mb: float = 0.0
    rss_growth_mb: float = 0.0
    layers: Optional[Dict[str, float]] = None

    def run(self, seconds: Optional[float], gate_sample: int = 0) -> List[str]:
        """Start the server, warm it up, drive it for ``seconds`` (None = set-up
        only), shut it down; returns correctness problems."""
        from repro.service import ServiceClient

        self.work.mkdir(parents=True)
        store = self.work / "store"
        out = self.work / "launcher.json"
        launcher = Child(
            "serve_launcher.py",
            ["--store", str(store), "--out", str(out), "--trace", str(int(self.trace))],
        )
        problems: List[str] = []
        try:
            line = launcher.expect("repro serve: listening on ")
            url = line.split()[4]
            client = ServiceClient(url, timeout=JOB_TIMEOUT)
            warmup = make_scenario("a2time", "rm", self.seed)
            warm = run_job(client, "warm-up", warmup)
            self.setup_s = time.perf_counter() - launcher.started
            if warm.state != "done":
                raise RuntimeError(f"warm-up job failed: {warm.error}")
            if seconds is not None:
                self._drive(launcher, url, warmup, seconds)
                problems = self._gate(client, store, gate_sample)
            client.shutdown()
            launcher.finish(timeout=120)
        finally:
            launcher.kill()
        result = json.loads(out.read_text())
        self.peak_rss_mb = result["peak_rss_mb"]
        self.layers = result["layers"]
        return problems

    def _mark(self, launcher: Child) -> None:
        if self.trace:
            os.kill(launcher.process.pid, signal.SIGUSR1)
            launcher.expect("mark")

    def _drive(self, launcher: Child, url: str, warmup, seconds: float) -> None:
        pid = launcher.process.pid
        rss_start = current_rss_mb(pid)
        self._mark(launcher)
        generator = JobGenerator(self.seed, seconds)
        start = time.perf_counter()
        per_client: List[List[JobRecord]] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(
                target=client_loop,
                args=(url, generator, index, [warmup], per_client[index]),
                name=f"bench-client-{index}",
            )
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=len(generator.cold) * JOB_TIMEOUT)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish")
        self.phase_s = time.perf_counter() - start
        self._mark(launcher)
        self.rss_growth_mb = current_rss_mb(pid) - rss_start
        self.records = [record for records in per_client for record in records]

    def _gate(self, client, store: Path, sample: int) -> List[str]:
        """Served analyses of a sample of jobs must equal what the CLI path
        computes for the same spec, on an independent store."""
        from repro.pwcet import analysis_payload
        from repro.study import ResultStore
        from repro.study.runner import execute_scenarios

        done = [record for record in self.records if record.state == "done"]
        rng = random.Random(f"serve_mixed-gate:{self.seed}")
        problems: List[str] = []
        cli_store = ResultStore(self.work / "cli-store")
        for record in rng.sample(done, min(sample, len(done))):
            payload = client.job(record.job_id)
            served = payload["results"][0]
            results = execute_scenarios([record.scenario], store=cli_store)
            outcome = next(iter(results))
            expected = {
                "analysis": analysis_payload(results.mbpta(outcome.label)),
                "mean": outcome.campaign.mean,
                "high_water_mark": outcome.campaign.high_water_mark,
                "runs": outcome.campaign.runs,
            }
            got = {key: served[key] for key in expected}
            if json.loads(json.dumps(expected, sort_keys=True)) != got:
                problems.append(f"served job {record.job_id} ({record.kind}) differs from the CLI path")
            stored = ResultStore(store).load(outcome.spec_hash)
            times = outcome.campaign.execution_times
            if stored is None or [int(value) for value in stored.execution_times] != times:
                problems.append(f"served campaign {outcome.spec_hash[:12]} differs from the CLI path")
            index = rng.randrange(len(times))
            if reference_cycles(record.scenario, index) != times[index]:
                problems.append(f"served campaign {outcome.spec_hash[:12]} run {index} differs from reference")
        return problems
