"""The serve-mixed workload: a closed-loop client against ``repro serve``.

One client process drives two keep-alive connections, one thread each,
in a closed loop: the callers are sweep scripts that wait for each
envelope before sending the next job. Each job is POSTed, then polled
every 5 ms until it is terminal; its latency runs from the POST to the
terminal envelope. Each connection repeats :data:`JOB_CYCLE`: a
"replay" job repeats the spec of that connection's last fresh job,
which has finished by then, so it replays from the results journal
instead of simulating. Fresh and replayed jobs are timed apart, so a
gain on one of the two paths that costs the other shows.

Set-up time is daemon spawn to the first 200 from ``/readyz``, taken on
several fresh daemons; the load runs against the last one, in segments
with a host-speed probe after each, so the probes sample the host while
the load runs (its speed changes within seconds).

A client error (the daemon died, or broke the protocol) fails the job
in flight and stops the load; it is reported, not raised.
"""

from __future__ import annotations

import http.client
import json
import random
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

#: executor slots of the daemon (``repro serve --executors``)
EXECUTORS = 2
#: client connections, one thread each
CONNECTIONS = 2
#: CPUs the load keeps busy (executors and client), so the host-speed
#: probe runs this many copies at once
CPUS_BUSY = 2
#: mean delay before each status poll; each delay is drawn uniformly
#: from [0, 2 * POLL_S) so measured latencies are not quantized to the
#: poll period (a fixed period makes the median jump a whole step)
POLL_S = 0.005
#: ``sweep_s`` is the load time per this many jobs
PASS_JOBS = 40
#: daemons started per run to sample set-up time (the last one serves)
SETUP_SAMPLES = 5
#: a load phase runs in this many segments, a probe after each
LOAD_SEGMENTS = 5
#: fresh specs the stats digest covers
DIGEST_JOBS = 100
#: the daemon's peak RSS is read when this many jobs have completed
#: (it grows with the jobs served, so a fixed count makes it comparable)
RSS_AT_JOBS = 400

#: each connection's job sequence, repeated: every second job repeats
#: an earlier spec, the mix the workload is defined with. Replays take
#: about a tenth of a fresh job's latency, so their medians are taken
#: apart (``job_p50_ms`` for fresh jobs, ``replay_ms`` for replays); a
#: median over both would fall between the clusters.
JOB_CYCLE = ("fresh", "replay")

#: per-job run shape: small runs, cycling apps and policies
JOB_GRAPH_SCALE = 10
JOB_PROXY_ACCESSES = 20_000
JOB_APPS = ("BFS", "SSSP", "PR")
JOB_POLICIES = ("none", "pcc", "hawkeye", "linux-thp")

_LISTENING = re.compile(r"listening on [^\s:]+:(\d+)")
_TERMINAL = ("done", "failed", "expired")


def job_run(index: int, seed: int | None) -> dict:
    """The single run of fresh spec ``index`` (distinct graph seed each)."""
    base = 0 if seed is None else abs(seed) * 1_000_003
    return {
        "app": JOB_APPS[index % len(JOB_APPS)],
        "policy": JOB_POLICIES[(index // len(JOB_APPS)) % len(JOB_POLICIES)],
        "graph_scale": JOB_GRAPH_SCALE,
        "proxy_accesses": JOB_PROXY_ACCESSES,
        "seed": base + index,
    }


class Daemon:
    """One ``repro serve`` process on a fresh state directory."""

    def __init__(self, argv_prefix: list[str], workdir: Path, env: dict,
                 root: Path) -> None:
        workdir.mkdir(parents=True)
        self.log_path = workdir / "daemon.log"
        argv = argv_prefix + [
            "serve", "--port", "0", "--state-dir", str(workdir / "state"),
            "--executors", str(EXECUTORS),
        ]
        self.started = time.monotonic()
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(argv, cwd=root, env=env, stdout=log,
                                         stderr=subprocess.STDOUT)
        try:
            self.port = self._wait_port()
            self._wait_ready()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.monotonic() - self.started

    def _wait_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            match = _LISTENING.search(self.log_path.read_text(errors="replace"))
            if match:
                return int(match.group(1))
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve daemon exited: {self.log_tail()}")
            time.sleep(0.002)
        raise RuntimeError("serve daemon never reported its port")

    def _wait_ready(self, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                try:
                    status, _ = request(conn, "GET", "/readyz")
                finally:
                    conn.close()
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise RuntimeError("serve daemon never became ready")

    def peak_rss_mb(self) -> float | None:
        """The daemon's ``VmHWM`` (peak resident set) in MB, or ``None``
        once it has exited."""
        try:
            status = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return None
        match = re.search(r"VmHWM:\s+(\d+)", status)
        return int(match.group(1)) / 1024.0 if match else None

    def drain(self, timeout: float = 60.0) -> None:
        """Ask the daemon to drain and wait for it to exit."""
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                request(conn, "POST", "/v1/drain", {})
            except (OSError, http.client.HTTPException):
                pass  # already gone: the load reported it
            finally:
                conn.close()
            self.proc.wait(timeout=timeout)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]


def request(conn, method: str, path: str, doc=None):
    """One JSON exchange on a keep-alive connection."""
    body = json.dumps(doc).encode() if doc is not None else None
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    payload = response.read()
    return response.status, (json.loads(payload) if payload else None)


@dataclass
class JobRecord:
    index: int
    latency_s: float
    submit_s: float
    polls: int
    replay: bool
    result: list | None
    problem: str | None


@dataclass
class LoadStats:
    jobs: list[JobRecord] = field(default_factory=list)
    rejected_429: int = 0
    degraded: int = 0
    #: summed wall time of the load segments
    wall_s: float = 0.0
    rss_mb: float | None = None
    #: set by the first client error: the load stops
    broken: bool = False
    #: per connection: jobs sent, fresh jobs sent, the last fresh job's
    #: result and the poll-delay generator, so the next segment continues
    #: the sequence
    cursors: dict = field(default_factory=dict)


def _exchange(conn, job_id: str, payload: dict, delays: random.Random,
              stats: LoadStats, lock: threading.Lock):
    """POST one job, then poll it until terminal.

    Returns ``(envelope, submit seconds, polls, problem or None)``.
    """
    begun = time.monotonic()
    while True:
        status, doc = request(conn, "POST", "/v1/jobs", payload)
        if status != 429:
            break
        with lock:
            stats.rejected_429 += 1
        time.sleep(float(doc.get("retry_after_s") or 1))
    submit_s = time.monotonic() - begun
    if status not in (200, 202):
        return doc, submit_s, 0, f"submit {status}: {doc}"
    polls = 0
    while True:
        time.sleep(delays.uniform(0.0, 2 * POLL_S))
        status, doc = request(conn, "GET", f"/v1/jobs/{job_id}")
        polls += 1
        if status != 200:
            return doc, submit_s, polls, f"poll {status}: {doc}"
        if doc["job"]["state"] in _TERMINAL:
            return doc, submit_s, polls, None


def _drive(port: int, conn_index: int, seed, deadline: float,
           stats: LoadStats, lock: threading.Lock, daemon: "Daemon") -> None:
    """One connection's closed loop over :data:`JOB_CYCLE`."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    k, fresh, fresh_result, delays = stats.cursors.get(
        conn_index, (0, 0, None, random.Random(f"{seed}-{conn_index}")))
    try:
        while time.monotonic() < deadline and not stats.broken:
            replay = JOB_CYCLE[k % len(JOB_CYCLE)] == "replay"
            if not replay:
                fresh += 1
            index = CONNECTIONS * (fresh - 1) + conn_index
            job_id = f"c{conn_index}-{k}"
            payload = {"id": job_id, "tenant": f"client{conn_index}",
                       "runs": [job_run(index, seed)]}
            begun = time.monotonic()
            try:
                doc, submit_s, polls, problem = _exchange(
                    conn, job_id, payload, delays, stats, lock)
            except Exception as error:  # the daemon died or broke the protocol
                doc, submit_s, polls = None, time.monotonic() - begun, 0
                problem = f"{job_id}: client error {error!r}"
                stats.broken = True
            latency_s = time.monotonic() - begun
            result = None
            if problem is None:
                result = doc["result"]
                if doc["job"]["state"] != "done":
                    problem = f"{job_id} ended {doc['job']['state']}: {doc['error']}"
                elif doc["degraded"]:
                    problem = f"{job_id} degraded: {doc['degraded']}"
                elif replay and result != fresh_result:
                    problem = f"{job_id} replay differs from its first execution"
            if not replay:
                fresh_result = result
            with lock:
                stats.degraded += bool(doc and doc.get("degraded"))
                stats.jobs.append(JobRecord(index, latency_s, submit_s, polls,
                                            replay, result, problem))
                if len(stats.jobs) == RSS_AT_JOBS:
                    stats.rss_mb = daemon.peak_rss_mb()
            k += 1
    finally:
        conn.close()
        with lock:
            stats.cursors[conn_index] = (k, fresh, fresh_result, delays)


def run_load(daemon: Daemon, seed, stats: LoadStats, seconds: float) -> None:
    """One ``seconds``-long load segment into ``stats``."""
    lock = threading.Lock()
    started = time.monotonic()
    threads = [threading.Thread(target=_drive, args=(
        daemon.port, c, seed, started + seconds, stats, lock, daemon))
        for c in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats.wall_s += time.monotonic() - started


def fresh_prefix(fresh: dict) -> int:
    """How many fresh specs, from index 0 on, all completed."""
    count = 0
    while count in fresh:
        count += 1
    return count


def serve_digest(fresh: dict, limit: int) -> str:
    """Hash of the result summaries of fresh specs ``0 .. limit - 1``.

    A timed run completes a varying number of jobs, so phases and runs
    are compared over a common prefix of the spec sequence, at most
    ``DIGEST_JOBS`` long.
    """
    import hashlib

    digest = hashlib.sha256()
    for index in range(min(limit, DIGEST_JOBS)):
        digest.update(json.dumps([index, fresh[index]], sort_keys=True).encode())
    return digest.hexdigest()[:16]


def daemon_argv(traced: bool, ledger_out: Path | None) -> list[str]:
    """How to start the daemon: the CLI, or the ledger-dumping wrapper."""
    if traced:
        return [sys.executable, "-m", "bench.serve_daemon", str(ledger_out), "--"]
    return [sys.executable, "-m", "repro"]


def run_serve(workdir: Path, env: dict, root: Path, seed, *, seconds: float,
              traced: bool, probe, setup_samples: int = SETUP_SAMPLES) -> dict:
    """Set-up samples, then one load phase; returns the raw measurements.

    ``probe()`` times the host-speed probe; it runs once before the
    first daemon start and after every load segment.
    """
    setups = []
    probes = [probe()]
    for sample in range(setup_samples - 1):
        daemon = Daemon(daemon_argv(False, None), workdir / f"setup-{sample}", env, root)
        setups.append(daemon.setup_s)
        daemon.drain()
    ledger_out = workdir / "ledger.json"
    daemon = Daemon(daemon_argv(traced, ledger_out), workdir / "load", env, root)
    setups.append(daemon.setup_s)
    stats = LoadStats()
    try:
        for _ in range(LOAD_SEGMENTS):
            if stats.broken:
                break
            run_load(daemon, seed, stats, seconds / LOAD_SEGMENTS)
            probes.append(probe())
        if stats.rss_mb is None:
            stats.rss_mb = daemon.peak_rss_mb()
    finally:
        daemon.drain()
    out = {
        "setup_s": setups,
        "probe_s": probes,
        "stats": stats,
    }
    if traced and ledger_out.exists():
        out["ledger"] = json.loads(ledger_out.read_text())
    return out


def summarize(measured: dict) -> dict:
    """Per-job figures of one load phase (all jobs count, failed or not)."""
    stats: LoadStats = measured["stats"]
    jobs = stats.jobs
    return {
        "setup_s": statistics.median(measured["setup_s"]),
        "sweep_s": stats.wall_s * PASS_JOBS / max(1, len(jobs)),
        "fresh_ms": [job.latency_s * 1e3 for job in jobs if not job.replay],
        "replay_ms": [job.latency_s * 1e3 for job in jobs if job.replay],
        "latencies_ms": [job.latency_s * 1e3 for job in jobs],
        "jobs_per_s": len(jobs) / stats.wall_s if stats.wall_s else 0.0,
        "peak_rss_mb": stats.rss_mb,
        "submit_p50_ms": statistics.median([job.submit_s * 1e3 for job in jobs] or [0.0]),
        "polls_per_job": statistics.fmean([job.polls for job in jobs] or [0]),
        "attempted": len(jobs),
        "failed": sum(job.problem is not None for job in jobs),
        "problems": [job.problem for job in jobs if job.problem][:5],
        "replays": sum(job.replay for job in jobs),
        "degraded_jobs": stats.degraded,
        "rejected_429": stats.rejected_429,
        "fresh": {job.index: job.result for job in jobs if not job.replay},
        "setup_samples": measured["setup_s"],
        "probe_s": measured["probe_s"],
        "wall_s": stats.wall_s,
    }
