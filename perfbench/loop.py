"""The closed loop: one client sends each request after the previous one ends.

Requests go in-process to `rho_planes.cli.main(argv)` or to the library
functions the figures workload calls.  A request fails on a nonzero exit
code, on a raw exception escaping the call, or on an output its oracle
rejects; none of these stops the run.  Only the call itself is timed;
output capture, file reads and oracle checks happen outside the timer.
"""

import contextlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

from . import oracles, workloads

SETUP_RUNS = 9
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
OUT_DIR = ".perfbench_out"


def _suite(rp, spec, req):
    return rp.lab.sector_partition_suite(spec, req.rho, req.seed_theta)


def _tangency(rp, spec, req):
    u = rp.norms.natural_param(spec, req.seed_theta)
    return (rp.conics.tangency_star(spec, u, req.rho),
            rp.conics.tangency_dstar(spec, u, req.rho))


def _frame(rp, spec, req):
    return rp.chords.chord_frame(spec, req.seed_theta, req.rho)


LIBRARY_CALLS = {"suite": _suite, "tangency": _tangency, "frame": _frame}


def prepare(rp, workload: str, seed: int, count: int | None = None):
    """Set-up: the traced prefix of the request list and its NormSpecs."""
    if count is None:
        count = workloads.TRACE_REQUESTS[workload]
    reqs = workloads.prefix(workload, seed, count)
    specs = {text: rp.NormSpec.parse(text) for text in workloads.spec_texts(reqs)}
    return reqs, specs


def execute(rp, req, specs: dict) -> tuple[float, oracles.Outcome]:
    """Run one request; returns (seconds, outcome)."""
    out = oracles.Outcome()
    if req.out is not None and os.path.exists(req.out):
        os.remove(req.out)
    spec = None
    if not req.argv:
        spec = specs.get(req.norm.text)
        if spec is None:
            spec = specs[req.norm.text] = rp.NormSpec.parse(req.norm.text)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            if req.argv:
                out.code = rp.cli.main(list(req.argv))
            else:
                out.value = LIBRARY_CALLS[req.kind](rp, spec, req)
        except Exception as exc:  # an escaping exception is a failed request
            out.error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    out.stdout, out.stderr = stdout.getvalue(), stderr.getvalue()
    if req.out is not None and os.path.exists(req.out):
        with open(req.out, "rb") as fh:
            out.written = fh.read()
    return seconds, out


@dataclass
class Tally:
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    bytes_out: int = 0

    def record(self, index, req, seconds, outcome, memo) -> None:
        self.latencies.append(seconds)
        if req.argv:
            self.bytes_out += len(outcome.stdout.encode()) + len(outcome.written or b"")
        reason = oracles.verify(req, outcome, memo)
        if reason is not None:
            self.failures.append(f"request {index} ({' '.join(req.argv) or req.kind}): {reason}")


def cold_setup_seconds(root: str, workload: str, seed: int, runs: int = SETUP_RUNS) -> list:
    """Wall time from starting a fresh interpreter to its 'ready' line."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "setup_probe.py"),
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten requests beyond it."""
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if count * (1.0 - q / 100.0) >= 10.0:
            best = q
    return best


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(rp, root: str, workload: str, seed: int, seconds: float) -> dict:
    """End-to-end run: cold-start set-up, then the closed loop.

    The loop runs whole cycles until `seconds` have passed, so every run
    sees the same mix of requests whether the host is in a fast or a slow
    phase; it measures at most one cycle longer than asked.
    """
    os.makedirs(workloads.WORKDIR, exist_ok=True)
    _, specs = prepare(rp, workload, seed)
    setups = cold_setup_seconds(root, workload, seed)
    tally, memo = Tally(), oracles.Memo()
    deadline = time.perf_counter() + seconds
    index = 0
    for cycle in workloads.cycles(workload, seed):
        if index and time.perf_counter() >= deadline:
            break
        for req in cycle:
            elapsed, outcome = execute(rp, req, specs)
            tally.record(index, req, elapsed, outcome, memo)
            index += 1
    lat = tally.latencies
    q = tail_percentile(len(lat))
    return {
        "tally": tally,
        "tail_q": q,
        "setup_runs": setups,
        "metrics": {
            "setup_s": (statistics.median(setups), "s"),
            "requests_per_s": (len(lat) / sum(lat), "1/s"),
            "request_ms_p50": (1000.0 * statistics.median(lat), "ms"),
            "request_ms_tail": (1000.0 * percentile(lat, q), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        },
    }


def traced_run(rp, workload: str, seed: int, count: int | None = None) -> dict:
    """The fixed traced prefix, once untraced and once traced."""
    os.makedirs(workloads.WORKDIR, exist_ok=True)
    reqs, specs = prepare(rp, workload, seed, count)
    memo = oracles.Memo()
    plain = Tally()
    for index, req in enumerate(reqs):
        elapsed, outcome = execute(rp, req, specs)
        plain.record(index, req, elapsed, outcome, memo)

    from . import tracing
    tracer = tracing.Tracer()
    traced = Tally()
    tracer.install(rp, specs.values())
    try:
        for index, req in enumerate(reqs):
            tracer.request = index
            elapsed, outcome = execute(rp, req, specs)
            traced.record(index, req, elapsed, outcome, memo)
    finally:
        tracer.uninstall()
    tracer.write_spans(os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl"))
    metrics = tracer.metrics()
    metrics["cli.bytes_written"] = (traced.bytes_out, "bytes")
    metrics["trace.overhead_ratio"] = (sum(traced.latencies) / sum(plain.latencies), "ratio")
    tally = Tally(plain.latencies + traced.latencies, plain.failures + traced.failures)
    return {"tally": tally, "metrics": metrics, "spans": len(tracer.spans)}
