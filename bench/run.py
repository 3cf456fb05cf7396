"""hurwitztau benchmark driver (stdlib only).

    python3 bench/run.py --workload table|connected|kp|verify_sweep|all
                         [--seed N] [--seconds S] [--trace 0|1]

Runs one workload as a closed loop with one client: a fresh interpreter per
job, the next started only after the previous one has exited, until the next
job would overrun ``--seconds``.  Every job's output is checked.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, and the run record.

``--trace 0`` measures each child from outside with ``os.wait4`` on its pid:
wall seconds, user + sys CPU seconds and peak RSS, each a median over the
run's jobs, plus ``setup_s``, the median wall time of fresh interpreters that
import ``hurwitztau.cli`` and build its parser.

``--trace 1`` runs the job twice more under ``bench/tracing.py`` and reports the
per-layer metrics listed in BENCHMARK.json.  The two traced runs must agree
on every count and give the untraced run's result digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
RUN_LIMIT_S = 165.0  # a child still running then is killed and counts as failed
SETUP_CODE = "import hurwitztau.cli as cli; cli.build_parser()"


def spawn(argv: list, deadline: float) -> dict:
    """Run one child to exit; wall, CPU and peak RSS come from os.wait4 on its pid."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map() and time.perf_counter() < deadline:
            for key, _ in sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
        timed_out = bool(sel.get_map())
    if timed_out:
        os.kill(proc.pid, signal.SIGKILL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    proc.stdout.close()
    proc.stderr.close()
    return {
        "code": -1 if timed_out else proc.returncode,
        "stdout": b"".join(chunks[proc.stdout]).decode(),
        "stderr": b"".join(chunks[proc.stderr]).decode(),
        "job_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def job_argv(job: dict) -> list:
    if job["kind"] == "cli":
        return [sys.executable, "-m", "hurwitztau.cli", *job["argv"]]
    return [sys.executable, str(BENCH / "workloads.py"), "sweep", json.dumps(job["params"])]


def check(job: dict, child: dict) -> tuple[bool, str | None]:
    """(passed, digest): exit 0 and the pinned digest, or every sweep check ok."""
    if child["code"] != 0:
        return False, None
    try:
        if job["kind"] == "cli":
            digest = workloads.result_digest(child["stdout"])
            return digest == job["digest"], digest
        report = json.loads(child["stdout"])
    except (ValueError, KeyError):
        return False, None
    return workloads.all_ok(report), workloads.canonical_digest(report)


def report_failure(what: str, child: dict) -> None:
    print(f"FAILED {what}: exit {child['code']}: {child['stderr'].strip()[-500:]}",
          file=sys.stderr)


def closed_loop(job: dict, seconds: float, probe_setup: bool, deadline: float) -> dict:
    """Jobs back to back while the next is expected to end within ``seconds``."""
    jobs, setups, failed, digests = [], [], 0, set()
    start = time.perf_counter()
    while True:
        child = spawn(job_argv(job), deadline)
        passed, digest = check(job, child)
        if not passed:
            failed += 1
            report_failure(f"job (digest {digest}, pinned {job.get('digest')})", child)
        digests.add(digest)
        jobs.append(child)
        if probe_setup:
            setups.append(setup_probe(deadline))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(jobs) > seconds:
            break
    while probe_setup and len(setups) < SETUP_PROBES:
        setups.append(setup_probe(deadline))
    failed += sum(s is None for s in setups)
    return {"jobs": jobs, "setups": [s for s in setups if s is not None],
            "attempted": len(jobs) + len(setups), "failed": failed, "digests": digests}


def setup_probe(deadline: float) -> float | None:
    child = spawn([sys.executable, "-c", SETUP_CODE], deadline)
    if child["code"] != 0:
        report_failure("setup probe", child)
        return None
    return child["job_s"]


def median_of(values: list) -> float:
    return statistics.median(values) if values else 0.0  # no sample: the run failed


def untraced(job: dict, seconds: float, deadline: float) -> tuple[dict, dict]:
    loop = closed_loop(job, seconds, True, deadline)
    jobs = loop["jobs"]
    metrics = {
        "job_s": (median_of([j["job_s"] for j in jobs]), "s", len(jobs)),
        "cpu_s": (median_of([j["cpu_s"] for j in jobs]), "s", len(jobs)),
        "peak_rss_mb": (median_of([j["peak_rss_mb"] for j in jobs]), "MB", len(jobs)),
        "setup_s": (median_of(loop["setups"]), "s", len(loop["setups"])),
    }
    return loop, metrics


def traced(job: dict, seconds: float, deadline: float, per_layer: list) -> tuple[dict, dict]:
    runs, failed = [], 0
    start = time.perf_counter()
    for _ in range(2):
        child = spawn([sys.executable, str(BENCH / "tracing.py"), json.dumps(job)], deadline)
        try:
            runs.append((child, json.loads(child["stdout"])))
        except ValueError:
            failed += 1
            report_failure("traced job", child)
    loop = closed_loop(job, seconds - (time.perf_counter() - start), False, deadline)
    failed += loop["failed"]
    # the untraced jobs passed their checks, so their one digest is the reference
    base = next(iter(loop["digests"])) if not loop["failed"] and len(loop["digests"]) == 1 else None
    counts = [{k: v for k, v in out["metrics"].items() if not k.endswith("_s")}
              for _, out in runs]
    for child, out in runs:
        if out["exit"] != 0 or not out["ok"] or base is None or out["digest"] != base:
            failed += 1
            report_failure(f"traced job (digest {out['digest']}, untraced {base})", child)
    if len(runs) == 2 and counts[0] != counts[1]:
        failed += 1
        diff = sorted(k for k in counts[0].keys() | counts[1].keys()
                      if counts[0].get(k) != counts[1].get(k))
        print(f"FAILED traced counts differ between two runs: {diff}", file=sys.stderr)
    metrics = {}
    for m in per_layer:  # counts agree between the runs; times are their median
        values = [out["metrics"].get(m["name"], 0) for _, out in runs] or [0]
        value = median_of(values) if m["name"].endswith("_s") else values[0]
        metrics[m["name"]] = (value, m["unit"], len(runs))
    untraced_s = median_of([j["job_s"] for j in loop["jobs"]])
    traced_s = median_of([child["job_s"] for child, _ in runs])
    overhead = traced_s / untraced_s - 1.0 if runs and untraced_s else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio", len(runs))
    return {"attempted": 2 + loop["attempted"], "failed": failed}, metrics


def record(workload: str, seed: int, trace: int, load_start, samples: dict) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "workload": workload, "seed": seed, "trace": trace, "commit": commit,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "samples": samples,
        "src_lines": {p.name: len(p.read_text().splitlines())
                      for p in sorted((SRC / "hurwitztau").glob("*.py"))},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> dict:
    load_start = os.getloadavg()
    deadline = time.perf_counter() + RUN_LIMIT_S
    job = workloads.job_for(workload, seed)
    if trace:
        loop, metrics = traced(job, seconds, deadline, spec["per_layer"])
    else:
        loop, metrics = untraced(job, seconds, deadline)
    attempted, failed = loop["attempted"], loop["failed"]
    for name, (value, unit, n) in metrics.items():
        print(f"{workload:>12}  {name:<40} {value:>14.6g} {unit:<6} (n={n})")
    print(f"{workload:>12}  {'ops_failed':<40} {failed / attempted:>14.6g} ratio  "
          f"({failed} of {attempted})")
    samples = {name: n for name, (_, _, n) in metrics.items()}
    print("record " + json.dumps(record(workload, seed, trace, load_start, samples)))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, _) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hurwitztau" / "cli.py").is_file():
        print(f"no hurwitztau sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, seconds, args.trace, spec) for w in names]
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{w}.{k}": v for w, r in zip(names, results)
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
