"""Benchmark harness: seeded workloads of real `python -m kwise` jobs.

    python3 bench/run.py --workload exact --seed 1 --seconds 60 --trace 0

Run from the repository root.  Every job is a fresh interpreter, so start-up
and imports count, and jobs run one after another from this single process
(a closed loop with one client).  Each job's output is checked by oracle.py.

--trace 0 repeats the workload's job list, with fresh seeded inputs each
time, until --seconds is spent, and reports the end-to-end metrics.
--trace 1 runs each job of one pass untraced and then under traced_job.py,
checks that both print the same bytes, and adds the layer probes of
probes.py; it reports the per-layer metrics.  README.md maps each layer
metric to the end-to-end metric and job family it should move.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from math import isqrt, log10
from statistics import fmean, median
from pathlib import Path

import oracle
from traced_job import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
THREADS = min(2, os.cpu_count() or 1)
JOB_TIMEOUT_S = 150
SETUP_PER_PASS = 2
IMPORT = "import kwise.cli"


@dataclass
class Job:
    """One CLI invocation, the golden it is checked against and the work it does."""

    key: str
    argv: list[str]
    work: int
    unit: str
    params: dict = field(default_factory=dict)
    family: str = ""

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def label(self) -> str:
        return f"{self.command} {self.key}"


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    returncode: int
    stdout: bytes
    stderr: bytes
    defects: list[tuple[str, str]] = field(default_factory=list)


@functools.cache
def _primes_upto(limit: int) -> list[int]:
    """Standard-library sieve; pi(x) is the base of the density rates."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [i for i, f in enumerate(flags) if f]


def _prime_pi(x: int) -> int:
    return bisect_right(_primes_upto(1_100_000), x)


def _shape(shape: str) -> tuple[list[str], int]:
    """'k=3' or 'u=5,6' as CLI flags plus the order k they imply."""
    name, value = shape.split("=")
    k = int(value) if name == "k" else len(value.split(",")) + 1
    return [f"--{name}", value], k


def _density(rng: random.Random, s: int, shape: str, limit: int) -> Job:
    p = round(limit * rng.uniform(0.9, 1.1))
    flags, k = _shape(shape)
    argv = ["density", "--s", str(s), *flags, "--prime-limit", str(p)]
    return Job(f"s={s} {shape}", argv, _prime_pi(p), "primes", {"s": s, "k": k, "prime_limit": p})


def _count(s: int, shape: str, n: int) -> Job:
    flags, _ = _shape(shape)
    argv = ["count", "--s", str(s), *flags, "--n", str(n), "--threads", str(THREADS)]
    return Job(f"s={s} {shape} n={n}", argv, n**s, "cells")


def _mc(rng: random.Random, s: int, shape: str, samples: int) -> Job:
    flags, _ = _shape(shape)
    seed, range_n = rng.randrange(2**32), 10**6
    argv = ["mc", "--s", str(s), *flags, "--range", str(range_n),
            "--samples", str(samples), "--seed", str(seed)]
    echo = {"samples": samples, "seed": seed, "range_n": range_n}
    return Job(f"s={s} {shape}", argv, samples, "samples", {"echo": echo})


def euler_jobs(rng: random.Random) -> list[Job]:
    return [
        _density(rng, 2, "k=2", 10**6),
        _density(rng, 5, "k=3", 3 * 10**5),
        _density(rng, 3, "u=5,6", 3 * 10**5),
        _density(rng, 4, "k=4", 10**5),
    ]


def count_jobs(rng: random.Random) -> list[Job]:
    grid = (10, 100, 1000, 3000)
    converge = Job(
        "s=2 k=2",
        ["converge", "--s", "2", "--k", "2", "--grid", ",".join(map(str, grid)),
         "--threads", str(THREADS)],
        sum(n**2 for n in grid), "cells", {"s": 2},
    )
    return [
        _count(3, "k=2", 500),
        _count(3, "k=3", 500),
        _count(3, "u=5,6", 500),
        _count(4, "k=3", 100),
        converge,
    ]


def verify_jobs(rng: random.Random) -> list[Job]:
    jobs = [
        Job(f"s={s} u={u}",
            ["verify-recursion", "--s", str(s), "--u", u, "--n-max", str(n_max),
             "--threads", str(THREADS)],
            n_max, "cells")
        for s, u, n_max in ((2, "5,6", 100), (3, "2,3,5", 25))
    ]
    jobs.append(Job("s=5 k=4 u_max=2000",
                    ["verify-lemma4", "--s", "5", "--k", "4", "--u-max", "2000"],
                    2000 * 3, "cells"))
    return jobs


def sample_jobs(rng: random.Random) -> list[Job]:
    return [
        _mc(rng, 2, "k=2", 10**6),
        _mc(rng, 3, "u=5,6", 10**6),
        _mc(rng, 10, "k=3", 10**5),
    ]


FAMILIES = {
    "euler": euler_jobs,
    "count": count_jobs,
    "verify": verify_jobs,
    "sample": sample_jobs,
}

# Two families per workload keep a pass long enough to average out the
# machine's drift within one run; README.md gives the reasons for the split.
WORKLOADS = {
    "exact": ("euler", "verify"),
    "bulk": ("count", "sample"),
}


def job_list(workload: str, rng: random.Random) -> list[Job]:
    jobs = []
    for family in WORKLOADS[workload]:
        for job in FAMILIES[family](rng):
            job.family = family
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(args: list[str]) -> Outcome:
    """Run one interpreter to completion; wall, CPU and max RSS include its children."""
    start = time.perf_counter()
    with open(OUT / "stderr.txt", "w+b") as err:
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=err
        )
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            stdout = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
    return Outcome(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        returncode=proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


def setup_time(code: str) -> float:
    """Wall time of a fresh interpreter running `code`."""
    run = run_process(["-c", code])
    if run.returncode != 0:
        sys.exit(f"bench: `python -c {code!r}` failed:\n{run.stderr.decode(errors='replace')}")
    return run.wall_s


class Tally:
    """Jobs attempted and oracle failures, charged to layers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_layer = {layer: 0 for layer in LAYERS}

    def record(self, label: str, defects: list[tuple[str, str]]) -> None:
        self.attempted += 1
        if defects:
            self.failed += 1
        for layer, message in defects:
            self.by_layer[layer] += 1
            print(f"# FAIL {label}: [{layer}] {message}")


def run_job(job: Job, tally: Tally, traced_as: str | None = None) -> Outcome:
    if traced_as is None:
        args = ["-m", "kwise", *job.argv]
    else:
        args = [str(BENCH / "traced_job.py"), traced_as, str(OUT / "spans.jsonl"), "--", *job.argv]
    outcome = run_process(args)
    outcome.defects = oracle.check(job, outcome.returncode, outcome.stdout)
    if outcome.returncode != 0:
        print(f"# stderr of {job.label}: {outcome.stderr.decode(errors='replace')[-500:]}")
    tally.record(job.label, outcome.defects)
    return outcome


def _machine() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    return (f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={numpy} "
            f"threads={THREADS} platform={sys.platform}")


def measure_end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    setup_time(IMPORT)  # warm-up: writes the bytecode cache
    setups: list[float] = []
    runs: dict[str, list[tuple[Job, Outcome]]] = defaultdict(list)
    start = time.perf_counter()
    passes = 0
    while True:
        began = time.perf_counter()
        # set-up samples spread over the run see the same machine as the jobs
        setups += [setup_time(IMPORT) for _ in range(SETUP_PER_PASS)]
        for job in job_list(workload, rng):
            runs[job.label].append((job, run_job(job, tally)))
        passes += 1
        took = time.perf_counter() - began
        if time.perf_counter() - start + took > seconds:
            break

    record = {label: [{"argv": j.argv, "work": j.work, "wall_s": o.wall_s, "cpu_s": o.cpu_s,
                       "rss_mb": o.rss_mb, "returncode": o.returncode} for j, o in pairs]
              for label, pairs in runs.items()}
    (OUT / f"{workload}-{seed}.json").write_text(json.dumps(record, indent=1))
    print(f"# {passes} passes over the job list; per-job medians:")
    print(f"# {'job':34} {'work':>16} {'wall_s':>8} {'cpu_s':>8} {'rss_mb':>7}  rate")
    digits = []
    totals = {"wall_s": 0.0, "cpu_s": 0.0}
    families: dict[str, dict[str, float]] = defaultdict(lambda: {"wall_s": 0.0, "cpu_s": 0.0})
    peak_rss = 0.0
    for label, pairs in runs.items():
        jobs, outs = zip(*pairs)
        wall, cpu, rss = (median(getattr(o, name) for o in outs)
                          for name in ("wall_s", "cpu_s", "rss_mb"))
        for acc in (totals, families[jobs[0].family]):
            acc["wall_s"] += wall
            acc["cpu_s"] += cpu
        peak_rss = max(peak_rss, rss)
        work = median(j.work for j in jobs)
        rate = median(j.work / o.wall_s for j, o in pairs)
        print(f"# {label:34} {work:>10.0f} {jobs[0].unit:5} {wall:8.3f} {cpu:8.3f} {rss:7.1f}"
              f"  {rate:.4g} {jobs[0].unit}/s")
        for outcome in outs:
            if jobs[0].command == "density" and not outcome.defects:
                result = json.loads(outcome.stdout)["result"]
                digits.append(-log10(float(result["upper"]) - float(result["lower"])))
    for family, acc in families.items():
        print(f"# family {family:7} wall_s {acc['wall_s']:8.3f} s  cpu_s {acc['cpu_s']:8.3f} s")

    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (totals["wall_s"], "s"),
        "cpu_s": (totals["cpu_s"], "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    # printed for people; the result line leaves them out (see README.md)
    extra = {"failed_ratio": (tally.failed / tally.attempted, "ratio")}
    if digits:
        extra["certified_digits"] = (fmean(digits), "digits")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"# {workload:7} {name:18} {value:12.6g} {unit}")
    return metrics


def span_metrics(path: Path, labels: list[str]) -> dict[str, tuple[float, str]]:
    """Self time per layer over all traced jobs: span duration minus its children.

    Per job, the layer self times, the import span and the runner's own
    time add up to the root span, the job's in-process time.
    """
    lines = path.read_text().splitlines() if path.exists() else []
    spans = [json.loads(line) for line in lines]
    children: dict[tuple[str, int], int] = defaultdict(int)
    for sp in spans:
        children[(sp["job"], sp["parent"])] += sp["end"] - sp["start"]
    per_job: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for sp in spans:
        duration = sp["end"] - sp["start"]
        bucket = {"job": "runner", "cli.import": "import"}.get(sp["name"], sp["name"].split(".")[0])
        per_job[sp["job"]][bucket] += duration - children[(sp["job"], sp["id"])]
        if sp["name"] == "job":
            per_job[sp["job"]]["inproc"] += duration
    total: dict[str, int] = defaultdict(int)
    print("# traced in-process time per job = import + layer self times + runner:")
    for job, buckets in sorted(per_job.items(), key=lambda item: int(item[0])):
        parts = " + ".join(f"{name} {buckets[name] / 1e9:.3f}"
                           for name in ("import", *LAYERS, "runner") if buckets[name])
        print(f"#   {labels[int(job)]:46} {buckets['inproc'] / 1e9:7.3f} s = {parts}")
        for name, ns in buckets.items():
            total[name] += ns
    metrics = {f"{layer}.self_s": (total[layer] / 1e9, "s") for layer in LAYERS}
    metrics["trace.import_s"] = (total["import"] / 1e9, "s")
    metrics["trace.unaccounted_s"] = (total["runner"] / 1e9, "s")
    metrics["trace.inproc_s"] = (total["inproc"] / 1e9, "s")
    metrics["trace.spans"] = (len(spans), "spans")
    return metrics


def measure_layers(workload: str, seed: int, tally: Tally) -> dict:
    rng = random.Random(f"{workload}/{seed}")
    setup_time(IMPORT)
    pairs = [(setup_time("pass"), setup_time(IMPORT)) for _ in range(SETUP_PER_PASS * 3)]
    bare, imported = (median(times) for times in zip(*pairs))
    jobs = job_list(workload, rng)
    spans = OUT / "spans.jsonl"
    spans.unlink(missing_ok=True)

    # each job untraced, then traced right after, so both see the same machine
    plain, traced = [], []
    for i, job in enumerate(jobs):
        plain.append(run_job(job, tally))
        traced.append(run_job(job, tally, traced_as=str(i)))
        same = plain[-1].stdout == traced[-1].stdout
        tally.record(f"{job.label} (traced stdout)", [] if same else [
            ("cli", "traced stdout differs from untraced stdout")])

    metrics = {"cli.import_s": (imported - bare, "s")}
    metrics.update(span_metrics(spans, [f"{job.label} ({job.work} {job.unit})" for job in jobs]))
    plain_s = sum(o.wall_s for o in plain)
    metrics["trace.overhead_s"] = (sum(o.wall_s for o in traced) - plain_s, "s")

    probe = run_process([str(BENCH / "probes.py"), str(seed)])
    if probe.returncode != 0:
        tally.record("probes", [("cli", f"probes exited {probe.returncode}: "
                                        f"{probe.stderr.decode(errors='replace')[-500:]}")])
    else:
        report = json.loads(probe.stdout.splitlines()[-1])
        for name, defects in report["checks"].items():
            tally.record(f"probe {name}", [tuple(d) for d in defects])
        metrics.update({name: tuple(v) for name, v in report["metrics"].items()})
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (tally.by_layer[layer], "count")

    inproc = metrics["trace.inproc_s"][0]
    print(f"# untraced job list {plain_s:.3f} s; traced {plain_s + metrics['trace.overhead_s'][0]:.3f} s,"
          f" of which {inproc:.3f} s inside the traced interpreters")
    for name, (value, unit) in metrics.items():
        print(f"# {workload:7} {name:22} {value:12.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kwise" / "cli.py").is_file():
        print(f"bench: no kwise sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    print(f"# bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"# machine {_machine()}")
    tally = Tally()
    if args.trace:
        metrics = measure_layers(args.workload, args.seed, tally)
    else:
        metrics = measure_end_to_end(args.workload, args.seed, args.seconds, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
