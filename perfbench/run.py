#!/usr/bin/env python3
"""Plan-level benchmark of the CorrectBench reproduction.

Each sample is a fresh process of the release `correctbench-run` binary,
run as users run it (built-in observability on, `--threads` = nproc).
Load is a closed batch: a plan's jobs are all queued at start and the
workers pull the next job when done. Every sample's `outcomes.jsonl` must
match the sha256 pinned below for its plan; a sample that does not fails
the run. With `--trace 1` the run measures per-layer metrics instead,
from `perfbench-trace` (built from this directory), which drives the
same plan in-process through the harness's public API with spans around
each layer's calls.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 1
    python3 perfbench/run.py --suite --seed 1 --seconds 35    # all workloads, interleaved
    python3 perfbench/run.py --ablate --seed 1                # one arm per layer flag
    python3 perfbench/run.py --paper                          # one --full plan
    python3 perfbench/run.py --self-test

`--plan-seed 7` runs the held-out plan seed instead of the reference
seed 2025. The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. Workloads, metric
units and directions are described in `BENCHMARK.json` and
`perfbench/README.md`.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

REFERENCE_SEED = 2025
HELD_OUT_SEED = 7
# A spawned process that outlives this is killed and counted as failed.
SAMPLE_TIMEOUT_S = 170.0
# Set-up repetitions per run; the run reports their median.
SETUPS_PER_RUN = 3
# Samples of each ablation arm.
ABLATION_SAMPLES = 3

SWEEP_PLAN = ("--problems", "24", "--reps", "2")
EVAL_PLAN = ("--problems", "60", "--reps", "5", "--methods", "ab,base")
FULL_PLAN = ("--full",)
# sha256 of `outcomes.jsonl` per plan and plan seed. A deliberate change
# to outcomes updates these together with the cell schema.
DIGESTS = {
    SWEEP_PLAN: {
        2025: "b091525be83fffa7e51b3607fe2b7615f62c2e5a3a3c1cb3e31a78a9cc7850ad",
        7: "764a48d71ef7f7b332224568d48f8399946119292093954ca9965dc6871508d8",
    },
    EVAL_PLAN: {
        2025: "b11d6c34385696733fd3d9e9ff7f888f5c92c660631f5f3e998773ecfb3c3fc8",
        7: "5af6cda0dda4023943be84c97112618740eb31848a00772a76aeb04101fe8259",
    },
    FULL_PLAN: {
        2025: "a60afe62a17e2e7a517b88617ca4d966163d6029dd4c089c3b1aff894d49900c",
    },
}
# Layer switches of `correctbench-run`, one ablation arm each.
ABLATION_FLAGS = (
    "--no-sim-cache",
    "--no-elab-cache",
    "--no-session-pool",
    "--no-golden-cache",
    "--no-lint-cache",
    "--no-obs",
    "--no-cache",
)


@dataclass(frozen=True)
class Workload:
    name: str
    plan: tuple
    # Replay the plan through `--store DIR` from a store filled in set-up.
    warm: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", SWEEP_PLAN),
        Workload("eval_sweep", EVAL_PLAN),
        Workload("warm_replay", EVAL_PLAN, warm=True),
    )
}


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def median(values):
    return statistics.median(values) if values else 0.0


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2 or median(values) == 0:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)


def plan_jobs(plan):
    """Number of jobs `correctbench-run` expands `plan` to."""
    args = dict(zip(plan[::2], plan[1::2]))
    if "--full" in plan:
        return 156 * 3 * 5
    methods = len(args.get("--methods", "cb,ab,base").split(","))
    return int(args.get("--problems", 48)) * methods * int(args.get("--reps", 2))


def tail_rank(n):
    """0-based index, in `n` sorted values, of the highest percentile with
    at least ten values beyond it (the maximum when there are too few)."""
    return n - 11 if n > 10 else max(n - 1, 0)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_ok(path, expected):
    """The outcome gate."""
    return path.is_file() and sha256(path) == expected


# ---- building --------------------------------------------------------------


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds both binaries from source (a no-op when they are fresh)."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "correctbench-harness", "--bin", "correctbench-run"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml")],
    ):
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build failed: {e}") from e
        if r.returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)} exited {r.returncode}")
    release = target_dir() / "release"
    return release / "correctbench-run", release / "perfbench-trace"


# ---- one process -----------------------------------------------------------


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    rc: int
    stdout: str


def spawn(argv, capture=False, timeout=SAMPLE_TIMEOUT_S):
    """Runs `argv` to completion: wall from spawn to exit, and the child's
    own CPU time and peak resident set from `wait4`."""
    out_path = WORK / "stdout.txt"
    err_path = WORK / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [str(a) for a in argv], cwd=ROOT,
            stdout=out if capture else subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in (0, 3):
        log(f"  {Path(argv[0]).name} exited {proc.returncode}: "
            + err_path.read_text(errors="replace")[-400:].strip())
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode, out_path.read_text() if capture else "")


# ---- samples ---------------------------------------------------------------


@dataclass
class Arm:
    """One measured configuration: a workload plus extra run flags."""

    workload: Workload
    extra: tuple = ()
    label: str = ""
    samples: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    store: Path = None
    readout: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    aborted: int = 0

    @property
    def name(self):
        return self.label or self.workload.name


class Bench:
    def __init__(self, run_bin, trace_bin, plan_seed, rng):
        self.run_bin = run_bin
        self.trace_bin = trace_bin
        self.plan_seed = plan_seed
        self.rng = rng
        self.threads = nproc()
        self.timeout = SAMPLE_TIMEOUT_S
        self.counter = 0

    def fresh_dir(self, kind):
        self.counter += 1
        path = WORK / f"{kind}-{self.counter}"
        shutil.rmtree(path, ignore_errors=True)
        return path

    def expected(self, workload):
        return DIGESTS[workload.plan][self.plan_seed]

    def plan_argv(self, arm, out, store, threads=None):
        argv = [self.run_bin, *arm.workload.plan, "--seed", self.plan_seed,
                "--threads", threads or self.threads, "--out", out, "--quiet", *arm.extra]
        if store is not None:
            argv += ["--store", store]
        return argv

    def judge(self, arm, out, proc, jobs):
        """The outcome gate for one plan run: counts its jobs as attempted
        and its aborted jobs (or all of them, on a digest mismatch or a
        crash) as failed. Returns whether the run passed the gate."""
        arm.attempted += jobs
        outcomes = out / "outcomes.jsonl"
        if proc.rc not in (0, 3) or not digest_ok(outcomes, self.expected(arm.workload)):
            arm.failed += jobs
            arm.mismatches += 1
            got = sha256(outcomes)[:16] if outcomes.is_file() else "missing"
            log(f"  {arm.name}: outcomes digest {got} does not match the pinned "
                f"{self.expected(arm.workload)[:16]} (exit {proc.rc})")
            return False
        aborted = outcomes.read_text().count('"status":"aborted"')
        arm.failed += aborted
        arm.aborted += aborted
        return True

    def sample(self, arm):
        """One end-to-end sample: a fresh process on the arm's whole plan."""
        out = self.fresh_dir("sample")
        proc = spawn(self.plan_argv(arm, out, arm.store), timeout=self.timeout)
        jobs = plan_jobs(arm.workload.plan)
        ok = self.judge(arm, out, proc, jobs)
        if ok:
            walls = []
            if not arm.workload.warm:
                lines = (out / "timings.jsonl").read_text().splitlines()[1:]
                walls = sorted(json.loads(line)["wall_us"] / 1000.0 for line in lines)
            arm.samples.append({"wall_s": proc.wall_s, "cpu_s": proc.cpu_s,
                                "peak_rss_mb": proc.peak_rss_mb, "jobs": jobs,
                                "job_ms": walls})
            arm.readout = summary_rows(out / "summary.txt")
            log(f"  {arm.name}: sample {len(arm.samples)} {proc.wall_s:.3f} s")
        shutil.rmtree(out, ignore_errors=True)

    def setup(self, arm):
        """One repetition of the workload's set-up, timed. A warm workload
        fills a fresh store with a cold run of its plan (the first store is
        kept for the replays). A cold workload starts from empty in-memory
        caches, as users do: its set-up only clears the location of its
        output, and times at about zero."""
        t0 = time.perf_counter()
        out = self.fresh_dir("setup")
        if not arm.workload.warm:
            arm.setups.append(time.perf_counter() - t0)
            return True
        store = self.fresh_dir("store")
        proc = spawn(self.plan_argv(arm, out, store))
        elapsed = time.perf_counter() - t0
        ok = self.judge(arm, out, proc, plan_jobs(arm.workload.plan))
        if ok:
            arm.setups.append(elapsed)
        if arm.store is None and ok:
            arm.store = store
        else:
            shutil.rmtree(store, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
        return ok

    def measure(self, arms, window_s, min_samples):
        """Runs samples of every arm in shuffled rounds until `window_s`
        has passed and each arm has `min_samples` samples. No arm runs
        twice in a row when there are several. Set-up repetitions are
        spread over the window at seeded random times; a warm arm's first
        fill comes before its first replay."""
        start = time.perf_counter()
        marks = {}
        for arm in arms:
            marks[arm.name] = sorted(
                window_s * (k + self.rng.random()) / SETUPS_PER_RUN
                for k in range(SETUPS_PER_RUN))
            if arm.workload.warm:
                marks[arm.name][0] = 0.0

        def due_setups(limit):
            for arm in arms:
                while marks[arm.name] and marks[arm.name][0] <= limit:
                    marks[arm.name].pop(0)
                    self.setup(arm)

        def failed():
            return any(a.mismatches for a in arms)

        previous = None
        last_round = 0.0
        while not failed():
            # Stop when another round would end past the window, so that a
            # run lasts about `window_s` whatever a sample's length.
            round_start = time.perf_counter()
            if (round_start - start + last_round > window_s
                    and all(len(a.samples) >= min_samples for a in arms)):
                break
            order = list(arms)
            self.rng.shuffle(order)
            if len(order) > 1 and order[0] is previous:
                order.append(order.pop(0))
            for arm in order:
                due_setups(time.perf_counter() - start)
                if failed():
                    break
                self.sample(arm)
            previous = order[-1]
            last_round = time.perf_counter() - round_start
        if not failed():
            due_setups(float("inf"))
        for arm in arms:
            if arm.store is not None:
                shutil.rmtree(arm.store, ignore_errors=True)


def summary_rows(path):
    """The per-method Eval2/Eval1/Eval0 rows of a run's summary."""
    if not path.is_file():
        return []
    lines = path.read_text().splitlines()
    try:
        start = next(i for i, l in enumerate(lines) if l.startswith("method "))
    except StopIteration:
        return []
    rows = [lines[start]]
    for line in lines[start + 1:]:
        if line.startswith("wall:"):
            break
        rows.append(line)
    return rows


def end_to_end(arm):
    """The arm's end-to-end metrics: medians over its samples."""
    samples = arm.samples
    if arm.workload.warm:
        # Replayed cells carry no wall time of their own, so a replay's
        # job latency is its share of the process wall. Across hundreds of
        # samples the highest percentile with ten beyond it would measure
        # the machine's hiccups, not the replay; the tail is fixed at p90.
        values = [s["wall_s"] * 1000.0 / s["jobs"] for s in samples]
        q = 0.9
        tail_note = f"p90 of per-cell replay cost over {len(values)} samples"
    else:
        # The tail's percentile is fixed by the plan (ten of one sample's
        # jobs beyond it) and estimated over the jobs of every sample.
        jobs = samples[0]["jobs"] if samples else 0
        values = [ms for s in samples for ms in s["job_ms"]]
        q = (tail_rank(jobs) + 1) / jobs if jobs else 1.0
        tail_note = f"p{100 * q:.1f} of job wall, {jobs} jobs per sample"
    values.sort()
    metrics = {
        "wall_s": median([s["wall_s"] for s in samples]),
        "cpu_s": median([s["cpu_s"] for s in samples]),
        "peak_rss_mb": median([s["peak_rss_mb"] for s in samples]),
        "job_p50_ms": median(values),
        "job_tail_ms": values[max(math.ceil(q * len(values)) - 1, 0)] if values else 0.0,
        "setup_s": median(arm.setups),
    }
    return metrics, f"job_tail_ms is the {tail_note}"


def unit_of(name):
    """Unit of a metric, also under an arm prefix (`sweep/wall_s`)."""
    name = name.split("/")[-1]
    return "%" if name.endswith("_delta_pct") else UNITS[name]


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    })


def print_metrics(title, metrics):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:<34} {value:>16.6f} {unit_of(name)}")


def print_aborted(arm):
    """Aborted jobs over jobs attempted. Not a bounded metric: it is zero on
    every workload, and aborted jobs already count as failed operations."""
    ratio = arm.aborted / arm.attempted if arm.attempted else 0.0
    print(f"  {'aborted_ratio':<34} {ratio:>16.6f} ratio "
          f"({arm.aborted} of {arm.attempted} jobs)")


# ---- modes -----------------------------------------------------------------


def run_workload(bench, workload, seconds):
    """The per-workload end-to-end run."""
    arm = Arm(workload)
    bench.measure([arm], seconds, min_samples=3)
    metrics, tail_note = end_to_end(arm)
    print(f"{workload.name}: {len(arm.samples)} samples, {len(arm.setups)} set-ups, "
          f"plan seed {bench.plan_seed}, {bench.threads} threads; {tail_note}")
    for row in arm.readout:
        print(f"  {row}")
    print_metrics(f"{workload.name} end-to-end", metrics)
    print_aborted(arm)
    correct = arm.mismatches == 0 and len(arm.samples) > 0
    return correct, max(arm.attempted, 1), arm.failed, metrics


def run_trace(bench, workload, seconds):
    """The traced run: per-layer metrics from `perfbench-trace`. One traced
    pass at nproc workers gives the scheduler's utilization and tail idle
    time; the counts and busy times come from a traced pass at one
    worker, so that they repeat exactly. The trace overhead compares the
    process walls of traced one-worker passes with those of
    `correctbench-run --threads 1` on the same plan, paired in seeded
    order."""
    start = time.perf_counter()
    arm = Arm(workload)
    if workload.warm and not bench.setup(arm):
        print(f"{workload.name}: the set-up fill failed the outcome gate")
        return False, max(arm.attempted, 1), arm.failed, {}
    jobs = plan_jobs(workload.plan)

    def traced(threads, keep_spans):
        """One perfbench-trace pass: its process wall and its metrics."""
        out = bench.fresh_dir("trace")
        argv = [bench.trace_bin, *workload.plan, "--seed", bench.plan_seed,
                "--threads", threads, "--out", out]
        if arm.store is not None:
            argv += ["--store", arm.store]
        proc = spawn(argv, capture=True)
        metrics = None
        if bench.judge(arm, out, proc, jobs):
            metrics = json.loads(proc.stdout.strip().splitlines()[-1])
            arm.readout = summary_rows(out / "summary.txt")
            if keep_spans:
                shutil.copy(out / "spans.jsonl", WORK / f"spans-{workload.name}-{threads}.jsonl")
        shutil.rmtree(out, ignore_errors=True)
        return proc.wall_s, metrics

    def untraced():
        """One `correctbench-run --threads 1` pass: its process wall."""
        out = bench.fresh_dir("untraced")
        proc = spawn(bench.plan_argv(arm, out, arm.store, threads=1))
        bench.judge(arm, out, proc, jobs)
        shutil.rmtree(out, ignore_errors=True)
        return proc.wall_s

    _, wide = traced(bench.threads, keep_spans=True)
    layers = None
    overhead = []
    while not arm.mismatches:
        pair_start = time.perf_counter()
        sides = [True, False]
        bench.rng.shuffle(sides)
        walls = {}
        for side in sides:
            if side:
                walls[side], metrics = traced(1, keep_spans=layers is None)
                layers = layers or metrics
            else:
                walls[side] = untraced()
        if arm.mismatches:
            break
        overhead.append(100.0 * (walls[True] / walls[False] - 1.0))
        elapsed = time.perf_counter() - start
        if elapsed + (time.perf_counter() - pair_start) > seconds:
            break
    if arm.store is not None:
        shutil.rmtree(arm.store, ignore_errors=True)
    if arm.mismatches:
        print(f"{workload.name}: a traced run failed the outcome gate")
        return False, max(arm.attempted, 1), arm.failed, {}
    metrics = dict(layers)
    for name in ("harness.scheduler.utilization", "harness.scheduler.tail_idle_s"):
        metrics[name] = wide[name]
    metrics["trace_overhead_pct"] = median(overhead)
    metrics = {name: metrics[name] for name in PER_LAYER}
    print(f"{workload.name}: traced at {bench.threads} and 1 workers, "
          f"{len(overhead)} traced/untraced pairs, plan seed {bench.plan_seed}; "
          f"spans in {WORK.relative_to(ROOT)}/spans-{workload.name}-*.jsonl")
    for row in arm.readout:
        print(f"  {row}")
    print_metrics(f"{workload.name} per-layer", metrics)
    return True, max(arm.attempted, 1), arm.failed, metrics


def run_suite(bench, seconds):
    """Every workload, interleaved in one schedule."""
    arms = [Arm(w) for w in WORKLOADS.values()]
    bench.measure(arms, seconds * len(arms), min_samples=3)
    return report_arms(arms)


def run_ablate(bench):
    """Each layer switched off alone (and all at once), against the default,
    on the two cold workloads, all arms interleaved."""
    arms = []
    for name in ("sweep", "eval_sweep"):
        arms.append(Arm(WORKLOADS[name], label=f"{name}/default"))
        for flag in ABLATION_FLAGS:
            arms.append(Arm(WORKLOADS[name], (flag,), label=f"{name}/{flag[2:]}"))
    bench.measure(arms, 0.0, min_samples=ABLATION_SAMPLES)
    correct, attempted, failed, metrics = report_arms(arms, per_metric=False)
    print("ablation: median delta against the default arm (spread = IQR/median of the arm's samples)")
    deltas = {}
    for arm in arms:
        workload, flag = arm.name.split("/")
        if flag == "default":
            base = end_to_end(arm)[0]
            continue
        mine = end_to_end(arm)[0]
        cells = []
        # The arms are cold workloads: their set-up prepares nothing.
        for metric in END_TO_END:
            if base[metric] and metric != "setup_s":
                delta = 100.0 * (mine[metric] / base[metric] - 1.0)
                deltas[f"{arm.name}/{metric}_delta_pct"] = delta
                cells.append(f"{metric} {delta:+6.1f}%")
        walls = [s["wall_s"] for s in arm.samples]
        digest = "unchanged" if arm.mismatches == 0 else "CHANGED"
        print(f"  {arm.name:<28} " + "  ".join(cells)
              + f"  wall spread {100 * spread(walls):.1f}%  digest {digest}")
    metrics.update(deltas)
    return correct, attempted, failed, metrics


def report_arms(arms, per_metric=True):
    metrics = {}
    correct = True
    for arm in arms:
        m, tail_note = end_to_end(arm)
        correct = correct and arm.mismatches == 0 and len(arm.samples) > 0
        print(f"{arm.name}: {len(arm.samples)} samples; {tail_note}")
        for row in arm.readout:
            print(f"  {row}")
        for name, value in m.items():
            metrics[f"{arm.name}/{name}"] = value
        if per_metric:
            print_metrics(f"{arm.name} end-to-end", m)
            print_aborted(arm)
    attempted = max(sum(a.attempted for a in arms), 1)
    return correct, attempted, sum(a.failed for a in arms), metrics


def run_paper(bench):
    """One paper-scale plan (--full, 2340 jobs) against its pinned digest."""
    arm = Arm(Workload("paper", FULL_PLAN))
    bench.timeout = 3600.0
    bench.measure([arm], 0.0, min_samples=1)
    return report_arms([arm])


# ---- entry -----------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--suite", action="store_true")
    mode.add_argument("--ablate", action="store_true")
    mode.add_argument("--paper", action="store_true")
    mode.add_argument("--self-test", action="store_true")
    p.add_argument("--seed", type=int, default=1,
                   help="seeds the sample schedule (order and set-up placement)")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--plan-seed", type=int, default=REFERENCE_SEED,
                   choices=(REFERENCE_SEED, HELD_OUT_SEED),
                   help="plan seed of correctbench-run (digests are pinned for these)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.self_test:
        sys.dont_write_bytecode = True
        import selftest
        return selftest.main()
    WORK.mkdir(parents=True, exist_ok=True)
    run_bin, trace_bin = build()
    rng = random.Random(args.seed)
    bench = Bench(run_bin, trace_bin, args.plan_seed, rng)
    if args.paper and args.plan_seed != REFERENCE_SEED:
        raise BenchError("the paper-scale digest is pinned for plan seed 2025 only")
    if args.workload and args.trace:
        outcome = run_trace(bench, WORKLOADS[args.workload], args.seconds)
    elif args.workload:
        outcome = run_workload(bench, WORKLOADS[args.workload], args.seconds)
    elif args.suite:
        outcome = run_suite(bench, args.seconds)
    elif args.ablate:
        outcome = run_ablate(bench)
    else:
        outcome = run_paper(bench)
    correct, attempted, failed, metrics = outcome
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
