"""Self-test of the benchmark: `python3 perfbench/run.py --self-test`.

Runs a tiny plan through each workload's end-to-end and traced paths and
checks that every metric `BENCHMARK.json` names is emitted, and that a
corrupted `outcomes.jsonl` trips the digest gate. Takes well under a
minute once the binaries are built.
"""

import json
import math
import random
import re
from pathlib import Path

import run

# Tiny stand-ins for the workload plans, with their pinned digests at the
# reference seed. They take the same code paths as the real plans.
TINY_SWEEP = ("--problems", "2", "--reps", "1")
TINY_EVAL = ("--problems", "2", "--reps", "1", "--methods", "ab,base")
TINY_DIGESTS = {
    TINY_SWEEP: {run.REFERENCE_SEED: "1aded58ed6615cb1ff0dddb6bee265bcd8dfce1eac451aa61962cc6749c24698"},
    TINY_EVAL: {run.REFERENCE_SEED: "6f4efcb49b8d1c7a6f6df974a5e5ff2b0b837f1ec9071d90a64985ddda3712a2"},
}
TINY = {
    "sweep": run.Workload("sweep", TINY_SWEEP),
    "eval_sweep": run.Workload("eval_sweep", TINY_EVAL),
    "warm_replay": run.Workload("warm_replay", TINY_EVAL, warm=True),
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures = []


def check(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def check_spec():
    spec = run.SPEC
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
          "BENCHMARK.json has exactly the contract's keys")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads are the benchmark's workloads")
    check(all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 for w in spec["workloads"]),
          "every workload records why it exists")
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    check(len(names) == len(set(names)) and all(NAME.match(n) for n in names),
          "metric names are unique and well-formed")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics),
          "every metric records its unit and better direction")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    check(bounds.get("setup_s") == max(bounds.values()) <= 0.25,
          "setup_s carries the largest bound, at most 0.25")
    check(run.WORKLOADS["warm_replay"].plan == run.WORKLOADS["eval_sweep"].plan,
          "warm_replay replays eval_sweep's plan, so it must reproduce its digest")
    for plan, seeds in run.DIGESTS.items():
        check(all(len(d) == 64 for d in seeds.values()), f"full digests pinned for {' '.join(plan)}")


def finite(metrics):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in metrics.values())


def check_paths(bench):
    for name, workload in TINY.items():
        correct, attempted, failed, metrics = run.run_workload(bench, workload, 1.0)
        check(correct and attempted > 0 and failed == 0, f"{name}: tiny end-to-end run passes the gate")
        check(list(metrics) == run.END_TO_END, f"{name}: every end-to-end metric is emitted")
        check(finite(metrics) and all(v > 0 for v in metrics.values()),
              f"{name}: end-to-end metrics are positive numbers")
        line = run.result_line(correct, attempted, failed, metrics)
        check(json.loads(line)["metrics"]["wall_s"]["unit"] == "s", f"{name}: result line carries units")

        correct, attempted, failed, metrics = run.run_trace(bench, workload, 1.0)
        check(correct and failed == 0, f"{name}: tiny traced run passes the gate")
        check(list(metrics) == run.PER_LAYER, f"{name}: every per-layer metric is emitted")
        check(finite(metrics), f"{name}: per-layer metrics are numbers")
        busy = metrics["verilog.sim.busy_s"]
        check((busy == 0) == workload.warm, f"{name}: the simulator works only on cold workloads")
        check((metrics["store.hits"] > 0) == workload.warm, f"{name}: the store serves only warm_replay")


def check_gate(bench):
    workload = TINY["sweep"]
    real_spawn = run.spawn

    def corrupting_spawn(argv, **kwargs):
        proc = real_spawn(argv, **kwargs)
        argv = [str(a) for a in argv]
        if "--out" in argv:
            outcomes = Path(argv[argv.index("--out") + 1]) / "outcomes.jsonl"
            if outcomes.is_file() and outcomes.stat().st_size:
                data = bytearray(outcomes.read_bytes())
                data[len(data) // 2] ^= 0x01
                outcomes.write_bytes(bytes(data))
        return proc

    run.spawn = corrupting_spawn
    try:
        correct, attempted, failed, _ = run.run_workload(bench, workload, 1.0)
        check(not correct and failed >= run.plan_jobs(workload.plan),
              "a corrupted outcomes.jsonl fails the end-to-end run")
        correct, _, failed, _ = run.run_trace(bench, workload, 1.0)
        check(not correct and failed > 0, "a corrupted outcomes.jsonl fails the traced run")
    finally:
        run.spawn = real_spawn


def main():
    check_spec()
    run.DIGESTS.update(TINY_DIGESTS)
    run.WORK.mkdir(parents=True, exist_ok=True)
    run_bin, trace_bin = run.build()
    bench = run.Bench(run_bin, trace_bin, run.REFERENCE_SEED, random.Random(1))
    check_paths(bench)
    check_gate(bench)
    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0
