#!/usr/bin/env python3
"""Kronos benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source tree. It builds kronosd and the load generator (gen/perfgen.cc)
from source into $CARGO_TARGET_DIR or .bench_build/, generates the workload's inputs from the
seed, runs perfgen against a freshly started, CPU-pinned kronosd, checks every answer against
its own oracle (checks.py) and prints, as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the per-layer budget of a
traced run. The lines before it record the host facts, inputs and reference figures.
"""

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing in the source tree
import checks  # noqa: E402

RUN_TIMEOUT_S = 150

# Inputs and rates per workload. The fixed rates sit well below each workload's knee on a
# 4-CPU host split 2+2; a closed-loop burst is a fixed count of operations per worker.
WORKLOADS = {
    "durable_writes": dict(workers=4, window=8, preload_per_chain=1500, p50_rate=300,
                           burst_ops_per_worker=200, trial_every=1, recovery_per_trial=2,
                           wal=True),
    "deep_reads": dict(workers=4, nodes=16384, groups=8, degree=2, window=8, pairs=200000,
                       batch=64, p50_rate=200, burst_ops_per_worker=250, trial_every=1,
                       recovery_per_trial=2, wal=True),
    "graph_mix": dict(workers=4, vertices=512, avg_degree=8, read_fraction=0.95, p50_rate=100,
                      burst_ops_per_worker=60, trial_every=1, recovery_per_trial=3, wal=False),
    "replicated": dict(workers=2, window=8, preload_per_chain=1500, p50_rate=400,
                       burst_ops_per_worker=700, trial_every=3, recovery_per_trial=2,
                       wal=False),
}
COMMON = dict(rounds=9, warmup_s=1.0, p50_share=0.6)

END_TO_END_UNITS = {"setup_s": "s", "p50_us": "us", "recovery_s": "s", "server_rss_mib": "MiB"}

# Per-layer metrics of a traced run (README.md maps each to the end-to-end metric it moves).
# A layer the workload does not load reads 0.
LAYER_UNITS = {
    "loadgen.late_us_max": "us",
    "client.create_event_us": "us", "client.assign_order_us": "us",
    "client.query_order_us": "us", "client.calls_per_op": "count",
    "wire.rtt_us": "us", "wire.request_bytes": "B", "wire.reply_bytes": "B",
    "daemon.recv_parse_us": "us", "daemon.queue_wait_us": "us",
    "daemon.exclusive_run_us": "us", "daemon.reply_send_us": "us",
    "daemon.run_cmds": "count", "daemon.pipeline_frames": "count",
    "wal.append_us": "us", "wal.commit_wait_us": "us", "wal.records_per_sync": "count",
    "wal.syncs_per_s": "1/s", "wal.bytes_per_op": "B",
    "recovery.records_replayed": "count", "recovery.checkpoint_bytes": "B",
    "core.query_order_us": "us", "core.assign_order_us": "us", "core.create_event_us": "us",
    "core.visited_per_query": "count", "core.ts_filtered_share": "ratio",
    "core.cache_hit_share": "ratio", "core.assign_aborts": "count",
    "core.bytes_per_event": "B",
    "epoch.reclaim_lag": "count", "epoch.retired_versions": "count",
    "graph.order_calls_per_op": "count", "graph.pairs_resolved_per_op": "count",
    "graph.reversals_per_op": "count", "graph.update_aborts": "count",
    "chain.write_us": "us", "chain.read_us": "us", "chain.entries_per_batch": "count",
    "chain.msgs_per_op": "count",
    "trace.overhead_ratio": "ratio", "trace.spans_dropped": "count",
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


# --- build ---------------------------------------------------------------------------------


def build(root, build_root):
    for need in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt", "tools/kronosd.cc"):
        if not os.path.isfile(os.path.join(root, need)):
            fail(f"{need} not found: run from the root of a Kronos source tree")
    cmake_dir = os.path.join(build_root, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(build_root, "build.log")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    with open(log_path, "a") as log:
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", cmake_dir, "-j", jobs, "--target", "kronosd",
                      "perfgen"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                fail(f"build step failed: {' '.join(cmd)} (see {log_path})")
    return os.path.join(cmake_dir, "kronosd"), os.path.join(cmake_dir, "perfgen")


# --- host facts ----------------------------------------------------------------------------


def split_cpus():
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    half = len(cpus) // 2
    return cpus[:half], cpus[half:]


def fs_type(path):
    """File system type of the mount holding `path`, from /proc/mounts."""
    best, kind = "", "unknown"
    path = os.path.realpath(path)
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mnt = parts[1]
                inside = path == mnt or path.startswith(mnt.rstrip("/") + "/")
                if inside and len(mnt) >= len(best):
                    best, kind = mnt, parts[2]
    except OSError:
        pass
    return kind


def read_steal():
    """(steal ticks, all ticks) summed over CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return 0, 0


def steal_share(before, after):
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


# --- inputs --------------------------------------------------------------------------------


def deep_inputs(cfg, seed):
    """A DAG of independent braided groups (each node has `degree` parents among the
    `window` nodes before it in its group) and a pair list in four equal classes:
    near-ordered, far-ordered, concurrent with equal heights (the height stamps refute both
    directions), and concurrent with different heights (the stamps cannot refute one)."""
    rng = random.Random(seed * 7919 + 1)
    n, groups = cfg["nodes"], cfg["groups"]
    size = n // groups
    edges = []
    height = [1] * n
    for g in range(groups):
        base = g * size
        for t in range(1, size):
            lo = max(0, t - cfg["window"])
            parents = rng.sample(range(lo, t), min(cfg["degree"], t - lo))
            for p in parents:
                edges.append((base + p, base + t))
            height[base + t] = 1 + max(height[base + p] for p in parents)
    graph = checks.descendants(n, edges)
    by_height = {}
    for x in range(n):
        by_height.setdefault(height[x], []).append(x)

    def same_group(dmin, dmax):
        while True:
            g = rng.randrange(groups)
            d = rng.randint(dmin, dmax)
            t = rng.randrange(size - d)
            a, b = g * size + t, g * size + t + d
            if checks.expected_order(graph, a, b) == checks.BEFORE:
                return (a, b) if rng.random() < 0.5 else (b, a)

    def cross_group(equal_height):
        while True:
            a = rng.randrange(n)
            if equal_height:
                cands = by_height[height[a]]
                b = cands[rng.randrange(len(cands))]
            else:
                target = height[a] + rng.choice((-1, 1)) * rng.randint(1, 64)
                cands = by_height.get(target)
                if not cands:
                    continue
                b = cands[rng.randrange(len(cands))]
            if a // size != b // size:
                return a, b

    makers = [lambda: same_group(1, 16), lambda: same_group(100, 400),
              lambda: cross_group(True), lambda: cross_group(False)]
    pairs = [makers[i % 4]() for i in range(cfg["pairs"])]
    expected = [checks.expected_order(graph, a, b) for a, b in pairs]
    return n, edges, pairs, expected


def graph_inputs(cfg, seed):
    rng = random.Random(seed * 104729 + 3)
    v = cfg["vertices"]
    target = v * cfg["avg_degree"] // 2
    edges = set()
    while len(edges) < target:
        a, b = rng.randrange(v), rng.randrange(v)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return v, sorted(edges)


# --- reading perfgen's observations --------------------------------------------------------


def read_chains(path):
    chains, lives = [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            (chains if parts[0] == "chain" else lives).append([int(x) for x in parts[1:]])
    return chains, lives


def read_tagged_answers(path):
    out = []
    with open(path) as f:
        for line in f:
            tag, e1, e2, v = line.split()
            out.append((tag, int(e1), int(e2), int(v)))
    return out


def run_checks(workload, run_dir, inputs, result):
    if workload == "deep_reads":
        answers = []
        with open(os.path.join(run_dir, "obs_answers.txt")) as f:
            for line in f:
                i, v = line.split()
                answers.append((int(i), int(v)))
        return checks.check_deep_reads(inputs["expected"], answers)
    if workload == "graph_mix":
        neighbors = {}
        with open(os.path.join(run_dir, "obs_neighbors.txt")) as f:
            for line in f:
                parts = line.split()
                if len(parts) > 1 and parts[1] == "error":
                    continue
                neighbors[int(parts[0])] = {int(x) for x in parts[1:]}
        acked = []
        with open(os.path.join(run_dir, "obs_acked.txt")) as f:
            for line in f:
                a, b = line.split()
                acked.append((int(a), int(b)))
        return checks.check_neighbors(inputs["vertices"], inputs["edges"], acked, neighbors)
    chains, lives = read_chains(os.path.join(run_dir, "obs_chains.txt"))
    answers = read_tagged_answers(os.path.join(run_dir, "obs_answers.txt"))
    if workload == "durable_writes":
        return checks.check_chains(chains, lives, answers, ["final"])
    return checks.check_replicated(chains, lives, answers, int(result["replicas_in_chain"]))


# --- main ----------------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    build_root = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    kronosd, perfgen = build(root, build_root)

    cfg = dict(COMMON, **WORKLOADS[args.workload])
    nproc = len(os.sched_getaffinity(0))
    cfg["workers"] = min(cfg["workers"], nproc)
    server_cpus, gen_cpus = split_cpus()
    run_dir = os.path.join(build_root, "run", f"{args.workload}.{os.getpid()}")
    subprocess.call(["rm", "-rf", run_dir])
    os.makedirs(run_dir)

    inputs = {}
    if args.workload == "deep_reads":
        n, edges, pairs, expected = deep_inputs(cfg, args.seed)
        inputs["expected"] = expected
        with open(os.path.join(run_dir, "dag.txt"), "w") as f:
            f.write(f"{n} {len(edges)} {len(pairs)}\n")
            f.write("\n".join(f"{a} {b}" for a, b in edges + pairs))
            f.write("\n")
    elif args.workload == "graph_mix":
        v, edges = graph_inputs(cfg, args.seed)
        inputs.update(vertices=v, edges=edges)
        with open(os.path.join(run_dir, "graph.txt"), "w") as f:
            f.write(f"{v} {len(edges)}\n")
            f.write("\n".join(f"{a} {b}" for a, b in edges))
            f.write("\n")

    params = dict(cfg, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, kronosd=kronosd,
                  server_cpus=",".join(map(str, server_cpus)),
                  gen_cpus=",".join(map(str, gen_cpus)))
    with open(os.path.join(run_dir, "params.txt"), "w") as f:
        for k, val in params.items():
            f.write(f"{k} {int(val) if isinstance(val, bool) else val}\n")

    flags = ["--stats-interval-s", "0"]
    if cfg["wal"]:
        flags += ["--wal", "<run>/wal/log"]
    if not args.trace:
        flags.append("--no-trace")
    host = {
        "nproc": nproc, "server_cpus": server_cpus, "generator_cpus": gen_cpus,
        "wal_fs": fs_type(run_dir) if cfg["wal"] else None,
        "kronosd_flags": flags if args.workload != "replicated" else "in-process KronosCluster",
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": {k: v for k, v in cfg.items()},
    }
    print("host " + json.dumps(host, sort_keys=True))
    sys.stdout.flush()

    # Start with no writeback pending from the build or an earlier run's WAL files.
    os.sync()
    started = time.time()
    steal0 = read_steal()
    proc = subprocess.Popen([perfgen, run_dir], start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        # perfgen's children (kronosd) share its process group; none may outlive the run.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        fail(f"perfgen {'timed out' if rc is None else f'exited with {rc}'} "
             f"(logs in {run_dir})")

    result = {}
    with open(os.path.join(run_dir, "result.txt")) as f:
        for line in f:
            k, v = line.split()
            result[k] = float(v)
    errors = run_checks(args.workload, run_dir, inputs, result)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    reference = {k: result.get(k) for k in ("p99_us", "p999_us", "latency_samples",
                                            "p50_offered_ops_s", "p50_achieved_ops_s",
                                            "p50_late_us_max", "capacity_ops_s",
                                            "replicas_in_chain")}
    reference["host_steal_share"] = round(steal_share(steal0, read_steal()), 4)
    reference["wall_s"] = round(time.time() - started, 3)
    print("reference " + json.dumps(reference, sort_keys=True))

    if args.trace:
        metrics = {k: {"value": result.get(k, 0.0), "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    out = {"correct": not errors, "attempted": int(result["attempted"]),
           "failed": int(result["failed"]), "metrics": metrics}
    print(json.dumps(out))
    subprocess.call(["rm", "-rf", run_dir])
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
