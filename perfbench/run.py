"""Benchmark of the consensus-irl command line, run from the repository root.

    python3 perfbench/run.py --workload quickstart --seed 1 --seconds 10 --trace 0

One closed-loop client runs a workload's command sequence one command at a
time, each command in a fresh interpreter, until --seconds have passed (at
least one whole sequence). The program sees only the files that the seed's
generator (the synth command, or cohort.py) writes. Each command is one
operation; it fails on a non-zero exit, a missing artifact, a manifest hash
that does not match its file, or run-directory hashes that differ from the
first run of the same workload and seed on the same source. With --trace 1 the
sequence runs once plainly and once under trace_cli.py, and the run reports
per-layer metrics and the tracing overhead instead of end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it are a readable report. A
fuller record, with provenance, goes to .perfbench_out/results/. Run
directories live under .perfbench_out/tmp/ and are removed after the run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CLI_CHILD = os.path.join(HERE, "cli_child.py")
TRACE_CLI = os.path.join(HERE, "trace_cli.py")

# BLAS/OpenMP pools of every child, fixed so runs compare; 1 <= nproc anywhere
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
RUN_BUDGET_S = 170.0  # a run must end within 180 s
STAGES = ("inputs", "pipeline", "analyze")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def tree_hashes(root: str) -> dict[str, str]:
    """sha256 of every file under root, by path relative to root."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = sha256_file(path)
    return out


def source_fingerprint() -> str:
    """Identity of the program and benchmark sources; stands in for the commit."""
    h = hashlib.sha256()
    for base in (SRC, HERE):
        for rel, digest in sorted(tree_hashes(base).items()):
            if "__pycache__" not in rel:
                h.update(f"{os.path.basename(base)}/{rel}:{digest}\n".encode())
    return h.hexdigest()


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONSTARTUP", "CONSENSUS_IRL_OUT")}
    env.update({var: str(THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = SRC
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave the checkout as it was
    return env


def spawn(argv, cwd, env, log_prefix, deadline) -> dict:
    """Run one child to exit: its exit code, CLOCK_MONOTONIC at spawn, seconds from
    spawn to exit, CPU seconds and peak RSS in MiB."""
    with open(log_prefix + ".out", "wb") as out, open(log_prefix + ".err", "wb") as err:
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "started": started, "seconds": seconds,
            "cpu_s": usage.ru_utime + usage.ru_stime, "rss_mb": usage.ru_maxrss / 1024.0}


def check_run_dir(out: str, artifacts) -> list[str]:
    """Missing artifacts and manifest hashes that do not match their files."""
    problems = [f"missing {a}" for a in artifacts if not os.path.isfile(os.path.join(out, a))]
    for dirpath, _, filenames in os.walk(out):
        if "manifest.json" not in filenames:
            continue
        with open(os.path.join(dirpath, "manifest.json")) as fh:
            hashes = json.load(fh).get("hashes", {})
        for name, digest in sorted(hashes.items()):
            path = os.path.join(dirpath, name)
            if not os.path.isfile(path) or sha256_file(path) != digest:
                problems.append(f"manifest hash mismatch for {os.path.relpath(path, out)}")
    return problems


def prune_scores(workload, seq_dir) -> tuple[dict, list[str]]:
    """Precision and recall of the pipeline's pruned set against the generator's labels."""
    run = os.path.join(seq_dir, workload.pipeline_out)
    with open(os.path.join(seq_dir, workload.labels), newline="") as fh:
        corrupted = {r["trajectory_id"] for r in csv.DictReader(fh) if r["corrupted"] == "1"}
    with open(os.path.join(run, "scores.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    pruned = {r["trajectory_id"] for r in rows if r["retained"] == "0"}
    corrupted &= {r["trajectory_id"] for r in rows}
    problems = []
    if len(rows) - len(pruned) != math.ceil(workload.retain * len(rows)):
        problems.append(f"retained {len(rows) - len(pruned)} of {len(rows)}, "
                        f"not ceil({workload.retain} * {len(rows)})")
    hit = len(pruned & corrupted)
    scores = {"prune_precision": hit / len(pruned) if pruned else 0.0,
              "prune_recall": hit / len(corrupted) if corrupted else 0.0}
    recovery = os.path.join(run, "recovery.json")
    if os.path.isfile(recovery):
        with open(recovery) as fh:
            reported = json.load(fh)
        for key, value in scores.items():
            if abs(reported[key] - value) > 1e-12:
                problems.append(f"recovery.json {key} {reported[key]} != {value}")
    return scores, problems


class Runner:
    def __init__(self, workload, seed, work, deadline):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = child_env()
        self.fingerprint = source_fingerprint()

    def _check_determinism(self, hashes: dict) -> dict[str, list[str]]:
        """Compare run-directory hashes with the first run on this source; record them if first."""
        name = f"{self.workload.name}-seed{self.seed}-{self.fingerprint[:16]}.json"
        path = os.path.join(OUT, "hashes", name)
        if not os.path.isfile(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path + ".tmp", "w") as fh:
                json.dump(hashes, fh, indent=1, sort_keys=True)
            os.replace(path + ".tmp", path)
            return {}
        with open(path) as fh:
            first = json.load(fh)
        differing = {}
        for out, h in hashes.items():
            ref = first.get(out, {})
            differing[out] = [f"{out}/{f} differs from the first run"
                              for f in sorted(set(ref) | set(h)) if ref.get(f) != h.get(f)]
        return differing

    def sequence(self, index: int, inputs: str | None, traced: bool) -> dict:
        """Run every step once in a fresh work directory; check what each one wrote."""
        seq_dir = os.path.join(self.work, f"seq{index}")
        logs = os.path.join(seq_dir, "logs")
        os.makedirs(logs)
        if inputs:
            shutil.copytree(inputs, os.path.join(seq_dir, "inputs"))
        ops, spans = [], []
        for i, step in enumerate(self.workload.steps):
            op = {"command": step.command, "stage": step.stage, "problems": []}
            ops.append(op)
            if any(o["problems"] for o in ops[:-1]):
                op["problems"].append("not run: an earlier command failed")
                continue
            prefix = os.path.join(logs, f"{i}_{step.command}")
            child = TRACE_CLI if traced else CLI_CHILD
            run = spawn([sys.executable, child, prefix + ".json", *step.argv(self.seed)],
                        seq_dir, self.env, prefix, self.deadline)
            op.update((k, run[k]) for k in ("seconds", "cpu_s", "rss_mb"))
            if run["code"] != 0:
                op["problems"].append(f"exit code {run['code']}")
                continue
            op["problems"] += check_run_dir(os.path.join(seq_dir, step.out), step.artifacts)
            with open(prefix + ".json") as fh:
                if traced:
                    spans.append((step.command, json.load(fh)))
                    continue
                imported, where = fh.read().split("\n")[:2]
            op["setup_s"] = float(imported) - run["started"]
            if not where.startswith(SRC):
                op["problems"].append(f"imported consensus_irl from {where}, not {SRC}")
        result = {"ops": ops, "spans": spans}
        if any(op["problems"] for op in ops):
            return result
        pipeline_op = next(op for op in ops if op["command"] == "pipeline")
        result["prune"], problems = prune_scores(self.workload, seq_dir)
        pipeline_op["problems"] += problems
        for a, b in self.workload.same_files:
            if sha256_file(os.path.join(seq_dir, a)) != sha256_file(os.path.join(seq_dir, b)):
                pipeline_op["problems"].append(f"{a} and {b} differ")
        hashes = {s.out: tree_hashes(os.path.join(seq_dir, s.out)) for s in self.workload.steps}
        if not any(op["problems"] for op in ops):
            differing = self._check_determinism(hashes)
            for step, op in zip(self.workload.steps, ops):
                op["problems"] += differing.get(step.out, [])
        return result


def sequence_metrics(seq: dict) -> dict[str, float]:
    ops = seq["ops"]
    m = {"wall_s": sum(op["seconds"] for op in ops)}
    for stage in STAGES:
        m[f"{stage}_s"] = sum(op["seconds"] for op in ops if op["stage"] == stage)
    m["peak_rss_mb"] = max(op["rss_mb"] for op in ops)
    m.update(seq["prune"])
    return m


def provenance(fingerprint: str) -> dict:
    git = {"sha": None, "dirty": None}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git_out(*args):
            return subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        git = {"sha": git_out("rev-parse", "HEAD"), "dirty": bool(git_out("status", "--porcelain"))}
    cpu_model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_root)) if os.path.isdir(cache_root) else []:
        def read(name):
            with open(os.path.join(cache_root, index, name)) as fh:
                return fh.read().strip()
        if index.startswith("index"):
            caches[f"L{read('level')} {read('type')}"] = read("size")
    return {
        "git": git,
        "source_sha256": fingerprint,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "threads_env": {var: str(THREADS) for var in THREAD_VARS},
        "client": "one closed-loop client, one command at a time",
    }


def _number(value):
    return value if isinstance(value, int) else float(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and reaped, the work dir removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "consensus_irl", "cli.py")) or not os.path.isfile(spec_path):
        print(f"error: no consensus_irl sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    from workloads import WORKLOADS  # imports numpy, so only once the checkout is known good

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_BUDGET_S
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=os.path.join(OUT, "tmp"))
    try:
        runner = Runner(workload, args.seed, work, deadline)
        inputs, gen_s = None, 0.0
        if workload.make_inputs:
            inputs = os.path.join(work, "inputs")
            start = time.perf_counter()
            counts = workload.make_inputs(inputs, args.seed)
            gen_s = time.perf_counter() - start
            print(f"generated inputs in {gen_s:.2f} s (outside every metric): {counts}")

        seqs = []
        if args.trace:
            seqs = [runner.sequence(0, inputs, False), runner.sequence(1, inputs, True)]
        else:
            start = time.perf_counter()
            while True:
                seqs.append(runner.sequence(len(seqs), inputs, False))
                last = sum(op.get("seconds", 0.0) for op in seqs[-1]["ops"])
                if any(op["problems"] for op in seqs[-1]["ops"]):
                    break
                if time.perf_counter() - start >= args.seconds:
                    break
                if time.monotonic() + 1.5 * last > deadline:
                    print("note: stopped before --seconds to stay inside the run budget")
                    break
        prov = provenance(runner.fingerprint)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [op for seq in seqs for op in seq["ops"]]
    failed = sum(1 for op in ops if op["problems"])
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED {op['command']}: {problem}")
    print(f"workload {workload.name} seed {args.seed}: {len(ops)} operations, {failed} failed "
          f"({100.0 * failed / len(ops):.1f} %), {len(seqs)} sequence(s)")
    print("provenance: " + json.dumps(prov, sort_keys=True))

    good = [seq for seq in seqs if not any(op["problems"] for op in seq["ops"])]
    metrics, detail = {}, {}
    if args.trace and len(good) == 2:
        from layers import layer_metrics
        walls = [sequence_metrics(seq)["wall_s"] for seq in seqs]
        metrics = layer_metrics(seqs[1]["spans"])
        metrics["trace.wall_s_untraced"], metrics["trace.wall_s_traced"] = walls
        metrics["trace.overhead_s"] = walls[1] - walls[0]
        wanted = spec["per_layer"]
    elif not args.trace and good:
        samples = {}
        for seq in good:
            for key, value in sequence_metrics(seq).items():
                samples.setdefault(key, []).append(value)
        samples["setup_s"] = [op["setup_s"] for seq in good for op in seq["ops"]]
        metrics = {key: statistics.median(values) for key, values in samples.items()}
        detail = {key: {"median": statistics.median(v), "max": max(v), "n": len(v)}
                  for key, v in samples.items()}
        wanted = spec["end_to_end"]
    else:
        wanted = []
    result_metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name not in metrics:
            raise KeyError(f"metric {name} named in BENCHMARK.json was not measured")
        result_metrics[name] = {"value": _number(metrics[name]), "unit": unit}
        extra = detail.get(name)
        spread = f"  (max {extra['max']:.4f}, n={extra['n']})" if extra else ""
        print(f"  {name:42s} {metrics[name]:14.6g} {unit}{spread}")

    result = {"correct": failed == 0 and bool(result_metrics), "attempted": len(ops),
              "failed": failed, "metrics": result_metrics}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    record = os.path.join(OUT, "results",
                          f"BENCH_{workload.name}_seed{args.seed}_trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({**result, "workload": workload.name, "seed": args.seed,
                   "generate_s": gen_s, "samples": detail, "provenance": prov,
                   "operations": ops},
                  fh, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
