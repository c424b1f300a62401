"""msg-lab benchmark: three workloads driven through msg_lab's public API.

Run from the root of a checkout (the directory that holds src/msg_lab):

    python3 perfbench/run.py --workload {nearroot,prank,enum}
        [--seed 12345] [--seconds 35] [--trace 0|1]
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --write-reference

A measurement starts fresh worker processes one after the other, each a
single thread running a closed loop (concurrency 1).  --trace 0 prints the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the workload untraced
and traced, each for half of --seconds, and prints the per-layer metrics;
on nearroot it also runs the 11 suites of the gate once, traced, with each
CSV byte-compared at the default seed.  The last line
of stdout is one JSON object; the line before it carries the run metadata.
Every result is also appended to perfbench/out/results.jsonl, the input of
--compare.  A wrong answer, or a digest that differs from
perfbench/reference.json at the default seed, exits with code 3.
"""

import argparse
import glob
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import DEFAULT_SEED, GATE_HOST, GATE_LAYERS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join("perfbench", "out")
REFERENCE = os.path.join(HERE, "reference.json")
GATE_REFERENCE = os.path.join(HERE, "reference", "gate")
SETUP_REPEATS = 3
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
WORKER_TIMEOUT = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


class WrongAnswerExit(Exception):
    """A worker reported a wrong answer."""


def worker(mode, workload, seed, seconds, size="full", expect=None,
           deadline=None):
    """Run one fresh worker process; returns (its JSON, setup seconds)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--size", size, "--out", OUT]
    if expect:
        cmd += ["--expect", expect]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = WORKER_TIMEOUT if deadline is None else deadline - time.monotonic()
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=max(timeout, 1), text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker for %s timed out" % (mode, workload))
    if proc.returncode == 3:
        raise WrongAnswerExit()
    if proc.returncode != 0:
        raise BenchError("%s worker for %s exited with %d"
                         % (mode, workload, proc.returncode))
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out, out["ready"] - t0


def tail(latencies):
    """(percentile, value): the highest listed percentile with at least
    ten ops above it, by nearest rank; the median when there is none."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        if n * (100 - pct) / 100 >= 10:
            return pct, ordered[math.ceil(pct / 100 * n) - 1]
    return 50, statistics.median(ordered)


# On a shared host the speed of the same code drifts by up to half, over
# seconds to minutes, and interference only ever slows work down.  So each
# op's latency is its fastest over the run's passes, and wall_s, the time of
# one pass over the fixed op list, is the sum of those fastest latencies.


def per_op_latency(passes):
    """Each op's fastest latency over the passes, in op-list order."""
    return [min(p["lat_ms"][i] for p in passes)
            for i in range(len(passes[0]["lat_ms"]))]


def pass_seconds(passes):
    return sum(per_op_latency(passes)) / 1e3


def check_reference(workload, seed, size, digest):
    if seed != DEFAULT_SEED or size != "full":
        return
    with open(REFERENCE, encoding="utf-8") as f:
        expected = json.load(f)[workload]["digest"]
    if digest != expected:
        print("%s: output digest %s differs from the reference %s"
              % (workload, digest, expected), file=sys.stderr)
        raise WrongAnswerExit()


def gate_expect(seed, size):
    if seed == DEFAULT_SEED and size == "full":
        return GATE_REFERENCE
    return None


def measure(workload, seed, seconds, size="full"):
    """End-to-end metrics: fresh set-ups, then one timed worker."""
    deadline = time.monotonic() + WORKER_TIMEOUT
    setups = [worker("setup", workload, seed, seconds, size,
                     deadline=deadline)[1]
              for _ in range(SETUP_REPEATS - 1)]
    out, setup_s = worker("run", workload, seed, seconds, size,
                          deadline=deadline)
    setups.append(setup_s)
    check_reference(workload, seed, size, out["digest"])
    lat = per_op_latency(out["passes"])
    pct, tail_ms = tail(lat)
    metrics = {
        "wall_s": (pass_seconds(out["passes"]), "s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (out["peak_rss_mb"], "MB"),
    }
    meta = {"passes": len(out["passes"]), "ops_per_pass": out["ops"],
            "tail_percentile": pct, "tail_ops": len(lat),
            "setup_samples_s": setups, "python": out["python"],
            "numpy": out["numpy"], "failures": out["failures"]}
    return metrics, meta, out["attempted"], out["failed"]


def measure_traced(workload, seed, seconds, size="full"):
    """Per-layer metrics: one untraced and one traced worker, each for half
    the run; on GATE_HOST also one traced gate pass, the source of the
    GATE_LAYERS metrics."""
    deadline = time.monotonic() + WORKER_TIMEOUT
    plain, _ = worker("run", workload, seed, seconds / 2, size,
                      deadline=deadline)
    traced, _ = worker("trace", workload, seed, seconds / 2, size,
                       deadline=deadline)
    check_reference(workload, seed, size, plain["digest"])
    if traced["digest"] != plain["digest"]:
        print("%s: traced output differs from the untraced output" % workload,
              file=sys.stderr)
        raise WrongAnswerExit()
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    missing = list(traced["missing"])
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    if workload == GATE_HOST:
        gate, _ = worker("trace", "gate", seed, 0, size,
                         gate_expect(seed, size), deadline)
        check_reference("gate", seed, size, gate["digest"])
        metrics.update((name, tuple(v)) for name, v in gate["layers"].items()
                       if name.startswith(GATE_LAYERS))
        missing += [m for m in gate["missing"] if m not in missing]
        attempted += gate["attempted"]
        failed += gate["failed"]
    metrics["trace.overhead_frac"] = (
        pass_seconds(traced["passes"]) / pass_seconds(plain["passes"]) - 1,
        "ratio")
    meta = {"passes": len(traced["passes"]), "ops_per_pass": traced["ops"],
            "untraced_passes": len(plain["passes"]),
            "missing_targets": missing,
            "reach_probes": traced["probes"], "python": traced["python"],
            "numpy": traced["numpy"], "failures": traced["failures"]}
    return metrics, meta, attempted, failed


def commit():
    """HEAD of the checkout from .git, without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    total = 0
    for path in glob.glob(os.path.join("src", "msg_lab", "**", "*.py"),
                          recursive=True):
        with open(path, encoding="utf-8") as f:
            total += sum(1 for _ in f)
    return total


def expected_metrics(trace):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def run_one(workload, seed, seconds, trace, size="full"):
    """Measure, print the metadata line and the result line, and append
    the record to the results file."""
    if trace:
        metrics, meta, attempted, failed = measure_traced(workload, seed,
                                                         seconds, size)
    else:
        metrics, meta, attempted, failed = measure(workload, seed, seconds,
                                                   size)
    names = [m["name"] for m in expected_metrics(trace)]
    unknown = sorted(set(metrics) - set(names))
    absent = [n for n in names if n not in metrics]
    if unknown or absent:
        raise BenchError("metrics differ from BENCHMARK.json: extra %s, "
                         "missing %s" % (unknown, absent))
    meta.update({"workload": workload, "seed": seed, "seconds": seconds,
                 "trace": int(trace), "size": size, "commit": commit(),
                 "nproc": os.cpu_count(), "src_msg_lab_lines": src_lines()})
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]}
                          for n in names}}
    if size == "full":
        os.makedirs(OUT, exist_ok=True)
        with open(os.path.join(OUT, "results.jsonl"), "a",
                  encoding="utf-8") as f:
            f.write(json.dumps({"meta": meta, "result": result}) + "\n")
    print("# meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return result, meta


def write_reference():
    """Record the default-seed digests and gate CSVs of the current code."""
    digests = {}
    for name in list(WORKLOADS) + ["gate"]:
        out, _ = worker("run", name, DEFAULT_SEED, 0)
        if out["failed"]:
            raise BenchError("%s: %d ops failed" % (name, out["failed"]))
        digests[name] = {"seed": DEFAULT_SEED, "ops": out["ops"],
                         "digest": out["digest"]}
    os.makedirs(GATE_REFERENCE, exist_ok=True)
    for path in glob.glob(os.path.join(OUT, "gate", "*.csv")):
        shutil.copyfile(path, os.path.join(GATE_REFERENCE,
                                           os.path.basename(path)))
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULTS")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        compare.main(*args.compare)
        return 0
    if not os.path.isfile(os.path.join("src", "msg_lab", "__init__.py")):
        print("run from the root of a msg-lab checkout (no src/msg_lab here)",
              file=sys.stderr)
        return 2
    try:
        if args.selftest:
            import selftest
            return selftest.main(run_one)
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        run_one(args.workload, args.seed, args.seconds, args.trace)
    except WrongAnswerExit:
        return 3
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
