"""One benchmark process: set a workload up, then run timed passes.

run.py starts a fresh interpreter for every call, one at a time:

    python3 perfbench/worker.py --mode {setup,run,trace} --workload NAME \
        --seed N --seconds S --size {full,tiny} [--expect DIR] [--out DIR]

Set-up covers importing msg_lab, building the workload's fields, drawing
its inputs and one warm-up op per field, so lazy tables are filled before
timing starts.  A pass runs the fixed op list once; passes repeat until
--seconds have gone by (at least one).  The last stdout line is one JSON
object for run.py.  Exit code 3 means a wrong answer.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import workloads


def digest(values):
    text = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--workload",
                        choices=sorted(workloads.WORKLOADS) + ["gate"],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    parser.add_argument("--expect", help="directory of reference gate CSVs")
    parser.add_argument("--out", default=os.path.join("perfbench", "out"),
                        help="directory for spans and gate CSVs")
    args = parser.parse_args()

    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import msg_lab as ml

    tracer = None
    if args.mode == "trace":
        from tracer import PROBES, Tracer
        tracer = Tracer()
        tracer.install()
    if args.workload == "gate":
        wl = workloads.Gate(ml, args.seed, args.size,
                            reference_dir=args.expect,
                            out_dir=os.path.join(args.out, "gate"))
    else:
        wl = workloads.WORKLOADS[args.workload](ml, args.seed, args.size)
    for op in wl.warmup:
        wl.run(op)
    ready = time.monotonic()
    if args.mode == "setup":
        print(json.dumps({"ready": ready}))
        return 0

    failures = (ml.MsgLabError, ValueError)
    ops = wl.ops
    passes = []
    suite_elapsed = {name: [] for name in ml.SUITES}
    first_digest = None
    failed = []
    clock = time.perf_counter
    t_start = clock()
    try:
        while not passes or clock() - t_start < args.seconds:
            index = len(passes)
            results = []
            lat_ms = []
            t_pass = clock()
            for i, op in enumerate(ops):
                if tracer is not None:
                    tracer.set_op(index * len(ops) + i, index)
                t0 = clock()
                try:
                    results.append(wl.run(op))
                except failures as exc:
                    results.append(exc)
                lat_ms.append((clock() - t0) * 1e3)
            wall = clock() - t_pass
            canon = []
            for r in results:
                if isinstance(r, failures):
                    failed.append("%s: %s" % (type(r).__name__, r))
                    canon.append(["failed", type(r).__name__])
                else:
                    canon.append(wl.canon(r))
            d = digest(canon)
            if first_digest is None:
                first_digest = d
            elif d != first_digest:
                raise workloads.WrongAnswer("pass %d output differs from pass 0"
                                            % index)
            for name, value in getattr(wl, "elapsed", {}).items():
                suite_elapsed[name].append(value)
            passes.append({"wall_s": wall, "lat_ms": lat_ms})

        probes = []
        if tracer is not None:
            for j, probe in enumerate(getattr(wl, "reach_probes", lambda s: [])(args.seed)):
                tracer.set_op(-10 - j, PROBES)
                try:
                    wl.canon(wl.run(probe))
                    probes.append("served")
                except ml.BudgetError:
                    probes.append("refused")
                except failures as exc:
                    probes.append("failed: %s" % type(exc).__name__)
    except workloads.WrongAnswer as exc:
        print("wrong answer in %s: %s" % (args.workload, exc), file=sys.stderr)
        return 3

    out = {
        "ready": ready,
        "passes": passes,
        "ops": len(ops),
        "digest": first_digest,
        "attempted": len(ops) * len(passes),
        "failed": len(failed),
        "failures": failed[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        os.makedirs(args.out, exist_ok=True)
        tracer.write(os.path.join(args.out, "spans-%s-%d.csv"
                                  % (args.workload, args.seed)))
        out["layers"] = tracer.layer_metrics(len(passes), suite_elapsed)
        out["missing"] = tracer.missing
        out["probes"] = probes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
