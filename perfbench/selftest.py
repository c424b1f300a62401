"""Self-test of the benchmark at a tiny size.

Runs every workload untraced and traced with a tiny op list and checks
that every metric of BENCHMARK.json is printed with its unit, that every
trace target was found, and that each layer's call count is zero where
perfbench/layers.json predicts the layer is bypassed and nonzero where it
predicts work.  A renamed entry point or a new import binding that drops a
layer from the trace fails here.
"""

import json
import os

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def work_metric(layer, metrics):
    for name in (layer + ".calls", layer + ".constructed",
                 layer + ".elapsed_s", layer + ".build_s", layer):
        if name in metrics:
            return name
    return None


def main(run_one):
    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as f:
        layers = json.load(f)["layers"]
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, meta = run_one(workload, workloads.DEFAULT_SEED, 0, trace,
                                   size="tiny")
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: %s printed as %r" % (workload, m["name"], got))
            if not trace:
                continue
            if meta["missing_targets"]:
                problems.append("%s: trace targets not found: %s"
                                % (workload, meta["missing_targets"]))
            for layer, pred in layers.items():
                name = work_metric(layer, metrics)
                if name is None:
                    problems.append("layers.json names %s, which no metric has" % layer)
                    continue
                value = metrics[name]["value"]
                if workload in pred["zero_calls"] and value != 0:
                    problems.append("%s: %s = %s, predicted 0" % (workload, name, value))
                if workload in pred["nonzero_calls"] and value <= 0:
                    problems.append("%s: %s = %s, predicted > 0" % (workload, name, value))
    for p in problems:
        print("SELFTEST FAIL " + p)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    return 1 if problems else 0
