"""Compare two result sets, workload by workload and metric by metric.

    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

Each file holds the records run.py appends to perfbench/out/results.jsonl.
For every (workload, metric) present in either file this prints the median
and quartiles of each side, the run counts and the change of the medians.
It only reports; it gates nothing.
"""

import json
import statistics


def load(path):
    values = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            record = json.loads(line)
            workload = record["meta"]["workload"]
            for name, m in record["result"]["metrics"].items():
                values.setdefault((workload, name, m["unit"]), []).append(
                    m["value"])
    return values


def summary(values):
    if not values:
        return "-"
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return "%.6g [%.6g, %.6g] n=%d" % (statistics.median(values), q1, q3,
                                       len(values))


def main(old_path, new_path):
    old, new = load(old_path), load(new_path)
    rows = [("workload", "metric", "unit", "old median [q1, q3]",
             "new median [q1, q3]", "change")]
    for key in sorted(set(old) | set(new)):
        a, b = old.get(key, []), new.get(key, [])
        change = "-"
        if a and b and statistics.median(a):
            change = "%+.1f%%" % (100 * (statistics.median(b)
                                         / statistics.median(a) - 1))
        rows.append(key + (summary(a), summary(b), change))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
