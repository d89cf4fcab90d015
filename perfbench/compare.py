#!/usr/bin/env python3
"""Per-layer diff of two traced benchmark results.

    python3 perfbench/compare.py BASE.json NEW.json

BASE and NEW are result files that `perfbench/run.py --trace 1` writes to
.bench_out/<workload>_seed<N>_trace1.json, typically from two commits run
with the same workload and seed.  Every metric (the per-layer list and the
workload's own layer times) is printed with its base
value, the new value and the change, sorted by the size of the relative
change, so a regression points at the layer that moved.  Count metrics of
one seed repeat exactly on unchanged code; a count that differs is marked.
"""
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    metrics = dict(doc["metrics"])
    metrics.update(doc.get("layer_times", {}))
    return doc.get("provenance", {}), metrics


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base_prov, base = load(argv[1])
    new_prov, new = load(argv[2])
    for key in ("workload", "seed", "trace"):
        if base_prov.get(key) != new_prov.get(key):
            print("warning: %s differs (%s vs %s)"
                  % (key, base_prov.get(key), new_prov.get(key)))
    print("base: %s  new: %s" % (base_prov.get("commit"), new_prov.get("commit")))

    rows = []
    for name in sorted(set(base) | set(new)):
        b = base.get(name, {}).get("value")
        n = new.get(name, {}).get("value")
        unit = (new.get(name) or base.get(name))["unit"]
        if b is None or n is None:
            rows.append((float("inf"), name, b, n, unit, "only in one"))
            continue
        rel = (n - b) / abs(b) if b else (0.0 if n == b else float("inf"))
        mark = "count changed" if unit == "count" and n != b else ""
        rows.append((abs(rel), name, b, n, unit, mark))
    rows.sort(key=lambda r: (-r[0], r[1]))

    print("%-30s %14s %14s %12s %9s  %s" % (
        "metric", "base", "new", "delta", "delta/base", "unit"))
    for rel, name, b, n, unit, mark in rows:
        if b is None or n is None:
            print("%-30s %14s %14s %12s %9s  %s  %s" % (
                name, b, n, "", "", unit, mark))
            continue
        share = "%+.1f%%" % (100 * (n - b) / abs(b)) if b else (
            "0" if n == b else "new")
        print("%-30s %14.6g %14.6g %+12.4g %9s  %s  %s" % (
            name, b, n, n - b, share, unit, mark))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
