#!/usr/bin/env python3
"""Diff a fresh BENCH_*.json against a committed baseline.

Usage:
    bench_compare.py FRESH.json BASELINE.json [--max-regression 0.25]
                     [--max-counter-regression 0.25]

Two gates, both exiting non-zero on failure:

* wall_seconds may not regress by more than --max-regression (default 25%).
  Wall time is machine-dependent — baselines are recorded on a developer
  machine, CI runners differ — so CI passes a looser threshold here and
  relies on the counter gate for precision.
* lp_iterations may not regress by more than --max-counter-regression
  (default 25%).  The LP work counters are bitwise deterministic for a
  given code version, so any drift is a real behavior change, not noise;
  this is the machine-independent regression signal.

Additionally, any embedded experiment document (a JSON object member with a
"jobs" array — what xplain::ExperimentResult::to_json emits through
BenchReport::raw) is compared against the baseline's, after dropping
wall-clock and LP-counter fields and rounding floats to 9 significant
digits (absorbing last-ULP libm differences across machines): job labels,
subspace counts and gaps are deterministic engine outputs, so divergence
beyond that is a behavior change.  A document present on only one side is
a failure too — renaming the key must not silently disarm the gate.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def scrub(obj):
    """Normalizes an embedded experiment document for cross-machine
    comparison: drops wall clocks and LP counters (thread-count dependent),
    and rounds floats to 9 significant digits — gaps and trend statistics
    are deterministic for a given build, but libm transcendentals (p-values
    go through lgamma/ibeta) and FP codegen may differ in the last ULPs
    across glibc/compiler versions, which is noise, not behavior."""
    machine_dependent = (
        "seconds",
        "lp_solves",
        "lp_iterations",
        "priced",
        "refills",
        "per_sec",
        "speedup",
    )
    if isinstance(obj, dict):
        return {
            k: scrub(v)
            for k, v in obj.items()
            if not any(tag in k for tag in machine_dependent)
        }
    if isinstance(obj, list):
        return [scrub(v) for v in obj]
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    return obj


def diff_experiments(fresh, base):
    """Yields failure messages for embedded experiment docs that diverge.

    A document present on only one side is itself a failure: otherwise
    renaming or dropping the BenchReport::raw key would silently disarm
    this gate while CI stays green."""

    def experiment_keys(doc):
        return {
            k for k, v in doc.items() if isinstance(v, dict) and "jobs" in v
        }

    fresh_keys, base_keys = experiment_keys(fresh), experiment_keys(base)
    for key in sorted(fresh_keys ^ base_keys):
        side = "baseline" if key in base_keys else "fresh run"
        yield (
            f"embedded experiment {key!r} exists only in the {side} — the "
            f"exact experiment comparison no longer covers it"
        )
    for key in sorted(fresh_keys & base_keys):
        if scrub(fresh[key]) != scrub(base[key]):
            yield (
                f"embedded experiment {key!r} diverged from the baseline "
                f"(job structure / gaps / trends; timings and LP counters "
                f"are excluded from this comparison)"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("fresh", help="BENCH_*.json from the current run")
    parser.add_argument("baseline", help="committed baseline BENCH_*.json")
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed relative wall-time increase (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--max-counter-regression",
        type=float,
        default=0.25,
        help="allowed relative lp_iterations increase (default 0.25)",
    )
    args = parser.parse_args()

    fresh = load(args.fresh)
    base = load(args.baseline)

    if fresh.get("bench") != base.get("bench"):
        print(
            f"bench_compare: bench name mismatch: "
            f"{fresh.get('bench')!r} vs {base.get('bench')!r}",
            file=sys.stderr,
        )
        sys.exit(2)

    name = fresh.get("bench", "?")
    print(f"bench_compare: {name}")
    # Every LP counter the report carries (BenchReport writes one lp_* key
    # per solver::kLpCounterFields entry), in report order.
    for key in [k for k in fresh if k.startswith("lp_")]:
        f, b = fresh.get(key), base.get(key)
        if f is None or b is None:
            continue
        drift = f" ({100.0 * (f - b) / b:+.1f}%)" if b else ""
        print(f"  {key:>15}: {f} vs baseline {b}{drift}")

    failed = []
    failed.extend(diff_experiments(fresh, base))

    # Service/cache accounting is deterministic by construction (hit and
    # miss counts follow from the submission pattern, case builds from the
    # grid's unique instances), so these top-level metrics are gated
    # EXACTLY on every machine — unlike wall time and throughput, which
    # are scrubbed.
    exact_counters = ("cache_", "case_builds", "replay_", "discovered_",
                      "fuzz_evals")
    for key in sorted(set(fresh) & set(base)):
        if not any(tag in key for tag in exact_counters):
            continue
        if fresh[key] != base[key]:
            failed.append(
                f"{key} {fresh[key]} != baseline {base[key]} (deterministic "
                f"service counter: any drift is a behavior change)"
            )

    fi, bi = fresh.get("lp_iterations"), base.get("lp_iterations")
    if fi is not None and bi:
        if args.max_counter_regression == 0.0:
            # Exact gate: the bench is advertised as a bit-exact
            # reproduction target, so an *improvement* is also drift — it
            # means the committed baseline no longer describes the code
            # and must be regenerated.
            if fi != bi:
                failed.append(
                    f"lp_iterations {fi} != baseline {bi} (exact gate: any "
                    f"drift is a behavior change; regenerate the baseline "
                    f"if intentional)"
                )
        elif fi / bi > 1.0 + args.max_counter_regression:
            failed.append(
                f"lp_iterations {fi} is {100.0 * (fi / bi - 1.0):.1f}% above "
                f"baseline {bi} (allowed "
                f"+{100.0 * args.max_counter_regression:.0f}%; this counter "
                f"is deterministic — a real behavior change)"
            )

    fw, bw = fresh.get("wall_seconds"), base.get("wall_seconds")
    if fw is None or bw is None or bw <= 0:
        print("bench_compare: missing/invalid wall_seconds", file=sys.stderr)
        sys.exit(2)
    ratio = fw / bw
    print(f"  {'wall_seconds':>15}: {fw:.4f} vs baseline {bw:.4f} "
          f"({100.0 * (ratio - 1.0):+.1f}%)")
    if ratio > 1.0 + args.max_regression:
        failed.append(
            f"wall_seconds is {100.0 * (ratio - 1.0):.1f}% slower than "
            f"baseline (allowed +{100.0 * args.max_regression:.0f}%)"
        )

    if failed:
        for msg in failed:
            print(f"bench_compare: FAIL — {name}: {msg}", file=sys.stderr)
        sys.exit(1)
    print("bench_compare: OK")


if __name__ == "__main__":
    main()
