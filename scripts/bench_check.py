#!/usr/bin/env python3
"""Bench-regression gate: re-run the bench suite and compare against the
committed baseline.

Runs `scripts/bench_dump.sh` into a temporary file and compares every
benchmark's median (of its per-sample means) against the committed
`BENCH_core.json`, failing (exit 1) when any benchmark slowed down by more
than its tolerance: `max(--tolerance, 3 * stddev_ns / mean_ns)` of its
baseline entry (default floor 25%, see EXPERIMENTS.md "Bench-regression
gate"), so a leg whose baseline samples spread widely is judged against
its own noise. Every failure prints the tolerance it was judged by.
Entries recorded before the shim wrote `median_ns` compare their mean.
Benchmarks present on only
one side are reported but never fail the gate (new benches appear, old
ones get retired). A regression must *reproduce* to fail: when the first
pass finds offenders, their bench targets are re-run once and each
offender keeps the better (minimum) of its two medians — a real slowdown
survives both runs, a load spike on the shared container does not
(`--retries` controls the re-run count; 0 disables). Stdlib-only by
design — the container has no package index.

Usage:
    scripts/bench_check.py                         # full suite vs BENCH_core.json
    scripts/bench_check.py --targets worldset_ops parallel_scaling
    scripts/bench_check.py --current some.json     # skip the bench run
    scripts/bench_check.py --tolerance 0.25 --min-ns 0
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmarks(path):
    """Map benchmark id -> (median_ns, stddev_ns / mean_ns) from a
    BENCH_core.json-shaped file (the mean stands in for a missing median)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out = {}
    for entry in doc.get("benchmarks", []):
        mean = float(entry["mean_ns"])
        median = float(entry.get("median_ns", mean))
        cv = float(entry.get("stddev_ns", 0.0)) / mean if mean > 0 else 0.0
        out[entry["id"]] = (median, cv)
    return out


def run_benches(targets):
    """Run scripts/bench_dump.sh into a temp file; return the parsed means."""
    fd, tmp = tempfile.mkstemp(prefix="bench_current_", suffix=".json")
    os.close(fd)
    try:
        env = dict(os.environ, BENCH_OUT=tmp)
        cmd = [os.path.join(REPO_ROOT, "scripts", "bench_dump.sh"), *targets]
        subprocess.run(cmd, check=True, cwd=REPO_ROOT, env=env)
        return load_benchmarks(tmp)
    finally:
        os.unlink(tmp)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--baseline",
        default=os.path.join(REPO_ROOT, "BENCH_core.json"),
        help="committed baseline JSON (default: BENCH_core.json)",
    )
    ap.add_argument(
        "--current",
        default=None,
        help="pre-recorded current-run JSON; omit to run the benches now",
    )
    ap.add_argument(
        "--targets",
        nargs="*",
        default=[],
        help="bench targets forwarded to bench_dump.sh (default: all)",
    )
    ap.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("BENCH_TOLERANCE", "0.25")),
        help="floor of the allowed fractional slowdown; an entry's own "
        "3 * stddev/mean raises it (default 0.25 = 25%%)",
    )
    ap.add_argument(
        "--min-ns",
        type=float,
        default=float(os.environ.get("BENCH_MIN_NS", "0")),
        help="ignore benchmarks whose baseline median is below this many ns",
    )
    ap.add_argument(
        "--retries",
        type=int,
        default=int(os.environ.get("BENCH_RETRIES", "1")),
        help="re-run offenders this many times, keeping each one's best "
        "median; a regression must survive every run to fail (default 1, "
        "0 disables; ignored with --current)",
    )
    args = ap.parse_args()

    baseline = load_benchmarks(args.baseline)
    current = (
        load_benchmarks(args.current) if args.current else run_benches(args.targets)
    )

    def compare(quiet=False):
        regressions = []
        improvements = 0
        compared = 0
        for bench_id in sorted(baseline):
            if bench_id not in current:
                if not quiet:
                    print(f"  [skip] {bench_id}: missing from current run")
                continue
            base, cv = baseline[bench_id]
            if base < args.min_ns:
                continue
            now = current[bench_id][0]
            tolerance = max(args.tolerance, 3.0 * cv)
            compared += 1
            ratio = now / base if base > 0 else float("inf")
            if ratio > 1.0 + tolerance:
                regressions.append((bench_id, base, now, ratio, tolerance))
            elif ratio < 1.0:
                improvements += 1
        return regressions, improvements, compared

    regressions, improvements, compared = compare()
    retries_left = args.retries if not args.current else 0
    while regressions and retries_left > 0:
        retries_left -= 1
        names = ", ".join(r[0] for r in regressions)
        print(f"\n  [retry] re-running to confirm: {names}")
        rerun = run_benches(args.targets)
        for bench_id in rerun:
            if bench_id in current:
                current[bench_id] = min(
                    current[bench_id], rerun[bench_id], key=lambda e: e[0]
                )
            else:
                current[bench_id] = rerun[bench_id]
        regressions, improvements, compared = compare(quiet=True)
    for bench_id in sorted(set(current) - set(baseline)):
        print(f"  [new]  {bench_id}: {current[bench_id][0]:.0f} ns (no baseline)")

    print(
        f"\ncompared {compared} benchmarks against {os.path.basename(args.baseline)}"
        f" (median vs median, tolerance max(+{args.tolerance:.0%}, 3 sigma));"
        f" {improvements} improved"
    )
    if regressions:
        print(f"\nFAIL: {len(regressions)} benchmark(s) regressed beyond tolerance:")
        for bench_id, base, now, ratio, tolerance in regressions:
            print(
                f"  {bench_id}: {base:.0f} ns -> {now:.0f} ns"
                f" ({(ratio - 1.0):+.0%}, tolerance +{tolerance:.0%})"
            )
        return 1
    print("OK: no benchmark regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
