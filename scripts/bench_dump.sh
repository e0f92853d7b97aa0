#!/usr/bin/env bash
# Run the Criterion benches and dump the results to BENCH_core.json so that
# perf can be tracked across PRs.
#
# Usage:
#   scripts/bench_dump.sh                 # all benches -> a new BENCH_core.json
#   scripts/bench_dump.sh worldset_ops    # one bench target, merged by id
#   BENCH_ONLY='/on/' scripts/bench_dump.sh rewrite_pipeline
#                                         # keep only the ids matching the regex
#
# The criterion shim (crates/shims/criterion) appends one JSON object per
# benchmark to $BENCH_JSON; this script wraps those lines into a single
# JSON document with run metadata.
#
# With targets given, the run is merged into the existing output file by
# benchmark id: an entry measured now replaces the one with its id in place
# (new ids go to the end) and carries its own recorded_at/git_rev, since the
# file's header describes the full run. Unless BENCH_ONLY filters the run,
# a group it measured (the id prefix before the first `/`) is re-recorded
# whole: that group's entries the run did not produce are dropped, so a
# deleted or renamed leg leaves no stale median behind (each dropped id is
# printed). Every other entry, and the header, stay byte for byte what they
# were. Without targets the file is written anew.

set -euo pipefail
cd "$(dirname "$0")/.."

out="${BENCH_OUT:-BENCH_core.json}"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

targets=("$@")
merge=1
if [ ${#targets[@]} -eq 0 ]; then
    merge=0
    targets=(translation rewrite_gain rewrite_pipeline division repair translation_size worldset_ops tuple_layout wide_scan parallel_scaling columnar_exec factorized_worlds mixed_plans concurrent_sessions durability)
fi

for t in "${targets[@]}"; do
    echo "== bench: $t =="
    BENCH_JSON="$raw" cargo bench -p bench --bench "$t"
done

recorded_at="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
git_rev="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# A recording made before its commit exists names the parent: say so.
git diff --quiet HEAD 2>/dev/null || git_rev="$git_rev-dirty"
python3 - "$raw" "$out" "$merge" "$recorded_at" "$git_rev" "$(uname -sm)" "${BENCH_ONLY:-}" <<'PY'
import json
import re
import sys

raw, out, merge, recorded_at, git_rev, host, only = sys.argv[1:]
with open(raw, encoding="utf-8") as fh:
    fresh = [json.loads(line) for line in fh if line.strip()]
fresh = [e for e in fresh if re.search(only, e["id"])]
doc = None
if merge == "1":
    try:
        with open(out, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        pass  # no file yet, or an empty one: nothing to merge into
if doc is None:
    doc = {
        "recorded_at": recorded_at,
        "git_rev": git_rev,
        "host": host,
        "benchmarks": fresh,
    }
else:
    entries = doc["benchmarks"]
    if not only:
        group = lambda bench_id: bench_id.split("/", 1)[0]
        rerun = {group(e["id"]) for e in fresh}
        produced = {e["id"] for e in fresh}
        for e in entries:
            if group(e["id"]) in rerun and e["id"] not in produced:
                print(f"dropped stale entry {e['id']}")
        entries[:] = [
            e for e in entries if group(e["id"]) not in rerun or e["id"] in produced
        ]
    position = {e["id"]: i for i, e in enumerate(entries)}
    for e in fresh:
        e.update(recorded_at=recorded_at, git_rev=git_rev)
        if e["id"] in position:
            entries[position[e["id"]]] = e
        else:
            entries.append(e)
# indent=2 without a final newline is the committed file's layout, so
# untouched entries come out byte-identical.
with open(out, "w", encoding="utf-8") as fh:
    fh.write(json.dumps(doc, indent=2))
print(f"wrote {len(fresh)} of {len(doc['benchmarks'])} benchmark entries to {out}")
PY
