#!/usr/bin/env bash
# Noise self-check: is the benchmark steady enough to hold its own bounds?
#
# Runs the same binary as two interleaved sets (A B A B ...).  Run i of
# either set uses seed i, so both sets measure the same inputs.  Prints per
# workload x end-to-end metric: each set's quartiles and median, its spread
# (IQR / median), the furthest any run lies from its set's median, the
# relative gap between the set medians, and PASS/FAIL against the metric's
# bound in BENCHMARK.json.  Verdicts:
#   PASS        each set's spread <= bound, no run further than the bound
#               from its set's median, |gap between the set medians| <= bound
#   UNRESOLVED  a spread or a single run exceeds the bound: this host, now,
#               is too noisy to tell a change of that size from nothing
#   FAIL        the sets are steady and still disagree by more than the
#               bound, or shuffle_bytes_per_tuple differs between the two
#               runs of one seed
# Exits 0 only when every pair passes.
#
#   benchmark/selfcheck.sh                 # 5 runs per set, all workloads
#   RUNS=10 benchmark/selfcheck.sh bulk_q3_threaded
#
# Takes about RUNS x 2 x 30 s per workload.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
runs="${RUNS:-5}"
seconds="$(python3 -c "import json; print(json.load(open('$root/BENCHMARK.json'))['run_seconds'])")"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/hotdog-benchmark"

if [ "$#" -gt 0 ]; then workloads=("$@"); else mapfile -t workloads < <("$bin" --list); fi

# Result lines are kept beside the build (ignored by git) for inspection.
out="${CARGO_TARGET_DIR:-$here/target}/selfcheck"
rm -rf "$out" && mkdir -p "$out"

for w in "${workloads[@]}"; do
    for seed in $(seq 1 "$runs"); do
        for set in A B; do
            echo "run $w set $set seed $seed" >&2
            "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
                tail -n 1 >>"$out/$w.$set.jsonl"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
out, workloads = sys.argv[2], sys.argv[3:]
ok = True
print(f"{'workload':<22}{'metric':<26}{'set':<4}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>8}{'far':>8}{'gap':>8}{'bound':>7}  verdict")
for w in workloads:
    sets = {s: [json.loads(l) for l in open(f"{out}/{w}.{s}.jsonl")] for s in "AB"}
    for runs in sets.values():
        for r in runs:
            if not r["correct"] or r["failed"]:
                ok = False
                print(f"{w}: a run reported correct={r['correct']} failed={r['failed']}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        values = {s: [r["metrics"][name]["value"] for r in runs] for s, runs in sets.items()}
        stats = {}
        for s, v in values.items():
            q1, _, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            stats[s] = (q1, med, q3, (q3 - q1) / med, max(abs(x - med) for x in v) / med)
        gap = (stats["B"][1] - stats["A"][1]) / stats["A"][1]
        if name == "shuffle_bytes_per_tuple" and values["A"] != values["B"]:
            verdict = "FAIL"
            print(f"{w}: shuffle_bytes_per_tuple differs between two runs of one seed")
        elif any(st[3] > bound or st[4] > bound for st in stats.values()):
            verdict = "UNRESOLVED"
        else:
            verdict = "PASS" if abs(gap) <= bound else "FAIL"
        ok &= verdict == "PASS"
        for s in "AB":
            q1, med, q3, spread, far = stats[s]
            tail = f"{gap:>8.3f}{bound:>7.2f}  {verdict}" if s == "B" else ""
            print(f"{w:<22}{name:<26}{s:<4}{q1:>12.4f}{med:>12.4f}{q3:>12.4f}{spread:>8.3f}{far:>8.3f}{tail}")
print("selfcheck:", "PASS" if ok else "FAIL")
sys.exit(0 if ok else 1)
EOF
