#!/usr/bin/env bash
# Interleaved A/B timing of the repository benchmark: a git revision against
# the working tree.
#
#   scripts/perf-ab.sh REF WORKLOAD SECONDS SEED...
#   scripts/perf-ab.sh HEAD~1 host-steady 25 141 142 143 144 145 146 147 148 149 150
#
# Run from the repository root. REF's committed files are exported with
# `git archive` into .bench_build/perf-ab/ref, and each side is built once
# through its own cmd/perfbench/run.sh. Then, for every seed, both binaries
# run `--workload WORKLOAD --seed SEED --seconds SECONDS --trace 0`; which
# side goes first alternates from seed to seed, so slow drift of a shared
# host lands on both sides evenly. The report gives, per end-to-end metric,
# each pair's tree/ref ratio, the tree's win count (ties count for neither
# side), and each side's median and interquartile range, followed by the
# failed repetitions per side; the exit status is 1 if any run failed a
# repetition or gave no result. Raw JSON results and each run's report stay
# under .bench_build/perf-ab/.
set -euo pipefail

if [ $# -lt 4 ]; then
	echo "usage: scripts/perf-ab.sh REF WORKLOAD SECONDS SEED..." >&2
	exit 2
fi
ref=$1 workload=$2 seconds=$3
shift 3
seeds=("$@")

root=$(pwd)
out="$root/.bench_build/perf-ab"
rev=$(git rev-parse --verify "$ref^{commit}")
rm -rf "$out"
mkdir -p "$out/ref" "$out/bin"

echo "perf-ab: building $ref ($rev) and the working tree" >&2
git archive "$rev" | tar -x -C "$out/ref"
(cd "$out/ref" && bash cmd/perfbench/run.sh -h 2>/dev/null)
cp "$out/ref/.bench_build/bin/perfbench" "$out/bin/ref"
(cd "$root" && bash cmd/perfbench/run.sh -h 2>/dev/null)
cp "$root/.bench_build/bin/perfbench" "$out/bin/tree"

# bench SIDE SEED runs one side from its own checkout and keeps its JSON line.
bench() {
	local dir=$root
	[ "$1" = ref ] && dir="$out/ref"
	(cd "$dir" && "$out/bin/$1" --workload "$workload" --seed "$2" --seconds "$seconds" --trace 0) \
		2>"$out/$1-$2.err" | tail -n 1 >"$out/$1-$2.json"
}

i=0
for seed in "${seeds[@]}"; do
	if [ $((i % 2)) -eq 0 ]; then
		order="ref tree"
	else
		order="tree ref"
	fi
	for side in $order; do
		echo "perf-ab: seed $seed $side" >&2
		bench "$side" "$seed" || echo "perf-ab: seed $seed $side exited non-zero" >&2
	done
	i=$((i + 1))
done

# field FILE NAME prints the value of metric NAME (or a top-level count) from
# one JSON result line, or nothing.
field() {
	grep -o "\"$2\":[{]\"value\":[^,}]*\|\"$2\":[0-9]*" "$1" 2>/dev/null | head -n 1 | sed 's/.*://'
}

printf '\nperf-ab: %s vs working tree, workload %s, %ss per run, %d pairs\n' "$ref" "$workload" "$seconds" "${#seeds[@]}"
for spec in sim_rate:higher run_s:lower tick_p50_us:lower tick_p99_us:lower setup_s:lower peak_rss_mib:lower \
	mem_saved_pct:higher mem_psi_pct:lower app_rps:higher; do
	name=${spec%%:*} better=${spec##*:}
	for seed in "${seeds[@]}"; do
		echo "$seed $(field "$out/ref-$seed.json" "$name") $(field "$out/tree-$seed.json" "$name")"
	done | awk -v name="$name" -v better="$better" '
		function quant(v, n, q,   h, lo) {
			h = (n - 1) * q; lo = int(h)
			return lo + 1 < n ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
		}
		function sortv(v, n,   i, j, t) {
			for (i = 1; i < n; i++)
				for (j = i; j > 0 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
		}
		BEGIN { n = 0; wins = 0 }
		NF == 3 {
			a[n] = $2; b[n] = $3; ratios = ratios sprintf(" %.3f", $3 / ($2 == 0 ? 1 : $2)); n++
			if ((better == "higher" && $3 > $2) || (better == "lower" && $3 < $2)) wins++
		}
		END {
			if (n == 0) { printf "%-14s no complete pairs\n", name; exit }
			sortv(a, n); sortv(b, n)
			printf "%-14s ref %.4g [IQR %.4g-%.4g]  tree %.4g [IQR %.4g-%.4g]  tree/ref %.3f  tree wins %d/%d\n",
				name, quant(a, n, .5), quant(a, n, .25), quant(a, n, .75),
				quant(b, n, .5), quant(b, n, .25), quant(b, n, .75),
				quant(b, n, .5) / (quant(a, n, .5) == 0 ? 1 : quant(a, n, .5)), wins, n
			printf "%-14s per-pair tree/ref:%s\n", "", ratios
		}'
done
status=0
for side in ref tree; do
	att=0 fail=0 missing=0
	for seed in "${seeds[@]}"; do
		a=$(field "$out/$side-$seed.json" attempted) f=$(field "$out/$side-$seed.json" failed)
		if [ -z "$a" ]; then
			missing=$((missing + 1))
			continue
		fi
		att=$((att + a)) fail=$((fail + f))
	done
	echo "$side: $fail failed of $att attempted repetitions, $missing runs without a result"
	if [ "$fail" -ne 0 ] || [ "$missing" -ne 0 ]; then
		status=1
	fi
done
exit $status
