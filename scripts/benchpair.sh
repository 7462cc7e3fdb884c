#!/usr/bin/env bash
# Paired wall-time check of the working tree against a base revision.
#
#   scripts/benchpair.sh <base-rev> <pairs> <workload>...
#
# Extracts <base-rev> into .bench_build/base. For each workload it runs
# `sudcbench/run.sh --workload W --seed i --seconds 4 --trace 0` on the
# base tree and on the working tree for i = 1..pairs, alternating which
# tree runs first. For each end-to-end metric it prints both trees'
# median and quartiles, the median of the per-pair head/base ratios, and
# a bootstrap 95% interval of that median (2000 resamples, fixed seed).
# It exits 1 when, on any workload, the op_s_p50 interval lies wholly
# above 1.05, and 2 on a usage error, a failed run or a failed check.
set -euo pipefail
if (($# < 3)); then
	echo "usage: $0 <base-rev> <pairs> <workload>..." >&2
	exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
rev=$1 pairs=$2
shift 2
base="$root/.bench_build/base"
rm -rf "$base"
mkdir -p "$base"
git -C "$root" archive "$rev" | tar -x -C "$base"

# stats reads "<pair> <side> <result line>" rows and prints the table.
stats='
BEGIN { nm = split(metrics, name, " "); B = 2000 }
function val(line, m) {
	if (match(line, "\"" m "\":{\"value\":[^,}]*"))
		return substr(line, RSTART + length(m) + 12, RLENGTH - length(m) - 12) + 0
	print "no metric " m > "/dev/stderr"; bad = 1
}
# sorted copies a[1..n] into b in ascending order.
function sorted(a, n, b,   i, j, x) {
	for (i = 1; i <= n; i++) { x = a[i]; for (j = i - 1; j > 0 && b[j] > x; j--) b[j + 1] = b[j]; b[j + 1] = x }
}
# pct is the p-quantile of sorted b[1..n], interpolated between order statistics.
function pct(b, n, p,   h, i) {
	h = 1 + (n - 1) * p; i = int(h)
	return i >= n ? b[n] : b[i] + (h - i) * (b[i + 1] - b[i])
}
function summary(a, n,   b) {
	sorted(a, n, b)
	return sprintf("%.4g [%.4g, %.4g]", pct(b, n, 0.5), pct(b, n, 0.25), pct(b, n, 0.75))
}
# rnd is the Park-Miller generator: the same stream under any awk.
function rnd() { seed = (16807 * seed) % 2147483647; return seed / 2147483647 }
$0 !~ /"correct":true/ { print "pair " $1 " " $2 ": check failed: " $0 > "/dev/stderr"; bad = 1 }
{ n = $1 > n ? $1 : n; for (k = 1; k <= nm; k++) v[$2, k, $1] = val($0, name[k]) }
END {
	if (bad) exit 2
	printf "%s, %d pairs (head = working tree, base = %s)\n", w, n, rev
	printf "%-16s %-28s %-28s %s\n", "metric", "base p50 [p25, p75]", "head p50 [p25, p75]", "head/base p50 [95% CI]"
	for (k = 1; k <= nm; k++) {
		for (i = 1; i <= n; i++) { b[i] = v["base", k, i]; h[i] = v["head", k, i]; r[i] = b[i] ? h[i] / b[i] : 1 }
		seed = 1
		for (j = 1; j <= B; j++) {
			for (i = 1; i <= n; i++) s[i] = r[1 + int(rnd() * n)]
			sorted(s, n, t); m[j] = pct(t, n, 0.5)
		}
		sorted(m, B, ms); sorted(r, n, rs)
		lo = pct(ms, B, 0.025); hi = pct(ms, B, 0.975)
		printf "%-16s %-28s %-28s %.3f [%.3f, %.3f]\n", name[k], summary(b, n), summary(h, n), pct(rs, n, 0.5), lo, hi
		if (name[k] == "op_s_p50" && lo > 1.05) slow = 1
	}
	if (slow) { printf "FAIL: %s op_s_p50 is more than 5%% slower than base\n", w; exit 1 }
}'

status=0
for w in "$@"; do
	rows="$root/.bench_build/pairs-$w.txt"
	: >"$rows"
	for ((i = 1; i <= pairs; i++)); do
		order="base head"
		((i % 2)) || order="head base"
		for side in $order; do
			tree=$root
			[[ $side == base ]] && tree=$base
			line=$(bash "$tree/sudcbench/run.sh" --workload "$w" --seed "$i" --seconds 4 --trace 0 | tail -n 1) ||
				{ echo "$w seed $i: the $side run failed" >&2; exit 2; }
			echo "$i $side $line" >>"$rows"
		done
	done
	awk -v w="$w" -v rev="$rev" -v metrics="setup_s op_s_p50 op_s_tail alloc_mb_per_op peak_rss_mb" "$stats" "$rows" || {
		s=$?
		((s > status)) && status=$s
	}
	echo
done
exit "$status"
