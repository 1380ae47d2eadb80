#!/usr/bin/env bash
# Compares one end-to-end benchmark metric between a base commit and the
# working tree, in alternating pairs of runs:
#
#   bash scripts/paired-bench.sh <base-ref> <workload> [pairs] [metric] [seed]
#
# for example `bash scripts/paired-bench.sh HEAD~1 sweep-compute 10 wall_s 13`.
# Run it from the repository root. It extracts <base-ref> into a temporary
# directory (removed on exit), then runs
# `bash bench/run.sh --workload <workload> --seed <seed> --seconds 10 --trace 0`
# in both trees, pairs times each (10 by default, seed 7 by default),
# alternating which tree runs first. It prints each pair's values and their
# ratio (change / base), each side's quartiles, how many pairs the change
# won, and a verdict: the change shows a gain when it won at least 9 in 10
# pairs and its median beats the base median by more than the base's
# quartile spread (Q3 - Q1). Quartiles follow Python's
# statistics.quantiles (exclusive method), so they need two pairs. The
# metric (wall_s by default) is one of the benchmark's end-to-end metrics,
# all of which are better when lower. A run that reports failed operations
# stops the comparison.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 5 ]]; then
	echo "usage: $0 <base-ref> <workload> [pairs] [metric] [seed]" >&2
	exit 2
fi
base_ref=$1 workload=$2 pairs=${3:-10} metric=${4:-wall_s} seed=${5:-7}
if ((pairs < 2)); then
	echo "$0: need at least 2 pairs for quartiles" >&2
	exit 2
fi
if [[ ! -f go.mod || ! -f bench/run.sh ]]; then
	echo "$0: run from the repository root" >&2
	exit 2
fi

base=$(mktemp -d "${TMPDIR:-/tmp}/paired-bench.XXXXXX")
trap 'rm -rf "$base"' EXIT
git archive "$base_ref" | tar -x -C "$base"

# run <dir> prints the metric of one benchmark run in dir.
run() {
	local line value
	line=$(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 10 --trace 0 | tail -n 1)
	if [[ $line != *'"correct":true,'* || $line != *'"failed":0,'* ]]; then
		echo "$0: run in $1 was not correct, failed operations or printed no result: $line" >&2
		exit 1
	fi
	value=$(sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p" <<<"$line")
	if [[ -z $value ]]; then
		echo "$0: no metric $metric in: $line" >&2
		exit 1
	fi
	echo "$value"
}

echo "# $workload $metric, seed $seed: base $(git rev-parse --short "$base_ref") vs working tree, $pairs pairs"
printf '%-5s %-12s %-12s %s\n' pair base change change/base
results=()
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		b=$(run "$base")
		c=$(run "$PWD")
	else
		c=$(run "$PWD")
		b=$(run "$base")
	fi
	results+=("$b $c")
	awk -v i="$i" -v b="$b" -v c="$c" 'BEGIN { printf "%-5d %-12.4g %-12.4g %.4f\n", i, b, c, c / b }'
done

printf '%s\n' "${results[@]}" | awk '
	# quartiles sets q[1..3] of a[1..n] as Python statistics.quantiles(n=4)
	# does with its default exclusive method.
	function quartiles(a, n, q,    i, j, t, m, d) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		m = n + 1
		for (i = 1; i <= 3; i++) {
			j = int(i * m / 4)
			if (j < 1) j = 1
			if (j > n - 1) j = n - 1
			d = i * m - j * 4
			q[i] = (a[j] * (4 - d) + a[j + 1] * d) / 4
		}
	}
	{ n++; b[n] = $1; c[n] = $2; if ($2 < $1) won++ }
	END {
		quartiles(b, n, qb); quartiles(c, n, qc)
		printf "base   quartiles %g %g %g\n", qb[1], qb[2], qb[3]
		printf "change quartiles %g %g %g\n", qc[1], qc[2], qc[3]
		gap = qb[2] - qc[2]; spread = qb[3] - qb[1]
		printf "median base %g, change %g (%+.1f %%); change won %d of %d pairs\n", qb[2], qc[2], -100 * gap / qb[2], won, n
		if (10 * won >= 9 * n && gap > spread)
			printf "verdict: gain (won %d of %d >= 9 in 10, median gap %g > base quartile spread %g)\n", won, n, gap, spread
		else
			printf "verdict: no demonstrated gain (need >= 9 in 10 pairs won, %d of %d, and median gap %g > base quartile spread %g)\n", won, n, gap, spread
	}'
