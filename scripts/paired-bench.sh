#!/usr/bin/env bash
# Compares one end-to-end benchmark metric between a base commit and the
# working tree, in alternating pairs of runs:
#
#   bash scripts/paired-bench.sh <base-ref> <workload> [pairs] [metric]
#
# for example `bash scripts/paired-bench.sh HEAD~1 sweep-compute 10 wall_s`.
# Run it from the repository root. It extracts <base-ref> into a temporary
# directory (removed on exit), then runs
# `bash bench/run.sh --workload <workload> --seconds 10 --trace 0` in both
# trees, pairs times each (10 by default), alternating which tree runs
# first. It prints each pair's values and their ratio (change / base),
# both medians, and how many pairs the change won. The metric (wall_s by
# default) is one of the benchmark's end-to-end metrics, all of which are
# better when lower. A run that reports failed operations stops the
# comparison.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
	echo "usage: $0 <base-ref> <workload> [pairs] [metric]" >&2
	exit 2
fi
base_ref=$1 workload=$2 pairs=${3:-10} metric=${4:-wall_s}
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
	line=$(cd "$1" && bash bench/run.sh --workload "$workload" --seconds 10 --trace 0 | tail -n 1)
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

echo "# $workload $metric: base $(git rev-parse --short "$base_ref") vs working tree, $pairs pairs"
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
	function median(a, n,    i, j, t) {
		for (i = 2; i <= n; i++)
			for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
		return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
	}
	{ n++; b[n] = $1; c[n] = $2; if ($2 < $1) won++ }
	END {
		mb = median(b, n); mc = median(c, n)
		printf "median base %g, change %g (%+.1f %%); change won %d of %d pairs\n", mb, mc, 100 * (mc - mb) / mb, won, n
	}'
