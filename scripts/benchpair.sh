#!/usr/bin/env bash
# benchpair.sh — time one package's benchmarks at a base revision and
# in the working tree, in alternating order (`make bench-pair`):
#
#   BASE=<rev> PKG=<pkg> BENCH='<regexp>' ROUNDS=10 bash scripts/benchpair.sh
#
# A machine's speed drifts by more than most changes' effect within
# minutes, so a committed figure or two runs hours apart compare
# little. Here each round runs both test binaries back to back, the
# base first in odd rounds and the working tree first in even ones,
# and the summary pairs the two sides round by round.
#
# It builds the base's test binary from `git archive $BASE` and the
# working tree's, both under .bench_build/benchpair/, runs each from
# its own copy of the package directory, and prints, per benchmark,
# each side's ns/op in every round, both sides' medians and quartiles
# (nearest rank), the rounds the working tree won, and the median of
# the per-round ratios working tree / base. Each run times its
# benchmarks for the default -test.benchtime of 1s. Before the rounds
# it prints where each binary's linker placed the SOM step loop's hot
# code, as the address mod 64 from `go tool nm -n`: the same source can
# run 20–40% slower at another offset. It changes no file outside
# .bench_build/benchpair/.
set -euo pipefail

: "${BASE:?set BASE to the revision to compare against}"
: "${PKG:?set PKG to the package directory, e.g. ./internal/som}"
: "${BENCH:?set BENCH to a benchmark regexp}"
ROUNDS="${ROUNDS:-10}"
PKG="${PKG#./}"

root="$(git rev-parse --show-toplevel)"
out="$root/.bench_build/benchpair"
rm -rf "$out"
mkdir -p "$out/base"
git -C "$root" archive "$BASE" | tar -x -C "$out/base"
(cd "$out/base" && go test -c -o "$out/base.test" "./$PKG")
(cd "$root" && go test -c -o "$out/head.test" "./$PKG")

# Code placement: the offset mod 64 of the weight update, the seeded
# BMU search and their AVX2 kernels in each binary; a name the binary
# lacks prints nothing. 256 is a multiple of 64, so the address's last
# two hex digits decide the offset.
for side in base head; do
	go tool nm -n "$out/$side.test" | awk -v side="$side" '
		$3 ~ /^hmeans\/internal\/som\.(\(\*Map\)\.update|\(\*Map\)\.bmuSeeded|updateAVX2(\.abi0)?|bmuAVX2(\.abi0)?)$/ {
			a = tolower(substr($1, length($1) - 1))
			off = (16 * (index("0123456789abcdef", substr(a, 1, 1)) - 1) + index("0123456789abcdef", substr(a, 2, 1)) - 1) % 64
			printf "placement: %s %s at 0x%s, %d mod 64\n", side, $3, $1, off
		}'
done

# run SIDE DIR ROUND appends "round side benchmark ns/op" lines.
run() {
	(cd "$2/$PKG" && "$out/$1.test" -test.run '^$' -test.bench "$BENCH" \
		-test.count 1 -test.timeout 60m) |
		awk -v side="$1" -v round="$3" '
			/^Benchmark/ { for (i = 3; i <= NF; i++) if ($i == "ns/op") print round, side, $1, $(i - 1) }
		' >> "$out/results.txt"
}

: > "$out/results.txt"
for r in $(seq 1 "$ROUNDS"); do
	if [ $((r % 2)) -eq 1 ]; then
		run base "$out/base" "$r"
		run head "$root" "$r"
	else
		run head "$root" "$r"
		run base "$out/base" "$r"
	fi
	echo "bench-pair: round $r of $ROUNDS done" >&2
done

awk -v base="$BASE" '
	function sortn(a, n,    i, j, t) {
		for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
	}
	function rank(n, p,    r) { r = int(p * n / 100); if (r < p * n / 100) r++; return r < 1 ? 1 : r }
	{ v[$3, $2, $1] = $4; if (!($3 in seen)) { seen[$3] = 1; names[++nb] = $3 } if ($1 > rounds) rounds = $1 }
	END {
		for (b = 1; b <= nb; b++) {
			name = names[b]
			printf "%s (base %s)\n%-6s %16s %16s %10s\n", name, base, "round", "base ns/op", "head ns/op", "head/base"
			n = 0; wins = 0
			for (r = 1; r <= rounds; r++) {
				if (!((name, "base", r) in v) || !((name, "head", r) in v)) continue
				x = v[name, "base", r]; y = v[name, "head", r]
				n++; bs[n] = x; hs[n] = y; rs[n] = y / x
				if (y < x) wins++
				printf "%-6d %16.0f %16.0f %10.3f\n", r, x, y, y / x
			}
			if (n == 0) continue
			sortn(bs, n); sortn(hs, n); sortn(rs, n)
			q1 = rank(n, 25); md = rank(n, 50); q3 = rank(n, 75)
			printf "base q1 / median / q3: %.0f / %.0f / %.0f ns/op\n", bs[q1], bs[md], bs[q3]
			printf "head q1 / median / q3: %.0f / %.0f / %.0f ns/op\n", hs[q1], hs[md], hs[q3]
			printf "head faster in %d of %d rounds; median ratio head/base %.3f\n\n", wins, n, rs[md]
		}
	}
' "$out/results.txt"
