#!/bin/sh
# unreachable.sh — list the library functions no binary links (run it
# as `make unreachable`).
#
# Builds every main under cmd/ and examples/, and the benchmark's main
# from its own module under perfbench/, with inlining off for the
# module's own packages (-gcflags='hmeans/...=-l'), so every function
# a binary reaches keeps its own text symbol, and collects the hmeans
# text symbols of all of them with `go tool nm`. It then walks the
# func declarations of every non-main package outside _test.go files
# and prints, as file:line package.Name, each one whose symbol no
# binary has. Generic instantiations count under their base name
# (Map[go.shape.int] is Map), and closures count as their enclosing
# function. init functions are skipped; so are main packages, whose
# symbols are all named main.*.
#
# The list is a lead, not a verdict: a function reached only from
# tests shows up here too. Every binary is written to a temporary
# directory; nothing is written under perfbench/. The last line is the
# count.
set -eu

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
mkdir -p "$dir/bin"
go build -gcflags='hmeans/...=-l' -o "$dir/bin/" ./cmd/... ./examples/...
(cd perfbench && go build -gcflags='hmeans/...=-l' -o "$dir/bin/perfbench" .)

for b in "$dir"/bin/*; do
	go tool nm "$b"
done | awk '$2 == "T" || $2 == "t" { print $3 }' |
	grep '^hmeans[./]' |
	sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' \
		-e ':b' -e 's/\.func[0-9]*$//' -e 's/\.gowrap[0-9]*$//' -e 's/\.deferwrap[0-9]*$//' \
		-e 's/\.[0-9][0-9]*$//' -e 'tb' |
	sort -u >"$dir/linked"

# Declarations: one "file:line symbol" line per func, with the symbol
# spelled as the linker spells it (pkg.F, pkg.T.M, pkg.(*T).M).
find . -path ./perfbench -prune -o -path ./.bench_build -prune -o \
	-name '*.go' ! -name '*_test.go' -print | sort |
	while read -r f; do
		grep -q '^package main$' "$f" && continue
		pkgdir=$(dirname "$f" | sed 's|^\./||; s|^\.$||')
		pkg="hmeans${pkgdir:+/$pkgdir}"
		awk -v pkg="$pkg" -v file="${f#./}" '
		/^func / {
			line = $0
			sub(/^func /, "", line)
			recv = ""
			if (line ~ /^\(/) {
				recv = substr(line, 2, index(line, ") ") - 2)
				sub(/\[.*\]/, "", recv)
				n = split(recv, parts, " ")
				recv = parts[n]
				line = substr(line, index(line, ") ") + 2)
			}
			name = line
			sub(/[[(].*/, "", name)
			if (name == "init" || name == "main") next
			if (recv ~ /^\*/) sym = pkg ".(" recv ")." name
			else if (recv != "") sym = pkg "." recv "." name
			else sym = pkg "." name
			print file ":" NR " " sym
		}' "$f"
	done >"$dir/declared"

awk 'NR == FNR { linked[$1] = 1; next } !($2 in linked)' "$dir/linked" "$dir/declared" |
	tee "$dir/unreachable"
echo "unreachable: $(wc -l <"$dir/unreachable") of $(wc -l <"$dir/declared") declared functions"
