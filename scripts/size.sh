#!/usr/bin/env bash
# Prints the size numbers ROADMAP.md tracks: lines of non-test Go outside
# benchmark/ (tracked files only), of internal/netserver and of its
# Linux-only files, of the tuner and of the simulator, lines of the load
# generator's main.go and of the root store.go, how many exported fields
# the store's configuration structs have between them (what an embedder, a
# flag or a harness can set on a store), the cluster client's, the
# evictor's and the tuner's configs have, and how many flags each command
# registers.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
echo "non-test Go lines outside benchmark/: $(git ls-files '*.go' | grep -v -e '_test\.go$' -e '^benchmark/' | xargs cat | wc -l)"
nontest() { git ls-files "$@" | grep -v '_test\.go$' | xargs -r cat | wc -l; }
echo "internal/netserver non-test lines: $(nontest 'internal/netserver/*.go')"
echo "internal/netserver *_linux.go non-test lines: $(nontest 'internal/netserver/*_linux.go')"
echo "internal/tuner + internal/simkv non-test lines: $(nontest 'internal/tuner/*.go') + $(nontest 'internal/simkv/*.go')"
echo "cmd/mutps-loadgen/main.go lines: $(wc -l <cmd/mutps-loadgen/main.go)"
echo "store.go lines: $(wc -l <store.go)"
# Exported named fields of struct type $2 in file $1 (0 when $2 is an alias).
fields() {
	awk -v t="$2" '$0 ~ "^type " t " struct" {on = 1; next} on && /^}/ {exit}
		on && /^\t[A-Z][A-Za-z0-9]*[ \t]+[^ \t]/ {n++} END {print n + 0}' "$1"
}
opts=$(fields store.go Options) cfg=$(fields internal/kvcore/store.go Config) loc=$(fields internal/cluster/local.go LocalOptions)
echo "store config fields: $((opts + cfg + loc)) (mutps.Options $opts + kvcore.Config $cfg + cluster.LocalOptions $loc)"
echo "cluster.Config fields: $(fields internal/cluster/client.go Config)"
echo "lifecycle.Config fields: $(fields internal/lifecycle/evictor.go Config)"
echo "tuner.ControllerConfig fields: $(fields internal/tuner/controller.go ControllerConfig)"
for cmd in cmd/*/; do
	# -h exits 2 after printing usage; grep -c exits 1 on a count of 0.
	echo "$(basename "$cmd") flags: $( (go run "./$cmd" -h 2>&1 || true) | grep -c '^  -' || true)"
done
