#!/usr/bin/env bash
# Runs every mutps-loadgen mode once against live servers — the one check
# that the four mode wirings in cmd/mutps-loadgen/main.go still work end to
# end. Each run must exit 0, print the op count it was asked for, and emit
# -bench-json records that internal/benchfmt's reader accepts. The summary
# lines of every run are echoed, so two runs of this script show whether a
# change kept them.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

tmp=$(mktemp -d)
pids=()
cleanup() {
	for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/" ./cmd/mutps-server ./cmd/mutps-loadgen ./cmd/mutps-cluster

addr=127.0.0.1:17170
"$tmp/mutps-server" -addr $addr -engine tree -workers 4 -cr 1 >"$tmp/server.log" 2>&1 &
pids+=($!)
"$tmp/mutps-cluster" -shards 2 -base-port 17171 >"$tmp/cluster.log" 2>&1 &
pids+=($!)
sleep 1.5

# run NAME WANT ARGS...: one loadgen run whose summary must contain WANT.
run() {
	local name=$1 want=$2
	shift 2
	echo "== $name: mutps-loadgen $*"
	"$tmp/mutps-loadgen" "$@" -bench-json "$tmp/$name.json" >"$tmp/$name.out"
	grep -E '^(loaded|replaying|cluster of|[0-9]+ connections|[0-9]+ ops|throughput|latency|backpressure|client alloc|server|fan-out|sparse|phase|scenario| +[a-z-]+ +[0-9]+ ops/s|[0-9]+ window records)' "$tmp/$name.out" |
		sed -E "s#$tmp/##"
	grep -q -- "$want" "$tmp/$name.out" || {
		echo "FAIL: $name did not print '$want'" >&2
		exit 1
	}
}

run sync "4000 ops across 4 clients" -addr $addr -mix B -keys 2000 -ops 4000 -inflight 1
run pipelined "4000 ops across 2 clients" -addr $addr -mix E -keys 2000 -ops 4000 -clients 2 -inflight 8 -load=false
run sparse "4000 ops in " -addr $addr -mix C -keys 2000 -ops 4000 -conns 200 -active-fraction 0.05 -load=false

for k in $(seq 0 2999); do echo "put,$k,32"; done >"$tmp/trace.csv"
run trace "3000 ops across 4 clients" -addr $addr -trace "$tmp/trace.csv" -ops 3000

run scenario "scenario size-shift: " -addr $addr -scenario size-shift -scenario-scale 0.05
windows=$(sed -nE 's/^scenario size-shift: ([0-9]+) windows$/\1/p' "$tmp/scenario.out")
[ "$windows" -gt 0 ] && [ "$(wc -l <"$tmp/scenario.json")" -eq "$windows" ] || {
	echo "FAIL: scenario printed $windows windows, emitted $(wc -l <"$tmp/scenario.json") records" >&2
	exit 1
}

run cluster "4000 ops across 4 clients" -cluster 127.0.0.1:17171,127.0.0.1:17172 -mix B -keys 2000 -ops 4000 -mget 16

echo "== records"
go test -count=1 -run 'TestReadFileArgs' -v ./internal/benchfmt -args "$tmp"/*.json | grep -E '^\s+benchfmt_test|^(ok|FAIL|---)'
