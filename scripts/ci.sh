#!/bin/sh
# Tier-2 CI: everything tier-1 (build + test) checks, plus static vetting
# and the race detector. The race pass exercises the parallel experiment
# fan-out (-exp.parallel), which is what proves experiment cells really are
# independent — a data race between cells fails this script, not just a
# flaky benchmark.
#
# Tier-3 (./scripts/ci.sh tier3): tier-2 plus a wall-clock-budgeted scenario
# fuzz smoke and the whole suite re-run with the invariant sanitizer
# compiled in. See TESTING.md.
set -eu

cd "$(dirname "$0")/.."

tier3=false
if [ "${1:-}" = "tier3" ]; then
	tier3=true
fi

echo "== go build ./..."
go build ./...

echo "== gofmt"
# Every tracked Go file must be gofmt-clean.
test -z "$(gofmt -l $(git ls-files '*.go'))"

echo "== go vet ./..."
go vet ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
# internal/exp's TestParallelMatchesSerial toggles the parallel fan-out
# itself, so this pass race-checks the experiment cells too.
go test -race ./...

echo "== trace smoke (capture -> dump -> analyze -> diff)"
# Captures the same fuzz seed twice and requires byte-identical binary
# traces — the end-to-end determinism check for the telemetry pipeline.
make trace-smoke

echo "== monitor smoke (deterministic metrics exports + JSON schema)"
make monitor-smoke

echo "== fault smoke (deterministic fault injection, end to end)"
# Two identical-seed runs of the storm preset must produce byte-identical
# traces and metrics: enabling faults must not cost determinism.
make fault-smoke

echo "== fleet smoke (100k hosts, byte-identical across worker counts)"
# The sharded cluster simulation must produce the same bytes at workers
# 1/4/16 and hold retained memory bounded regardless of host count.
make fleet-smoke

echo "== tune smoke (auto-tuner byte-identical across worker counts)"
# The recommended QoS config must be a pure function of (seed, scenario,
# objective): same bytes at workers 1 and 4, JSON passes -check.
make tune-smoke

echo "== incident smoke (flight recorder bundles + Perfetto export)"
# Same storm seed twice with the flight recorder armed must dump
# byte-identical incident bundles; Perfetto export must be deterministic.
make incident-smoke

echo "== cmd exit codes (errors must exit non-zero)"
# Every tool must fail loudly on bad input; a zero exit here is a
# regression that silently greenlights broken CI pipelines.
for bad in \
	"./cmd/iocost-sim -device nosuch" \
	"./cmd/iocost-sim -faults bogus" \
	"./cmd/iocost-sim -check /nonexistent.json" \
	"./cmd/iocost-sim -hi-weight 0" \
	"./cmd/iocost-sim -depth 0" \
	"./cmd/iocost-sim -size -1" \
	"./cmd/iocost-sim -seconds 0" \
	"./cmd/iocost-sim -faults ;" \
	"./cmd/iocost-sim -faults slow:at=0s,dur=1s,factor=NaN" \
	"./cmd/iocost-trace analyze /nonexistent.trace" \
	"./cmd/iocost-fuzz -replay /nonexistent.json" \
	"./cmd/iocost-bench -run nosuch" \
	"./cmd/iocost-fleet -kind nosuch" \
	"./cmd/iocost-fleet -storm bogus -storm-racks 0" \
	"./cmd/iocost-fleet -storm-racks 0" \
	"./cmd/iocost-profile -device nosuch" \
	"./cmd/iocost-tune -scenario nosuch" \
	"./cmd/iocost-tune -objective nosuch" \
	"./cmd/iocost-tune -check /nonexistent.json" \
	"./cmd/iocost-trace export-perfetto /nonexistent.trace" \
	"./cmd/iocost-trace export-perfetto" \
	"./cmd/iocost-trace bundle -check /nonexistent.json" \
	"./cmd/iocost-fleet -flight-sample 2" \
	"./cmd/iocost-fleet -flight-fail 0.5" \
	"./cmd/iocost-fleet -fidelity nosuch" \
	"./cmd/iocost-fleet -fidelity sampled -sample-frac 2" \
	"./cmd/iocost-fleet -sample-frac 0.5" \
	"./cmd/iocost-fleet -ops -5" \
	"./cmd/iocost-fleet -ticks 0" \
	"./cmd/iocost-fleet -measure -trials -2" \
	"./cmd/iocost-tune -device nosuch" \
	"./cmd/iocost-tune -device hdd -scenario fleet-a"; do
	if go run $bad >/dev/null 2>&1; then
		echo "FAIL: 'go run $bad' exited zero"
		exit 1
	fi
done

echo "== bench json (engine + trace + whole-stack hot paths, quick pass)"
# A 10x pass proves the benchmark-to-JSON pipeline; the committed
# BENCH_6.json reference comes from a full run of make bench-json.
BENCHTIME=10x MACHINE_BENCHTIME=1x ./scripts/bench-json.sh "$(mktemp)"

echo "== bench budget (BenchmarkMachine bios/sec vs BENCH_6.json)"
# Whole-stack throughput is the number that gates fuzzing depth and sweep
# width; a >15% bios/sec regression on any row fails tier-2 loudly.
REPS=2 ./scripts/bench-check.sh

if $tier3; then
	echo "== fuzz smoke (30s)"
	# Seeds start past the deterministic TestFuzzScenarios range so the
	# smoke explores scenarios the fixed suite has not already covered.
	make fuzz-smoke

	echo "== fuzz smoke with faults (15s)"
	# The same sweep with seed-derived fault plans on every scenario:
	# sanitizer and drain checks against live error/retry/timeout paths.
	make fuzz-smoke-faults

	echo "== fault plan fuzz (15s)"
	# Every accepted -faults spec must be a non-empty, finite, validating
	# plan whose String() parses back to the same plan.
	go test ./internal/fault -run '^$' -fuzz '^FuzzParsePlan$' -fuzztime 15s

	echo "== pacer fuzz (20s)"
	# Random event storms with parked pacers must run every real event in
	# the same order, with the same seqs, as when every pacing tick is a
	# real event.
	go test ./internal/sim -run '^$' -fuzz '^FuzzPacerStorm$' -fuzztime 20s

	echo "== go test -tags sanitizer ./..."
	# The sanitizer wraps every controller with the invariant checker, so
	# this pass runs the entire suite and every experiment with life-cycle,
	# hweight and vtime/debt conservation checks live.
	go test -tags sanitizer ./...
fi

echo "CI OK"
