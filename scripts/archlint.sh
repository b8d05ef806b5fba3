#!/bin/sh
# archlint: enforce the execution-layer boundary (DESIGN.md section 10).
#
# internal/exec is the one door into the engines: it picks the backend,
# owns engine construction and pooling, and counts every run. Two scans
# keep it that way; both skip _test.go files (tests build and drive
# reference engines to diff against).
#
# 1. Engine construction — lanes.NewEngine, radio.NewEngine,
#    radio.NewEngineMulti, repro.NewEngine — must not appear in the
#    consumer layers (the facade run paths, sweep, campaign, serve,
#    cluster, cmd/radiosim, the experiments); they go through
#    internal/exec.
#
# 2. Run/replay entry points of internal/radio — BroadcastTimeOnContext,
#    (*Engine).RunProtocolContext, ExecuteScheduleOnContext,
#    RunCDProtocolContext, and any radio.RunProtocol*/BroadcastTime*/
#    ExecuteSchedule*/SourceSweep*/RunCD* that might come back — may only
#    be called from:
#      - internal/exec (the door itself)
#      - internal/radio (the engine and its runners)
#      - internal/oracle (the differential oracle checks the engine
#        independently of the layer it is checking)
#    bench/ is a separate module that times each layer on its own, the
#    raw engine included.

set -eu
cd "$(dirname "$0")/.."

scan() {
	# $1: description, $2...: files/dirs to scan (missing ones skipped)
	desc=$1
	shift
	set -- $(for f in "$@"; do [ -e "$f" ] && printf '%s\n' "$f"; done)
	[ $# -eq 0 ] && return 0
	grep -rnE --include='*.go' --exclude='*_test.go' \
		'(lanes|radio|repro)\.NewEngine(Multi)?\(' "$@" || return 0
	echo "archlint: $desc must not construct engines directly; route through internal/exec" >&2
	return 1
}

# Calls of a radio run/replay entry point.
runners='radio[.](RunProtocol|BroadcastTime|ExecuteSchedule|SourceSweep|RunCD)[A-Za-z]*[(]|[.]RunProtocolContext[(]'

scan_runners() {
	hits=$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
		! -path './internal/exec/*' ! -path './internal/radio/*' \
		! -path './internal/oracle/*' \
		-exec grep -nHE "$runners" {} + || true)
	[ -z "$hits" ] && return 0
	printf '%s\n' "$hits"
	echo "archlint: radio run/replay entry points may only be called from internal/exec (see scripts/archlint.sh); route through internal/exec" >&2
	return 1
}

fail=0
scan "the facade run paths (batch.go, options.go)" batch.go options.go || fail=1
scan "internal/sweep" internal/sweep || fail=1
scan "internal/campaign" internal/campaign || fail=1
scan "internal/serve" internal/serve || fail=1
scan "internal/cluster" internal/cluster || fail=1
scan "cmd/radiosim" cmd/radiosim || fail=1
scan "internal/exp" internal/exp || fail=1
scan_runners || fail=1

if [ "$fail" -ne 0 ]; then
	exit 1
fi
echo "archlint: ok (engines constructed and run only through internal/exec)"
