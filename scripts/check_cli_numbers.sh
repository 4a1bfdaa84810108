#!/usr/bin/env bash
# Every numeric CLI flag goes through the checked parser: a malformed,
# out-of-range or (for an unsigned target) negative value must exit
# non-zero with the offending flag named on stderr, never run with a
# silently truncated or wrapped number, nor take a form no JSON number
# has (leading whitespace or '+', hexadecimal). quetzal-sim's
# experiment flags also take only what their scenario field takes (a
# value the field rejects fails the same way), and its telemetry costs
# must be finite and non-negative. An abort (exit 134) is never a clean rejection.
#
# Usage: scripts/check_cli_numbers.sh [tool]
#   tool   path to quetzal-sim, quetzal-trace-gen or trace_stat; the
#          cases are picked by its file name (default
#          build/tools/quetzal-sim)
set -euo pipefail
cd "$(dirname "$0")/.."

TOOL="${1:-build/tools/quetzal-sim}"

if [ ! -x "$TOOL" ]; then
    echo "check_cli_numbers: tool not found at $TOOL" >&2
    echo "  build it first: cmake --build build" >&2
    exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

status=0
# Each case: the flag under test, then the full argument list. The bad
# value comes last so a parser regression still runs a tiny workload.
check() {
    local flag="$1"
    shift
    local code=0
    "$TOOL" "$@" >"$tmp/out" 2>"$tmp/err" </dev/null || code=$?
    if [ "$code" -eq 0 ]; then
        echo "check_cli_numbers: FAIL '$*' exited 0" >&2
        status=1
    elif [ "$code" -eq 134 ]; then
        echo "check_cli_numbers: FAIL '$*' aborted (exit 134):" >&2
        cat "$tmp/err" >&2
        status=1
    elif ! grep -qF -- "$flag" "$tmp/err"; then
        echo "check_cli_numbers: FAIL '$*' does not name $flag:" >&2
        cat "$tmp/err" >&2
        status=1
    else
        echo "check_cli_numbers: ok '$*'"
    fi
}

case "$(basename "$TOOL")" in
    quetzal-sim)
        check --events --events abc
        check --seed --events 1 --seed 12x
        check --seed --events 1 --seed +7
        check --seed --events 1 --seed " 7"
        check --threshold --events 1 --controller THR --threshold 0x32
        check --jobs --events 1 --jobs -1
        check --events --events 99999999999999999999
        check --buffer --events 1 --buffer 0
        check --cells --events 1 --cells 65
        check --capture-period-ms --events 1 --capture-period-ms 0
        check --task-window --events 1 --task-window 0
        check --threshold --events 1 --controller THR --threshold 0
        check --env --events 1 --env mars
        check --controller --events 1 --controller WARP
        check --telemetry-cost-s --events 1 --trace-out /dev/null \
            --telemetry-cost-s nan
        check --telemetry-cost-j --events 1 --trace-out /dev/null \
            --telemetry-cost-j -1
        ;;
    quetzal-trace-gen)
        check --days power --days 2x
        check --cells power --days 0.001 --cells 3000000000
        check --peak power --days 0.001 --peak abc
        check --seed events --events 3 --seed -1
        check --events events --events 4x
        check --events events --events 99999999999999999999
        ;;
    trace_stat)
        check --run /dev/null --run 1x
        check --run /dev/null --run -1
        check --run /dev/null --run 99999999999999999999
        ;;
    *)
        echo "check_cli_numbers: no cases for $(basename "$TOOL")" >&2
        exit 1
        ;;
esac

exit $status
