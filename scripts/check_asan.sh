#!/usr/bin/env bash
# Build with AddressSanitizer + UndefinedBehaviorSanitizer and run the
# suites that decode untrusted bytes or hand state across a
# checkpoint: the policy layer (incl. the Controller blob loader
# behind every policy checkpoint), the simulator's checkpoint/resume
# suites, the scenario parser, the util codecs and the fleet's
# barrier checkpoints. Any heap error, leak or undefined behavior
# fails this script.
#
# Usage: scripts/check_asan.sh [build-dir]   (default build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . -DQUETZAL_SANITIZE=address \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j --target test_policy test_sim \
    test_scenario test_util test_fleet

# ASan aborts on the first error; UBSan is built with
# -fno-sanitize-recover, so it aborts too.
export ASAN_OPTIONS="halt_on_error=1 detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 ${UBSAN_OPTIONS:-}"

# Registry, invariant walk, sjf-ibo == QZ differentials, per-policy
# checkpoint/resume and the tournament golden.
"$BUILD_DIR"/tests/test_policy

# Single-run checkpoints: the QZCK archive codec, the state blobs and
# resume from them (including the malformed-blob death tests).
"$BUILD_DIR"/tests/test_sim --gtest_filter='Checkpoint*'

# The scenario JSON parser and spec validator.
"$BUILD_DIR"/tests/test_scenario

# CSV/number parsing, the wire codec and the other util primitives.
"$BUILD_DIR"/tests/test_util

# The fleet spec, coordinator and barrier-checkpoint suites.
"$BUILD_DIR"/tests/test_fleet \
    --gtest_filter='FleetSpec.*:FleetCoordinator.*:FleetDeterminism.*:FleetCheckpoint*'

echo "check_asan: OK"
