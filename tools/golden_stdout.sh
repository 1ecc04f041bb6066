#!/bin/sh
# Golden-stdout gate: run a command and compare its stdout, byte for byte,
# with a committed baseline.
#
#   tools/golden_stdout.sh [--pass REGEX] GOLDEN COMMAND [ARG...]
#
# Fails when COMMAND exits nonzero, when no line of its stdout matches
# REGEX (grep -E), or when its stdout differs from the file GOLDEN. A
# difference prints as a unified diff, baseline first. A change that moves
# the output on purpose re-records the baseline with `COMMAND > GOLDEN`.
pass=
if [ "$1" = --pass ]; then
  pass=$2
  shift 2
fi
golden=$1
shift
out=$(mktemp) || exit 1
trap 'rm -f "$out"' EXIT
"$@" > "$out"
rc=$?
if [ "$rc" -ne 0 ]; then
  cat "$out"
  echo "golden_stdout: $1 exited $rc" >&2
  exit 1
fi
if [ -n "$pass" ] && ! grep -Eq -- "$pass" "$out"; then
  cat "$out"
  echo "golden_stdout: no line of the output matches '$pass'" >&2
  exit 1
fi
if ! diff -u "$golden" "$out"; then
  echo "golden_stdout: the output differs from $golden" >&2
  exit 1
fi
