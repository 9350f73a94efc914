#!/bin/sh
# Usage-error check (wired into ctest): runs a command and passes when it
# exits 2 with the given message on stderr.
#
#   expect_usage_error.sh <message> <command> [args...]
set -u

message="$1"
shift
err="$("$@" 2>&1 >/dev/null)"
status=$?
if [ "$status" -ne 2 ]; then
  echo "FAIL: '$*' exited $status, expected 2" >&2
  exit 1
fi
case "$err" in
  *"$message"*) ;;
  *)
    echo "FAIL: '$*' stderr lacks '$message': $err" >&2
    exit 1
    ;;
esac
