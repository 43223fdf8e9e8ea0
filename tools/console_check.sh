#!/usr/bin/env bash
# Smoke test of the installed `coverify` command: what only an installed package
# can show.  The entry point pip puts on PATH, run as a process from outside the
# checkout, finds the scenarios packaged in coverify/data and returns each exit
# code of the contract, 0 to 3.  Every other end-to-end check of the CLI lives in
# the tier-1 tests.  It writes one trace into the current directory, so run it
# from an empty one.
#
# CI runs it after `pip install -e .` from the runner's temporary directory.
# To run it from a checkout without installing, put a `coverify` wrapper on
# PATH that runs `python -m coverify` with PYTHONPATH=src:
#
#     repo=$(pwd) work=$(mktemp -d)
#     mkdir "$work/bin"
#     printf '#!/bin/sh\nexec python -m coverify "$@"\n' > "$work/bin/coverify"
#     chmod +x "$work/bin/coverify"
#     (cd "$work" && PATH="$work/bin:$PATH" PYTHONPATH="$repo/src" bash "$repo/tools/console_check.sh")
#
# GitHub's `shell: bash` runs a step with -eo pipefail; the script sets the same.
set -eo pipefail
data=$(python -c "from coverify import bundled_scenario_path as p; print(p('handover').parent)")
expect() {  # expect CODE COMMAND...: the command must exit with CODE
  status=0
  "${@:2}" || status=$?
  test "$status" -eq "$1" || { echo "exit $status, expected $1: ${*:2}" >&2; return 1; }
}
expect 0 coverify verify "$data/handover_stop.scn"
expect 1 coverify verify "$data/handover.scn" --out handover.trace
expect 2 coverify verify missing.scn
expect 3 coverify classify "$data/handover.scn" handover.trace
