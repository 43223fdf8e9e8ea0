#!/usr/bin/env bash
# End-to-end checks of the `coverify` console script, run as a process from
# outside the checkout: verdicts, exit codes, exports and input errors on the
# bundled scenarios and on variants of them made here.  It writes its files
# into the current directory, so run it from an empty one.
#
# CI runs it after `pip install -e .` from the runner's temporary directory.
# To run it from a checkout without installing, put a `coverify` wrapper on
# PATH that runs `python -m coverify` with PYTHONPATH=src; the script's own
# `python -c` lines import the package from there too:
#
#     repo=$(pwd) work=$(mktemp -d)
#     mkdir "$work/bin"
#     printf '#!/bin/sh\nexec python -m coverify "$@"\n' > "$work/bin/coverify"
#     chmod +x "$work/bin/coverify"
#     (cd "$work" && PATH="$work/bin:$PATH" PYTHONPATH="$repo/src" bash "$repo/tools/console_check.sh")
#
# GitHub's `shell: bash` runs a step with -eo pipefail; the script sets the same.
set -eo pipefail
data=$(python -c "from coverify.world import bundled_scenario_path as p; print(p('handover').parent)")
coverify verify "$data/handover_stop.scn" > safe.txt
grep -qx SAFE safe.txt
# verify hands each one-hot block to the solver as one exactly-one constraint; the export
# spells out every pairwise at-most-one clause, and that CNF must be unsatisfiable too.
coverify export "$data/handover_stop.scn" cnf --out handover_stop.cnf
python -c "import sys; from coverify.sat import read_dimacs, solve; sys.exit(solve(read_dimacs(open('handover_stop.cnf').read())).satisfiable)"
coverify verify "$data/handover_stop.scn" --bound 120 > safe120.txt
grep -qx SAFE safe120.txt
# Each conflict of a stop refutation learns a unit, which undoes only its own level: on the
# spelled-out pairs too, bound 120 refutes in 120 conflicts and at most 120 decisions.
coverify export "$data/handover_stop.scn" cnf --bound 120 --out handover_stop_120.cnf
python -c "from coverify.sat import read_dimacs, _Solver; s = _Solver(read_dimacs(open('handover_stop_120.cnf').read())); assert not s.solve().satisfiable and s.conflicts == 120 and s.decisions <= 120, (s.conflicts, s.decisions)"
status=0
coverify verify "$data/handover.scn" --out handover.trace || status=$?
test "$status" -eq 1
# A move's travel time is a dwell in its source cell: traces carry no transit columns.
# (errexit ignores a failing `!` command, hence the explicit exit.)
! grep -q transit_ handover.trace || exit 1
# The installed CLI imports neither numpy nor the urllib chain: only classify's
# Monte Carlo needs numpy, and it imports it on first use.
python -c "import sys, coverify.cli; sys.exit(bool({'numpy', 'xml.sax.saxutils', 'urllib.request'} & sys.modules.keys()))"
# Each compiled axiom names the check_trace rule that stands for it; handover_stop's
# violation is one term, for h1.
python -c "import sys; from coverify.world import bundled_scenario_path as p, compile_scenario, load_scenario; m = compile_scenario(load_scenario(p('handover_stop'))); sys.exit({a.rule for a in m.axioms} != {'adjacency', 'dwell', 'flag', 'task', 'stop'} or [h for h, _ in m.terms] != ['h1'])"
# The installed package re-reads the risk columns verify priced after solving.
coverify export "$data/handover.scn" trace-table --trace handover.trace
grep -q risk_h1 handover_trace_table.txt
# The SAT path and the exhaustive enumeration must agree on the small model.
status=0
coverify oracle "$data/handover_mini.scn" || status=$?
test "$status" -eq 1
# The enumeration walks travel times too: it agrees with verify on the SAFE stop
# variant and on the UNSAFE scenario, whose aisle takes three instants.
coverify oracle "$data/handover_stop.scn" > oracle_safe.txt
grep -qx SAFE oracle_safe.txt
status=0
coverify oracle "$data/handover.scn" || status=$?
test "$status" -eq 1
status=0
coverify verify "$data/handover_mini.scn" --out mini.trace || status=$?
test "$status" -eq 1
# A dwell looking back past the bound is false at every instant, so an edge of a billion
# instants compiles, at once, to the CNF of an edge of bound + 1 = 7 instants.
for travel in 7 1000000000; do
  { cat "$data/handover_mini.scn"; printf 'travel L2 L3 %s\n' "$travel"; } > "mini_travel_$travel.scn"
  timeout 30 coverify export "mini_travel_$travel.scn" cnf --out "mini_travel_$travel.cnf"
done
cmp mini_travel_7.cnf mini_travel_1000000000.cnf
# An output file that cannot be written is an input error (exit 2), not a
# traceback with the counterexample code.
expect_exit() {
  want=$1
  shift
  status=0
  "$@" 2> stderr.txt || status=$?
  test "$status" -eq "$want"
}
expect_exit 2 coverify verify "$data/handover_mini.scn" --out missing_dir/mini.trace
expect_exit 2 coverify classify "$data/handover_mini.scn" mini.trace --format csv --out missing_dir/mini.csv
expect_exit 2 coverify export "$data/handover_mini.scn" cnf --out missing_dir/mini.cnf
# Overlapping cells are an input error that names the first declared pair, here B before A.
printf '[layout]\nloc B box 0.5 0 0 2 1 1\nloc A box 0 0 0 1 1 1\n' > overlap.scn
expect_exit 2 coverify verify overlap.scn
grep -q "cells 'B' and 'A' overlap" stderr.txt
# Trace numerals are ASCII digits: a superscript bound is an input error on line 1.
sed '1s/.*/# bound ²/' mini.trace > mini_superscript.trace
expect_exit 2 coverify classify "$data/handover_mini.scn" mini_superscript.trace
grep -q "line 1:" stderr.txt
# A loc id that is no domain value fails on the line that declares it, for both paths.
sed 's/L3/L-3/g' "$data/handover_mini.scn" > mini_dash.scn
loc_line=$(grep -n '^loc L-3 ' mini_dash.scn | cut -d: -f1)
for command in verify oracle; do
  expect_exit 2 coverify "$command" mini_dash.scn
  grep -q "line $loc_line: invalid domain value: 'L-3'" stderr.txt
done
# A POI id that repeats a symbol the model generates fails on the later line, for both paths.
sed 's/p_g/speed_kuka/g' "$data/handover_mini.scn" > mini_clash.scn
poi_line=$(grep -n '^poi kuka speed_kuka ' mini_clash.scn | cut -d: -f1)
for command in verify oracle; do
  expect_exit 2 coverify "$command" mini_clash.scn
  grep -q "line $poi_line: symbol 'speed_kuka' already declared" stderr.txt
done
# A risk column that differs from verify's price is an input error: here t=2, line 5.
awk 'NR == 5 { $NF = 6 } { print }' mini.trace > mini_forged.trace
expect_exit 2 coverify classify "$data/handover_mini.scn" mini_forged.trace
grep -q "column risk_h1 at t=2" stderr.txt
# A trace the model forbids is an input error even with its risk column priced right:
# haz_h1 at every instant while p_a sits at L4 and p_g at L1, the robot stopped.
awk 'NR == 2 { for (i = 3; i <= NF; i++) at[$i] = i - 1 }
     NR > 2 { $at["haz_h1"] = 1; $at["p_a"] = "L4"; $at["p_g"] = "L1"
              $at["speed_kuka"] = "stopped"; $at["risk_h1"] = ($1 == 6 ? 5 : 0) }
     { print }' mini.trace > mini_forged_flag.trace
expect_exit 2 coverify classify "$data/handover_mini.scn" mini_forged_flag.trace
grep -q "flag rule: haz_h1 is set at t=0" stderr.txt
expect_exit 2 coverify export "$data/handover_mini.scn" trace-table --trace mini_forged_flag.trace
grep -q "flag rule: haz_h1 is set at t=0" stderr.txt
# main builds its parser once per process; help still lists every option.
coverify classify --help > classify_help.txt
grep -q -- --samples classify_help.txt
# The oracle writes no file, so --out is a usage error (exit 2), not silently ignored.
status=0
coverify oracle "$data/handover_mini.scn" --out x || status=$?
test "$status" -eq 2
# ... and on its stop-mitigated variant, whose SAFE is not vacuous: its axioms alone
# are satisfiable at its bound, so the task can finish.
{ cat "$data/handover_mini.scn"; printf '[mitigations]\nmitigate stop h1\n'; } > mini_stop.scn
for command in oracle verify; do
  coverify "$command" mini_stop.scn > "mini_stop_$command.txt"
  grep -qx SAFE "mini_stop_$command.txt"
done
# Far past the layer where the reachable set stops growing: the enumeration re-reads
# its successor memo on every layer, and both paths must still agree.
for command in oracle verify; do
  status=0
  coverify "$command" "$data/handover_mini.scn" --bound 30 || status=$?
  test "$status" -eq 1
  coverify "$command" mini_stop.scn --bound 30 > "mini_stop_30_$command.txt"
  grep -qx SAFE "mini_stop_30_$command.txt"
done
# The slowdown variant: slow still prices h1 at risk 4, over threshold 3, so both paths must
# answer UNSAFE at its own bound and far past it.
{ cat "$data/handover_mini.scn"; printf '[mitigations]\nmitigate slowdown h1\n'; } > mini_slow.scn
for command in oracle verify; do
  for bound_option in "" "--bound 30"; do
    status=0
    coverify "$command" mini_slow.scn $bound_option || status=$?
    test "$status" -eq 1
  done
done
# retract is no mitigation kind (only the next speed prices a hazard instant): both paths
# stop on the line that names it.
{ cat "$data/handover_mini.scn"; printf '[mitigations]\nmitigate retract h1\n'; } > mini_retract.scn
retract_line=$(grep -n '^mitigate retract ' mini_retract.scn | cut -d: -f1)
for command in verify oracle; do
  expect_exit 2 coverify "$command" mini_retract.scn
  grep -q "line $retract_line: expected: mitigate slowdown|stop" stderr.txt
done
# A hazard takes one mitigation: stop and slowdown on h1 would demand two next speeds at
# once, so h1 could never be raised. Both paths stop on the second mitigate line.
{ cat "$data/handover_mini.scn"; printf '[mitigations]\nmitigate stop h1\nmitigate slowdown h1\n'; } > mini_both.scn
both_line=$(grep -n '^mitigate slowdown ' mini_both.scn | cut -d: -f1)
for command in verify oracle; do
  expect_exit 2 coverify "$command" mini_both.scn
  grep -q "line $both_line: hazard 'h1' is already mitigated by 'stop'" stderr.txt
done
# No hazard's risk can exceed threshold 6: verify answers SAFE without solving, and the
# exported CNF must say the same to an external solver.
{ cat "$data/handover_mini.scn"; printf 'threshold 6\n'; } > mini_threshold6.scn
coverify verify mini_threshold6.scn > mini_threshold6.txt
grep -qx SAFE mini_threshold6.txt
coverify export mini_threshold6.scn cnf --out mini_threshold6.cnf
python -c "import sys; from coverify.sat import read_dimacs, solve; sys.exit(solve(read_dimacs(open('mini_threshold6.cnf').read())).satisfiable)"
# encode hands its CNF over without re-checking the literals it numbered; re-reading the
# export puts it through the public validation, and its counterexample must still solve.
coverify export "$data/handover.scn" cnf --bound 14 --out handover.cnf
python -c "import sys; from coverify.sat import read_dimacs, solve; sys.exit(not solve(read_dimacs(open('handover.cnf').read())).satisfiable)"
# The solver loads encode's CNF as it is, since no clause the encoder emits repeats a
# variable; read_dimacs normalises every clause it reads. Both loads must give one model
# (None for the SAFE handover_stop).
for name in handover handover_stop; do
  coverify export "$data/$name.scn" cnf --bound 30 --out "${name}_30.cnf"
  python - "$data/$name.scn" "${name}_30.cnf" <<'EOF'
import sys
from coverify.encode import encode
from coverify.logic import conjoin
from coverify.sat import read_dimacs, solve
from coverify.world import compile_scenario, load_scenario
model = compile_scenario(load_scenario(sys.argv[1], bound=30))
cnf, _ = encode(conjoin(model.formulas), model.symbols, 30)
with open(sys.argv[2], encoding="utf-8") as handle:
    exported = read_dimacs(handle.read())
sys.exit(solve(exported).model != solve(cnf).model)
EOF
done
# With both POIs at radius 0.6 the threshold 1.2 is longer than a cell's edge, so the hazard
# row has no closed form and classify samples it: one seed repeats, another seed differs.
sed 's/radius 0.05/radius 0.6/' "$data/handover_mini.scn" > mini_r06.scn
status=0
coverify verify mini_r06.scn --out mini_r06.trace || status=$?
test "$status" -eq 1
classify_sampled() {
  status=0
  coverify classify mini_r06.scn mini_r06.trace --format csv --seed "$1" --out "$2" || status=$?
  test "$status" -eq 3
}
classify_sampled 1 sampled_1.csv
classify_sampled 1 sampled_1_again.csv
classify_sampled 2 sampled_2.csv
grep -q '^h1,6,POSSIBLE,' sampled_1.csv
cmp sampled_1.csv sampled_1_again.csv
! cmp -s sampled_1.csv sampled_2.csv || exit 1
# Every POSSIBLE row of handover is a same-cell contact with the closed form: the seed never shows.
for seed in 1 2; do
  status=0
  coverify classify "$data/handover.scn" handover.trace --format csv --seed "$seed" --out "seed_$seed.csv" || status=$?
  test "$status" -eq 3
done
cmp seed_1.csv seed_2.csv
