#!/bin/sh
# Golden cases for `tml model-repair` and `tml data-repair`: each small
# committed input under each repair backend.  Prints a header naming the
# case, the report, and the exit code (1 = infeasible is an expected
# outcome here, not a failure).
#
# Usage: repairs.sh TML model|data   (run from this directory)
set -u
tml=$1

case_() {
  name=$1
  shift
  for backend in nlp region smc-prefilter; do
    echo "== $name --backend $backend =="
    "$tml" "$@" --backend "$backend"
    echo "exit $?"
  done
}

case $2 in
  model)
    case_ "lane-change f<=0.05" model-repair -m lane_change.dtmc \
      -p "P>0.99 [ F changedLane | reducedSpeed ]" \
      -v f:0:0.05 -d 0,5,-f -d 0,1,+f
    case_ "three-state feasible v<=0.6" model-repair -m three_state.dtmc \
      -p "P>=0.5 [ F goal ]" -v v:0:0.6 -d 0,1,+v -d 0,2,-v
    case_ "three-state infeasible v<=0.1" model-repair -m three_state.dtmc \
      -p "P>=0.5 [ F goal ]" -v v:0:0.1 -d 0,1,+v -d 0,2,-v
    ;;
  data)
    set -- data-repair -t good_bad.traces --states 3 -l goal:1 \
      -p "P>=0.5 [ F goal ]"
    case_ "good/bad unpinned" "$@"
    case_ "good/bad pinned good" "$@" --pin good
    case_ "good/bad all pinned" "$@" --pin good --pin bad
    ;;
  *)
    echo "usage: repairs.sh TML model|data" >&2
    exit 2
    ;;
esac
