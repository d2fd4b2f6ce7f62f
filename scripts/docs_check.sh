#!/usr/bin/env bash
# Documentation freshness gate (`make docs-check`):
#
#   1. odoc over the public mlis with warnings fatal (lib/server is the
#      most-documented surface; the @doc alias builds everything).
#      Skipped with a notice when odoc is not installed — CI installs it.
#   2. Relative links in docs/*.md and README.md must resolve to a file
#      or directory in the repo.
#   3. Every `--flag` mentioned in docs/*.md must exist in the current
#      `tml --help` output of some subcommand — docs may not reference
#      flags that were renamed or removed.
#   4. Every library module (lib/**/*.ml) must be named in some other
#      .ml under lib/, bin/ or examples/ — no module is reachable only
#      from its own tests or the bench.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# ----- 1. odoc, warnings fatal ---------------------------------------------

if dune build @doc 2> /tmp/docs-check-odoc.log; then
  if [ -s /tmp/docs-check-odoc.log ]; then
    echo "FAIL: odoc emitted warnings:" >&2
    cat /tmp/docs-check-odoc.log >&2
    fail=1
  else
    echo "ok: odoc clean (warnings fatal)"
  fi
else
  if grep -qi "odoc.*not found\|not found.*odoc" /tmp/docs-check-odoc.log; then
    echo "skip: odoc not installed (CI runs this step)"
  else
    echo "FAIL: dune build @doc failed:" >&2
    cat /tmp/docs-check-odoc.log >&2
    fail=1
  fi
fi

# ----- 2. dead relative links ----------------------------------------------

check_links() {
  local file=$1 dir link target
  dir=$(dirname "$file")
  # inline markdown links whose target is not absolute, not a URL and
  # not a pure in-page anchor
  grep -oE '\]\([^)]+\)' "$file" | sed -e 's/^](//' -e 's/)$//' \
  | while IFS= read -r link; do
      case $link in
        http://*|https://*|mailto:*|\#*|/*) continue ;;
      esac
      target=${link%%#*}
      [ -n "$target" ] || continue
      if [ ! -e "$dir/$target" ]; then
        echo "$file: dead link -> $link"
      fi
    done
}

dead=$( { for f in docs/*.md README.md; do check_links "$f"; done; } )
if [ -n "$dead" ]; then
  echo "FAIL: dead relative links:" >&2
  echo "$dead" >&2
  fail=1
else
  echo "ok: relative links in docs/*.md and README.md resolve"
fi

# ----- 3. stale CLI flags ---------------------------------------------------

dune build bin/tml_cli.exe
tml=_build/default/bin/tml_cli.exe
help=/tmp/docs-check-help.txt
{
  "$tml" --help=plain
  for sub in serve client watch fleet batch check model-repair data-repair \
             reward-repair pipeline smc quotient simulate experiments trace; do
    "$tml" "$sub" --help=plain
  done
} > "$help" 2>&1

stale=$(grep -ohE '(^|[^-[:alnum:]])--[a-z][a-z-]+' docs/*.md \
        | grep -oE '\-\-[a-z][a-z-]+' | sort -u \
        | while IFS= read -r flag; do
            # a flag is current if tml --help knows it, or if it belongs
            # to one of the repo's own scripts (e.g. `--chaos` on the
            # smoke scripts) or to the bench harness's argv dispatch
            grep -q -- "$flag" "$help" || grep -q -- "$flag" scripts/*.sh \
              || grep -q -- "\"$flag\"" bench/main.ml \
              || echo "$flag"
          done)
if [ -n "$stale" ]; then
  echo "FAIL: docs/*.md mention flags absent from tml --help:" >&2
  echo "$stale" >&2
  fail=1
else
  echo "ok: every --flag in docs/*.md exists in tml --help"
fi

# ----- 4. unreachable library modules --------------------------------------

orphans=$(for f in $(git ls-files 'lib/**/*.ml'); do
            b=$(basename "$f" .ml)
            m=$(printf '%s' "${b:0:1}" | tr a-z A-Z)${b:1}
            grep -rlw --include='*.ml' -- "$m" lib bin examples \
              | grep -qvx -- "$f" || echo "$f ($m)"
          done)
if [ -n "$orphans" ]; then
  echo "FAIL: library modules no lib/, bin/ or examples/ code names:" >&2
  echo "$orphans" >&2
  fail=1
else
  echo "ok: every lib/ module is reached from lib/, bin/ or examples/"
fi

exit $fail
