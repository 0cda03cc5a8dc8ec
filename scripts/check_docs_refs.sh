#!/usr/bin/env sh
# Docs lint: fail if README.md or DESIGN.md reference repo files that do
# not exist. Catches the classic dangling-citation rot (a header citing a
# DESIGN.md section that was never written is how this script came to be).
#
# What counts as a reference: a backtick-quoted path rooted at one of the
# source directories (src/ tests/ bench/ examples/ scripts/ tools/), a
# backtick-quoted path relative to src/ that starts with a subsystem
# directory (`linalg/policy.hpp`, `mps/simulator`), or a backtick-quoted
# top-level *.md file. Runtime artifacts (other build/ paths, JSON
# outputs) and glob-ish names containing <>* are ignored. A bench,
# example, or tool referenced by its executable name (e.g.
# `bench/serving_ranked`, `tools/serving_rankd`) resolves if the matching
# .cpp exists.
#
# A command that runs one of those executables from a build tree,
# `./<dir>/<name>` (from inside build/) or `build/<dir>/<name>` (from the
# repo root) for <dir> in bench, examples, tools, is a reference too,
# anywhere in the doc, code blocks included: <dir>/<name>.cpp must exist.
set -eu
cd "$(dirname "$0")/.."

subsystems=$(cd src && for d in */; do printf '%s|' "${d%/}"; done)
subsystems=${subsystems%|}

status=0
for doc in README.md DESIGN.md; do
  if [ ! -f "$doc" ]; then
    echo "missing doc: $doc"
    status=1
    continue
  fi
  refs=$(grep -oE '`[A-Za-z0-9_./-]+`' "$doc" | tr -d '`' |
         grep -E "^((src|tests|bench|examples|scripts|tools|$subsystems)/[A-Za-z0-9_./-]+|[A-Za-z0-9_-]+\\.md)\$" |
         sort -u)
  for ref in $refs; do
    case "$ref" in
      src/* | tests/* | bench/* | examples/* | scripts/* | tools/*)
        path=$ref ;;
      */*) path=src/$ref ;;
      *) path=$ref ;;
    esac
    if [ -e "$path" ] || [ -e "$path.cpp" ] || [ -e "$path.hpp" ]; then
      continue
    fi
    echo "$doc references missing path: $ref"
    status=1
  done
  exes=$(grep -oE '(^|[^A-Za-z0-9_.-])(\./|build/)(bench|examples|tools)/[A-Za-z0-9_]+' "$doc" |
         sed -E 's#^.*(\./|build/)##' | sort -u)
  for exe in $exes; do
    if [ -e "$exe.cpp" ]; then
      continue
    fi
    echo "$doc runs missing executable: $exe"
    status=1
  done
done

# The observability subsystem is pure cross-cutting documentation — its
# header comments cite the design doc, the suites that pin each contract,
# and the layers that report into it. Hold those citations to the same
# no-dangling-reference standard as the top-level docs (bare paths, no
# backticks required in code comments).
for hdr in src/obs/*.hpp; do
  refs=$(grep -oE '(src|tests|bench|examples|scripts|tools)/[A-Za-z0-9_./-]+' \
           "$hdr" | sed 's/[.]$//' | sort -u)
  for ref in $refs; do
    if [ -e "$ref" ] || [ -e "$ref.cpp" ] || [ -e "$ref.hpp" ]; then
      continue
    fi
    echo "$hdr references missing path: $ref"
    status=1
  done
done

if [ "$status" -eq 0 ]; then
  echo "docs refs OK"
fi
exit $status
