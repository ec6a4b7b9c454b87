#!/usr/bin/env bash
# Non-blank, non-comment lines of src/, tools/, examples/, bench/ and the
# root CMakeLists.txt, at a revision and in the working tree, and the
# difference:
#
#   scripts/count_sloc.sh [REV]        (REV defaults to HEAD)
#
# C++ files (.h, .cc, .cpp, .inl and .cc.in templates) skip blank lines,
# lines holding only a // comment and lines wholly inside a /* */ block; a
# line with code before a comment counts. CMake files (CMakeLists.txt,
# *.cmake) skip blank lines and # comment lines. Other files (JSON
# baselines, text records) are data and are not counted. The working tree
# is every tracked or untracked, not ignored file on disk.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  echo "usage: scripts/count_sloc.sh [REV]" >&2
  exit 2
}
[ $# -le 1 ] || usage
rev="${1:-HEAD}"
case "$rev" in -*) usage ;; esac
git rev-parse --verify --quiet "$rev^{commit}" > /dev/null ||
  { echo "count_sloc.sh: unknown revision '$rev'" >&2; exit 2; }

areas=(src tools examples bench CMakeLists.txt)

# Counts the lines of the files named on stdin (paths relative to $1).
count_lines() {
  local root="$1"
  local -a files=()
  local path
  while IFS= read -r path; do
    case "$path" in
      *.h | *.cc | *.cpp | *.inl | *.cc.in | CMakeLists.txt | \
        */CMakeLists.txt | *.cmake)
        [ -f "$root/$path" ] && files+=("$root/$path") ;;
    esac
  done
  if [ ${#files[@]} -eq 0 ]; then
    echo 0
    return
  fi
  awk '
    FNR == 1 {
      block = 0
      cmake = FILENAME ~ /(^|\/)CMakeLists\.txt$|\.cmake$/
    }
    cmake {
      if ($0 !~ /^[ \t\r]*(#|$)/) count++
      next
    }
    {
      # A string or character literal ends with its line; a block comment
      # may not.
      line = $0; len = length(line); quote = ""; code = 0; i = 1
      while (i <= len) {
        c = substr(line, i, 1); two = substr(line, i, 2)
        if (block) {
          if (two == "*/") { block = 0; i += 2 } else i++
          continue
        }
        if (quote != "") {
          code = 1
          if (c == "\\") i += 2
          else { if (c == quote) quote = ""; i++ }
          continue
        }
        if (two == "//") break
        if (two == "/*") { block = 1; i += 2; continue }
        if (c == "\"" || c == "\047") quote = c
        if (c !~ /[ \t\r]/) code = 1
        i++
      }
      if (code) count++
    }
    END { print count + 0 }
  ' "${files[@]}"
}

snapshot="$(mktemp -d)"
trap 'rm -rf "$snapshot"' EXIT
git archive "$rev" -- "${areas[@]}" | tar -x -C "$snapshot"

short="$(git rev-parse --short "$rev")"
printf '%-16s %10s %12s %10s\n' "area" "$short" "working tree" "diff"
total_rev=0
total_tree=0
for area in "${areas[@]}"; do
  at_rev=$(git ls-tree -r --name-only "$rev" -- "$area" |
    count_lines "$snapshot")
  in_tree=$(git ls-files --cached --others --exclude-standard -- "$area" |
    count_lines .)
  printf '%-16s %10d %12d %+10d\n' "$area" "$at_rev" "$in_tree" \
    $((in_tree - at_rev))
  total_rev=$((total_rev + at_rev))
  total_tree=$((total_tree + in_tree))
done
printf '%-16s %10d %12d %+10d\n' "total" "$total_rev" "$total_tree" \
  $((total_tree - total_rev))
