#!/bin/sh
# Runs figure commands at a tiny size and checks that each exits 0 and
# prints its table; timings are never checked.
#   usage: smoke.sh path/to/main.exe
set -eu
case $1 in
  */*) main=$1 ;;
  *) main=./$1 ;;
esac

# expect OUTPUT TEXT...: every TEXT occurs in OUTPUT
expect() {
  out=$1
  shift
  for text in "$@"; do
    if ! printf '%s\n' "$out" | grep -qF -- "$text"; then
      printf '%s\n' "$out"
      echo "bench smoke: missing \"$text\"" >&2
      exit 1
    fi
  done
}

out=$("$main" fig7 --size 8 --repeats 1)
expect "$out" "| CC 7pt Stencil " "| CC Jacobi " "| VC GSRB "
out=$("$main" codegen --size 8)
expect "$out" "OpenMP C translation unit:" "#include <omp.h>"
out=$("$main" autotune --size 8 --repeats 1)
expect "$out" "| 1    |" "winner: "
