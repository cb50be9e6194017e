#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   perf/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one workload; the last line of stdout is its result object.
#   perf/run.sh [--seed N] [--seconds S] [--trace 0|1] [--runs N]
#       every workload, each in its own process; writes perf/out/results.json.
#   perf/run.sh compare <base results.json> <new results.json>
#   perf/run.sh --self-test
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# The benchmark reaches the library crates as path dependencies; say so
# plainly if the root workspace stops being a set of crates it can depend on.
for crate in geom store core mbrqt rstar gorder serve; do
  if [ ! -f "$here/../crates/$crate/Cargo.toml" ]; then
    echo "perf/run.sh: crates/$crate/Cargo.toml is missing: the benchmark builds" \
         "the library from ../crates/* as path dependencies" >&2
    exit 2
  fi
done

# The build log goes to stderr: stdout carries only the benchmark's lines.
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2
exec "${CARGO_TARGET_DIR:-$here/target}/release/ann-perf" "$@" --out "$here/out"
