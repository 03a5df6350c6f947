#!/usr/bin/env bash
# The one command of the benchmark.
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       build, run one workload once, print every metric as
#       `workload/metric value unit` and, last, one JSON object
#   run.sh [--seed N] [--seconds S]
#       every workload, end to end and traced
#   run.sh --aa [--runs R] [--seconds S]
#       two interleaved sets of R runs per workload, compared
#
# Exits non-zero when the build, a run or one of its checks fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/flowdns-benchmark"
case " $* " in
  *" --workload "*) exec "$bin" --out "$here/out" "$@" ;;
  *) exec python3 "$here/sets.py" "$bin" "$here" "$@" ;;
esac
