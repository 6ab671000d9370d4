#!/usr/bin/env bash
# Re-runs the four gated bench sweeps of the GATES table below and diffs
# each against its committed baseline: `<bin> <flags> --out <tmp> --diff
# <baseline>`. The script's own arguments (e.g. --max-n N --budget-ms MS)
# are forwarded to solver_scale only.
#
# How a column is gated is its class in the schema tables of
# crates/bench/src/lib.rs (SOLVER, EPOCHS, RUNTIME, GOSSIP):
#   Key    row identity; a planned baseline row the run did not emit fails
#   Exact  seed-deterministic counter, must equal the baseline
#   Wall   fails >20% over the baseline when both sides are >= 250 ms
#   Info   recorded, never gated
# Each bin adds its own invariants: twin divergence, gossip reach/economy,
# certificate hits at n=1e6, the --ci-smoke gates.
#
# Usage: scripts/bench_regression.sh [--max-n N] [--budget-ms MS]
set -euo pipefail

cd "$(dirname "$0")/.."

TMP="$(mktemp -d /tmp/bench_regression.XXXXXX)"
trap 'rm -rf "$TMP"' EXIT

GATES=(
    "solver_scale BENCH_solver.json"
    "runtime_scale BENCH_runtime.json --ci-smoke --transport both"
    "epochs BENCH_epochs.json --ci-smoke --quiet"
    "gossip_scale BENCH_gossip.json --ci-smoke"
)
for gate in "${GATES[@]}"; do
    read -r bin baseline flags <<<"$gate"
    if [[ ! -f "$baseline" ]]; then
        echo "bench_regression: missing committed baseline $baseline" >&2
        exit 1
    fi
    # The script's own arguments go to solver_scale (first) and nowhere else.
    [[ "$bin" == solver_scale ]] || set --
    # shellcheck disable=SC2086  # $flags is a word list
    cargo run --release -p swiper-bench --bin "$bin" -- \
        $flags "$@" --out "$TMP/$baseline" --diff "$baseline"
done
