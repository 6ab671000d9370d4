#!/usr/bin/env bash
# Re-runs the benchmark sweeps and diffs them against the committed
# baselines.
#
# Solver section (BENCH_solver.json): fails on any deterministic-counter
# mismatch, >20% wall-time regression (rows over 250 ms), a blown
# --budget-ms, or a certified n=1e6 warm replay that settles zero checks
# from certificates (solver_scale --diff gates that itself). Extra flags
# are forwarded to solver_scale verbatim.
#
# Runtime section (BENCH_runtime.json): re-runs the threaded-runtime
# smoke sweep — both transport backends, in-process channels and
# loopback-TCP sockets — and diffs the cells it covers against the
# committed full sweep. A row's identity includes its transport, so
# socket cells gate against socket baselines only: commits and
# twin-replay status exact, >20% wall-time regression (rows over
# 250 ms) fails. Any twin divergence fails on its own, baseline or not.
#
# Epochs section (BENCH_epochs.json): replays the chain × churn
# reconfiguration scenarios and diffs the seed-deterministic solver-work
# counters (epochs, cert_skips, warm/plain/cold dp, hit rate) exactly;
# `bracket_divergence` is informational and never gated. The epochs bin's
# own --ci-smoke gates (nonzero hit rate / cert skips at 1% churn) apply
# on top.
#
# Gossip section (BENCH_gossip.json): re-runs the overlay dissemination
# sweep (--ci-smoke drops the two slow cells) and diffs the covered rows:
# simulator counters exact, threaded rows on reach + twin status, wall
# with tolerance. Every fresh row is additionally held to the acceptance
# invariants — reach 100%, and overlay msgs/delivery strictly below the
# n²-flood baseline of n at n >= 256 — baseline present or not.
#
# Usage: scripts/bench_regression.sh [--max-n N] [--budget-ms MS]
set -euo pipefail

cd "$(dirname "$0")/.."

BASELINE="BENCH_solver.json"
if [[ ! -f "$BASELINE" ]]; then
    echo "bench_regression: missing committed baseline $BASELINE" >&2
    exit 1
fi

RUNTIME_BASELINE="BENCH_runtime.json"
if [[ ! -f "$RUNTIME_BASELINE" ]]; then
    echo "bench_regression: missing committed baseline $RUNTIME_BASELINE" >&2
    exit 1
fi

EPOCHS_BASELINE="BENCH_epochs.json"
if [[ ! -f "$EPOCHS_BASELINE" ]]; then
    echo "bench_regression: missing committed baseline $EPOCHS_BASELINE" >&2
    exit 1
fi

GOSSIP_BASELINE="BENCH_gossip.json"
if [[ ! -f "$GOSSIP_BASELINE" ]]; then
    echo "bench_regression: missing committed baseline $GOSSIP_BASELINE" >&2
    exit 1
fi

FRESH="$(mktemp /tmp/BENCH_solver.fresh.XXXXXX.json)"
RUNTIME_FRESH="$(mktemp /tmp/BENCH_runtime.fresh.XXXXXX.json)"
EPOCHS_FRESH="$(mktemp /tmp/BENCH_epochs.fresh.XXXXXX.json)"
GOSSIP_FRESH="$(mktemp /tmp/BENCH_gossip.fresh.XXXXXX.json)"
trap 'rm -f "$FRESH" "$RUNTIME_FRESH" "$EPOCHS_FRESH" "$GOSSIP_FRESH"' EXIT

cargo run --release -p swiper-bench --bin solver_scale -- \
    --out "$FRESH" --diff "$BASELINE" "$@"

cargo run --release -p swiper-bench --bin runtime_scale -- \
    --ci-smoke --transport both --out "$RUNTIME_FRESH" --diff "$RUNTIME_BASELINE"

cargo run --release -p swiper-bench --bin epochs -- \
    --ci-smoke --quiet --out "$EPOCHS_FRESH" --diff "$EPOCHS_BASELINE"

cargo run --release -p swiper-bench --bin gossip_scale -- \
    --ci-smoke --out "$GOSSIP_FRESH" --diff "$GOSSIP_BASELINE"
