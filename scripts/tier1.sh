#!/usr/bin/env bash
# Tier-1 gate: everything a commit must pass, with no network access.
#
#   build (release)  ->  tests  ->  clippy (deny warnings)
#
# The benchmark (`perfbench/`, its own package) has a self-test that CI
# runs separately.
#
# Usage: scripts/tier1.sh   (from the repo root or anywhere inside it)

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier1: release build =="
cargo build --release --offline --workspace

echo "== tier1: tests =="
cargo test --offline --workspace --quiet

echo "== tier1: clippy (deny warnings) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier1: OK =="
