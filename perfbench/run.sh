#!/usr/bin/env bash
# Builds the benchmark and runs it; the arguments go to the benchmark
# (see README.md). `bash perfbench/run.sh test` runs its unit tests.
#
# Run from the repository root. The benchmark is built in a staged copy
# of the workspace, .bench_build/stage: the root manifest with perfbench
# added as a member, next to copies of crates/ and perfbench/. Every
# crate is then a member of one workspace, so Cargo hashes their paths
# relative to the workspace root, and the binary, its code layout
# included, does not depend on where the checkout lives. (Built from
# checkouts at different paths, the toolchain's hot loops landed at
# different alignments and ran up to ~20% apart.) The copies keep their
# modification times, so an unchanged tree is not rebuilt.
set -euo pipefail

for need in Cargo.toml Cargo.lock BENCHMARK.json crates perfbench/Cargo.toml; do
    if [ ! -e "$need" ]; then
        echo "perfbench: run from the repository root ($need is missing)" >&2
        exit 2
    fi
done

stage=.bench_build/stage
mkdir -p "$stage"
rm -rf "$stage/crates" "$stage/perfbench"
cp -Rp crates perfbench "$stage/"
cp -p BENCHMARK.json "$stage/"
# Cargo adds the benchmark's own entry to the staged lock file; copy the
# root one only when it changed, so that entry survives between runs.
if ! cmp -s Cargo.lock "$stage/Cargo.lock.root"; then
    cp -p Cargo.lock "$stage/Cargo.lock.root"
    cp -p Cargo.lock "$stage/Cargo.lock"
fi
sed 's/^members = \[/members = [\n    "perfbench",/' Cargo.toml >"$stage/Cargo.toml.new"
if ! grep -q '"perfbench",' "$stage/Cargo.toml.new"; then
    echo "perfbench: no 'members = [' line in Cargo.toml to add the benchmark to" >&2
    exit 2
fi
# Replace the manifest only when it changed: its time stamp is part of
# Cargo's freshness check.
if cmp -s "$stage/Cargo.toml.new" "$stage/Cargo.toml"; then
    rm "$stage/Cargo.toml.new"
else
    mv "$stage/Cargo.toml.new" "$stage/Cargo.toml"
fi

if [ "${1-}" = test ]; then
    exec cargo test --release --quiet --offline --manifest-path "$stage/Cargo.toml" -p patmos-perfbench
fi
exec cargo run --release --quiet --offline --manifest-path "$stage/Cargo.toml" -p patmos-perfbench -- "$@"
