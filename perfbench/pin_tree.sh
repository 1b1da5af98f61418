#!/bin/sh
# Re-pin the source tree the analyze_edit_loop workload analyzes.
#
#   perfbench/pin_tree.sh <commit>
#
# Run from the repository root. Writes perfbench/pinned/analyze_tree.tar,
# the `git archive` of <commit> restricted to what the lint engine reads
# (Rust sources, vendored manifests, analyze.toml). git records the
# commit id in the archive; the benchmark refuses an archive whose
# commit or digest differs from the ones pinned in benches/analyze.rs,
# so update PINNED_COMMIT, PINNED_DIGEST and the expected counts there
# after re-pinning.
set -eu
commit=${1:?usage: perfbench/pin_tree.sh <commit>}
git rev-parse --verify --quiet "$commit^{commit}" >/dev/null || {
    echo "pin_tree.sh: commit $commit is not in this repository" >&2
    exit 1
}
git archive --format=tar "$commit" -- analyze.toml ':(glob)**/*.rs' \
    ':(glob)vendor/*/Cargo.toml' ':(exclude)tests/golden' \
    ':(exclude,glob)**/fixtures/**' >perfbench/pinned/analyze_tree.tar
echo "pinned $(git rev-parse "$commit^{commit}")"
