//! The meta-test: the committed tree must pass its own lint gate.
//!
//! This is the same check CI runs via `flextract analyze`, pinned as a
//! plain `cargo test` so the gate cannot be forgotten when the CI
//! config drifts.

use flextract_analyze::{analyze_tree, load_allowlist};
use std::path::Path;

#[test]
fn committed_tree_has_zero_unsuppressed_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let allowlist = load_allowlist(&root).expect("analyze.toml must parse");
    let analysis = analyze_tree(&root, &allowlist).expect("workspace must scan");
    assert!(
        analysis.is_clean(),
        "the committed tree has unsuppressed findings — fix them or add a \
         justified suppression to analyze.toml:\n{}",
        analysis.render_text()
    );
    // The gate actually looked at the workspace, and every suppression
    // in analyze.toml is still earning its keep (unused entries would
    // have surfaced as unused-suppression findings above).
    assert!(analysis.files_scanned > 100, "{}", analysis.files_scanned);
    assert!(analysis.suppressed > 0, "{}", analysis.suppressed);
    // The suppression budget is a ratchet. The pattern-scan era excused
    // 47 occurrences; the committed tree excuses 32. A path-scoped entry
    // silently absorbs new unchecked sites in its file, so growth must
    // show up here and be argued for; lower the bound as it shrinks.
    assert!(analysis.suppressed <= 32, "{}", analysis.suppressed);
}
