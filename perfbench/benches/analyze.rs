//! `analyze_edit_loop`: a developer loop over a pinned source tree.
//!
//! The tree is the `git archive` of a named commit of this repository,
//! committed under `pinned/`; the live workspace is never analyzed, so
//! a change that adds source does not change this input. Each pass
//! edits one seeded file, then runs `analyze_tree_with` with the file
//! cache on; every [`COLD_EVERY`]-th pass runs with the cache off.
//!
//! The traced loop rebuilds `analyze_tree_with` from the crate's
//! public modules (walk → lex → parse → symbols → callgraph → reach)
//! on an identical twin tree and must return the same analysis.

use crate::util::{ctx, mean, median, secs, timed, Fnv, Res, Rounds};
use crate::{Component, Metrics, Slice, Tally};
use flextract_analyze::cache::{fnv1a, Cache, FileEntry};
use flextract_analyze::{
    allowlist::Allowlist, callgraph, lexer, lints, parser, reach, symbols, walker, Analysis,
    AnalyzeOptions, Finding, Role, SourceFile, LINTS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The commit the analyzed tree was archived from.
pub const PINNED_COMMIT: &str = "16daeb221f45040c63105976677580acd1b6ff68";
/// The archive, as `pin_tree.sh` writes it.
pub const PINNED_ARCHIVE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/pinned/analyze_tree.tar");
/// FNV-1a 64 of the archive bytes.
const PINNED_DIGEST: u64 = 0x946f_ec08_d3c3_06ec;
/// What a clean pass over the pinned tree reports.
const EXPECTED_FILES: usize = 155;
const EXPECTED_SUPPRESSED: usize = 38;
/// Every n-th pass runs with the cache off.
pub const COLD_EVERY: usize = 4;

/// Read and verify the pinned archive, then write its files under
/// `dest`. Fails when the archive is missing, altered, or records
/// another commit.
pub fn extract_pinned(dest: &Path) -> Res<u64> {
    let bytes = std::fs::read(PINNED_ARCHIVE).map_err(|e| {
        format!("the pinned analyze tree {PINNED_ARCHIVE} (commit {PINNED_COMMIT}) is missing: {e}")
    })?;
    let digest = Fnv::of(&bytes);
    if digest != PINNED_DIGEST {
        return Err(format!(
            "{PINNED_ARCHIVE} has digest {digest:016x}, not the pinned {PINNED_DIGEST:016x}"
        ));
    }
    let archive = crate::tar::parse(&bytes)?;
    if archive.commit.as_deref() != Some(PINNED_COMMIT) {
        return Err(format!(
            "{PINNED_ARCHIVE} records commit {:?}, not the pinned {PINNED_COMMIT}",
            archive.commit
        ));
    }
    for entry in &archive.files {
        if entry.path.starts_with('/') || entry.path.split('/').any(|c| c == "..") {
            return Err(format!("archive path `{}` leaves the tree", entry.path));
        }
        let path = dest.join(&entry.path);
        if let Some(parent) = path.parent() {
            ctx(std::fs::create_dir_all(parent), "create a tree directory")?;
        }
        ctx(std::fs::write(&path, &entry.data), "write a tree file")?;
    }
    Ok(digest)
}

/// One copy of the tree with its own cache file.
struct Tree {
    root: PathBuf,
    cache: PathBuf,
}

impl Tree {
    fn opts(&self, cold: bool) -> AnalyzeOptions {
        AnalyzeOptions {
            cache_path: (!cold).then(|| self.cache.clone()),
        }
    }
}

/// The `analyze_edit_loop` component.
pub struct Analyze {
    tree: Tree,
    /// Identical tree and cache for the traced rebuild.
    twin: Option<Tree>,
    allowlist: Allowlist,
    /// Editable Rust files: relative path and pinned contents.
    files: Vec<(String, Vec<u8>)>,
    rng: StdRng,
    pass: usize,
    /// Findings of the latest cache-off pass.
    cold_findings: Vec<Finding>,
    inject_fault: bool,
    warm_ms: Rounds,
    cold_ms: Rounds,
    /// Per traced pass: untraced wall, traced wall, traced spans.
    spans: Vec<(f64, f64, Spans)>,
}

/// Extract the pinned tree (twice when traced), check a cache-off pass
/// and prime the cache. Returns the component and the archive digest.
pub fn setup(seed: u64, dir: &Path, traced: bool) -> Res<(Analyze, u64)> {
    let make = |name: &str| -> Res<(Tree, u64)> {
        let root = dir.join(name);
        let digest = extract_pinned(&root)?;
        let cache = dir.join(format!("{name}.cache"));
        Ok((Tree { root, cache }, digest))
    };
    let (tree, digest) = make("tree")?;
    let allowlist = ctx(
        flextract_analyze::load_allowlist(&tree.root),
        "load the pinned analyze.toml",
    )?;
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    for f in ctx(walker::walk(&tree.root), "walk the pinned tree")? {
        if f.rel.ends_with(".rs") {
            files.push((f.rel, ctx(std::fs::read(&f.path), "read a tree file")?));
        }
    }
    let mut a = Analyze {
        tree,
        twin: None,
        allowlist,
        files,
        rng: StdRng::seed_from_u64(seed ^ 0xA7A1),
        pass: 0,
        cold_findings: Vec::new(),
        inject_fault: false,
        warm_ms: Rounds::default(),
        cold_ms: Rounds::default(),
        spans: Vec::new(),
    };
    let cold = a.analyze(&a.tree, true)?;
    if !a.clean(&cold) {
        return Err(format!(
            "the pinned tree does not analyze clean: {} finding(s), {} suppressed, {} file(s)",
            cold.findings.len(),
            cold.suppressed,
            cold.files_scanned
        ));
    }
    a.cold_findings = cold.findings;
    a.analyze(&a.tree, false)?;
    if traced {
        let (twin, _) = make("tree_twin")?;
        a.analyze(&twin, false)?;
        a.twin = Some(twin);
    }
    Ok((a, digest))
}

impl Analyze {
    fn analyze(&self, tree: &Tree, cold: bool) -> Res<Analysis> {
        flextract_analyze::analyze_tree_with(&tree.root, &self.allowlist, &tree.opts(cold))
    }

    fn clean(&self, a: &Analysis) -> bool {
        a.findings.is_empty()
            && a.suppressed == EXPECTED_SUPPRESSED
            && a.files_scanned == EXPECTED_FILES
    }

    /// Edit one seeded file (in the twin too): its pinned contents
    /// plus a comment naming the pass. Returns whether this pass runs
    /// with the cache off.
    fn edit(&mut self) -> Res<bool> {
        self.pass += 1;
        let k = self.rng.gen_range(0..self.files.len());
        let (rel, original) = &self.files[k];
        let mut text = original.clone();
        text.extend_from_slice(format!("\n// edit {}\n", self.pass).as_bytes());
        for tree in std::iter::once(&self.tree).chain(&self.twin) {
            ctx(
                std::fs::write(tree.root.join(rel), &text),
                "edit a tree file",
            )?;
        }
        Ok(self.pass.is_multiple_of(COLD_EVERY))
    }

    /// Check one pass: clean, and — cached or not — the findings of
    /// the latest cache-off pass.
    fn check(&mut self, a: &Analysis, cold: bool, tally: &mut Tally) {
        if cold {
            self.cold_findings = a.findings.clone();
        }
        let wrong = std::mem::take(&mut self.inject_fault);
        tally.record(self.clean(a) && a.findings == self.cold_findings && !wrong);
    }

    /// One untraced pass: (cold, wall seconds).
    fn pass(&mut self, tally: &mut Tally) -> Res<(bool, f64, Option<Analysis>)> {
        let cold = self.edit()?;
        let t = Instant::now();
        let out = self.analyze(&self.tree, cold);
        let wall = secs(t);
        match out {
            Ok(a) => {
                self.check(&a, cold, tally);
                Ok((cold, wall, Some(a)))
            }
            Err(_) => {
                tally.record(false);
                Ok((cold, wall, None))
            }
        }
    }
}

impl Component for Analyze {
    fn inject_fault(&mut self) {
        self.inject_fault = true;
    }

    fn run(&mut self, slice: Slice, tally: &mut Tally) -> Res<()> {
        let start = Instant::now();
        loop {
            let (cold, wall, expected) = self.pass(tally)?;
            if cold {
                self.cold_ms.push(slice.round, wall * 1e3);
            } else {
                self.warm_ms.push(slice.round, wall * 1e3);
            }
            if let Some(twin) = &self.twin {
                let mut spans = Spans::default();
                let t = Instant::now();
                let rebuilt = rebuild(
                    &twin.root,
                    &self.allowlist,
                    (!cold).then_some(twin.cache.as_path()),
                    &mut spans,
                );
                self.spans.push((wall, secs(t), spans));
                let same = match (rebuilt, expected) {
                    (Ok(r), Some(e)) => {
                        r.findings == e.findings
                            && r.suppressed == e.suppressed
                            && r.files_scanned == e.files_scanned
                            && r.files_reparsed == e.files_reparsed
                    }
                    _ => false,
                };
                tally.record(same);
            }
            // Traced rounds end on whole edit cycles, so cache-off
            // passes keep their share of the per-pass means.
            let whole = self.twin.is_none() || self.pass.is_multiple_of(COLD_EVERY);
            if secs(start) >= slice.budget && whole {
                return Ok(());
            }
        }
    }

    fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        if self.twin.is_none() {
            m.insert("analyze_ms_p50", self.warm_ms.p50());
            m.insert("analyze_cold_ms_p50", self.cold_ms.p50());
            m.insert("samples.analyze_ms", self.warm_ms.len() as f64);
            m.insert("samples.analyze_cold_ms", self.cold_ms.len() as f64);
            return m;
        }
        let traced = &self.spans;
        let ms = |f: &dyn Fn(&Spans) -> f64| {
            mean(
                &traced
                    .iter()
                    .map(|(_, _, s)| f(s) * 1e3)
                    .collect::<Vec<_>>(),
            )
        };
        // Each traced pass runs right after its untraced twin; ratios
        // within those pairs cancel the host's slower drifts.
        let paired = |f: &dyn Fn(&(f64, f64, Spans)) -> f64| {
            median(&traced.iter().map(f).collect::<Vec<_>>())
        };
        m.insert("analyze.walk_ms", ms(&|s| s.walk));
        m.insert("analyze.cache_ms", ms(&|s| s.cache));
        m.insert("analyze.lex_ms", ms(&|s| s.lex));
        m.insert("analyze.parse_ms", ms(&|s| s.parse));
        m.insert("analyze.symbols_ms", ms(&|s| s.symbols));
        m.insert("analyze.callgraph_ms", ms(&|s| s.callgraph));
        m.insert("analyze.reach_ms", ms(&|s| s.reach));
        m.insert("analyze.other_ms", ms(&|s| s.other));
        m.insert("analyze.files_reparsed", ms(&|s| s.reparsed as f64) / 1e3);
        m.insert("trace.coverage", paired(&|(u, _, s)| s.covered() / u));
        m.insert("trace.overhead", paired(&|(u, t, _)| t / u - 1.0));
        m
    }
}

/// Seconds one traced pass spent per stage.
#[derive(Debug, Default)]
struct Spans {
    walk: f64,
    cache: f64,
    lex: f64,
    parse: f64,
    symbols: f64,
    callgraph: f64,
    reach: f64,
    /// Reading and hashing files, cache-hit reuse, suppression,
    /// sorting and freeing the pass's tables.
    other: f64,
    reparsed: usize,
}

impl Spans {
    fn covered(&self) -> f64 {
        self.walk
            + self.cache
            + self.lex
            + self.parse
            + self.symbols
            + self.callgraph
            + self.reach
            + self.other
    }
}

/// `analyze_tree_with`, rebuilt from the crate's public modules with
/// every stage timed.
fn rebuild(
    root: &Path,
    allowlist: &Allowlist,
    cache_path: Option<&Path>,
    s: &mut Spans,
) -> Res<Analysis> {
    let files = timed(&mut s.walk, || walker::walk(root))?;
    let old_cache = timed(&mut s.cache, || match cache_path {
        Some(path) => Cache::load(path),
        None => Cache::default(),
    });
    let mut new_cache = Cache::default();
    let mut findings = Vec::new();
    let mut parsed_files: Vec<(String, parser::ParsedFile)> = Vec::new();
    let mut scanned = 0;
    for file in &files {
        scanned += 1;
        let t = Instant::now();
        let bytes = ctx(std::fs::read(&file.path), "read a tree file")?;
        let hash = fnv1a(&bytes);
        if let Some(entry) = old_cache.entries.get(&file.rel) {
            if entry.hash == hash {
                findings.extend(entry.lexical.iter().cloned());
                if let Some(parsed) = &entry.parsed {
                    parsed_files.push((file.rel.clone(), parsed.clone()));
                }
                new_cache.entries.insert(file.rel.clone(), entry.clone());
                s.other += secs(t);
                continue;
            }
        }
        s.reparsed += 1;
        let src = String::from_utf8(bytes).map_err(|_| format!("{} is not UTF-8", file.rel))?;
        s.other += secs(t);
        let mut lexical = Vec::new();
        let parsed = scan_file(file, &src, &mut lexical, s);
        let t = Instant::now();
        findings.extend(lexical.iter().cloned());
        if let Some(parsed) = &parsed {
            parsed_files.push((file.rel.clone(), parsed.clone()));
        }
        new_cache.entries.insert(
            file.rel.clone(),
            FileEntry {
                hash,
                parsed,
                lexical,
            },
        );
        s.other += secs(t);
    }
    let table = timed(&mut s.symbols, || symbols::build(&parsed_files));
    let graph = timed(&mut s.callgraph, || callgraph::build(&table));
    timed(&mut s.reach, || findings.extend(reach::run(&table, &graph)));
    if let Some(path) = cache_path {
        timed(&mut s.cache, || {
            let _ = new_cache.save(path);
        });
    }
    let (kept, suppressed) = timed(&mut s.other, || {
        let (mut kept, suppressed) = allowlist.apply(findings);
        kept.sort_by_key(|f| f.sort_key());
        (kept, suppressed)
    });
    // Freeing the pass's tables is part of its cost.
    timed(&mut s.other, || {
        drop((old_cache, new_cache, parsed_files, table, graph))
    });
    Ok(Analysis {
        findings: kept,
        suppressed,
        files_scanned: scanned,
        files_reparsed: s.reparsed,
    })
}

/// The per-file lexical scan and item parse (`lex` and `parse`
/// stages).
fn scan_file(
    file: &SourceFile,
    src: &str,
    findings: &mut Vec<Finding>,
    s: &mut Spans,
) -> Option<parser::ParsedFile> {
    let t = Instant::now();
    let name = file.rel.rsplit('/').next().unwrap_or(&file.rel);
    if name == "Cargo.toml" {
        scan_vendor_manifest(file, src, findings);
        s.lex += secs(t);
        return None;
    }
    if file.role == Role::Vendor && name == "build.rs" {
        findings.push(Finding {
            file: file.rel.clone(),
            line: 1,
            col: 1,
            lint: "vendor-hygiene".into(),
            message: "vendored stand-in carries a build script — build-time code execution \
                      is outside the offline supply-chain discipline"
                .into(),
            suggestion: "vendored crates must build from plain sources; inline whatever the \
                         script generated"
                .into(),
            ..Finding::default()
        });
    }
    let code = lexer::mask_tests(&lexer::mask_code(src));
    for lint in LINTS {
        if !lint.applies(file.role, &file.rel) {
            continue;
        }
        for &pat in lint.patterns {
            for offset in lints::find_matches(&code, pat) {
                let (line, col) = lexer::line_col(src, offset);
                findings.push(Finding {
                    file: file.rel.clone(),
                    line,
                    col,
                    lint: lint.id.into(),
                    message: lint.message.into(),
                    suggestion: lint.suggestion.into(),
                    excerpt: lexer::line_text(src, offset).to_string(),
                    ..Finding::default()
                });
            }
        }
    }
    forbid_unsafe_check(file, &code, findings);
    s.lex += secs(t);
    let wants_graph =
        matches!(file.role, Role::Library | Role::Binary) && file.rel.ends_with(".rs");
    wants_graph.then(|| timed(&mut s.parse, || parser::parse_file(src, &code)))
}

fn forbid_unsafe_check(file: &SourceFile, code: &str, findings: &mut Vec<Finding>) {
    let is_crate_root = file.role == Role::Library
        && (file.rel == "src/lib.rs"
            || (file.rel.starts_with("crates/") && file.rel.ends_with("/src/lib.rs")));
    if !is_crate_root {
        return;
    }
    let normalized: String = code.split_whitespace().collect();
    if !normalized.contains("#![forbid(unsafe_code)]") {
        findings.push(Finding {
            file: file.rel.clone(),
            line: 1,
            col: 1,
            lint: "forbid-unsafe".into(),
            message: "library crate root does not forbid unsafe code".into(),
            suggestion: "add `#![forbid(unsafe_code)]` to the crate root".into(),
            ..Finding::default()
        });
    }
}

fn scan_vendor_manifest(file: &SourceFile, src: &str, findings: &mut Vec<Finding>) {
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let build_script = line
            .split_once('=')
            .is_some_and(|(k, _)| k.trim() == "build");
        if build_script || line == "[build-dependencies]" {
            findings.push(Finding {
                file: file.rel.clone(),
                line: idx + 1,
                col: 1,
                lint: "vendor-hygiene".into(),
                message: "vendored manifest declares a build script or build-dependencies".into(),
                suggestion: "vendored crates must build from plain sources with no \
                             build-time code execution"
                    .into(),
                excerpt: raw.trim().to_string(),
                ..Finding::default()
            });
        }
    }
}
