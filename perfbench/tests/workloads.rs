//! Every workload at test size: runs end to end with every op checked,
//! turns an injected wrong answer into a failed op, and reports the
//! traced run's coverage.

use flextract_perfbench::{run, Options, Outcome, Scale, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;

fn options(workload: Workload, trace: bool, inject_fault: bool) -> Options {
    let tag = format!(
        "{}-{}-{}",
        workload.name(),
        u8::from(trace),
        u8::from(inject_fault)
    );
    Options {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scales: (Scale::Tiny, Scale::Tiny),
        setup_reps: 2,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag),
        inject_fault,
    }
}

fn metric(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|(_, v, _)| *v)
        .unwrap_or_else(|| panic!("no metric {name}"))
}

fn run_clean(workload: Workload, trace: bool) -> Outcome {
    let opts = options(workload, trace, false);
    let outcome = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert!(!opts.work_dir.exists(), "the work directory is left behind");
    assert!(outcome.tally.attempted > 0);
    assert_eq!(outcome.tally.failed, 0, "{}", workload.name());
    let catalogue = if trace { PER_LAYER } else { END_TO_END };
    assert_eq!(outcome.metrics.len(), catalogue.len());
    for (name, value, _) in &outcome.metrics {
        assert!(value.is_finite(), "{name} = {value}");
    }
    outcome
}

#[test]
fn every_workload_runs_end_to_end_with_every_metric() {
    for workload in Workload::ALL {
        let outcome = run_clean(workload, false);
        for (name, value, _) in &outcome.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", workload.name());
        }
        let line = outcome.result_json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );
    }
}

#[test]
fn traced_runs_cover_their_wall_time() {
    for workload in Workload::ALL {
        let outcome = run_clean(workload, true);
        let coverage = metric(&outcome, "trace.coverage");
        assert!(
            coverage > 0.5 && coverage < 1.5,
            "{}: coverage {coverage}",
            workload.name()
        );
        assert!(metric(&outcome, "trace.overhead").is_finite());
    }
    // The simulated fleet runs as a part of `store_serve`.
    let sim = run_clean(Workload::StoreServe, true);
    assert!(metric(&sim, "sim.consumers") > 0.0);
    assert!(metric(&sim, "sim.simulate_ms") > 0.0);
}

#[test]
fn an_injected_wrong_answer_is_a_failed_op() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&options(workload, trace, true)).expect("runs");
            assert_eq!(outcome.tally.failed, 1, "{} trace={trace}", workload.name());
            assert!(outcome.result_json().starts_with("{\"correct\": false"));
        }
    }
}

#[test]
fn the_pinned_archive_names_its_commit() {
    let bytes = std::fs::read(flextract_perfbench::analyze::PINNED_ARCHIVE).expect("archive");
    let archive = flextract_perfbench::tar::parse(&bytes).expect("parses");
    assert_eq!(
        archive.commit.as_deref(),
        Some(flextract_perfbench::analyze::PINNED_COMMIT)
    );
    assert!(archive.files.iter().any(|f| f.path == "analyze.toml"));
}

#[test]
fn tail_quantile_keeps_ten_samples_beyond_it() {
    use flextract_perfbench::util::{percentile, tail_quantile};
    assert_eq!(tail_quantile(5000), 0.99);
    assert!((tail_quantile(200) - 0.95).abs() < 1e-12);
    assert_eq!(tail_quantile(12), 0.5);
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.5), 50.0);
    assert_eq!(percentile(&xs, 0.9), 90.0);
}

#[test]
fn percentiles_are_averaged_over_windows_of_rounds() {
    use flextract_perfbench::util::Rounds;
    // A slow round and a fast one, each a window of its own.
    let mut rounds = Rounds::default();
    for v in [20.0, 21.0, 22.0, 23.0, 24.0] {
        rounds.push(0, v);
    }
    for v in [10.0, 11.0, 12.0, 13.0, 14.0] {
        rounds.push(1, v);
    }
    assert_eq!(rounds.p50(), 17.0);
    // One sample per round: rounds merge into windows of at least
    // five, and the short remainder joins the last window.
    let mut sparse = Rounds::default();
    for round in 0..7 {
        sparse.push(round, round as f64);
    }
    assert_eq!(sparse.len(), 7);
    assert_eq!(sparse.p50(), 3.0);
    assert_eq!(Rounds::default().p50(), 0.0);
}
