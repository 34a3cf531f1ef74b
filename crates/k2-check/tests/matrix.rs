//! Determinism contract for the conformance matrix.
//!
//! The merge is strict index-order, so the summary digest — and the
//! full JSONL byte stream — must be invariant across worker counts,
//! and any single cell re-run by coordinate must reproduce the cell
//! from the full matrix byte-for-byte.

use k2_check::dsl::builtin;
use k2_check::matrix::{MatrixSpec, CI_SEEDS};

/// The committed CI matrix digest. It folds every cell's summary line,
/// and a full cell's line carries the hash of its rendered profile
/// report, so this constant pins the report bytes of every full cell
/// along with the end states and expectation checks.
const CI_MATRIX_DIGEST: u64 = 0xd4de2da9df2a868a;

/// A small spec (two grid scenarios, both CI seeds) — big enough to
/// exercise fan-out across several workers, small enough to run three
/// times in a test.
fn small_spec(workers: usize) -> MatrixSpec {
    MatrixSpec {
        defs: vec![builtin::load("mail-race"), builtin::load("dma-fanout")],
        seeds: CI_SEEDS.to_vec(),
        walks: 1,
        lite: true,
        workers,
    }
}

#[test]
fn digest_and_jsonl_are_invariant_across_worker_counts() {
    let base = small_spec(1).run();
    assert!(
        base.passed(),
        "baseline matrix must pass:\n{}",
        base.render_markdown()
    );
    let base_jsonl = base.render_jsonl();
    for workers in [2, 8] {
        let out = small_spec(workers).run();
        assert_eq!(
            out.digest, base.digest,
            "digest drifted at {workers} workers"
        );
        assert_eq!(
            out.render_jsonl(),
            base_jsonl,
            "JSONL bytes drifted at {workers} workers"
        );
    }
}

#[test]
fn single_cell_rerun_reproduces_the_full_matrix_cell() {
    let spec = small_spec(2);
    let full = spec.run();
    // Probe a spread of coordinates: first, last, and one mid-matrix
    // fault-preset cell.
    let picks: Vec<usize> = vec![0, full.cells.len() / 2, full.cells.len() - 1];
    for i in picks {
        let cell = &full.cells[i];
        let id = cell.coord.id();
        let rerun = spec
            .run_cell(&id)
            .unwrap_or_else(|| panic!("run_cell({id}) found no such coordinate"));
        assert_eq!(
            rerun.summary_line(),
            cell.summary_line(),
            "cell {id} did not reproduce"
        );
    }
}

#[test]
fn unknown_cell_coordinates_are_rejected() {
    let spec = small_spec(1);
    assert!(spec.run_cell("mail-race:2014:none:baseline:nope").is_none());
    assert!(spec
        .run_cell("no-such-scenario:2014:none:baseline:full")
        .is_none());
    assert!(spec.run_cell("garbage").is_none());
}

#[test]
fn ci_spec_covers_every_builtin_grid_scenario_and_both_seeds() {
    let spec = MatrixSpec::ci();
    let cells = spec.cells();
    for name in builtin::GRID {
        for seed in CI_SEEDS {
            assert!(
                cells.iter().any(|c| c.scenario == *name && c.seed == seed),
                "CI matrix missing {name} at seed {seed}"
            );
        }
    }
    // Every cell id is unique — the coordinate is a real key.
    let mut ids: Vec<String> = cells.iter().map(|c| c.id()).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), cells.len(), "duplicate cell coordinates");
}

#[test]
fn ci_matrix_digest_is_pinned() {
    let mut spec = MatrixSpec::ci();
    spec.workers = 1;
    let out = spec.run();
    assert!(
        out.passed(),
        "CI matrix must pass:\n{}",
        out.render_markdown()
    );
    assert_eq!(
        out.digest, CI_MATRIX_DIGEST,
        "pinned CI matrix digest drifted: got {:016x}",
        out.digest
    );
}
