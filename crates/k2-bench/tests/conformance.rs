//! The seven paper-evaluation tables and figures run from checked-in
//! `.k2.md` files; this suite proves each eval runs from its file and
//! that the in-file expected-results table holds — the same check
//! `k2 <eval>` and the CI matrix job perform, pinned as a cargo test.
//!
//! It also pins `k2 all`'s standard output byte for byte against
//! `tests/golden/k2_all.txt`. `K2_BLESS=1` rewrites the file instead of
//! comparing: `K2_BLESS=1 cargo test -p k2-bench --test conformance`.

use k2_bench::conformance;
use k2_check::dsl::builtin;

const EVALS: [&str; 7] = [
    "dvfs-sweep",
    "standby-estimate",
    "fig1-trend",
    "table2-refactoring",
    "table4-alloc",
    "table5-dsm",
    "table6-shared-driver",
];

#[test]
fn every_eval_scenario_meets_its_expect_table() {
    for name in EVALS {
        let def = builtin::load(name);
        assert!(def.is_eval(), "{name} must be an eval scenario");
        let outcome = conformance::eval_builtin(name);
        let failures = outcome.failures(&def);
        assert!(
            failures.is_empty(),
            "{name}: expectations drifted:\n{}",
            failures
                .iter()
                .map(|(m, want, got)| format!("  {m}: expected {want}, got {got}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        assert!(
            !def.expectations("none", 0).is_empty(),
            "{name}: expect table must not be empty"
        );
    }
}

#[test]
fn eval_text_matches_the_legacy_report_functions() {
    // `k2 <eval>` prints the eval's rendered text (docs quote it
    // verbatim) and then the conformance footer, and exits 0.
    for name in EVALS {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_k2"))
            .arg(name)
            .output()
            .expect("spawn k2");
        assert_eq!(out.status.code(), Some(0), "k2 {name} failed");
        let declared = builtin::load(name).expectations("none", 0).len();
        let want = format!(
            "{}conformance: {declared}/{declared} expectations hold (scenarios/{name}.k2.md)\n",
            conformance::eval_builtin(name).text
        );
        assert_eq!(String::from_utf8_lossy(&out.stdout), want, "k2 {name}");
    }
}

#[test]
fn grid_scenarios_are_not_evals_and_vice_versa() {
    for name in builtin::GRID {
        assert!(!builtin::load(name).is_eval(), "{name} wrongly marked eval");
        assert!(!EVALS.contains(name), "{name} cannot be both grid and eval");
    }
    let fleets = builtin::SOURCES
        .iter()
        .filter(|(name, _)| builtin::load(name).is_fleet())
        .count();
    assert_eq!(
        EVALS.len() + builtin::GRID.len() + fleets,
        builtin::SOURCES.len(),
        "every checked-in scenario is grid, eval, or fleet"
    );
}

/// Table 1, Table 3, Fig 6 a–c, Fig 6 on flash and the three ablations
/// have no expect table of their own, so `k2 all`'s whole report is
/// pinned instead.
#[test]
fn k2_all_output_matches_its_pin() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_k2"))
        .arg("all")
        .output()
        .expect("spawn k2");
    assert_eq!(out.status.code(), Some(0), "k2 all failed");
    let got = String::from_utf8(out.stdout).expect("k2 all prints UTF-8");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/k2_all.txt");
    if std::env::var("K2_BLESS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &got).expect("write the pin");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("no pin at {} ({e})", path.display()));
    assert!(
        got == want,
        "k2 all diverged from {}. If the change is intended, re-bless with \
         K2_BLESS=1 cargo test -p k2-bench --test conformance\n\
         --- pinned ---\n{want}\n--- actual ---\n{got}",
        path.display()
    );
}
