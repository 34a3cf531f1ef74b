//! Forked and booted runs of the `scenarios/*.k2.md` grid files are
//! equivalent under the files' own fault presets. The conformance matrix
//! forks one frozen image per cell, so every preset a file declares, on
//! every CI seed, must give a fork byte-identical to a fresh boot of the
//! same cell. Fault-free forks are pinned in
//! `crates/k2-check/tests/snapshot.rs`.

use k2_check::dsl::builtin;
use k2_check::matrix::CI_SEEDS;
use k2_check::{RunOptions, Scenario};

#[test]
fn forked_dsl_runs_match_booted_dsl_runs() {
    let snap = Scenario::boot_snapshot();
    for name in builtin::GRID {
        let def = builtin::load(name);
        let compiled = def.compile().unwrap();
        let presets = def.preset_names();
        assert!(
            presets.len() > 1,
            "{name}: grid files must declare at least one fault preset"
        );
        for preset in presets.iter().filter(|p| *p != "none") {
            for seed in CI_SEEDS {
                let spec = def.fault_spec(preset, seed).unwrap();
                assert!(!spec.is_nop(), "{name}: preset `{preset}` is empty");
                let booted = compiled.run_with(&spec, None, RunOptions::full());
                let forked = compiled.run_forked(&snap, &spec, None, RunOptions::full());
                let cell = format!("{name} preset {preset} seed {seed}");
                assert_eq!(booted.report_json, forked.report_json, "{cell}");
                assert_eq!(
                    booted.end_state.entries(),
                    forked.end_state.entries(),
                    "{cell}"
                );
                assert_eq!(booted.events, forked.events, "{cell}");
                assert_eq!(booted.choice_points, forked.choice_points, "{cell}");
            }
        }
    }
}
