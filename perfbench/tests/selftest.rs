//! The benchmark's self-test: every workload at a tiny size.

use k2_perfbench::{run, Config, Workload, END_TO_END, PER_LAYER};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_k2-perfbench");

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.05,
        trace,
        tiny: true,
        root: Config::default_root(),
        exe: PathBuf::from(EXE),
    }
}

/// Layer metrics each workload prints beyond the common ones.
fn own_layers(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::SyncStorm | Workload::RushHour => &[
            "fleet.run_ms",
            "fleet.idle_ns_per_machine_epoch",
            "fleet.busy_ns_per_event",
            "fleet.allocs_per_machine_epoch",
            "fleet.events_per_machine_epoch",
            "fabric.route_ns",
            "fabric.routed",
            "fabric.dropped",
            "fabric.reordered",
        ],
        Workload::Campaign => &[
            "scenario.run_us",
            "scenario.allocs",
            "queue.choice_points",
            "span.share",
            "explorer.driver_share",
        ],
        Workload::Conformance => &["scenario.run_us", "report.render_us"],
    }
}

#[test]
fn every_workload_prints_every_metric_with_its_unit() {
    for trace in ["0", "1"] {
        let out = Command::new(EXE)
            .args(["--workload", "all", "--seconds", "0.05", "--tiny"])
            .args(["--trace", trace])
            .output()
            .expect("benchmark runs");
        let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
        assert!(
            out.status.success(),
            "trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let result = stdout.lines().last().expect("a result line");
        assert!(result.starts_with("{\"correct\": true, \"attempted\": "));
        let blocks: Vec<&str> = stdout.split("# k2-perfbench ").skip(1).collect();
        assert_eq!(blocks.len(), Workload::ALL.len());
        let named: &[(&str, &str)] = if trace == "1" {
            &PER_LAYER
        } else {
            &END_TO_END
        };
        for (w, block) in Workload::ALL.into_iter().zip(blocks) {
            assert!(block.starts_with(&format!("workload={} ", w.name())));
            assert!(block.contains(" nproc=") && block.contains(" profile="));
            for (name, unit) in named {
                let json = format!("\"{}.{name}\": {{\"value\": ", w.name());
                assert!(result.contains(&json), "no {json} in {result}");
                assert!(
                    block
                        .lines()
                        .any(|l| l.starts_with(&format!("{name} = ")) && l.contains(unit)),
                    "{}: {name} is not printed with {unit}:\n{block}",
                    w.name()
                );
            }
            let own: &[&str] = if trace == "1" {
                own_layers(w)
            } else {
                &["failure_rate"]
            };
            for name in own {
                assert!(
                    block.lines().any(|l| l.starts_with(&format!("{name} = "))),
                    "{}: {name} is not printed:\n{block}",
                    w.name()
                );
            }
        }
        if trace == "1" {
            assert!(stdout.lines().any(|l| l.starts_with("trace.overhead_s = ")));
        }
    }
}

/// Copies the inputs the benchmark reads into a scratch root.
fn copy_inputs(dst: &Path) {
    let src = Config::default_root();
    for dir in ["scenarios", "perfbench"] {
        std::fs::create_dir_all(dst.join(dir)).expect("scratch dir");
        for entry in std::fs::read_dir(src.join(dir)).expect("input dir") {
            let path = entry.expect("dir entry").path();
            if path.to_string_lossy().ends_with(".k2.md") {
                std::fs::copy(&path, dst.join(dir).join(path.file_name().expect("name")))
                    .expect("copy input");
            }
        }
    }
}

#[test]
fn a_wrong_expectation_is_counted_as_a_failure_not_a_panic() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-expectation");
    copy_inputs(&root);
    let file = root.join("scenarios").join("mail-race.k2.md");
    let src = std::fs::read_to_string(&file).expect("mail-race source");
    assert!(src.contains("| mailrace.last | b0b00002 |"));
    std::fs::write(
        &file,
        src.replace(
            "| mailrace.last | b0b00002 |",
            "| mailrace.last | deadbeef |",
        ),
    )
    .expect("plant the wrong expectation");

    let mut cfg = tiny(Workload::Conformance, 2014, false);
    cfg.root = root;
    let report = run(&cfg).expect("a failed check is a result, not an error");
    assert!(!report.correct());
    assert!(report.checks.failed > 0);
    assert!(report.checks.failed < report.checks.attempted);
    assert!(report.checks.failure_rate() > 0.0);
    assert!(report
        .result_line()
        .starts_with("{\"correct\": false, \"attempted\": "));
    assert!(report.lines.iter().any(|l| l.contains("mail-race")));
}

#[test]
fn traced_spans_nest_inside_their_parents_and_share_one_run_id() {
    for w in Workload::ALL {
        let report = run(&tiny(w, 7, true)).expect("traced run");
        assert!(
            report.correct(),
            "{}: {:?}",
            w.name(),
            report.checks.failures
        );
        let spans = report.tracer.spans();
        assert!(spans.len() > 10, "{}: only {} spans", w.name(), spans.len());
        let by_id: HashMap<u32, _> = spans.iter().map(|s| (s.id, s)).collect();
        let run_id = spans[0].run_id;
        for s in spans {
            assert_eq!(
                s.run_id,
                run_id,
                "{}: span {} left the run",
                w.name(),
                s.name
            );
            assert!(s.start_ns <= s.end_ns);
            if s.parent != 0 {
                let p = by_id[&s.parent];
                assert!(
                    p.start_ns <= s.start_ns && s.end_ns <= p.end_ns,
                    "{}: {} escapes its parent {}",
                    w.name(),
                    s.name,
                    p.name
                );
            }
        }
        let chrome = report.tracer.chrome_trace();
        assert!(chrome.starts_with("{\"traceEvents\":["));
        assert_eq!(chrome.matches("\"ph\":\"X\"").count(), spans.len());
    }
}
