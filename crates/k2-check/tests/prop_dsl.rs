//! Property suite for the scenario DSL parser.
//!
//! Three guarantees: (1) parse ∘ render is the identity on structural
//! content for every checked-in file, (2) malformed input is rejected
//! with a line-numbered error pointing at the offence, and (3) the
//! parser never panics — fuzzed with seeded mutations of the valid
//! corpus, so the mutants stay close to the interesting boundary.

use k2_check::dsl::{self, builtin};

#[test]
fn every_builtin_parses_and_names_match() {
    let defs = builtin::all();
    assert_eq!(defs.len(), builtin::SOURCES.len());
    for name in builtin::GRID {
        let def = builtin::load(name);
        assert!(!def.is_eval(), "{name} must be a grid scenario");
        def.compile().unwrap();
        assert!(
            !def.expects.is_empty(),
            "{name}: migrated scenarios must pin expectations"
        );
    }
}

#[test]
fn parse_render_round_trips_structurally() {
    for (name, src) in builtin::SOURCES {
        let def = dsl::parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let rendered = def.render();
        let reparsed = dsl::parse(&rendered)
            .unwrap_or_else(|e| panic!("{name}: canonical render failed to re-parse: {e}"));
        assert_eq!(reparsed, def, "{name}: round-trip changed the definition");
        // The canonical form is a fixed point.
        assert_eq!(reparsed.render(), rendered, "{name}: render not idempotent");
    }
}

#[test]
fn malformed_files_are_rejected_with_line_numbers() {
    // (source, expected error line, expected message fragment)
    let cases: &[(&str, usize, &str)] = &[
        // Unknown key in a kv block.
        (
            "```k2 scenario\nname: a\nbogus_key: 1\n```\n",
            3,
            "bogus_key",
        ),
        // Bad table arity.
        (
            "```k2 scenario\nname: a\n```\n```k2 grid\n| domain | task | workload | args | salt | metric |\n|---|---|---|---|---|---|\n| weak | t | udp | batch=1K total=2K | 0 |\n```\n",
            7,
            "columns",
        ),
        // Out-of-range knob.
        (
            "```k2 scenario\nname: a\n```\n```k2 faults preset=p\nmail_drop: 2.0\n```\n",
            5,
            "out of range",
        ),
        // Unknown workload kind.
        (
            "```k2 scenario\nname: a\n```\n```k2 grid\n| domain | task | workload | args | salt | metric |\n|---|---|---|---|---|---|\n| weak | t | quic | batch=1K | 0 | m |\n```\n",
            7,
            "quic",
        ),
        // Unknown domain.
        (
            "```k2 scenario\nname: a\n```\n```k2 grid\n| domain | task | workload | args | salt | metric |\n|---|---|---|---|---|---|\n| medium | t | udp | batch=1K total=2K | 0 | m |\n```\n",
            7,
            "medium",
        ),
        // Unterminated fence.
        ("```k2 scenario\nname: a\n", 2, "unterminated"),
        // Duplicate preset.
        (
            "```k2 scenario\nname: a\n```\n```k2 faults preset=p\nmail_drop: 0.1\n```\n```k2 faults preset=p\nmail_drop: 0.2\n```\n",
            7,
            "duplicate",
        ),
        // Reserved preset name.
        (
            "```k2 scenario\nname: a\n```\n```k2 faults preset=none\n```\n",
            4,
            "reserved",
        ),
        // Expect block naming an undeclared preset.
        (
            "```k2 scenario\nname: a\n```\n```k2 steps\n| op | args |\n|---|---|\n| send-mail | from=strong to=weak value=1 |\n```\n```k2 expect preset=ghost\n| metric | value |\n|---|---|\n| m | 1 |\n```\n",
            9,
            "ghost",
        ),
        // Unknown section.
        ("```k2 wibble\n```\n", 1, "wibble"),
        // Unknown step op.
        (
            "```k2 scenario\nname: a\n```\n```k2 steps\n| op | args |\n|---|---|\n| fire-missiles | at=weak |\n```\n",
            7,
            "fire-missiles",
        ),
        // Non-kebab scenario name.
        ("```k2 scenario\nname: CamelCase\n```\n", 2, "kebab"),
        // Fleet: unknown key.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\nwarp: 9\n```\n",
            7,
            "warp",
        ),
        // Fleet: missing required topology keys.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\nburst: 4\n```\n",
            4,
            "devices",
        ),
        // Fleet: zero hubs.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 0\n```\n",
            4,
            "at least 1",
        ),
        // Fleet: loss probability out of range.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\nloss: 1.5\n```\n",
            7,
            "out of range",
        ),
        // Fleet: inverted latency band.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\nlatency_min_us: 9000\nlatency_max_us: 100\n```\n",
            4,
            "latency",
        ),
        // Fleet: duplicate block.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\n```\n```k2 fleet\ndevices: 4\nhubs: 1\n```\n",
            8,
            "duplicate",
        ),
        // Fleet: zero-length epochs.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\nepoch_us: 0\n```\n",
            4,
            "positive",
        ),
        // Fleet: address space overflow.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 70000\nhubs: 2\n```\n",
            4,
            "u16",
        ),
        // Fleet: empty bursts.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\nburst: 0\n```\n",
            4,
            "positive",
        ),
        // Fleet: no bursts at all.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\nbursts: 0\n```\n",
            4,
            "positive",
        ),
        // Fleet: no epochs.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\nepochs: 0\n```\n",
            4,
            "positive",
        ),
        // Fleet: negative reorder probability.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\nreorder: -0.1\n```\n",
            7,
            "out of range",
        ),
        // Fleet: a trace ring with no room.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\ntrace: ring:0\n```\n",
            7,
            "trace",
        ),
        // Fleet: a period past the 64-bit nanosecond clock.
        (
            "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\nperiod_us: 20000000000000000\n```\n",
            7,
            "overflows",
        ),
    ];
    for (src, line, fragment) in cases {
        let err = dsl::parse(src).expect_err(&format!("should reject: {src:?}"));
        assert_eq!(err.line, *line, "wrong line for {src:?}: {err}");
        assert!(
            err.msg.contains(fragment),
            "error for {src:?} should mention `{fragment}`: {err}"
        );
    }
}

#[test]
fn whole_file_validations_fire() {
    // No scenario block at all.
    let err = dsl::parse("just prose\n").unwrap_err();
    assert!(err.msg.contains("k2 scenario"), "{err}");
    // Duplicate metric key across grid and steps.
    let src = "```k2 scenario\nname: a\n```\n```k2 grid\n| domain | task | workload | args | salt | metric |\n|---|---|---|---|---|---|\n| weak | t | udp | batch=1K total=2K | 0 | m |\n| strong | u | udp | batch=1K total=2K | 1 | m |\n```\n";
    let err = dsl::parse(src).unwrap_err();
    assert!(err.msg.contains("duplicate metric"), "{err}");
    // A file cannot be both a workload and an eval.
    let src = "```k2 scenario\nname: a\n```\n```k2 steps\n| op | args |\n|---|---|\n| send-mail | from=strong to=weak value=1 |\n```\n```k2 eval kind=dvfs-sweep\n```\n";
    let err = dsl::parse(src).unwrap_err();
    assert!(err.msg.contains("not both"), "{err}");
    // Compiling an empty scenario is rejected.
    let def = dsl::parse("```k2 scenario\nname: a\n```\n").unwrap();
    assert!(def.compile().unwrap_err().msg.contains("no work"));
    // A fleet file excludes grid/steps workloads...
    let src = "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\n```\n```k2 steps\n| op | args |\n|---|---|\n| send-mail | from=strong to=weak value=1 |\n```\n";
    let err = dsl::parse(src).unwrap_err();
    assert!(err.msg.contains("only the fleet"), "{err}");
    // ...and fault presets (the fabric has its own loss model)...
    let src = "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\n```\n```k2 faults preset=p\nmail_drop: 0.1\n```\n";
    let err = dsl::parse(src).unwrap_err();
    assert!(err.msg.contains("no fault presets"), "{err}");
    // ...and does not compile to a single-machine run.
    let src = "```k2 scenario\nname: a\n```\n```k2 fleet\ndevices: 10\nhubs: 2\n```\n";
    let def = dsl::parse(src).unwrap();
    assert!(def.is_fleet());
    assert!(def.compile().unwrap_err().msg.contains("fleet"));
}

/// A tiny deterministic xorshift — the fuzz loop must not depend on
/// ambient randomness, or failures would not reproduce.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Applies one seeded mutation to a source text.
fn mutate(src: &str, rng: &mut Rng) -> String {
    let lines: Vec<&str> = src.lines().collect();
    if lines.is_empty() {
        // A previous stacked mutation emptied the file; nothing to mutate.
        return src.to_string();
    }
    match rng.below(6) {
        // Delete a random line (often a fence — exercises recovery).
        0 => {
            let i = rng.below(lines.len());
            let mut v = lines.clone();
            v.remove(i);
            v.join("\n")
        }
        // Duplicate a random line.
        1 => {
            let i = rng.below(lines.len());
            let mut v = lines.clone();
            v.insert(i, lines[i]);
            v.join("\n")
        }
        // Replace a random byte with a pipe/colon/backtick (structure
        // characters hit parser branches plain garbage never reaches).
        2 => {
            let mut bytes = src.as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = rng.below(bytes.len());
                bytes[i] = b"|:`=x0"[rng.below(6)];
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Truncate mid-file.
        3 => {
            let mut cut = rng.below(src.len().max(1)).min(src.len());
            while cut > 0 && !src.is_char_boundary(cut) {
                cut -= 1;
            }
            src[..cut].to_string()
        }
        // Swap two lines.
        4 => {
            let (i, j) = (rng.below(lines.len()), rng.below(lines.len()));
            let mut v = lines.clone();
            v.swap(i, j);
            v.join("\n")
        }
        // Inject a bogus kv / table row after a random line.
        _ => {
            let i = rng.below(lines.len());
            let mut v = lines.clone();
            v.insert(i, "zzz: 999999999999999999999999");
            v.join("\n")
        }
    }
}

#[test]
fn fuzzed_mutants_never_panic_and_errors_stay_in_bounds() {
    let mut rng = Rng(0x5eed_2014_4202_cafe);
    for (name, src) in builtin::SOURCES {
        for _ in 0..200 {
            let mut mutant = src.to_string();
            // Stack 1-3 mutations so errors compound.
            for _ in 0..=rng.below(3) {
                mutant = mutate(&mutant, &mut rng);
            }
            match dsl::parse(&mutant) {
                Ok(def) => {
                    // Whatever still parses must still round-trip.
                    let re = dsl::parse(&def.render()).unwrap_or_else(|e| {
                        panic!("{name}: mutant parsed but its render did not: {e}")
                    });
                    assert_eq!(re, def, "{name}: mutant round-trip mismatch");
                }
                Err(e) => {
                    let max = mutant.lines().count().max(1);
                    assert!(
                        e.line >= 1 && e.line <= max,
                        "{name}: error line {} out of bounds 1..={max}",
                        e.line
                    );
                    assert!(!e.msg.is_empty(), "{name}: empty error message");
                }
            }
        }
    }
}
