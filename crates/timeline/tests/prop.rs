//! Property tests over randomized machine runs.
//!
//! Each case drives a live [`Machine`] through a random schedule of
//! compute charges and (sub)group collectives under a scoped
//! [`TimelineBuilder`], then checks the analyzer's core invariants:
//!
//! * the replica cost meters agree with the machine **bit-for-bit**;
//! * the critical path folds to the makespan **bit-for-bit**;
//! * the identity what-if reproduces the makespan **bit-for-bit**;
//! * every shrinking edit (scales in `[0, 1]`, `zero:*`, `overlap`)
//!   is monotone non-increasing;
//! * the `timeline.json` document round-trips exactly.

use mfbc_conformance::rng::SplitMix64;
use mfbc_conformance::suite::property;
use mfbc_machine::{CollectiveKind, Group, Machine, MachineSpec};
use mfbc_timeline::{
    analyze, critical_path, doc, evaluate, parse_timeline, report, to_json, Timeline,
    TimelineBuilder, WhatIf,
};
use mfbc_trace::scoped;
use std::sync::Arc;

const KINDS: [CollectiveKind; 9] = [
    CollectiveKind::Broadcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Scatter,
    CollectiveKind::Gather,
    CollectiveKind::Allgather,
    CollectiveKind::AllToAll,
    CollectiveKind::SparseReduce,
    CollectiveKind::PointToPoint,
];

/// Drives a random schedule drawn from `rng` on a fresh machine under
/// a scoped timeline builder (the schedule depends only on the stream
/// and `p`, so two machines driven from clones of one stream see the
/// identical event stream).
fn drive(rng: &mut SplitMix64, p: usize, spec: MachineSpec) -> (Timeline, Machine) {
    let builder = Arc::new(TimelineBuilder::new(spec.clone()));
    let machine = Machine::new(spec);
    scoped(builder.clone(), || {
        for _ in 0..rng.range(5, 29) {
            if rng.below(3) == 0 {
                let rank = rng.below(p);
                machine.charge_compute(rank, rng.range(1, 5000) as u64);
            } else {
                let kind = *rng.pick(&KINDS);
                let group = if rng.below(2) == 0 || p == 2 {
                    machine.world()
                } else {
                    // A random proper subgroup of size 2..p.
                    let size = rng.range(2, p);
                    let mut ranks: Vec<usize> = (0..p).collect();
                    for i in (1..ranks.len()).rev() {
                        ranks.swap(i, rng.below(i + 1));
                    }
                    ranks.truncate(size);
                    Group::new(ranks).unwrap()
                };
                machine
                    .charge_collective(&group, kind, rng.below(1 << 20) as u64)
                    .unwrap();
            }
        }
    });
    (builder.finish(), machine)
}

/// A random spec (mixed overlap modes: `test` is serialized,
/// `gemini`/`aries` are overlapped by default).
fn random_spec(rng: &mut SplitMix64) -> (usize, MachineSpec) {
    let p = rng.range(2, 6);
    let spec = match rng.below(3) {
        0 => MachineSpec::test(p),
        1 => MachineSpec::gemini(p),
        _ => MachineSpec::aries(p),
    };
    (p, spec)
}

/// Drives a random schedule and returns the sealed timeline plus the
/// machine it mirrors.
fn random_run(rng: &mut SplitMix64) -> (Timeline, Machine) {
    let (p, spec) = random_spec(rng);
    drive(rng, p, spec)
}

#[test]
fn replica_meters_match_machine_bitwise() {
    property("replica_meters_match_machine_bitwise", 40, |rng| {
        let (tl, machine) = random_run(rng);
        let problems = tl.validate_against(&machine);
        assert!(problems.is_empty(), "{problems:?}");
    });
}

#[test]
fn critical_path_sums_to_makespan_bitwise() {
    property("critical_path_sums_to_makespan_bitwise", 40, |rng| {
        let (tl, _machine) = random_run(rng);
        let path = critical_path(&tl);
        assert_eq!(
            path.sum_s().to_bits(),
            tl.makespan_s().to_bits(),
            "path {:?} != makespan {:?}",
            path.sum_s(),
            tl.makespan_s()
        );
        // The chain is causally ordered.
        for pair in path.segments.windows(2) {
            assert!(pair[0].node < pair[1].node, "path not in stream order");
        }
    });
}

#[test]
fn identity_what_if_reproduces_makespan_bitwise() {
    property("identity_what_if_reproduces_makespan_bitwise", 40, |rng| {
        let (tl, _machine) = random_run(rng);
        let r = report(&tl, &WhatIf::identity());
        assert_eq!(r.makespan_s.to_bits(), tl.makespan_s().to_bits());
        assert_eq!(r.baseline_s.to_bits(), tl.makespan_s().to_bits());
    });
}

#[test]
fn every_shrinking_edit_is_monotone_non_increasing() {
    property(
        "every_shrinking_edit_is_monotone_non_increasing",
        25,
        |rng| {
            let (tl, _machine) = random_run(rng);
            let base = tl.makespan_s();
            let mut edits = vec![WhatIf {
                overlap: true,
                ..WhatIf::identity()
            }];
            for kind in KINDS {
                edits.push(WhatIf {
                    zero_kind: Some(kind.name().to_string()),
                    ..WhatIf::identity()
                });
            }
            for _ in 0..10 {
                let mut scale = || rng.below(101) as f64 / 100.0;
                let (alpha_scale, beta_scale, gamma_scale) = (scale(), scale(), scale());
                edits.push(WhatIf {
                    alpha_scale,
                    beta_scale,
                    gamma_scale,
                    overlap: rng.chance(1, 2),
                    zero_kind: None,
                    // `serialize` is the one growing edit — never sampled
                    // here; it has its own bitwise identity test below.
                    serialize: false,
                });
            }
            for edit in edits {
                let edited = evaluate(&tl, &edit);
                assert!(
                    edited <= base,
                    "edit {} raised makespan {edited:?} > {base:?}",
                    edit.label()
                );
            }
        },
    );
}

/// The same schedule run twice — once serialized, once overlapped —
/// must satisfy: overlapped makespan ≤ serialized makespan; the
/// `overlap` what-if evaluated on the *serialized* run predicts the
/// real overlapped run **bit-for-bit** (same recurrence, same event
/// stream, same anchors); and both runs validate against their
/// machines with identical meters.
#[test]
fn overlapped_run_never_slower_and_matches_serialized_what_if_bitwise() {
    property(
        "overlapped_run_never_slower_and_matches_serialized_what_if_bitwise",
        40,
        |rng| {
            let (p, spec) = random_spec(rng);
            let (ser_tl, ser_m) = drive(&mut rng.clone(), p, spec.clone().with_overlap(false));
            let (ovl_tl, ovl_m) = drive(rng, p, spec.with_overlap(true));
            assert!(ser_tl.validate_against(&ser_m).is_empty());
            assert!(ovl_tl.validate_against(&ovl_m).is_empty());
            // Meters are mode-independent: both replicas carry the same
            // per-rank comm/comp work.
            assert_eq!(ser_tl.alive_costs(), ovl_tl.alive_costs());
            assert!(
                ovl_tl.makespan_s() <= ser_tl.makespan_s(),
                "overlapped {:?} > serialized {:?}",
                ovl_tl.makespan_s(),
                ser_tl.makespan_s()
            );
            let predicted = evaluate(
                &ser_tl,
                &WhatIf {
                    overlap: true,
                    ..WhatIf::identity()
                },
            );
            assert_eq!(
                predicted.to_bits(),
                ovl_tl.makespan_s().to_bits(),
                "overlap what-if {predicted:?} != real overlapped run {:?}",
                ovl_tl.makespan_s()
            );
            // The `serialize` what-if on the *overlapped* run recovers the
            // real serialized makespan bit-for-bit (inverse of `overlap`),
            // and on the serialized run it is the identity.
            let re_serialized = evaluate(
                &ovl_tl,
                &WhatIf {
                    serialize: true,
                    ..WhatIf::identity()
                },
            );
            assert_eq!(
                re_serialized.to_bits(),
                ser_tl.makespan_s().to_bits(),
                "serialize what-if {re_serialized:?} != real serialized run {:?}",
                ser_tl.makespan_s()
            );
            let ser_identity = evaluate(
                &ser_tl,
                &WhatIf {
                    serialize: true,
                    ..WhatIf::identity()
                },
            );
            assert_eq!(ser_identity.to_bits(), ser_tl.makespan_s().to_bits());
            // The `overlap` what-if on the already-overlapped run is the
            // bit-exact identity.
            let ovl_identity = evaluate(
                &ovl_tl,
                &WhatIf {
                    overlap: true,
                    ..WhatIf::identity()
                },
            );
            assert_eq!(ovl_identity.to_bits(), ovl_tl.makespan_s().to_bits());
            // The machine's own clocks agree with both replays.
            assert_eq!(ovl_m.makespan_s().to_bits(), ovl_tl.makespan_s().to_bits());
            // The critical path still folds bit-exactly in overlap mode.
            let path = critical_path(&ovl_tl);
            assert_eq!(path.sum_s().to_bits(), ovl_tl.makespan_s().to_bits());
        },
    );
}

#[test]
fn timeline_json_round_trips_exactly() {
    property("timeline_json_round_trips_exactly", 15, |rng| {
        let (tl, _machine) = random_run(rng);
        let an = analyze(&tl);
        let reports = vec![
            report(&tl, &WhatIf::identity()),
            report(
                &tl,
                &WhatIf {
                    overlap: true,
                    ..WhatIf::identity()
                },
            ),
        ];
        let d = doc(&tl, &an, &reports);
        let text = to_json(&d);
        let parsed = parse_timeline(&text).expect("parse timeline.json");
        assert_eq!(parsed, d, "round-trip mismatch");
        // Serialize-again equality makes the bit-exactness visible at
        // the byte level too.
        assert_eq!(to_json(&parsed), text);

        // A flag that is not a boolean is an error, never `false`.
        for (flag, bad) in [("alive", "1"), ("overlap", "\"yes\"")] {
            let doctored = text
                .replacen(
                    &format!("\"{flag}\": true"),
                    &format!("\"{flag}\": {bad}"),
                    1,
                )
                .replacen(
                    &format!("\"{flag}\": false"),
                    &format!("\"{flag}\": {bad}"),
                    1,
                );
            assert_eq!(
                parse_timeline(&doctored),
                Err(format!("field `{flag}` is not a boolean"))
            );
        }
    });
}

#[test]
fn what_if_parse_accepts_the_documented_grammar() {
    let w = WhatIf::parse("overlap, beta:0.5 ,alpha:0").unwrap();
    assert!(w.overlap);
    assert_eq!(w.beta_scale, 0.5);
    assert_eq!(w.alpha_scale, 0.0);
    assert_eq!(w.gamma_scale, 1.0);
    let z = WhatIf::parse("zero:allgather").unwrap();
    assert_eq!(z.zero_kind.as_deref(), Some("allgather"));
    assert!(WhatIf::parse("").unwrap().is_identity());
    assert!(WhatIf::parse("warp:9").is_err());
    assert!(WhatIf::parse("beta:-1").is_err());
    assert!(WhatIf::parse("beta:fast").is_err());
}
