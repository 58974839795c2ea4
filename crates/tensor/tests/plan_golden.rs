//! Every plan family's charged schedule, pinned bit for bit.
//!
//! For each plan [`enumerate_plans`] emits at p ∈ {1, 4, 8, 16},
//! masked and unmasked, on a serialized and on an overlapped machine,
//! the same product runs twice through one amortizing [`MmCache`]
//! (the first pass builds the prepared right operand, the second hits
//! it). After each pass the test records a digest of the normalized
//! event stream — every event but the thread pool's, whose wall-clock
//! `busy_us` and participant count vary run to run, stamped at
//! `ts_us = tid = 0` and written as jsonl — plus the bits of
//! `report()`, `makespan_s()` and the highest memory peak. The table
//! must equal `golden/plans.txt`, generated before the plan families'
//! posting code was unified; on a mismatch the fresh table is written
//! next to the test binaries (`plans.actual.txt`) for diffing.
//!
//! Since the golden was generated, only `peak=` fields have moved: on
//! the 192 `3d(A/…)` hit lines. Split A released the average block
//! size of its layer replicas instead of what each rank was charged,
//! so ranks holding larger blocks entered the hit pass still charged
//! and peaked above the miss. Every copy now releases from the
//! receipt of what it charged, and each of those peaks equals its
//! miss line's, as [`no_hit_peaks_above_its_miss`] requires of every
//! line.

use mfbc_algebra::kernel::TropicalKernel;
use mfbc_algebra::monoid::MinDist;
use mfbc_algebra::Dist;
use mfbc_conformance::rng::SplitMix64;
use mfbc_machine::{Machine, MachineSpec};
use mfbc_sparse::{Coo, Csr, Mask, MaskKind};
use mfbc_tensor::{canonical_layout, enumerate_plans, mm_exec_cached_masked, DistMat, MmCache};
use mfbc_trace::{record_to_json, MemoryRecorder, TraceEvent, TraceRecord};
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

const N: usize = 40;

fn operand(rng: &mut SplitMix64, nnz: usize) -> Csr<Dist> {
    let triples = (0..nnz).map(|_| {
        let (i, j) = (rng.below(N), rng.below(N));
        (i, j, Dist::new(1 + rng.below(40) as u64))
    });
    Coo::from_triples(N, N, triples).into_csr::<MinDist>()
}

/// FNV-1a, 64 bit: a digest that needs no dependency and never moves.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The recorded events as jsonl with the recorder's stamps zeroed and
/// the pool's fan-out records dropped.
fn normalized(records: Vec<TraceRecord>) -> String {
    let mut out = String::new();
    for rec in records {
        if matches!(rec.event, TraceEvent::Pool { .. }) {
            continue;
        }
        let rec = TraceRecord {
            ts_us: 0,
            tid: 0,
            event: rec.event,
        };
        out.push_str(&record_to_json(&rec));
        out.push('\n');
    }
    out
}

fn table() -> String {
    let mut rng = SplitMix64::new(0x9_01DE_u64);
    let a = operand(&mut rng, 170);
    let b = operand(&mut rng, 190);
    let coords: Vec<(usize, usize)> = (0..N * N / 3)
        .map(|_| (rng.below(N), rng.below(N)))
        .collect();
    let mask = Mask::from_coords(MaskKind::Structural, N, N, &coords);

    let mut out = String::new();
    for p in [1usize, 4, 8, 16] {
        for plan in enumerate_plans(p) {
            for (masked, mk) in [("unmasked", None), ("masked", Some(&mask))] {
                for overlap in [false, true] {
                    let m = Machine::new(MachineSpec::test(p).with_overlap(overlap));
                    let da = DistMat::from_global(canonical_layout(&m, N, N), &a);
                    let db = DistMat::from_global(canonical_layout(&m, N, N), &b);
                    let mut cache = MmCache::new();
                    for pass in ["miss", "hit"] {
                        let rec = Arc::new(MemoryRecorder::new());
                        mfbc_trace::scoped(rec.clone(), || {
                            mm_exec_cached_masked::<TropicalKernel>(
                                &m, &plan, &da, &db, mk, &mut cache,
                            )
                            .unwrap();
                        });
                        let digest = fnv1a(normalized(rec.take()).as_bytes());
                        let r = m.report();
                        let peak = m.memory_peaks().into_iter().max().unwrap_or(0);
                        writeln!(
                            out,
                            "p={p} {plan} {masked} overlap={overlap} {pass} \
                             events={digest:016x} msgs={} bytes={} comm={:016x} \
                             comp={:016x} ops={} makespan={:016x} peak={peak}",
                            r.critical.msgs,
                            r.critical.bytes,
                            r.critical.comm_time.to_bits(),
                            r.critical.comp_time.to_bits(),
                            r.total_ops,
                            m.makespan_s().to_bits(),
                        )
                        .unwrap();
                    }
                    cache.release_all(&m);
                }
            }
        }
    }
    out
}

/// The table, computed once for both tests.
fn fresh() -> &'static str {
    static TABLE: OnceLock<String> = OnceLock::new();
    TABLE.get_or_init(table)
}

/// A cache hit does a subset of its miss's work, so it never raises
/// the machine's highest memory peak: every `hit` line's `peak=`
/// equals the `miss` line before it.
#[test]
fn no_hit_peaks_above_its_miss() {
    let peak = |line: &str| -> u64 { line.rsplit_once(" peak=").unwrap().1.parse().unwrap() };
    let lines: Vec<&str> = fresh().lines().collect();
    let above: Vec<String> = lines
        .chunks(2)
        .inspect(|pair| assert!(pair[0].contains(" miss ") && pair[1].contains(" hit ")))
        .filter(|pair| peak(pair[1]) > peak(pair[0]))
        .map(|pair| format!("{} (miss peak {})", pair[1], peak(pair[0])))
        .collect();
    assert!(
        above.is_empty(),
        "{} hit passes peak above their miss:\n{}",
        above.len(),
        above.join("\n")
    );
}

#[test]
fn every_plan_charges_what_the_golden_pins() {
    let fresh = fresh();
    let golden = include_str!("golden/plans.txt");
    if fresh != golden {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("plans.actual.txt");
        std::fs::write(&path, fresh).unwrap();
        let first = fresh
            .lines()
            .zip(golden.lines())
            .find(|(f, g)| f != g)
            .map(|(f, g)| format!("\n  fresh:  {f}\n  golden: {g}"))
            .unwrap_or_else(|| " (line counts differ)".into());
        panic!(
            "plan schedule drifted from golden/plans.txt; fresh table at {}; first difference:{first}",
            path.display()
        );
    }
}
