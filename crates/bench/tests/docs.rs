//! Byte-level pins of the report documents: the committed files under
//! `tests/golden/` and the two `BENCH_*.json` baselines are what the
//! writers produce, to the byte.

use mfbc_bench::regress::{run_named_case, SuiteOptions};
use mfbc_bench::serveload;
use mfbc_profile::export::profile_to_json;
use mfbc_profile::Baseline;
use mfbc_timeline::{doc, to_json};

#[test]
fn bench_case_documents_match_the_committed_bytes() {
    // One thread pins the profile's event count (pool events are per
    // fan-out); `busy_us` is wall-clock, so it is zeroed.
    let mut r = mfbc_parallel::with_threads(1, || {
        run_named_case(Some("rmat-s8-p4-b32"), &SuiteOptions::default())
    })
    .expect("pinned case");
    for w in &mut r.profile.pool {
        w.busy_us = 0;
    }
    assert_eq!(
        profile_to_json(&r.profile),
        include_str!("golden/rmat-s8-p4-b32.profile.json")
    );
    assert_eq!(
        to_json(&doc(&r.timeline, &r.analysis, &[])),
        include_str!("golden/rmat-s8-p4-b32.timeline.json")
    );
}

#[test]
fn committed_baselines_are_what_the_writers_write() {
    let text = include_str!("../../../BENCH_mfbc.json");
    assert_eq!(Baseline::from_json(text).unwrap().to_json(), text);
    let text = include_str!("../../../BENCH_serve.json");
    assert_eq!(
        serveload::to_json(&serveload::from_json(text).unwrap()),
        text
    );
}
