//! Machine-layer conformance: the α–β closed forms of §7.4 as
//! [`Machine::post_collective`] charges them in both accounting modes,
//! the data a posted scatter/gather/sparse reduce delivers, at p = 1,
//! non-power-of-two p, and zero-byte payloads — plus monotonicity of
//! the modeled msgs/bytes/time in p, the property the cost-model
//! comparisons in the autotuner lean on.

use mfbc_conformance::gen::{ALPHAS, BETAS};
use mfbc_conformance::rng::SplitMix64;
use mfbc_machine::collectives::sparse_reduce;
use mfbc_machine::cost::log2_ceil;
use mfbc_machine::{CollectiveKind, Machine, MachineSpec};

const ALL_KINDS: [CollectiveKind; 9] = [
    CollectiveKind::Broadcast,
    CollectiveKind::Reduce,
    CollectiveKind::Allreduce,
    CollectiveKind::Scatter,
    CollectiveKind::Gather,
    CollectiveKind::Allgather,
    CollectiveKind::SparseReduce,
    CollectiveKind::PointToPoint,
    CollectiveKind::AllToAll,
];

fn spec(p: usize, alpha: f64, beta: f64) -> MachineSpec {
    MachineSpec {
        p,
        alpha,
        beta,
        gamma: 1.0,
        mem_bytes: None,
        overlap: false,
        redist: mfbc_machine::RedistMode::Alltoall,
    }
}

/// Posts one collective of `kind` carrying `value` and waits it out.
fn post<T>(m: &Machine, kind: CollectiveKind, bytes: u64, value: T) -> T {
    let posted = m.post_collective(&m.world(), kind, bytes, value).unwrap();
    posted.wait(m).unwrap()
}

#[test]
fn closed_forms_match_paper_for_all_kinds() {
    // Seeded sweep over p (including 1 and non-powers-of-two), α–β
    // menus, and byte counts: each kind's time must equal its §7.4 /
    // §5.1 closed form exactly (the menu values are exact binary
    // fractions, so no tolerance is needed).
    let mut rng = SplitMix64::new(0xC0_11EC);
    for _ in 0..500 {
        let p = 1 + rng.below(33);
        let alpha = *rng.pick(&ALPHAS);
        let beta = *rng.pick(&BETAS);
        let x = rng.next_u64() % 10_000;
        let s = spec(p, alpha, beta);
        let (xf, lg) = (x as f64, log2_ceil(p) as f64);
        for kind in ALL_KINDS {
            let expected = match kind {
                CollectiveKind::Broadcast | CollectiveKind::Reduce => {
                    2.0 * xf * beta + 2.0 * lg * alpha
                }
                CollectiveKind::Allreduce => 4.0 * xf * beta + 4.0 * lg * alpha,
                CollectiveKind::PointToPoint => xf * beta + alpha,
                _ => xf * beta + lg * alpha,
            };
            assert_eq!(
                kind.time(&s, p, x),
                expected,
                "{} closed form at p={p}, α={alpha}, β={beta}, x={x}",
                kind.name()
            );
            // Posted and waited, either mode charges exactly that (and
            // a one-rank world nothing at all).
            let charged = if p == 1 { 0.0 } else { expected };
            for overlap in [false, true] {
                let m = Machine::new(s.clone().with_overlap(overlap));
                post(&m, kind, x, ());
                assert_eq!(m.report().critical.comm_time, charged);
                assert_eq!(m.makespan_s(), charged);
            }
        }
    }
}

#[test]
fn msgs_bytes_and_time_are_monotone_in_p() {
    // More ranks can never make a collective cheaper: msgs(p) and
    // time(p) must be nondecreasing for every kind (bytes_charged is
    // p-independent by construction, asserted on the side).
    let s64 = |p| spec(p, 1.0, 1.0);
    for kind in ALL_KINDS {
        let x = 321;
        for p in 1..64usize {
            assert!(
                kind.msgs(p + 1) >= kind.msgs(p),
                "{} msgs not monotone at p={p}",
                kind.name()
            );
            assert!(
                kind.time(&s64(p + 1), p + 1, x) >= kind.time(&s64(p), p, x),
                "{} time not monotone at p={p}",
                kind.name()
            );
            assert_eq!(kind.bytes_charged(x), kind.bytes_charged(x));
        }
    }
}

#[test]
fn scatter_and_gather_preserve_pieces_and_charge_closed_form() {
    // Non-power-of-two p = 6 with distinct α and β: data must arrive
    // intact and the meters must read exactly xβ + ⌈log₂ 6⌉α.
    let m = Machine::new(spec(6, 4.0, 0.25));
    let parts: Vec<u64> = (0..6).map(|i| 100 + i as u64).collect();
    let scattered = post(&m, CollectiveKind::Scatter, 48, parts.clone());
    assert_eq!(scattered, parts, "scatter must deliver piece i to rank i");
    let gathered = post(&m, CollectiveKind::Gather, 48, scattered);
    assert_eq!(gathered, parts, "gather must return pieces in group order");
    let r = m.report();
    // Each payload set is 6 u64 = 48 bytes; two collectives.
    let per = 48.0 * 0.25 + 3.0 * 4.0;
    assert_eq!(r.critical.comm_time, 2.0 * per);
    assert_eq!(r.critical.bytes, 2 * 48);
    assert_eq!(r.critical.msgs, 2 * 3);
}

#[test]
fn sparse_reduce_combines_and_charges_result_bytes() {
    // p = 7: result is the monoid fold of all contributions; charged
    // bytes follow the *result* size (§5.1), not the input sizes.
    let m = Machine::new(spec(7, 1.0, 1.0));
    let g = m.world();
    let contribs: Vec<Vec<u64>> = (0..7).map(|i| vec![i as u64]).collect();
    let folded = sparse_reduce(&m, &g, contribs, |mut a, b| {
        a.extend(b);
        a
    })
    .unwrap();
    assert_eq!(folded, vec![0, 1, 2, 3, 4, 5, 6]);
    let r = m.report();
    // Result: 7 u64 = 56 bytes; ⌈log₂ 7⌉ = 3.
    assert_eq!(r.critical.bytes, 56);
    assert_eq!(r.critical.comm_time, 56.0 + 3.0);
    assert_eq!(r.critical.msgs, 3);
}

#[test]
fn single_rank_collectives_move_nothing_and_cost_nothing() {
    for overlap in [false, true] {
        let m = Machine::new(spec(1, 4.0, 2.0).with_overlap(overlap));
        for kind in ALL_KINDS {
            let posted = m.post_collective(&m.world(), kind, 64, 9u64).unwrap();
            assert_eq!(m.outstanding_collectives(), 0, "nothing in flight");
            assert_eq!(posted.wait(&m).unwrap(), 9);
        }
        assert_eq!(
            sparse_reduce(&m, &m.world(), vec![9u64], |a, b| a + b).unwrap(),
            9
        );
        let r = m.report();
        assert_eq!(r.critical.msgs, 0, "p = 1 collectives must be free");
        assert_eq!(r.critical.bytes, 0);
        assert_eq!(r.critical.comm_time, 0.0);
        assert_eq!(m.collective_seq(), 0, "and must not tick the fault clock");
    }
}

#[test]
fn zero_byte_payloads_still_pay_latency() {
    // Empty pieces: β term vanishes but the α (latency) term and the
    // message count must survive — the cost model's α-dominated regime.
    let m = Machine::new(spec(8, 4.0, 2.0));
    let g = m.world();
    let empties: Vec<Vec<u64>> = (0..8).map(|_| Vec::new()).collect();
    let out = post(&m, CollectiveKind::Scatter, 0, empties);
    assert!(out.iter().all(Vec::is_empty));
    let r = m.report();
    assert_eq!(r.critical.bytes, 0);
    assert_eq!(
        r.critical.msgs, 3,
        "⌈log₂ 8⌉ messages despite empty payload"
    );
    assert_eq!(r.critical.comm_time, 3.0 * 4.0);

    let folded = sparse_reduce(
        &m,
        &g,
        (0..8).map(|_| Vec::<u64>::new()).collect(),
        |a, _| a,
    )
    .unwrap();
    assert!(folded.is_empty());
    assert_eq!(m.report().critical.msgs, 6);
}

#[test]
fn gather_scatter_roundtrip_at_many_rank_counts() {
    // Structure holds across degenerate, prime, and composite p, in
    // both accounting modes.
    for p in [1usize, 2, 3, 5, 6, 7, 12, 16] {
        for overlap in [false, true] {
            let m = Machine::new(MachineSpec::test(p).with_overlap(overlap));
            let parts: Vec<u64> = (0..p as u64).collect();
            let bytes = 8 * p as u64;
            let scattered = post(&m, CollectiveKind::Scatter, bytes, parts.clone());
            let rt = post(&m, CollectiveKind::Gather, bytes, scattered);
            assert_eq!(rt, parts, "roundtrip at p={p}");
            let msgs = if p == 1 { 0 } else { 2 * log2_ceil(p) };
            assert_eq!(m.report().critical.msgs, msgs, "p={p}");
        }
    }
}
