//! Integration tests of the concurrent serving tier.
//!
//! Two guarantees are pinned here, end to end through the public `slimfast` facade:
//!
//! 1. **Snapshot determinism** — a snapshot published after a *background* refit serves
//!    posteriors bitwise-identical to a synchronous [`FusionEngine::refit`] at the same
//!    claim count, regardless of the worker-thread count. CI runs this suite under
//!    `SLIMFAST_THREADS={1,4}`; the explicit-thread matrix below additionally pins the
//!    config-level knob so the invariant holds regardless of the environment.
//! 2. **Reader/writer isolation** — N reader threads serving lock-free from published
//!    snapshots stay consistent (normalized posteriors, monotone epochs) while the
//!    writer ingests, evicts, publishes, and keeps refits in flight underneath them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use slimfast::prelude::*;

/// Deterministic claim stream over a fixed source/object pool (binary domains). The
/// value is a pure function of the (source, object) pair, so a stream longer than the
/// pair period re-asserts identical claims (idempotent) instead of conflicting.
fn stream_claims(n: usize) -> Vec<NamedObservation> {
    (0..n)
        .map(|i| {
            let (s, o) = (i % 17, i % 113);
            let h = ((s * 1000003 + o * 7919) as u64).wrapping_mul(0x9e3779b97f4a7c15);
            let value = if h >> 63 == 0 { "v0" } else { "v1" };
            NamedObservation::new(format!("s{s}"), format!("o{o}"), value)
        })
        .collect()
}

fn fitted_engine(threads: usize) -> FusionEngine {
    let initial = stream_claims(400);
    let dataset = build_claims(&initial).expect("stream is conflict-free");
    let features = FeatureMatrix::empty(dataset.num_sources());
    let mut truth = GroundTruth::empty(dataset.num_objects());
    for i in (0..dataset.num_objects()).step_by(9) {
        let o = ObjectId::new(i);
        truth.set(
            o,
            dataset
                .domain(o)
                .first()
                .copied()
                .unwrap_or(ValueId::new(0)),
        );
    }
    FusionEngine::fit(
        SlimFast::em(SlimFastConfig::default().with_threads(threads)),
        dataset,
        features,
        truth,
        RefitPolicy::Never,
    )
}

/// Fresh claims (objects disjoint from the fitted instance) in two halves: the refit
/// captures after the first half, the second half stays uncovered.
fn delta_halves() -> (Vec<NamedObservation>, Vec<NamedObservation>) {
    let mut claims = Vec::new();
    for i in 0..120usize {
        claims.push(NamedObservation::new(
            format!("s{}", i % 17),
            format!("fresh-o{}", i % 31),
            if i % 3 == 0 { "v0" } else { "v1" },
        ));
    }
    let second = claims.split_off(60);
    (claims, second)
}

/// The synchronous reference: ingest, refit inline at the half-way claim count, ingest
/// the rest.
fn synchronous_reference(threads: usize) -> FusionEngine {
    let mut engine = fitted_engine(threads);
    let (first, second) = delta_halves();
    engine.ingest(&first).unwrap();
    engine.refit();
    engine.ingest(&second).unwrap();
    engine
}

/// The serving path: same stream, but the refit is captured at the same claim count
/// and trained as a background job while the second half ingests.
fn background_serving(threads: usize) -> ServingEngine {
    let mut serving = ServingEngine::new(fitted_engine(threads)).with_publish_every(7);
    let (first, second) = delta_halves();
    for batch in first.chunks(13) {
        serving.ingest(batch).unwrap();
    }
    assert!(serving.refit_background());
    for batch in second.chunks(13) {
        serving.ingest(batch).unwrap();
    }
    serving.drain();
    serving
}

#[test]
fn background_snapshot_matches_synchronous_refit_bitwise() {
    for threads in [1, 4] {
        let reference = synchronous_reference(threads);
        let serving = background_serving(threads);
        let snapshot = serving.snapshot();

        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(reference.model().weights()),
            bits(snapshot.model().weights()),
            "background-trained weights diverged (threads = {threads})"
        );
        assert_eq!(reference.refit_count(), serving.engine().refit_count());
        // Every posterior served from the published snapshot is bitwise-identical to
        // the synchronous engine's.
        assert!(snapshot.dataset().num_objects() > 0);
        for i in 0..snapshot.dataset().num_objects() {
            let o = ObjectId::new(i);
            let served = snapshot.posterior_by_id(o).expect("in range");
            let reference = reference.posterior_by_id(o).expect("in range");
            assert_eq!(bits(&reference), bits(&served), "object {i}");
        }
        // The batched API serves the same bits from one consistent snapshot.
        let ids: Vec<ObjectId> = (0..snapshot.dataset().num_objects())
            .map(ObjectId::new)
            .collect();
        for (i, batch) in snapshot.posteriors(&ids).into_iter().enumerate() {
            let single = snapshot.posterior_by_id(ids[i]).expect("in range");
            assert_eq!(bits(&single), bits(&batch), "batched object {i}");
        }
        assert_eq!(serving.stats().staleness, 0);
    }
}

#[test]
fn thread_count_never_changes_served_posteriors() {
    let one = background_serving(1);
    let four = background_serving(4);
    let (s1, s4) = (one.snapshot(), four.snapshot());
    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(s1.model().weights()), bits(s4.model().weights()));
    assert_eq!(s1.dataset().num_objects(), s4.dataset().num_objects());
    for i in 0..s1.dataset().num_objects() {
        let o = ObjectId::new(i);
        assert_eq!(
            bits(&s1.posterior_by_id(o).unwrap()),
            bits(&s4.posterior_by_id(o).unwrap()),
            "object {i}"
        );
    }
}

#[test]
fn readers_serve_consistently_while_the_writer_ingests_and_refits() {
    const READERS: usize = 4;
    let mut serving = ServingEngine::new(fitted_engine(0)).with_publish_every(16);
    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for r in 0..READERS {
            let mut reader = serving.reader();
            let (stop, served) = (&stop, &served);
            scope.spawn(move || {
                let mut last_epoch = 0u64;
                let mut i = r; // desynchronize the readers
                while !stop.load(Ordering::Relaxed) {
                    let snapshot = reader.snapshot();
                    // Epochs only move forward under the reader's feet.
                    assert!(snapshot.epoch() >= last_epoch, "epoch went backwards");
                    last_epoch = snapshot.epoch();
                    let num_objects = snapshot.dataset().num_objects();
                    // Point query: normalized posterior or a clean None, never a panic.
                    let o = ObjectId::new(i % (num_objects + 3));
                    if let Some(p) = snapshot.posterior_by_id(o) {
                        if !p.is_empty() {
                            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
                        }
                        served.fetch_add(1, Ordering::Relaxed);
                    }
                    // Batched query from one consistent snapshot, fanned over the same
                    // pool the background refits train on.
                    if i % 50 == 0 {
                        let ids: Vec<ObjectId> = (0..600)
                            .map(|k| ObjectId::new((i + k) % (num_objects + 3)))
                            .collect();
                        let batch = reader.posteriors(&ids);
                        assert_eq!(batch.len(), ids.len());
                        served.fetch_add(
                            batch.iter().filter(|p| !p.is_empty()).count(),
                            Ordering::Relaxed,
                        );
                    }
                    i += 1;
                }
            });
        }

        // The writer: ingest a long stream in batches with refits dispatched
        // periodically, all while the readers hammer the snapshots.
        let stream = stream_claims(4000);
        for (b, batch) in stream.chunks(40).enumerate() {
            // Re-asserted duplicates of the fitted instance are absorbed as idempotent.
            serving.ingest(batch).unwrap();
            if b % 10 == 3 {
                serving.refit_background();
            }
        }
        serving.drain();
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        served.load(Ordering::Relaxed) > 0,
        "readers never served a query"
    );
    let stats = serving.stats();
    assert_eq!(
        stats.staleness, 0,
        "drain must converge the published state"
    );
    assert!(!stats.refit_in_flight);
    assert!(stats.refits_installed >= 1, "no background refit landed");
    assert!(stats.snapshot_swaps >= 2);
    // The writer's final state is served verbatim by a fresh reader.
    let mut reader = serving.reader();
    assert_eq!(reader.snapshot().claims_ingested(), stats.claims_ingested);
}
