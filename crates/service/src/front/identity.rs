//! Tests of the service's request identity.
//!
//! The service used to key in-flight solves by rendering the streaming
//! flag, the request and the program with `Debug`.  That key lives on here
//! as the oracle: a submission coalesces onto an in-flight solve exactly
//! when their oracle keys are equal.

use super::*;
use mlo_benchmarks::{near_copy, random_program, ProgramEdit, RandomProgramSpec};
use mlo_core::{Engine, EvaluationOptions, SearchBudget};
use mlo_layout::CandidateOptions;
use proptest::prelude::*;
use std::sync::mpsc::{channel, Sender};

/// The service's former in-flight key: the oracle of request identity.
fn oracle_key(streaming: bool, program: &Program, request: &OptimizeRequest) -> String {
    format!(
        "{}\u{1f}{request:?}\u{1f}{program:?}",
        if streaming { "stream" } else { "plain" }
    )
}

/// One of ten requests that differ in a single knob (or not at all).
fn request_variant(k: usize) -> OptimizeRequest {
    let base = OptimizeRequest::strategy(StrategyId::Enhanced);
    match k % 10 {
        1 => base.seed(1),
        2 => OptimizeRequest::strategy(StrategyId::Weighted),
        3 => base.with_budget(SearchBudget::new().nodes(1_000)),
        4 => base.with_budget(SearchBudget::new().deadline(Duration::from_millis(50))),
        5 => base.with_budget(SearchBudget::new().workers(1)),
        6 => base.fail_instead_of_fallback(),
        7 => base.evaluate(EvaluationOptions::date05()),
        8 => base.candidates(CandidateOptions {
            include_diagonals: true,
            ..CandidateOptions::default()
        }),
        _ => base,
    }
}

fn edit(kind: usize, at: usize) -> ProgramEdit {
    match kind {
        0 => ProgramEdit::Name,
        1 => ProgramEdit::Extent(at),
        2 => ProgramEdit::ElementSize(at),
        3 => ProgramEdit::Coefficient(at),
        4 => ProgramEdit::NestOrder(at),
        _ => ProgramEdit::Unchanged,
    }
}

/// A one-worker service whose worker stays parked until the returned
/// sender drops, so every submission stays queued and coalescable.
fn parked_service() -> (MloService, Sender<()>) {
    let engine = Engine::builder().parallelism(1).build();
    let service = MloService::new(engine.session(), ServiceConfig::new().queue_limit(0));
    let (release, parked) = channel::<()>();
    service.session().worker_pool().execute(move || {
        let _ = parked.recv();
    });
    (service, release)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn submissions_coalesce_iff_the_debug_keys_match(
        seed in any::<u64>(),
        submissions in proptest::collection::vec(
            (0usize..8, 0usize..64, 0usize..10, any::<bool>()),
            2..12,
        ),
    ) {
        let original = random_program(&RandomProgramSpec {
            arrays: 2 + (seed % 5) as usize,
            nests: 1 + (seed % 4) as usize,
            extent: 16,
            reads_per_nest: 2,
            seed,
        });
        let (service, release) = parked_service();
        let mut handles: Vec<(String, ResponseHandle)> = Vec::new();
        for (kind, at, variant, streaming) in submissions {
            let program = near_copy(&original, edit(kind, at));
            let request = request_variant(variant);
            let key = oracle_key(streaming, &program, &request);
            let handle = if streaming {
                service.submit_streaming(&program, &request)
            } else {
                service.submit(&program, &request)
            }
            .unwrap();
            let in_flight = handles.iter().any(|(earlier, _)| *earlier == key);
            prop_assert_eq!(handle.is_coalesced(), in_flight, "seed {}", seed);
            handles.push((key, handle));
        }
        let solves = handles.iter().filter(|(_, handle)| !handle.is_coalesced()).count();
        prop_assert_eq!(service.queue_depth(), solves);

        // Cancel everything, then let the queue drain without solving.
        for (_, handle) in &handles {
            handle.cancel();
        }
        drop(release);
        for (_, handle) in &handles {
            prop_assert!(matches!(*handle.wait(), Err(ServiceError::Cancelled)));
        }
        prop_assert_eq!(service.queue_depth(), 0);
    }
}
