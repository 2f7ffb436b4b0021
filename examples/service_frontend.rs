//! The `mlo-service` front-end: queued submission, coalescing and
//! streaming incumbents.
//!
//! ```text
//! cargo run --example service_frontend
//! ```

use mlo_benchmarks::Benchmark;
use mlo_core::{Engine, OptimizeRequest};
use mlo_service::{MloService, ServiceConfig};

fn main() {
    // A bounded service over one shared session: at most 16 solves queued
    // or running, tenants capped at 4 concurrent solves each.
    let engine = Engine::new();
    let service = MloService::new(
        engine.session(),
        ServiceConfig::new()
            .queue_limit(16)
            .default_tenant_budget(4),
    );

    // Submission returns immediately; the solve runs on the session's
    // worker pool.  Identical in-flight requests coalesce onto one solve.
    let program = Benchmark::Radar.program();
    let request = OptimizeRequest::strategy("weighted").seed(7);
    let first = service.submit(&program, &request).expect("admitted");
    let duplicate = service.submit(&program, &request).expect("admitted");
    if duplicate.is_coalesced() {
        println!("duplicate coalesced onto the in-flight solve");
    }

    let report = first.wait();
    let report = report.as_ref().as_ref().expect("solve succeeded");
    println!(
        "weighted solve: {} arrays laid out in {:?} ({})",
        report.assignment.len(),
        report.solution_time,
        report.fallback
    );

    // Streaming: watch the branch-and-bound improve its incumbent.
    let streamed = service
        .submit_streaming(&program, &request)
        .expect("admitted");
    let result = streamed.wait();
    let (version, weight) = streamed.watch().latest();
    println!(
        "streamed solve saw {version} incumbent update(s), final weight {weight:?} \
         (ok = {})",
        result.is_ok()
    );

    let stats = service.stats();
    println!(
        "service stats: {} submitted, {} coalesced, {} shed, {} completed",
        stats.submitted, stats.coalesced, stats.shed, stats.completed
    );
}
