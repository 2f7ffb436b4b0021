//! Tests of the session's program identity and its capped prepared cache.
//!
//! The session used to key its cache by the `Debug` rendering of the
//! candidate options and the whole program.  That key lives on here as the
//! oracle: two (program, options) pairs must share a prepared entry exactly
//! when their oracle keys are equal.

use super::*;
use crate::request::SearchBudget;
use mlo_benchmarks::{near_copy, random_program, Benchmark, ProgramEdit, RandomProgramSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The session's former cache key: the oracle of structural identity.
fn oracle_key(program: &Program, options: &CandidateOptions) -> String {
    format!("{options:?}\u{1f}{program:?}")
}

/// Asserts two reports agree on everything that does not depend on timing.
fn assert_same_report(a: &OptimizeReport, b: &OptimizeReport, context: &str) {
    assert_eq!(a.assignment, b.assignment, "{context}: assignment");
    assert_eq!(a.strategy, b.strategy, "{context}: strategy");
    assert_eq!(a.search_stats, b.search_stats, "{context}: search stats");
    assert_eq!(a.satisfiable, b.satisfiable, "{context}: satisfiable");
    assert_eq!(a.fallback, b.fallback, "{context}: fallback");
    assert_eq!(a.network, b.network, "{context}: network");
}

fn one_worker_session() -> Session {
    Engine::builder().parallelism(1).build().session()
}

fn paper_request(benchmark: Benchmark, strategy: &StrategyId) -> OptimizeRequest {
    OptimizeRequest::strategy(strategy)
        .candidates(benchmark.candidate_options())
        .with_budget(SearchBudget::new().nodes(20_000))
}

#[test]
fn a_session_capped_at_one_entry_returns_the_same_reports_as_an_uncapped_one() {
    let capped = one_worker_session();
    lock_or_recover(&capped.inner.prepared).cap = 1;
    let uncapped = one_worker_session();
    let programs: Vec<(Benchmark, Program)> = Benchmark::all()
        .into_iter()
        .map(|benchmark| (benchmark, benchmark.program()))
        .collect();
    // Programs rotate innermost, so every capped request evicts the last.
    for strategy in &StrategyId::BUILTIN {
        for (benchmark, program) in &programs {
            let request = paper_request(*benchmark, strategy);
            let context = format!("{} / {strategy}", benchmark.name());
            let want = uncapped.optimize(program, &request).unwrap();
            let got = capped.optimize(program, &request).unwrap();
            assert_same_report(&want, &got, &context);
            assert_eq!(capped.prepared_programs(), 1, "{context}");
        }
    }
    let requests = (StrategyId::BUILTIN.len() * programs.len()) as u64;
    let entries = programs.len();
    assert_eq!(
        uncapped.prepared_stats(),
        PreparedStats {
            hits: requests - entries as u64,
            misses: entries as u64,
            evictions: 0,
            entries,
        }
    );
    assert_eq!(
        capped.prepared_stats(),
        PreparedStats {
            hits: 0,
            misses: requests,
            evictions: requests - 1,
            entries: 1,
        }
    );
}

/// Candidate options a request may carry.
fn options_variant(k: usize) -> CandidateOptions {
    let base = CandidateOptions::default();
    match k % 4 {
        0 => base,
        1 => CandidateOptions {
            include_diagonals: true,
            ..base
        },
        2 => CandidateOptions {
            max_transforms_per_nest: 2,
            ..base
        },
        _ => CandidateOptions {
            include_canonical: false,
            ..base
        },
    }
}

/// One structural edit (or none) at a random position.
fn edit_variant(rng: &mut StdRng) -> ProgramEdit {
    let at = rng.gen_range(0..64);
    match rng.gen_range(0..8) {
        0 => ProgramEdit::Name,
        1 => ProgramEdit::Extent(at),
        2 => ProgramEdit::ElementSize(at),
        3 => ProgramEdit::Coefficient(at),
        4 => ProgramEdit::NestOrder(at),
        _ => ProgramEdit::Unchanged,
    }
}

/// Near-copies of one random program under varied options, looked up in
/// one session: two lookups return one entry iff their oracle keys match.
fn check_identity(seed: u64, max_arrays: usize, max_nests: usize, lookups: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = RandomProgramSpec {
        arrays: rng.gen_range(2..max_arrays + 1),
        nests: rng.gen_range(1..max_nests + 1),
        extent: [8, 16, 32][rng.gen_range(0..3)],
        reads_per_nest: rng.gen_range(1..4),
        seed: rng.gen(),
    };
    let original = random_program(&spec);
    let session = one_worker_session();
    let mut seen: Vec<(String, Arc<PreparedProgram>)> = Vec::new();
    for _ in 0..lookups {
        let program = near_copy(&original, edit_variant(&mut rng));
        let options = options_variant(rng.gen_range(0..4));
        let key = oracle_key(&program, &options);
        let prepared = session.prepared(&program, &options);
        for (earlier_key, earlier_prepared) in &seen {
            assert_eq!(
                Arc::ptr_eq(earlier_prepared, &prepared),
                *earlier_key == key,
                "seed {seed}: prepared entries disagree with the oracle"
            );
        }
        seen.push((key, prepared));
    }
    let mut keys: Vec<&String> = seen.iter().map(|(key, _)| key).collect();
    keys.sort();
    keys.dedup();
    assert_eq!(session.prepared_programs(), keys.len(), "seed {seed}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sessions_share_an_entry_iff_the_debug_keys_match(seed in any::<u64>()) {
        check_identity(seed, 6, 5, 12);
    }
}

#[test]
#[ignore = "heavy: 512 larger random programs against the Debug-key oracle"]
fn sessions_share_an_entry_iff_the_debug_keys_match_heavy() {
    for seed in 0..512 {
        check_identity(0x1de7_0000 + seed, 24, 26, 24);
    }
}

/// Resident and peak resident set size in MB, where `/proc` has them.
fn rss_mb() -> Option<(f64, f64)> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let field = |name: &str| -> Option<f64> {
        let line = status.lines().find(|line| line.starts_with(name))?;
        let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kb / 1024.0)
    };
    Some((field("VmRSS:")?, field("VmHWM:")?))
}

#[test]
#[ignore = "heavy: 2,000 distinct 24-array programs through one session"]
fn two_thousand_distinct_programs_stay_within_the_prepared_cap() {
    let session = one_worker_session();
    let cap = Session::DEFAULT_PREPARED_CACHE_CAP;
    let request =
        OptimizeRequest::strategy("enhanced").with_budget(SearchBudget::new().nodes(20_000));
    let before = rss_mb();
    for seed in 0..2_000u64 {
        let program = random_program(&RandomProgramSpec {
            arrays: 24,
            nests: 24,
            extent: 64,
            reads_per_nest: 2,
            seed,
        });
        session.optimize(&program, &request).unwrap();
        assert!(session.prepared_programs() <= cap, "program {seed}");
    }
    let stats = session.prepared_stats();
    assert_eq!(stats.misses, 2_000);
    assert_eq!(stats.evictions, 2_000 - cap as u64);
    if let (Some((rss_before, _)), Some((rss_after, peak))) = (before, rss_mb()) {
        println!("RSS {rss_before:.1} MB -> {rss_after:.1} MB (peak {peak:.1} MB), cap {cap}");
    }
}
