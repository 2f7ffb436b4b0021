//! Output checks, layout quality and the seed/determinism self-check.
//!
//! Nothing here trusts the solver: solved assignments are checked against
//! the program's constraint network, served results against a direct
//! solve, and the simulator against cycle counts committed with the
//! benchmark.

use crate::corpus::{Corpus, Family, Sequence};
use crate::workload::{self, State, Workload, FINGERPRINTED_REQUESTS};
use mlo_benchmarks::Benchmark;
use mlo_cachesim::{MachineConfig, SimulationReport, Simulator};
use mlo_core::{Engine, Fallback, OptimizeReport, Session};
use mlo_csp::Assignment;
use mlo_ir::Program;
use mlo_layout::{heuristic_assignment, LayoutAssignment};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Simulated cycles of the row-major original and of the heuristic
/// assignment of each paper program: `name original heuristic` per line.
const EXPECTED_CYCLES: &str = include_str!("../expected_cycles.txt");

/// What the checks found.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations checked.
    pub checked: u64,
    /// One message per failed check.
    pub failures: Vec<String>,
}

impl Checks {
    fn expect(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.failures.push(message());
        }
    }
}

/// The Table 3 simulator with the benchmark's trace fidelity.
fn simulator() -> Simulator {
    let options = workload::evaluation();
    debug_assert_eq!(options.machine, MachineConfig::date05());
    Simulator::new(options.machine).trace_options(options.trace)
}

/// Simulations of one corpus, computed once each.
#[derive(Default)]
struct Simulations {
    original: HashMap<usize, SimulationReport>,
    chosen: HashMap<usize, Vec<(LayoutAssignment, SimulationReport)>>,
}

impl Simulations {
    /// Row-major layouts in the original loop order: the baseline of
    /// Table 3.
    fn original(&mut self, item: usize, program: &Program) -> Result<&SimulationReport, String> {
        if let Entry::Vacant(slot) = self.original.entry(item) {
            let report = simulator()
                .without_restructuring()
                .simulate(program, &LayoutAssignment::all_row_major(program))
                .map_err(|error| {
                    format!("{}: original simulation failed: {error}", program.name())
                })?;
            slot.insert(report);
        }
        Ok(&self.original[&item])
    }

    /// Records a simulation the workload already ran (an `evaluate`
    /// report), so it is not run again.
    fn record(&mut self, item: usize, assignment: &LayoutAssignment, report: &SimulationReport) {
        let known = self.chosen.entry(item).or_default();
        if !known.iter().any(|(seen, _)| seen == assignment) {
            known.push((assignment.clone(), report.clone()));
        }
    }

    fn chosen(
        &mut self,
        item: usize,
        program: &Program,
        assignment: &LayoutAssignment,
    ) -> Result<&SimulationReport, String> {
        let known = self.chosen.entry(item).or_default();
        let position = match known.iter().position(|(seen, _)| seen == assignment) {
            Some(position) => position,
            None => {
                let report = simulator()
                    .simulate(program, assignment)
                    .map_err(|error| format!("{}: simulation failed: {error}", program.name()))?;
                known.push((assignment.clone(), report));
                known.len() - 1
            }
        };
        Ok(&known[position].1)
    }
}

/// Every solved assignment satisfies every hard constraint of its program's
/// network.  `session` supplies the networks.
pub fn check_solutions(
    checks: &mut Checks,
    corpus: &Corpus,
    session: &Session,
    first: &[Option<OptimizeReport>],
) {
    for (entry, report) in first.iter().enumerate() {
        let Some(report) = report else { continue };
        if report.fallback != Fallback::None || report.strategy == "heuristic" {
            continue;
        }
        let program = corpus.program(entry);
        let candidates = corpus.pool[entry].request.candidates;
        let layout_network = session
            .prepared(program, &candidates)
            .network(program)
            .clone();
        let network = layout_network.network();
        let mut assignment = Assignment::new(network.variable_count());
        let mut complete = true;
        for array in program.arrays() {
            let Some(variable) = layout_network.variable_of(array.id()) else {
                continue;
            };
            match report
                .assignment
                .layout_of(array.id())
                .and_then(|layout| network.domain(variable).index_of(layout))
            {
                Some(index) => assignment.assign(variable, index),
                None => complete = false,
            }
        }
        let satisfied = complete && network.is_solution(&assignment) == Ok(true);
        checks.expect(satisfied, || {
            format!(
                "entry {entry} ({} / {}): solved assignment violates the network",
                program.name(),
                report.strategy
            )
        });
    }
}

/// Every distinct served request equals a direct `Session::optimize` of it.
pub fn check_served(checks: &mut Checks, state: &State, first: &[Option<OptimizeReport>]) {
    let session = state.session.as_ref().expect("serve has a session");
    for (entry, served) in first.iter().enumerate() {
        let Some(served) = served else { continue };
        let direct = session.optimize(state.corpus.program(entry), &state.requests[entry]);
        checks.expect(
            direct.as_ref().is_ok_and(|direct| {
                direct.assignment == served.assignment
                    && direct.strategy == served.strategy
                    && direct.fallback == served.fallback
            }),
            || format!("entry {entry}: served result differs from a direct solve"),
        );
    }
}

/// The paper programs' original and heuristic cycles equal the committed
/// expected file.
fn check_expected_cycles(checks: &mut Checks, simulations: &mut Simulations) -> Result<(), String> {
    let mut actual = String::new();
    for (item, benchmark) in Benchmark::all().into_iter().enumerate() {
        let program = benchmark.program();
        let original = simulations.original(item, &program)?.total_cycles;
        let heuristic = simulator()
            .simulate(&program, &heuristic_assignment(&program).assignment)
            .map_err(|error| format!("{}: heuristic simulation failed: {error}", benchmark.name()))?
            .total_cycles;
        actual.push_str(&format!("{} {original} {heuristic}\n", benchmark.name()));
    }
    let expected: Vec<&str> = EXPECTED_CYCLES
        .lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .collect();
    checks.expect(expected == actual.lines().collect::<Vec<_>>(), || {
        format!("paper cycles differ from expected_cycles.txt; measured:\n{actual}")
    });
    Ok(())
}

/// The deterministic numbers of a run.  One seed must reproduce them
/// exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Digest {
    pub corpus: u64,
    pub sequence: u64,
    /// Search nodes over the distinct outputs of the whole pool.
    pub nodes: u64,
    /// Heuristic fallbacks among them.
    pub fallbacks: usize,
    /// Simulated accesses of the chosen layouts of the quality subset.
    pub accesses: u64,
    pub cycles_saved_pct: f64,
}

/// Computes the digest from `report_of` (the workload's outputs or a fresh
/// recomputation).
///
/// Layout quality is measured the Table 3 way, 100 × (1 − geomean of
/// chosen-layout cycles / row-major original cycles), on the paper and
/// pipeline outputs.  Random programs are left out: most of them are
/// unsatisfiable, so their layouts are the heuristic fallback's, and their
/// random structure would make the figure move with the seed rather than
/// with the layouts the optimizer picks.
fn digest(
    corpus: &Corpus,
    sequence: u64,
    simulations: &mut Simulations,
    report_of: &mut dyn FnMut(usize) -> Result<OptimizeReport, String>,
) -> Result<Digest, String> {
    let mut nodes = 0;
    let mut accesses = 0;
    let mut fallbacks = 0;
    let mut ratios = Vec::new();
    for entry in 0..corpus.pool.len() {
        let report = report_of(entry)?;
        nodes += report.search_stats.map_or(0, |stats| stats.nodes_visited);
        fallbacks += usize::from(report.fell_back());
        let item = corpus.pool[entry].item;
        if corpus.items[item].family == Family::Random {
            continue;
        }
        let program = corpus.program(entry);
        if let Some(evaluation) = &report.evaluation {
            simulations.record(item, &report.assignment, evaluation);
        }
        let chosen = simulations.chosen(item, program, &report.assignment)?;
        accesses += chosen.total_accesses;
        let chosen_cycles = chosen.total_cycles;
        let original = simulations.original(item, program)?.total_cycles.max(1);
        ratios.push(chosen_cycles as f64 / original as f64);
    }
    Ok(Digest {
        corpus: corpus.fingerprint(),
        sequence,
        nodes,
        fallbacks,
        accesses,
        cycles_saved_pct: 100.0 * (1.0 - crate::sys::geomean(ratios)),
    })
}

/// Runs every check on the outputs of a window and returns the run's
/// digest.  `first` holds the first report of every pool entry served.
pub fn run_checks(state: &State, first: &[Option<OptimizeReport>]) -> (Checks, Option<Digest>) {
    let mut checks = Checks::default();
    let fresh_session;
    let session = match &state.session {
        Some(session) => session,
        None => {
            fresh_session = Engine::new().session();
            &fresh_session
        }
    };
    check_solutions(&mut checks, &state.corpus, session, first);
    if state.workload == Workload::Serve {
        check_served(&mut checks, state, first);
    }

    let mut simulations = Simulations::default();
    if let Err(message) = check_expected_cycles(&mut checks, &mut simulations) {
        checks.expect(false, || message);
    }

    // The workload's own outputs; an entry the window did not reach is
    // solved the way the workload would have solved it.
    let mut own = |entry: usize| match &first[entry] {
        Some(report) => Ok(report.clone()),
        None => match state.workload {
            Workload::Compile => workload::compile_once(state, entry),
            _ => workload::evaluate_once(state, entry),
        },
    };
    let measured = digest(
        &state.corpus,
        state.sequence_fingerprint,
        &mut simulations,
        &mut own,
    );
    let measured = match measured {
        Ok(digest) => digest,
        Err(message) => {
            checks.expect(false, || message);
            return (checks, None);
        }
    };
    self_check(&mut checks, state, &measured, &mut simulations);
    (checks, Some(measured))
}

/// The seed self-check: the same seed regenerates the same request
/// sequence and, solving from scratch, the same deterministic numbers;
/// another seed changes the corpus.  Simulations are shared with the
/// measured digest by (program, assignment), so a different layout choice
/// still shows as different cycles; the simulator itself is checked against
/// `expected_cycles.txt`.
fn self_check(
    checks: &mut Checks,
    state: &State,
    measured: &Digest,
    simulations: &mut Simulations,
) {
    let seed = state.seed;
    let hot = state.workload == Workload::Serve;
    let corpus = Corpus::generate(seed);
    let sequence = Sequence::new(&corpus, seed, hot).fingerprint(FINGERPRINTED_REQUESTS);

    let engine = match state.workload {
        Workload::Compile => Engine::builder().parallelism(1).build(),
        _ => Engine::new(),
    };
    let session = engine.session();
    let mut fresh = |entry: usize| {
        let session = match state.workload {
            Workload::Compile => engine.session(),
            _ => session.clone(),
        };
        session
            .optimize(corpus.program(entry), &corpus.pool[entry].request)
            .map_err(|error| error.to_string())
    };
    let recomputed = digest(&corpus, sequence, simulations, &mut fresh);
    checks.expect(recomputed.as_ref() == Ok(measured), || {
        format!("seed {seed} does not reproduce its digest: {measured:?} then {recomputed:?}")
    });

    let other = seed ^ 0x5851_f42d_4c95_7f2d;
    let other_corpus = Corpus::generate(other);
    checks.expect(
        other_corpus.fingerprint() != measured.corpus
            && Sequence::new(&other_corpus, other, hot).fingerprint(FINGERPRINTED_REQUESTS)
                != measured.sequence,
        || format!("seed {other} generates the same corpus as seed {seed}"),
    );
}
