//! The seeded corpus every workload draws its requests from.
//!
//! Three families: the five paper programs, `add_pipeline` image pipelines
//! (satisfiable; cost grows smoothly with the stage count) and
//! `random_program` specs (mostly unsatisfiable, so they exercise the UNSAT
//! proof and the heuristic fallback).  Program sizes are drawn by stratified
//! sampling and the request pool has fixed family and strategy shares, so a
//! new seed changes every pipeline and random program but not the cost
//! distribution a run measures.

use crate::sys::Fnv;
use mlo_benchmarks::generators::add_pipeline;
use mlo_benchmarks::{random_program, Benchmark, RandomProgramSpec};
use mlo_core::OptimizeRequest;
use mlo_ir::{Program, ProgramBuilder};
use mlo_layout::CandidateOptions;

/// The strategy mix every family draws from.
pub const STRATEGIES: [&str; 6] = [
    "heuristic",
    "enhanced",
    "full-propagation",
    "weighted",
    "portfolio",
    "portfolio-steal",
];

/// Pool entries per (paper program, strategy), each with its own request
/// seed: the paper family keeps the same share of the pool as the others
/// grow.
const PAPER_REPEATS: usize = 2;
/// Pipelines in the corpus (one pool entry each).
const PIPELINES: usize = 84;
/// Random programs in the corpus (one pool entry each).
const RANDOMS: usize = 60;

/// The corpus family a program belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Paper,
    Pipeline,
    Random,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Paper => "paper",
            Family::Pipeline => "pipeline",
            Family::Random => "random",
        }
    }
}

/// One program of the corpus.
#[derive(Debug)]
pub struct Item {
    pub program: Program,
    pub family: Family,
    pub candidates: CandidateOptions,
}

/// One distinct request of the pool: a program and the request to run on it.
#[derive(Debug)]
pub struct Entry {
    pub item: usize,
    pub request: OptimizeRequest,
}

/// The generated corpus and its request pool.
#[derive(Debug)]
pub struct Corpus {
    pub items: Vec<Item>,
    pub pool: Vec<Entry>,
}

/// SplitMix64: small, seedable and stable across toolchains.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, values: &mut [T]) {
        for i in (1..values.len()).rev() {
            values.swap(i, self.below(i + 1));
        }
    }
}

/// `count` (strategy, size) pairs in a seeded order: each strategy gets an
/// equal share, and within each share the sizes cover `[low, low + span)`
/// one stratum each, so every strategy sees the same spread of sizes.
fn stratified_by_strategy(
    rng: &mut Rng,
    count: usize,
    low: usize,
    span: usize,
) -> Vec<(&'static str, usize)> {
    let per_strategy = count / STRATEGIES.len();
    let mut pairs: Vec<(&'static str, usize)> = STRATEGIES
        .iter()
        .flat_map(|&strategy| (0..per_strategy).map(move |i| (strategy, i)))
        .collect();
    for (_, size) in pairs.iter_mut() {
        *size = low + (span as f64 * (*size as f64 + rng.unit()) / per_strategy as f64) as usize;
    }
    rng.shuffle(&mut pairs);
    pairs
}

impl Corpus {
    /// Generates the corpus of `seed`: the same seed gives the same
    /// programs and requests.
    pub fn generate(seed: u64) -> Corpus {
        let mut rng = Rng::new(seed);
        let mut items = Vec::new();
        let mut pool = Vec::new();
        let request = |rng: &mut Rng, strategy: &str, candidates: CandidateOptions| {
            OptimizeRequest::strategy(strategy)
                .candidates(candidates)
                .seed(rng.next_u64())
        };

        for benchmark in Benchmark::all() {
            let candidates = benchmark.candidate_options();
            for strategy in STRATEGIES {
                for _ in 0..PAPER_REPEATS {
                    pool.push(Entry {
                        item: items.len(),
                        request: request(&mut rng, strategy, candidates),
                    });
                }
            }
            items.push(Item {
                program: benchmark.program(),
                family: Family::Paper,
                candidates,
            });
        }

        // Pipelines: 10-89 stages, zero to two shared coefficient arrays,
        // images from 16 KB (twice the paper machine's L1) to 256 KB (four
        // times its L2).  Every strategy gets the same spread of sizes.
        let candidates = Benchmark::MedIm04.candidate_options();
        for (k, (strategy, stages)) in stratified_by_strategy(&mut rng, PIPELINES, 10, 80)
            .into_iter()
            .enumerate()
        {
            let extent = [64, 96, 128, 256][k % 4];
            let mut builder = ProgramBuilder::new(format!("pipeline{k}"));
            let shared: Vec<_> = (0..k % 3)
                .map(|c| builder.array(format!("coeff{c}"), vec![extent, extent], 4))
                .collect();
            add_pipeline(&mut builder, "p", stages, extent, 4, &shared);
            pool.push(Entry {
                item: items.len(),
                request: request(&mut rng, strategy, candidates),
            });
            items.push(Item {
                program: builder.build(),
                family: Family::Pipeline,
                candidates,
            });
        }

        // Random programs: 6-23 arrays, 6-26 nests, 4-64 KB arrays.
        let candidates = CandidateOptions::default();
        for (k, (strategy, size)) in stratified_by_strategy(&mut rng, RANDOMS, 6, 18)
            .into_iter()
            .enumerate()
        {
            let spec = RandomProgramSpec {
                arrays: size,
                nests: size + rng.below(4),
                extent: [32, 64, 128][k % 3],
                reads_per_nest: 1 + k % 3,
                seed: rng.next_u64(),
            };
            pool.push(Entry {
                item: items.len(),
                request: request(&mut rng, strategy, candidates),
            });
            items.push(Item {
                program: random_program(&spec),
                family: Family::Random,
                candidates,
            });
        }
        Corpus { items, pool }
    }

    pub fn program(&self, entry: usize) -> &Program {
        &self.items[self.pool[entry].item].program
    }

    pub fn item_of(&self, entry: usize) -> &Item {
        &self.items[self.pool[entry].item]
    }

    /// The row of the per-family tables an entry belongs to: the paper
    /// program's own name, or the family name.
    pub fn row_of(&self, entry: usize) -> &str {
        let item = self.item_of(entry);
        match item.family {
            Family::Paper => item.program.name(),
            family => family.name(),
        }
    }

    /// The hot subset `serve` repeats: for each strategy, its pipeline of
    /// median size.  The pipelines change with the seed, but their sizes
    /// are stratified, so the hot traffic costs the same for every seed.
    pub fn hot_set(&self) -> Vec<usize> {
        STRATEGIES
            .iter()
            .map(|&strategy| {
                let mut pipelines: Vec<usize> = (0..self.pool.len())
                    .filter(|&entry| {
                        self.item_of(entry).family == Family::Pipeline
                            && self.pool[entry].request.strategy.as_str() == strategy
                    })
                    .collect();
                pipelines.sort_by_key(|&entry| self.program(entry).nests().len());
                pipelines[pipelines.len() / 2]
            })
            .collect()
    }

    /// Fingerprint of every program and request in the pool.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv::default();
        for item in &self.items {
            hash.write(format!("{:?}{:?}", item.program, item.candidates).as_bytes());
        }
        for entry in &self.pool {
            hash.write(format!("{}{:?}", entry.item, entry.request).as_bytes());
        }
        hash.finish()
    }
}

/// Extra requests per pass drawn from the hot subset (serve only): eight
/// repeats of each of its six entries.
const HOT_REPEATS: usize = 48;

/// An endless seeded request sequence over a corpus's pool: every pass is a
/// fresh permutation of the whole pool (plus, when asked for, repeats of a
/// small hot subset), so a run's request mix is the pool's mix whatever
/// its length.
#[derive(Debug, Clone)]
pub struct Sequence {
    rng: Rng,
    base: Vec<usize>,
    pass: Vec<usize>,
    position: usize,
}

impl Sequence {
    pub fn new(corpus: &Corpus, seed: u64, hot: bool) -> Sequence {
        let rng = Rng::new(seed ^ 0x5eed_5e9e_0c0f_fee5);
        let mut base: Vec<usize> = (0..corpus.pool.len()).collect();
        if hot {
            let set = corpus.hot_set();
            base.extend((0..HOT_REPEATS).map(|i| set[i % set.len()]));
        }
        Sequence {
            rng,
            pass: base.clone(),
            base,
            position: usize::MAX,
        }
    }

    /// Fingerprint of the first `count` requests of a fresh copy of this
    /// sequence.
    pub fn fingerprint(&self, count: usize) -> u64 {
        let mut copy = self.clone();
        let mut hash = Fnv::default();
        for _ in 0..count {
            hash.write(&(copy.next_entry() as u64).to_le_bytes());
        }
        hash.finish()
    }

    pub fn next_entry(&mut self) -> usize {
        if self.position >= self.pass.len() {
            self.pass.copy_from_slice(&self.base);
            self.rng.shuffle(&mut self.pass);
            self.position = 0;
        }
        self.position += 1;
        self.pass[self.position - 1]
    }
}
