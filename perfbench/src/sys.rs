//! Process and host readings from `/proc`, the host-speed reference the
//! time metrics are scaled by, and the order statistics every report uses.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fs;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Clock ticks per second of the `/proc` CPU counters (`getconf CLK_TCK`;
/// 100 on every Linux target Rust supports).
const CLK_TCK: f64 = 100.0;

/// The kernel's `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the first CPU it may run on; returns that CPU.  Call it before any other
/// thread exists so the whole process runs there.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut mask: CpuSet = [0; 16];
    // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is its exact size; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..mask.len() * 64)
        .find(|cpu| (mask[cpu / 64] >> (cpu % 64)) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty CPU affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live `cpu_set_t`-sized buffer and the size passed
    // is its exact size; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|value| value.parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// User plus system CPU time of this process, in seconds.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / CLK_TCK
}

/// Host-wide CPU counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct HostCpu {
    steal: f64,
    total: f64,
}

impl HostCpu {
    /// Reads the counters now.
    pub fn now() -> HostCpu {
        let stat = fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
        let line = stat.lines().next().expect("/proc/stat has a cpu line");
        let values: Vec<f64> = line
            .split_whitespace()
            .skip(1)
            .map(|value| value.parse().expect("numeric /proc/stat field"))
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so it is left out.
        HostCpu {
            steal: values.get(7).copied().unwrap_or(0.0),
            total: values.iter().take(8).sum(),
        }
    }

    /// Share of host CPU time stolen by the hypervisor since `earlier`, in
    /// percent.
    pub fn steal_pct_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total - earlier.total;
        if total <= 0.0 {
            0.0
        } else {
            100.0 * (self.steal - earlier.steal) / total
        }
    }
}

/// Milliseconds [`reference_ms`] reads on the 2-vCPU Xeon VM the benchmark
/// was calibrated on, in its fast state.  Time metrics are scaled to that
/// host speed; the constant only sets the scale and is the same for every
/// commit measured.
pub const REFERENCE_MS: f64 = 1.35;

/// A loop-nest-like record for the reference kernel.
#[derive(Debug, Clone)]
struct Nest {
    name: String,
    bounds: Vec<(i64, i64)>,
    refs: Vec<(usize, Vec<i64>)>,
}

/// One run of the reference kernel: fixed general-purpose code that shares
/// nothing with the program.  It renders small nested records with
/// `Debug`, hashes them into sets and maps, clones `Arc`s, sorts and fills
/// a B-tree, touching well under 1 MiB.
fn reference_kernel() {
    let mut total = 0usize;
    for round in 0..2i64 {
        let nests: Vec<Arc<Nest>> = (0..300i64)
            .map(|i| {
                Arc::new(Nest {
                    name: format!("n{i}"),
                    bounds: vec![(0, i), (round, i * 2)],
                    refs: (0..4).map(|k| (k, vec![i, k as i64, round])).collect(),
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for nest in &nests {
            total += format!("{nest:?}").len() + nest.name.len() + nest.bounds.len();
            let shared = Arc::clone(nest);
            for (array, subscripts) in &shared.refs {
                seen.insert((*array, subscripts.clone()));
            }
        }
        total += seen.len();
    }
    let mut keys: HashMap<String, u64> = HashMap::new();
    for i in 0..500u64 {
        keys.insert(format!("key-{i}-{}", i * 7919 % 1000), i);
    }
    for i in 0..500u64 {
        total += keys
            .get(&format!("key-{i}-{}", i * 7919 % 1000))
            .map_or(0, |value| *value as usize);
    }
    let mut values: Vec<u64> = (0..5_000u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % 100_003)
        .collect();
    values.sort_unstable();
    let mut tree = BTreeMap::new();
    for i in 0..800u64 {
        tree.insert(i.wrapping_mul(40_503) % 65_521, vec![i; 4]);
    }
    std::hint::black_box((total, values, tree));
}

/// Reads the host's speed: the median duration, in ms, of three runs of
/// the reference kernel.
///
/// On the shared VM the host's speed moves in bursts and plateaus by up to
/// 2×.  The kernel's duration moved with the workloads' request costs to
/// within a few percent, where an integer-only loop moved by a tenth as
/// much and a random-access walk over 4 MiB by two thirds.  Single runs
/// right after the program freed or allocated much memory read up to a
/// fifth slow; the median of three does not.
pub fn reference_ms() -> f64 {
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            reference_kernel();
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&runs)
}

/// How much slower than [`REFERENCE_MS`] the host ran between two
/// reference readings (1 = calibration speed, 2 = half as fast).
pub fn host_factor(before_ms: f64, after_ms: f64) -> f64 {
    0.5 * (before_ms + after_ms) / REFERENCE_MS
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The percentile the latency tail is reported at.
pub const TAIL_PERCENTILE: f64 = 98.0;
/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The latency tail of one run.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The percentile `value` is at.
    pub percentile: f64,
    /// Samples above `value`.
    pub beyond: usize,
}

/// The latency tail of `values`: the nearest-rank value at
/// [`TAIL_PERCENTILE`], or, in a run too short for that to leave
/// [`TAIL_BEYOND`] samples above it, at the highest percentile that does.
///
/// The percentile is fixed rather than the highest with ten samples
/// beyond: `evaluate` completes 700–1500 requests in 20 s depending on the
/// host's speed, and a percentile that moved with the count moved its tail
/// between the cost of the paper's MxM requests and that of the largest
/// pipelines.  In runs of thousands of requests, the 2% beyond it are far
/// more than the requests a host stall lands on.  `None` when there are
/// too few samples.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let count = values.len();
    if count <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (TAIL_PERCENTILE / 100.0 * count as f64).ceil() as usize;
    let index = rank.clamp(1, count - TAIL_BEYOND) - 1;
    Some(Tail {
        value: sorted[index],
        percentile: 100.0 * (index + 1) as f64 / count as f64,
        beyond: count - index - 1,
    })
}

/// Geometric mean of strictly positive values (0 when none are).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, count) = values
        .into_iter()
        .filter(|value| *value > 0.0)
        .fold((0.0, 0usize), |(sum, count), value| {
            (sum + value.ln(), count + 1)
        });
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).exp()
    }
}

/// FNV-1a over a byte stream: a stable fingerprint that does not depend on
/// the standard library's hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the fingerprint.
    pub fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.0 ^= u64::from(*byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The fingerprint so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
