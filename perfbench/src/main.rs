//! Request-path benchmark of the layout optimizer.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile|serve|evaluate|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload untraced and then traced, and reports the per-layer metrics.
//! The last line of standard output is the run's JSON result.  See
//! `README.md` next to this file for the workloads and metrics.

mod checks;
mod corpus;
mod sys;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{State, Window, Workload};

/// Set-ups per run; `setup_s` is the median of their scaled durations.  A
/// set-up takes 0.15–0.3 s, short enough for one host burst to move it or
/// to slip between the readings around it: unscaled, over ten seeds in one
/// host state, the first set-up alone spread 19% (compile) and 15% (serve)
/// where the median of five spread 12% and 10%; scaled, one set-up in
/// five or so still reads a fifth off its run's others, and the median of
/// five spread up to 10% over ten seeds.
const SETUP_REPETITIONS: usize = 9;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut all = false;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => all = true,
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload `{value}` (compile, serve, evaluate, all)")
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let parsed: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(parsed.is_finite() && parsed > 0.0) {
                    return Err(format!("bad seconds `{value}`"));
                }
                seconds = Some(parsed);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if workload.is_none() && !all {
        return Err("--workload is required".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let main_entry = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // With both vCPUs of a shared VM busy, host steal reached 20-40% and
    // moved every timing by as much; on one CPU it stays near 2-6%.  The
    // session pools size themselves from the pinned affinity (one worker).
    let cpu = match sys::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(error) => {
            eprintln!("perfbench: pinning to one CPU: {error}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.workload {
        Some(workload) if args.trace => run_traced(workload, &args, cpu),
        Some(workload) => run_end_to_end(workload, &args, main_entry, cpu),
        None => run_all(&args),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// A metric value as JSON, refusing values JSON cannot carry.
fn number(value: f64) -> Result<String, String> {
    if value.is_finite() {
        Ok(format!("{value}"))
    } else {
        Err(format!("non-finite metric value {value}"))
    }
}

/// The final result line.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> Result<String, String> {
    let mut body = Vec::new();
    for (name, unit, value) in metrics {
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            number(*value)?
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

fn print_header(workload: Workload, args: &Args, cpu: usize) {
    println!(
        "perfbench {} seed={} seconds={} trace={} pinned to cpu {cpu}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

fn print_noise(window: &Window) {
    let factors: Vec<f64> = window
        .reference_ms
        .windows(2)
        .map(|pair| sys::host_factor(pair[0], pair[1]))
        .collect();
    let (low, high) = factors
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(low, high), f| {
            (low.min(*f), high.max(*f))
        });
    println!(
        "  noise: host steal {:.2}% of the window, process CPU {:.3} s over {:.3} s ({:.2} cores); host factor median {:.3}, range {:.3}-{:.3} over {} segments (reference {:.3} ms at factor 1)",
        window.steal_pct,
        window.cpu_s,
        window.wall_s,
        window.cpu_s / window.wall_s,
        sys::median(&factors),
        low,
        high,
        factors.len(),
        sys::REFERENCE_MS,
    );
}

/// Runs the checks and prints what they found; returns the failed count
/// and the digest.
fn check_and_report(state: &State, window: &Window) -> (u64, checks::Digest) {
    for message in &window.failures {
        println!("  failed request: {message}");
    }
    let (checks, digest) = checks::run_checks(state, &window.first);
    println!(
        "  checks: {} passed, {} failed",
        checks.checked - checks.failures.len() as u64,
        checks.failures.len()
    );
    for message in &checks.failures {
        println!("  failed check: {message}");
    }
    let digest = digest.unwrap_or_default();
    println!(
        "  digest: corpus {:016x} sequence {:016x} nodes {} accesses {} fallbacks {} cycles_saved_pct {}",
        digest.corpus, digest.sequence, digest.nodes, digest.accesses, digest.fallbacks, digest.cycles_saved_pct
    );
    (checks.failures.len() as u64, digest)
}

fn run_end_to_end(
    workload: Workload,
    args: &Args,
    main_entry: Instant,
    cpu: usize,
) -> Result<String, String> {
    print_header(workload, args, cpu);
    // Every set-up is real and complete; the last one's state is measured.
    // The first repetition starts at `main` entry.  Each is scaled by the
    // host factor of the reference readings on either side of it.
    let mut setups = Vec::with_capacity(SETUP_REPETITIONS);
    let mut scaled_setups = Vec::with_capacity(SETUP_REPETITIONS);
    let mut began = main_entry;
    let mut state = None;
    for _ in 0..SETUP_REPETITIONS {
        drop(state.take());
        let before = sys::reference_ms();
        state = Some(workload::set_up(workload, args.seed));
        let setup_s = began.elapsed().as_secs_f64();
        let factor = sys::host_factor(before, sys::reference_ms());
        setups.push(setup_s);
        scaled_setups.push(setup_s / factor);
        began = Instant::now();
    }
    let state = state.expect("at least one set-up");
    let main_to_window = main_entry.elapsed().as_secs_f64();

    let window = workload::run_window(&state, args.seconds);
    let latencies = window.scaled_latencies_ms();
    let tail = sys::tail(&latencies).ok_or_else(|| {
        format!(
            "only {} requests completed: too few for a tail",
            latencies.len()
        )
    })?;
    let (failed_checks, digest) = check_and_report(&state, &window);
    let metrics = [
        ("throughput_rps", "1/s", window.throughput_rps()),
        ("latency_p50_ms", "ms", sys::median(&latencies)),
        ("latency_tail_ms", "ms", tail.value),
        ("setup_s", "s", sys::median(&scaled_setups)),
        ("peak_rss_mb", "MB", window.peak_rss_mb),
        ("cycles_saved_pct", "%", digest.cycles_saved_pct),
    ];
    for (name, unit, value) in &metrics {
        println!("  {name:<18} {value:>14.4} {unit}");
    }
    println!(
        "  tail: p{:.3} ({} of {} samples beyond it)",
        tail.percentile,
        tail.beyond,
        latencies.len()
    );
    let measured_tail = sys::tail(&window.latencies_ms).map_or(f64::NAN, |tail| tail.value);
    println!(
        "  as measured, before scaling to the calibration host speed: throughput {:.4} 1/s, p50 {:.4} ms, tail {:.4} ms, set-up {:.4} s",
        window.measured_throughput_rps(),
        sys::median(&window.latencies_ms),
        measured_tail,
        sys::median(&setups),
    );
    let setups_text: Vec<String> = setups
        .iter()
        .zip(&scaled_setups)
        .map(|(measured, scaled)| format!("{measured:.4} (x{:.3})", measured / scaled))
        .collect();
    println!(
        "  set-ups as measured (s, host factor): [{}]; main entry to window {main_to_window:.3} s",
        setups_text.join(", ")
    );
    print_noise(&window);
    let failed = window.failed + failed_checks;
    result_line(failed == 0, window.attempted, failed, &metrics)
}

fn run_traced(workload: Workload, args: &Args, cpu: usize) -> Result<String, String> {
    print_header(workload, args, cpu);
    let state = workload::set_up(workload, args.seed);
    let half = args.seconds / 2.0;
    let untraced = workload::run_window(&state, half);
    let mut traced = traced::run_traced(&state, half);

    let untraced_p50 = sys::median(&untraced.scaled_latencies_ms());
    let traced_p50 = sys::median(&traced.window.scaled_latencies_ms());
    let overhead_pct = 100.0 * (traced_p50 - untraced_p50) / untraced_p50;
    let process = [
        ("service.cpu_cores", untraced.cpu_s / untraced.wall_s),
        ("trace.overhead_pct", overhead_pct),
    ];
    traced.add_served(&untraced.served);
    let table = traced.layer_table(&state.corpus, &process);
    let spans_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", workload.name()));
    traced
        .write_spans(&spans_path)
        .map_err(|error| format!("writing {}: {error}", spans_path.display()))?;

    println!(
        "  untraced p50 {untraced_p50:.4} ms over {} requests; traced p50 {traced_p50:.4} ms over {} requests (both scaled); {} spans in {}",
        untraced.latencies_ms.len(),
        traced.window.latencies_ms.len(),
        traced.tracer.spans.len(),
        spans_path.display()
    );
    print_table(&table);
    print_noise(&traced.window);

    // Both windows' outputs are checked.
    let mut window = traced.window;
    for (first, other) in window.first.iter_mut().zip(untraced.first) {
        if first.is_none() {
            *first = other;
        }
    }
    window.failures.extend(untraced.failures);
    let (failed_checks, _) = check_and_report(&state, &window);
    let failed = window.failed + untraced.failed + failed_checks;
    result_line(
        failed == 0,
        window.attempted + untraced.attempted,
        failed,
        &table.rows[0].1,
    )
}

/// Prints the per-layer table: one column per row of the table.
fn print_table(table: &traced::LayerTable) {
    let mut out = String::new();
    let _ = write!(out, "  {:<24} {:>6}", "per-layer metric", "unit");
    for (row, _) in &table.rows {
        let _ = write!(out, " {row:>10}");
    }
    println!("{out}");
    for (index, (metric, unit, _)) in table.rows[0].1.iter().enumerate() {
        let mut out = String::new();
        let _ = write!(out, "  {metric:<24} {unit:>6}");
        for (_, values) in &table.rows {
            match values.get(index).filter(|(name, _, _)| name == metric) {
                Some((_, _, value)) => {
                    let _ = write!(out, " {value:>10.4}");
                }
                None => {
                    let _ = write!(out, " {:>10}", "-");
                }
            }
        }
        println!("{out}");
    }
}

/// Runs every workload, each in its own process, and prints all their
/// metrics; the last line combines their results.
fn run_all(args: &Args) -> Result<String, String> {
    let exe =
        std::env::current_exe().map_err(|error| format!("locating the benchmark: {error}"))?;
    let mut correct = true;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut parts = Vec::new();
    for workload in Workload::ALL {
        let output = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|error| format!("running {}: {error}", workload.name()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        if !output.status.success() {
            return Err(format!("{} exited with {}", workload.name(), output.status));
        }
        let field = |name: &str| -> Option<&str> {
            let start = last.find(&format!("\"{name}\": "))? + name.len() + 4;
            let rest = &last[start..];
            Some(&rest[..rest.find([',', '}'])?])
        };
        correct &= field("correct") == Some("true");
        attempted += field("attempted")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        failed += field("failed")
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(1);
        let metrics_at = last
            .find("\"metrics\": ")
            .ok_or_else(|| format!("{} printed no metrics", workload.name()))?;
        let metrics = &last[metrics_at + "\"metrics\": ".len()..last.len() - 1];
        parts.push(format!("\"{}\": {metrics}", workload.name()));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}
