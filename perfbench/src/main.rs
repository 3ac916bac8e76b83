//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <tpcc-local|ycsb-lifecycle|append-replicated>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload at one seed until `--seconds` of host time have
//! been used (a first, warm-up repetition whose host times are dropped,
//! then at least [`MIN_REPS`] measured ones), times the reference kernel
//! of [`xssd_perfbench::calib`] between repetitions, checks every
//! repetition's outputs and that all of them simulated the same thing,
//! and prints the metrics. The last line of standard output is one JSON
//! object: with `--trace 0` it holds the end-to-end metrics, with
//! `--trace 1` the per-layer ones (untraced and traced repetitions
//! alternate, so the tracing overhead is measured too, and the last
//! traced repetition's spans are written to a file). Exits 1 when any
//! operation or check failed, 2 on bad arguments.

use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;
use xssd_perfbench::calib::{Kind, Reference, REF_SHARE, RUNS_PER_REF_S};
use xssd_perfbench::report::{self, END_TO_END, PER_LAYER};
use xssd_perfbench::trace::Tracer;
use xssd_perfbench::{run_rep, Rep, WORKLOADS};

/// Fewest measured repetitions per run, whatever `--seconds` says.
const MIN_REPS: usize = 4;

/// Environment knobs of the repository's harnesses and simulator that
/// would change what is measured: the benchmark always runs the
/// sequential simulator on one thread and writes no results files.
const CLEARED_ENV: [&str; 4] =
    ["XSSD_BENCH_THREADS", "XSSD_SIM_THREADS", "XSSD_SIM_METRICS", "XSSD_RESULTS_DIR"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage())),
            "--seconds" => seconds = Some(value.parse().unwrap_or_else(|_| usage())),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                })
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) if seconds >= 1 => {
            Args { workload, seed, seconds, trace }
        }
        _ => usage(),
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Where the traced run's spans go: beside the build output.
fn trace_path(args: &Args) -> PathBuf {
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from(".bench_build"), PathBuf::from);
    dir.join("perfbench-trace").join(format!("{}-seed{}.tsv", args.workload, args.seed))
}

fn main() {
    let args = parse_args();
    for var in CLEARED_ENV {
        std::env::remove_var(var);
    }

    let start = Instant::now();
    let budget_ns = args.seconds as u128 * 1_000_000_000;
    // The first repetition pays for page faults and cold caches that
    // later ones do not: it is checked but not timed.
    let warmup = run_rep(&args.workload, args.seed, &Tracer::shared(false));
    let warmup_ns = start.elapsed().as_nanos() as f64;
    // Read before the reference kernel allocates, so that only the
    // workload's memory counts, and it does not depend on how many
    // repetitions fit in the budget.
    let peak_rss = peak_rss_mib();
    let mut reference = Reference::new(Kind::for_workload(&args.workload));
    let mut ref_before = reference.mean_ns(warmup_ns * REF_SHARE);
    let (mut untraced, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    // Reference time around each untraced repetition: the mean of the
    // runs right before and right after it.
    let mut untraced_ref_ns: Vec<f64> = Vec::new();
    let mut totals = report::Totals::new();
    let mut last_tracer = None;
    // Failures of the benchmark's own checks, beside each repetition's.
    let mut failures: Vec<String> = Vec::new();
    loop {
        let done = untraced.len() + traced.len();
        let elapsed = start.elapsed().as_nanos();
        // Start another repetition only if it should end within budget.
        if done >= MIN_REPS && elapsed + elapsed / (done as u128 + 1) > budget_ns {
            break;
        }
        let trace_this = args.trace && done % 2 == 1;
        let tracer = Tracer::shared(trace_this);
        let t_rep = Instant::now();
        let rep = run_rep(&args.workload, args.seed, &tracer);
        let ref_after = reference.mean_ns(t_rep.elapsed().as_nanos() as f64 * REF_SHARE);
        let ref_ns = (ref_before + ref_after) / 2.0;
        ref_before = ref_after;
        if rep.sim != warmup.sim {
            failures
                .push(format!("repetition {} simulated differently at the same seed", done + 1));
        }
        eprintln!(
            "rep {} traced={trace_this} setup {:.1} ms run {:.1} ms recovery {:.1} ms reference {:.1} ms",
            done + 1,
            rep.setup_ns as f64 / 1e6,
            rep.run_ns as f64 / 1e6,
            rep.recovery_ns as f64 / 1e6,
            ref_ns / 1e6
        );
        if trace_this {
            report::accumulate(&mut totals, tracer.borrow().totals_by_root());
            last_tracer = Some(tracer);
            traced.push(rep);
        } else {
            untraced.push(rep);
            untraced_ref_ns.push(ref_ns);
        }
    }

    let all = || std::iter::once(&warmup).chain(&untraced).chain(&traced);
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let rep_failed: u64 = all().map(|r| r.failed).sum();
    let failed_frac = (rep_failed + failures.len() as u64) as f64 / attempted.max(1) as f64;
    let (metrics, mut values): (&[(&str, &str)], Vec<f64>) = if args.trace {
        (&PER_LAYER, report::per_layer(&traced, &untraced, &totals, failed_frac))
    } else {
        (&END_TO_END, report::end_to_end(&untraced, &untraced_ref_ns, peak_rss))
    };
    for ((name, _), v) in metrics.iter().zip(values.iter_mut()) {
        if !v.is_finite() {
            failures.push(format!("metric {name} is not a finite number"));
            *v = 0.0;
        }
    }

    if let Some(tracer) = &last_tracer {
        let path = trace_path(&args);
        let written = std::fs::create_dir_all(path.parent().expect("trace path has a directory"))
            .and_then(|()| {
                let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
                tracer.borrow().write_tsv(&mut out)?;
                out.flush()
            });
        match written {
            Ok(()) => println!("trace: {}", path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
    }

    let sim = &warmup.sim;
    println!(
        "workload {} seed {} reps {} + 1 warm-up (traced {}) host {:.2} s",
        args.workload,
        args.seed,
        untraced.len() + traced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!("sim_digest {:016x}", sim.digest);
    println!("commit latency samples {}", sim.commit_samples);
    let failed = rep_failed + failures.len() as u64;
    println!("failed_frac {failed_frac} ({failed} of {attempted})");
    let host = |f: fn(&Rep) -> u64| {
        let ms: Vec<f64> = untraced.iter().map(|r| f(r) as f64 / 1e6).collect();
        (report::median(&ms), ms.iter().copied().fold(f64::INFINITY, f64::min))
    };
    for (phase, (median, min)) in [
        ("setup", host(|r| r.setup_ns)),
        ("run", host(|r| r.run_ns)),
        ("recovery", host(|r| r.recovery_ns)),
    ] {
        println!("host {phase:<8} median {median:10.3} ms  fastest {min:10.3} ms (wall clock)");
    }
    let refs_ms: Vec<f64> = untraced_ref_ns.iter().map(|ns| ns / 1e6).collect();
    println!(
        "reference kernel median {:.3} ms  fastest {:.3} ms ({} runs per reference second)",
        report::median(&refs_ms),
        refs_ms.iter().copied().fold(f64::INFINITY, f64::min),
        RUNS_PER_REF_S
    );
    for ((name, unit), v) in metrics.iter().zip(&values) {
        println!("  {name:<40} {v:>16.6} {unit}");
    }
    for f in all().flat_map(|r| &r.failures).chain(&failures) {
        println!("FAILED: {f}");
    }
    let correct = failed == 0;
    println!("{}", report::result_json(correct, attempted, failed, metrics, &values));
    std::process::exit(if correct { 0 } else { 1 });
}
