//! End-to-end benchmark of the I-DGNN simulator.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <sim-large|stream-trickle|paper-grid> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process, at most two host threads, a closed loop with one client: each
//! repetition of the timed body starts when the previous one ends. The last
//! line of standard output is one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of the traced run (`--trace 1`); a
//! human-readable report goes to standard error. Any failed simulation or
//! output check makes the exit code non-zero.

mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use idgnn_bench::report::{geomean, mean, reduction_pct};
use idgnn_sparse::{parallel, workspace, Parallelism};

use trace::{Span, Tracer};
use workload::{Fingerprint, Kind, HOST_THREADS, OUTPUT_TOLERANCE};

/// Set-ups per round, at least this many and for at least this long. A run
/// sets up in two rounds, one before and one after the timed body, so the
/// set-ups sample the host at two times; `setup_s` is the median of both.
const SETUP_MIN_RUNS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 2.0;

/// Traced run: repetitions paired with a standalone one-pass executor run,
/// at least; `core.self_ms` is the median of the paired differences.
const MIN_PAIRS: usize = 3;

/// Timed repetitions per run, at least. `peak_rss_mb` is read after the last
/// of these, so it does not depend on how many repetitions fit in
/// `--seconds` (the allocator's and buffer pool's footprint grows over the
/// first repetitions); the traced run needs one repetition with and one
/// without spans.
const MIN_REPS: u32 = 2;

/// The paper's Fig. 12 mean execution-time reductions of I-DGNN against
/// ReaDy, DGNN-Booster and RACE, in percent.
const PAPER_REDUCTIONS: [f64; 3] = [65.9, 71.1, 58.8];
const BASELINE_NAMES: [&str; 3] = ["ReaDy", "DGNN-Booster", "RACE"];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("missing value after {}", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(15.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "e2ebench: {e}\nusage: e2ebench --workload <sim-large|stream-trickle|paper-grid> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    parallel::set_process_default(Parallelism::new(HOST_THREADS));
    match run(&args) {
        Ok(outcome) => {
            println!("{}", outcome.to_json());
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Peak resident set size of this process (`VmHWM` in `/proc/self/status`),
/// MiB; NaN where the kernel does not report it.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().strip_suffix("kB"))
                .and_then(|kib| kib.trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One set-up round (see [`SETUP_MIN_RUNS`]): appends each set-up's seconds
/// to `secs` and returns the last set-up's instances.
fn set_up_round(
    kind: Kind,
    seed: u64,
    tracer: &Tracer,
    secs: &mut Vec<f64>,
) -> Result<Vec<workload::Instance>, idgnn_core::CoreError> {
    let (mut instances, mut round) = (Vec::new(), Vec::new());
    while round.len() < SETUP_MIN_RUNS || round.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(std::mem::take(&mut instances));
        let r = secs.len() as u32;
        let (built, s) = workload::timed(|| workload::setup(kind, seed, tracer, r));
        instances = built?;
        eprintln!("set-up {r}: {s:.3} s");
        secs.push(s);
        round.push(s);
    }
    Ok(instances)
}

fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    let kind = args.kind;
    let live = Tracer::new(args.trace);
    let off = Tracer::new(false);

    let mut setup_secs = Vec::new();
    let instances = set_up_round(kind, args.seed, &live, &mut setup_secs)?;
    let per_rep = workload::transitions_per_rep(kind, &instances);

    // Timed body: a closed loop with one client. In the traced run, even
    // repetitions record spans and odd ones do not, which gives the tracing
    // overhead from the same process and inputs; after each traced repetition
    // (outside its timing) the one-pass executor runs alone on the same inputs.
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<(Vec<idgnn_core::SimReport>, Vec<Fingerprint>)> = None;
    let (mut rates, mut traced_rates) = (Vec::new(), Vec::new());
    let pool_before = workspace::pool_counters();
    let loop_start = Instant::now();
    let mut rep = 0u32;
    let mut peak_rss = f64::NAN;
    while rep < MIN_REPS
        || loop_start.elapsed().as_secs_f64() < args.seconds
        || (args.trace && traced_rates.len() < MIN_PAIRS)
    {
        let traced = args.trace && rep.is_multiple_of(2);
        let tracer = if traced { &live } else { &off };
        let (result, secs) = workload::timed(|| {
            workload::run_rep(kind, &instances, HOST_THREADS, tracer, None, rep)
        });
        eprintln!(
            "repetition {rep}: {secs:.3} s{}",
            if traced { " (traced)" } else { "" }
        );
        if rep + 1 == MIN_REPS {
            peak_rss = peak_rss_mib();
        }
        if traced {
            workload::exec_probe(kind, &instances, tracer, rep)?;
        }
        attempted += 1;
        match result {
            Ok(reports) => {
                let fps: Vec<Fingerprint> = reports.iter().map(Fingerprint::of).collect();
                match &first {
                    Some((_, f0)) if *f0 != fps => {
                        failed += 1;
                        eprintln!("check failed: repetition {rep} simulated different statistics");
                    }
                    Some(_) => {}
                    None => first = Some((reports, fps)),
                }
                let rate = per_rep as f64 / secs;
                if traced {
                    traced_rates.push(rate)
                } else {
                    rates.push(rate)
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("simulation failed in repetition {rep}: {e}");
            }
        }
        rep += 1;
    }
    let pool_after = workspace::pool_counters();
    // The second set-up round; its instances, which must simulate exactly as
    // the first round's did, go through the checks.
    drop(instances);
    let instances = set_up_round(kind, args.seed, &live, &mut setup_secs)?;
    let Some((reports, fingerprints)) = first else {
        return Err("no repetition of the timed body succeeded".into());
    };

    // Untimed checks: each instance's timed statistics must match its rerun
    // at the other thread count, and its one-pass outputs the reference.
    let verified = workload::verify(kind, &instances)?;
    let per_instance = reports.len() / instances.len();
    let idgnn: Vec<&idgnn_core::SimReport> = reports.iter().step_by(per_instance).collect();
    for ((v, timed), r) in verified
        .iter()
        .zip(fingerprints.chunks(per_instance))
        .zip(&idgnn)
    {
        attempted += 1;
        let rerun: Vec<Fingerprint> = v
            .rerun
            .iter()
            .take(per_instance)
            .map(Fingerprint::of)
            .collect();
        if rerun != timed {
            failed += 1;
            eprintln!("check failed: simulated statistics differ between host-thread counts");
        }
        attempted += 1;
        let ops_match = v.onepass.total_ops() == r.ops;
        eprintln!("output check: normwise relative error {:e}", v.rel_err);
        let within = v.rel_err <= OUTPUT_TOLERANCE; // false for NaN
        if !within || !ops_match {
            failed += 1;
            eprintln!(
                "check failed: one-pass vs recompute normwise relative error {:e} (tolerance \
                 {OUTPUT_TOLERANCE:e}); one-pass op counts equal the simulation's: {ops_match}",
                v.rel_err
            );
        }
    }

    let sim_cycles: f64 = idgnn.iter().map(|r| r.total_cycles).sum();
    let sim_energy_uj: f64 = idgnn.iter().map(|r| r.energy.total_pj()).sum::<f64>() / 1e6;
    let ratios: Vec<f64> = verified
        .iter()
        .zip(&idgnn)
        .flat_map(|(v, r)| v.baseline_cycles().map(|c| c / r.total_cycles))
        .collect();
    let speedup = geomean(&ratios);
    let snapshots_per_s = median(&rates);

    let mut report = format!(
        "workload {} seed {} | {} set-ups | {} repetitions x {per_rep} snapshot transitions | host threads {HOST_THREADS}\n",
        kind.name(),
        args.seed,
        setup_secs.len(),
        rep
    );
    let error_rate = failed as f64 / attempted as f64;
    let end_to_end: Vec<(&'static str, f64, &'static str)> = vec![
        ("snapshots_per_s", snapshots_per_s, "1/s"),
        ("setup_s", median(&setup_secs), "s"),
        ("peak_rss_mb", peak_rss, "MiB"),
        ("sim_cycles", sim_cycles, "cycles"),
        ("sim_energy_uj", sim_energy_uj, "uJ"),
        ("idgnn_speedup", speedup, "x"),
    ];
    for (name, value, unit) in &end_to_end {
        let _ = writeln!(report, "  {name:<16} {value:>16.4} {unit}");
    }
    let _ = writeln!(
        report,
        "  {:<16} {error_rate:>16.4} share ({failed} of {attempted} failed)",
        "error_rate"
    );
    if kind == Kind::PaperGrid {
        let _ = writeln!(
            report,
            "comparison with published numbers (Fig. 12), not a validation:"
        );
        for (b, (name, paper)) in BASELINE_NAMES.iter().zip(PAPER_REDUCTIONS).enumerate() {
            let reductions: Vec<f64> = idgnn
                .iter()
                .zip(&verified)
                .map(|(r, v)| reduction_pct(r.total_cycles, v.baseline_cycles()[b]))
                .collect();
            let _ = writeln!(
                report,
                "  mean execution-time reduction vs {name:<12} simulated {:5.1}%   paper {paper:.1}%",
                mean(&reductions)
            );
        }
    }
    let _ = writeln!(
        report,
        "simulated numbers come from the analytical hardware model, which is not validated against silicon\n\
         process peak RSS including the untimed checks: {:.0} MiB",
        peak_rss_mib()
    );

    let metrics = if args.trace {
        let mut counts = workload::ProbeCounts::default();
        for (inst, v) in instances.iter().zip(&verified) {
            workload::probe(inst, &v.onepass, &live, &mut counts)?;
        }
        let spans = live.spans();
        let out_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
        std::fs::create_dir_all(out_dir)?;
        let path = format!("{out_dir}/trace-{}-{}.json", kind.name(), args.seed);
        std::fs::write(&path, trace::to_json(&spans))?;
        let _ = writeln!(report, "{} spans written to {path}", spans.len());
        layer_metrics(
            &spans,
            &counts,
            &idgnn,
            pool_before,
            pool_after,
            &rates,
            &traced_rates,
        )
    } else {
        end_to_end
    };
    eprint!("{report}");
    if metrics.iter().any(|(_, v, _)| !v.is_finite()) {
        return Err(format!("a metric is not finite: {metrics:?}").into());
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn layer_metrics(
    spans: &[Span],
    counts: &workload::ProbeCounts,
    idgnn: &[&idgnn_core::SimReport],
    pool_before: (u64, u64),
    pool_after: (u64, u64),
    rates: &[f64],
    traced_rates: &[f64],
) -> Vec<(&'static str, f64, &'static str)> {
    let ms = |name| trace::per_rep_ms(spans, name);
    let share = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    // Pair each traced repetition's simulation with the standalone executor
    // run that followed it: adjacent in time, so host drift cancels.
    let exec_by_rep = trace::ms_by_rep(spans, "model.exec");
    let (mut self_ms, mut self_share) = (Vec::new(), Vec::new());
    for (rep, sim) in trace::ms_by_rep(spans, "core.simulate") {
        if let Some(exec) = exec_by_rep.get(&rep) {
            self_ms.push(sim - exec);
            self_share.push((sim - exec) / sim);
        }
    }
    let spmm_ms = ms("sparse.spmm");
    let (hits, misses) = (pool_after.0 - pool_before.0, pool_after.1 - pool_before.1);
    // Driver fan-out of `paper-grid`: per traced repetition, the busy share of
    // the workers and the slowest cell.
    let (mut busy, mut slowest) = (Vec::new(), Vec::new());
    for (i, d) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "bench.run_cells")
    {
        let cells: Vec<f64> = spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| s.ns() as f64)
            .collect();
        busy.push(cells.iter().sum::<f64>() / (d.ns() as f64 * HOST_THREADS as f64));
        slowest.push(cells.iter().copied().fold(0.0, f64::max) / 1e6);
    }
    let or_zero = |v: f64| if v.is_nan() { 0.0 } else { v };
    let traced_sps = median(traced_rates);
    vec![
        ("graph.generate_ms", ms("graph.generate"), "ms"),
        ("graph.materialize_ms", ms("graph.materialize"), "ms"),
        ("graph.normalize_ms", ms("graph.normalize"), "ms"),
        ("sparse.spmm_ms", spmm_ms, "ms"),
        (
            "sparse.spmm_gbps",
            share(counts.spmm_bytes as f64, spmm_ms * 1e6),
            "GB/s",
        ),
        ("sparse.gemm_ms", ms("sparse.gemm"), "ms"),
        ("sparse.sp_sub_pruned_ms", ms("sparse.sp_sub_pruned"), "ms"),
        (
            "sparse.pool_hit_ratio",
            share(hits as f64, (hits + misses) as f64),
            "share",
        ),
        ("model.exec_ms", ms("model.exec"), "ms"),
        (
            "model.fused_dissimilarity_ms",
            ms("model.fused_dissimilarity"),
            "ms",
        ),
        (
            "model.delta_path_share",
            share(counts.delta_transitions as f64, counts.transitions as f64),
            "share",
        ),
        (
            "model.saved_share",
            share(counts.saved.mults as f64, counts.ops.mults as f64),
            "share",
        ),
        ("model.mults", counts.ops.mults as f64, "count"),
        ("model.adds", counts.ops.adds as f64, "count"),
        ("core.simulate_ms", ms("core.simulate"), "ms"),
        ("core.self_ms", median(&self_ms), "ms"),
        ("core.self_share", median(&self_share), "share"),
        ("core.diu_ms", ms("core.diu"), "ms"),
        ("core.diu_delta_nnz", counts.diu_delta_nnz as f64, "count"),
        (
            "hw.dram_bytes",
            idgnn.iter().map(|r| r.dram_bytes as f64).sum(),
            "bytes",
        ),
        (
            "hw.mac_util",
            idgnn.iter().map(|r| r.utilization.mean_mac()).sum::<f64>() / idgnn.len() as f64,
            "share",
        ),
        ("baselines.ready_ms", ms("baselines.ready"), "ms"),
        ("baselines.booster_ms", ms("baselines.booster"), "ms"),
        ("baselines.race_ms", ms("baselines.race"), "ms"),
        ("bench.driver_busy_share", or_zero(median(&busy)), "share"),
        ("bench.cell_max_ms", or_zero(median(&slowest)), "ms"),
        ("trace.snapshots_per_s", traced_sps, "1/s"),
        (
            "trace.overhead_pct",
            or_zero(100.0 * (median(rates) / traced_sps - 1.0)),
            "%",
        ),
    ]
}
