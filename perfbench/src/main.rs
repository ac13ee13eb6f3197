//! The repository benchmark: one workload per run, end-to-end metrics
//! untraced, per-layer metrics from a separate traced run. See README.md.
//!
//! ```text
//! perfbench --workload <compile-large|compile-small|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! name every figure of the run, with its unit. The exit code is 0 only
//! when every output checked was correct.

mod compile;
mod serve;
mod stats;
mod trace;
mod units;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <compile-large|compile-small|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

/// The parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where traces, determinism records and store directories go.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a u64")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// One reported figure.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Every layer metric a traced run reports, in report order. A workload
/// that never calls into a layer reports it as 0.
const LAYERS: [(&str, &str); 28] = [
    ("workloads.generate_ms", "ms"),
    ("opt.baseline_ms", "ms"),
    ("core.dbds_ms", "ms"),
    ("core.simulate_ms", "ms"),
    ("core.select_ms", "ms"),
    ("core.transform_ms", "ms"),
    ("ir.verify_ms", "ms"),
    ("analysis.recompute_ms", "ms"),
    ("core.candidates", "count"),
    ("core.duplications", "count"),
    ("core.work", "count"),
    ("core.dup_accept_ratio", "ratio"),
    ("analysis.cache_hit_ratio", "ratio"),
    ("backend.emit_ms", "ms"),
    ("ir.interp_ms", "ms"),
    ("par.workers", "count"),
    ("par.busy_frac", "ratio"),
    ("server.json_decode_ms", "ms"),
    ("server.json_encode_ms", "ms"),
    ("ir.parse_ms", "ms"),
    ("server.key_ms", "ms"),
    ("server.artifact_verify_ms", "ms"),
    ("server.store_get_ms", "ms"),
    ("server.store_put_ms", "ms"),
    ("server.hit_ratio", "ratio"),
    ("server.transport_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub errors: Vec<String>,
    pub e2e: Vec<Metric>,
    pub layers: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// The figures that depend only on the seed, as one line; two runs
    /// of one build with one seed must produce the same line.
    pub det: String,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, errors: Vec<String>) -> Outcome {
        Outcome {
            attempted,
            failed,
            errors,
            ..Outcome::default()
        }
    }

    /// The end-to-end metrics every workload reports: set-up time, the
    /// share of attempts that passed their checks, and peak memory.
    pub fn common_e2e(&mut self, setup_s: f64) {
        let attempted = self.attempted.max(1) as f64;
        let success = 100.0 * (attempted - self.failed as f64) / attempted;
        let rss = stats::peak_rss_mb();
        self.e2e.extend([
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("success_pct", success, "%"),
            Metric::new("peak_rss_mb", rss, "MB"),
        ]);
        self.notes.extend([
            format!("setup_s {setup_s:.4} s (median of set-ups)"),
            format!(
                "error_rate {:.6} ({} of {})",
                self.failed as f64 / attempted,
                self.failed,
                self.attempted
            ),
            format!("peak_rss_mb {rss:.1} MB"),
        ]);
    }
}

/// Checks `det` against the record an earlier run of this same build,
/// configuration, workload and seed left in `dir`, or leaves the record.
fn check_repeatable(dir: &Path, args: &Args, det: &str) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    let cfg = dbds_core::DbdsConfig::default().fingerprint(dbds_core::OptLevel::Dbds);
    let build = stats::fnv(&bytes) ^ cfg;
    let path = dir.join(format!(
        "{}-seed{}-{build:016x}.txt",
        args.workload, args.seed
    ));
    match std::fs::read_to_string(&path) {
        Ok(prev) if prev.trim() == det => Ok(()),
        Ok(prev) => Err(format!(
            "seed {} gave different counts than an earlier run: now `{det}`, before `{}`",
            args.seed,
            prev.trim()
        )),
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            std::fs::write(&path, format!("{det}\n"))
                .map_err(|e| format!("write {}: {e}", path.display()))
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        "compile-large" => compile::run(compile::Mix::Large, &args),
        "compile-small" => compile::run(compile::Mix::Small, &args),
        "serve-mixed" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    out.attempted += 1;
    if let Err(e) = check_repeatable(&args.out.join("det"), &args, &out.det) {
        out.failed += 1;
        out.errors.push(e);
    }
    let metrics = if args.trace {
        let path = args
            .out
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = trace::dump(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
        out.layers
            .push(Metric::new("trace.spans", trace::count() as f64, "count"));
        LAYERS
            .iter()
            .map(|&(name, unit)| {
                let value = out
                    .layers
                    .iter()
                    .find(|m| m.name == name)
                    .map_or(0.0, |m| m.value);
                Metric::new(name, value, unit)
            })
            .collect()
    } else {
        out.e2e.clone()
    };

    for e in &out.errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    println!(
        "# {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# {}", out.det);
    for n in &out.notes {
        println!("# {n}");
    }
    for m in &metrics {
        println!("# {} = {} {}", m.name, json_number(m.value), m.unit);
    }
    let correct = out.errors.is_empty() && out.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
