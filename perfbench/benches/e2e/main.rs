//! End-to-end benchmark of the shipped `varbench` binary.
//!
//! `perfbench/run.sh` builds `varbench` and this bench, then runs
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! from the root of a checkout. Workloads, request mixes and the
//! layer-to-metric predictions are in `perfbench/plan.json`; metric
//! names and units are in `BENCHMARK.json`.
//!
//! An untraced run (`--trace 0`) drives the binary the way a user does
//! (CLI processes or HTTP requests), checks every output, and prints the
//! end-to-end metrics. A traced run (`--trace 1`) calls each layer's
//! public functions in-process, records one span per call, and prints
//! the per-layer metrics. The last stdout line is the result object; the
//! line before it carries diagnostics that are never gated (box
//! calibration, sample counts, the tail percentile used).

mod calib;
mod clock;
mod dispatch_cold;
mod layers;
mod plan;
mod procs;
mod reproduce_cold;
mod serve_warm;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use varbench_core::json::Json;
use varbench_core::report::json_string;

/// Wall-time limit of one run, set-up and checks included.
const RUN_LIMIT: Duration = Duration::from_secs(170);

/// Everything a workload needs to run.
pub struct Bench {
    /// The `varbench` binary under test.
    pub bin: PathBuf,
    /// A fresh directory for this run's cache dirs and logs.
    pub scratch: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub plan: plan::Plan,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
}

/// What one run of a workload produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks outside single operations (set-up references,
    /// offline comparisons, `cache gc`, leaked processes).
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    /// Diagnostics as `(key, JSON value)`.
    pub detail: Vec<(String, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn detail(&mut self, key: &str, json_value: String) {
        self.detail.push((key.to_string(), json_value));
    }

    /// `setup_s`: the median of the run's set-ups.
    pub fn setup(&mut self, setup_s: &[f64]) {
        self.metric("setup_s", stats::median(setup_s));
        self.detail("setup_s_samples", json_list(setup_s));
    }

    /// `ops_per_s`, `op_p50_ms` and `op_tail_ms` (the mean of the
    /// latencies beyond the tail percentile) from the operations that
    /// succeeded, with their sample counts.
    pub fn latency(&mut self, latencies_ms: &[f64], elapsed: Duration, tail_percentile: f64) {
        let (tail, beyond) = stats::tail_mean(latencies_ms, tail_percentile);
        self.metric(
            "ops_per_s",
            latencies_ms.len() as f64 / elapsed.as_secs_f64(),
        );
        self.metric("op_p50_ms", stats::median(latencies_ms));
        self.metric("op_tail_ms", tail);
        self.detail("op_samples", latencies_ms.len().to_string());
        self.detail("op_tail_percentile", fmt_num(tail_percentile));
        self.detail("op_tail_samples_beyond", beyond.to_string());
        self.detail("timed_s", fmt_num(elapsed.as_secs_f64()));
    }

    /// Writes the spans and reports the tracing overhead.
    pub fn traced(&mut self, b: &Bench, t: &trace::Tracer) -> Result<(), String> {
        t.write(&b.trace_file)
            .map_err(|e| format!("cannot write {}: {e}", b.trace_file.display()))?;
        self.metric("trace.overhead_ms", t.overhead_ms());
        self.detail("trace_spans", t.span_count().to_string());
        self.detail(
            "trace_file",
            json_string(&b.trace_file.display().to_string()),
        );
        Ok(())
    }
}

/// Which side of a traced/untraced pair runs first: alternating, so
/// drift within a run cancels out of the overhead figure. `done` is the
/// number of operations already run (always even between pairs).
pub fn pair_order(done: u64) -> [bool; 2] {
    if done.is_multiple_of(4) {
        [true, false]
    } else {
        [false, true]
    }
}

fn json_list(xs: &[f64]) -> String {
    format!(
        "[{}]",
        xs.iter()
            .map(|&x| fmt_num(x))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut bin = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            "--varbench" => bin = Some(PathBuf::from(value("--varbench")?)),
            // `cargo bench` appends this to every bench target's arguments.
            "--bench" => {}
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        bin: bin.ok_or("--varbench is required (run.sh passes it)")?,
    })
}

/// The checkout root: this package sits one level below it.
fn checkout_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits below the checkout root")
        .to_path_buf()
}

/// The `(name, unit)` pairs BENCHMARK.json declares for this mode.
fn declared_metrics(root: &Path, trace: bool) -> Result<Vec<(String, String)>, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    doc.get(key)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {key} list"))?
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
            Ok((
                field("name").ok_or("metric without a name")?,
                field("unit").ok_or("metric without a unit")?,
            ))
        })
        .collect()
}

fn run(args: &Args, root: &Path) -> Result<(Outcome, Vec<(String, String)>), String> {
    let declared = declared_metrics(root, args.trace)?;
    let plan = plan::Plan::load(&root.join("perfbench/plan.json"))?;
    if !args.bin.is_file() {
        return Err(format!("no varbench binary at {}", args.bin.display()));
    }
    let scratch =
        root.join(".perfbench_tmp")
            .join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let bench = Bench {
        bin: args.bin.clone(),
        scratch: scratch.clone(),
        seed: args.seed,
        seconds: args.seconds,
        plan,
        trace_file: root
            .join(".perfbench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed)),
    };
    let calib_ms = calib::box_calib_ms();
    let result = match (args.workload.as_str(), args.trace) {
        ("reproduce-cold", false) => reproduce_cold::run(&bench),
        ("reproduce-cold", true) => reproduce_cold::trace(&bench),
        ("serve-warm", false) => serve_warm::run(&bench),
        ("serve-warm", true) => serve_warm::trace(&bench),
        ("dispatch-cold", false) => dispatch_cold::run(&bench),
        ("dispatch-cold", true) => dispatch_cold::trace(&bench),
        (other, _) => Err(format!(
            "unknown workload {other} (reproduce-cold, serve-warm, dispatch-cold)"
        )),
    };
    let leaked = procs::reap_leaked();
    let _ = std::fs::remove_dir_all(&scratch);
    let mut out = result?;
    if !leaked.is_empty() {
        out.problems
            .push(format!("leaked varbench process(es) {leaked:?} (killed)"));
    }
    out.detail("box.calib_ms", fmt_num(calib_ms));
    if args.trace {
        out.metric("box.calib_ms", calib_ms);
    }
    Ok((out, declared))
}

/// Formats a finite number with every digit Rust's shortest
/// round-trip representation gives.
fn fmt_num(x: f64) -> String {
    format!("{x}")
}

fn render(args: &Args, out: &Outcome, declared: &[(String, String)]) -> Result<String, String> {
    for (name, _) in &out.metrics {
        if !declared.iter().any(|(d, _)| d == name) {
            return Err(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    if out.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    let mut fields = Vec::new();
    let mut unexercised = Vec::new();
    for (name, unit) in declared {
        let value = match out.metrics.iter().find(|(n, _)| n == name) {
            Some((_, v)) => *v,
            None if args.trace => {
                unexercised.push(json_string(name));
                0.0
            }
            None => return Err(format!("workload produced no {name}")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            fmt_num(value),
            json_string(unit)
        ));
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    let mut detail: Vec<String> = out
        .detail
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    detail.push(format!(
        "\"fail_ratio\": {}",
        fmt_num(out.failed as f64 / out.attempted as f64)
    ));
    detail.push(format!(
        "\"problems\": [{}]",
        out.problems
            .iter()
            .map(|p| json_string(p))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if args.trace {
        detail.push(format!("\"not_exercised\": [{}]", unexercised.join(", ")));
    }
    Ok(format!(
        "{{\"detail\": {{\"workload\": {}, \"seed\": {}, {}}}}}\n\
         {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        json_string(&args.workload),
        args.seed,
        detail.join(", "),
        out.attempted,
        out.failed,
        fields.join(", ")
    ))
}

/// A run must end within [`RUN_LIMIT`] even if the program under test
/// hangs: past it, every process this bench started is killed and the
/// run fails without a result. The thread is never joined: a run that
/// finishes in time simply exits past it.
fn watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(RUN_LIMIT);
        let killed = procs::reap_leaked();
        eprintln!(
            "perfbench: run exceeded {} s; killed {killed:?}",
            RUN_LIMIT.as_secs()
        );
        std::process::exit(1);
    });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = checkout_root();
    watchdog();
    match run(&args, &root).and_then(|(out, declared)| render(&args, &out, &declared)) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
