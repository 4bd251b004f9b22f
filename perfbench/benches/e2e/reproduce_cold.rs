//! `reproduce-cold`: one `varbench run all --test --json` process after
//! another, each with a fresh in-memory cache, so every measurement is
//! computed. Compute-bound and offline: no sockets, disk cache or fleet.

use std::hint::black_box;

use varbench_bench::args::Effort;
use varbench_bench::protocol::json_envelope;
use varbench_bench::registry;
use varbench_core::ctx::RunContext;
use varbench_core::exec::Runner;
use varbench_pipeline::MeasureCache;

use crate::clock;
use crate::procs::{self, run_pass};
use crate::trace::Tracer;
use crate::{layers, Bench, Outcome};

/// Set-up: the `--serial` reference passes. Returns the reference bytes
/// and each pass's wall time in seconds.
fn reference(b: &Bench, out: &mut Outcome) -> Result<(Vec<u8>, Vec<f64>), String> {
    let mut reference: Option<Vec<u8>> = None;
    let mut setup_s = Vec::new();
    for _ in 0..b.plan.reproduce_setups {
        let start = clock::now();
        let pass = run_pass(procs::varbench(&b.bin).args(&b.plan.reproduce_reference_argv))?;
        if !pass.status.success() {
            return Err(format!("reference pass exited with {}", pass.status));
        }
        setup_s.push(start.elapsed().as_secs_f64());
        match &reference {
            None => reference = Some(pass.stdout),
            Some(r) if *r != pass.stdout => out
                .problems
                .push("the --serial reference passes differ".into()),
            Some(_) => {}
        }
    }
    let reference = reference.expect("at least one set-up pass");
    if !reference.starts_with(b"{\"schema\":\"varbench-report/1\"") {
        return Err("reference pass did not print a varbench-report/1 document".into());
    }
    Ok((reference, setup_s))
}

pub fn run(b: &Bench) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (reference, setup_s) = reference(b, &mut out)?;
    out.setup(&setup_s);

    let mut latencies = Vec::new();
    let mut peaks_mb = Vec::new();
    let cpu_before = procs::reaped_children_cpu_ms();
    let start = clock::now();
    while start.elapsed().as_secs_f64() < b.seconds {
        out.attempted += 1;
        match run_pass(procs::varbench(&b.bin).args(&b.plan.reproduce_argv)) {
            Ok(pass) if pass.status.success() && pass.stdout == reference => {
                latencies.push(pass.wall.as_secs_f64() * 1e3);
                if let Some(kb) = pass.peak_kb {
                    peaks_mb.push(kb as f64 / 1024.0);
                }
            }
            Ok(pass) => {
                out.failed += 1;
                eprintln!(
                    "perfbench: pass {} exited with {} and {} output",
                    out.attempted,
                    pass.status,
                    if pass.stdout == reference {
                        "correct"
                    } else {
                        "wrong"
                    }
                );
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: pass {}: {e}", out.attempted);
            }
        }
    }
    let elapsed = start.elapsed();
    let cpu_ms = procs::reaped_children_cpu_ms() - cpu_before;
    out.latency(&latencies, elapsed, b.plan.reproduce_tail);
    out.metric("peak_rss_mb", crate::stats::median(&peaks_mb));
    out.metric("cpu_ms_per_op", cpu_ms / out.attempted.max(1) as f64);
    out.detail("rss_samples", peaks_mb.len().to_string());
    Ok(out)
}

/// One pass, in-process: every artifact alone on a fresh serial
/// context, then the CLI's parallel schedule on one fresh shared
/// context, then the pipeline layers the artifacts are built from.
/// Returns the scheduled pass's report bytes.
fn pass(t: &mut Tracer) -> Vec<u8> {
    let specs: Vec<&'static registry::Spec> = registry::all().iter().collect();
    let mut serial_ms = 0.0;
    for spec in &specs {
        let ctx = RunContext::new(Runner::serial(), MeasureCache::new());
        let start = clock::now();
        t.span(&format!("registry.artifact.{}", spec.name), |_| {
            black_box(spec.run(Effort::Test, &ctx))
        });
        serial_ms += start.elapsed().as_secs_f64() * 1e3;
    }
    let ctx = RunContext::new(Runner::new(0), MeasureCache::new());
    let start = clock::now();
    let reports = t.span("exec.run_specs", |_| {
        registry::run_specs(&specs, Effort::Test, &ctx)
    });
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    t.count(
        "exec.parallel_efficiency",
        serial_ms / (ctx.runner().threads() as f64 * wall_ms),
    );
    layers::cache_counts(t, &ctx.cache().stats(), None);
    layers::pipeline_sweep(t, Effort::Test);
    let docs: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    let mut bytes = json_envelope(Effort::Test, &docs).into_bytes();
    bytes.push(b'\n');
    bytes
}

pub fn trace(b: &Bench) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut cli = Outcome::default();
    let (reference, _) = reference(b, &mut cli)?;
    out.problems.extend(cli.problems);
    let mut t = Tracer::new();
    // One unpaired pass first, so neither side of the first pair pays
    // for lazily initialised state.
    t.op("reproduce.warm-up", false, false, pass);
    let start = clock::now();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < b.seconds {
        for traced in crate::pair_order(out.attempted) {
            out.attempted += 1;
            if t.op("reproduce.pass", traced, true, pass) != reference {
                out.failed += 1;
            }
        }
    }
    for spec in registry::all() {
        out.metric(
            &format!("registry.artifact_ms.{}", spec.name),
            layers::median_ms(&t, &format!("registry.artifact.{}", spec.name)),
        );
    }
    out.metric(
        "exec.parallel_efficiency",
        crate::stats::median(&t.counts("exec.parallel_efficiency")),
    );
    layers::report_cache(&t, &mut out);
    layers::report_pipeline(&t, &mut out);
    out.traced(b, &t)?;
    Ok(out)
}
