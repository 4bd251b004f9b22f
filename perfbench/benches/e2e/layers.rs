//! Per-layer probes shared by the traced runs, and the reduction of
//! their spans and counts to per-layer metrics.

use std::hint::black_box;

use varbench_bench::args::Effort;
use varbench_bench::workloads;
use varbench_pipeline::{
    hopt, CacheStats, CaseStudy, HpoAlgorithm, SeedAssignment, VarianceSource,
};
use varbench_rng::Rng;
use varbench_stats::bootstrap::percentile_ci_prob_outperform;

use crate::stats::{median, SplitMix};
use crate::trace::Tracer;
use crate::Outcome;

/// Seeds of the pipeline sweep's fixed measurement.
const SWEEP_SEED: u64 = 0x5EED;
/// HPO budget of `hopt.call_ms` (the test-effort study budget).
const HOPT_BUDGET: usize = 3;
/// `stats.prob_outperform_ci_ms` sizes: fig6 at test effort.
const CI_K: usize = 20;
const CI_RESAMPLES: usize = 100;

/// Median duration of spans named `name`, in ms (0 when none).
pub fn median_ms(t: &Tracer, name: &str) -> f64 {
    median(&t.ms(name))
}

/// Median over operations of the summed duration of spans named
/// `name` within each operation, in ms.
pub fn median_op_sum_ms(t: &Tracer, name: &str) -> f64 {
    median(&t.ms_by_req(name).into_values().collect::<Vec<_>>())
}

/// Sum of `xs` (0 when empty).
pub fn total(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |a, b| a + b)
}

/// Mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        total(xs) / xs.len() as f64
    }
}

/// Records one operation's cache accounting: `after - before`, or
/// `after` alone for a context that started empty.
pub fn cache_counts(t: &mut Tracer, after: &CacheStats, before: Option<&CacheStats>) {
    let b = before.copied().unwrap_or_default();
    let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
    t.count("cache.full_hits", d(after.full_hits, b.full_hits));
    t.count("cache.misses", d(after.misses, b.misses));
    t.count("cache.lookups", d(after.lookups(), b.lookups()));
    t.count(
        "cache.rows_computed",
        d(after.rows_computed, b.rows_computed),
    );
    t.count("cache.rows_served", d(after.rows_served, b.rows_served));
    t.count("cache.disk_loads", d(after.disk_loads, b.disk_loads));
    t.count("cache.coalesced", d(after.coalesced, b.coalesced));
}

/// Per-operation means of the cache counts, the hit ratio over all
/// lookups, and the median `probe_rows` time.
pub fn report_cache(t: &Tracer, out: &mut Outcome) {
    for name in [
        "cache.full_hits",
        "cache.misses",
        "cache.rows_computed",
        "cache.rows_served",
        "cache.disk_loads",
        "cache.coalesced",
    ] {
        out.metric(name, mean(&t.counts(name)));
    }
    let lookups = total(&t.counts("cache.lookups"));
    let hits = total(&t.counts("cache.full_hits"));
    out.metric(
        "cache.hit_ratio",
        if lookups > 0.0 { hits / lookups } else { 0.0 },
    );
    out.metric("cache.probe_us", median_ms(t, "cache.probe") * 1e3);
}

/// One call of each pipeline-layer function per workload at `effort`'s
/// scale, plus one bootstrap CI at the artifacts' size.
pub fn pipeline_sweep(t: &mut Tracer, effort: Effort) {
    let scale = effort.scale();
    let seeds = SeedAssignment::all_fixed(SWEEP_SEED);
    for cs in CaseStudy::all(scale) {
        let split = t.span("pipeline.split", |_| {
            cs.split(seeds.seed_of(VarianceSource::DataSplit))
        });
        let model = t.span("pipeline.train", |_| {
            cs.train_model(cs.default_params(), &split.train_valid(), &seeds)
        });
        t.span("pipeline.eval", |_| {
            black_box(cs.evaluate(&model, split.test()))
        });
    }
    for w in workloads::all(scale) {
        let w = w.as_ref();
        t.span("pipeline.row", |_| {
            black_box(w.run_with_params(w.default_params(), &seeds))
        });
        t.span("pipeline.trial", |_| {
            black_box(w.run_valid(w.default_params(), &seeds))
        });
        t.span("hopt.call", |_| {
            black_box(hopt(w, &seeds, HpoAlgorithm::RandomSearch, HOPT_BUDGET))
        });
    }
    let mut gen = SplitMix(SWEEP_SEED);
    let mut score = || 0.7 + (gen.below(1000) as f64) / 1e4;
    let a: Vec<f64> = (0..CI_K).map(|_| score()).collect();
    let b: Vec<f64> = (0..CI_K).map(|_| score()).collect();
    let mut rng = Rng::seed_from_u64(SWEEP_SEED);
    t.span("stats.prob_outperform_ci", |_| {
        black_box(percentile_ci_prob_outperform(
            &a,
            &b,
            CI_RESAMPLES,
            0.05,
            &mut rng,
        ))
    });
}

/// The sweep's metrics: split, train and eval summed over the case
/// studies, row, trial and hopt summed over all workloads.
pub fn report_pipeline(t: &Tracer, out: &mut Outcome) {
    for (metric, span) in [
        ("pipeline.split_ms", "pipeline.split"),
        ("pipeline.train_ms", "pipeline.train"),
        ("pipeline.eval_ms", "pipeline.eval"),
        ("pipeline.row_ms", "pipeline.row"),
        ("pipeline.trial_ms", "pipeline.trial"),
        ("hopt.call_ms", "hopt.call"),
    ] {
        out.metric(metric, median_op_sum_ms(t, span));
    }
    out.metric(
        "stats.prob_outperform_ci_ms",
        median_ms(t, "stats.prob_outperform_ci"),
    );
}
