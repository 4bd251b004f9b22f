//! The workload registry behind `varbench workloads`, the serve
//! protocol and the worker fleet: every built-in [`Workload`] the CLI
//! can measure, looked up by name at a given scale.
//!
//! The five MLP-backed case studies and the two non-MLP workloads
//! ([`varbench_pipeline::LinearWorkload`],
//! [`varbench_pipeline::SyntheticWorkload`]) all go through the same
//! [`Study`] builder, so `varbench run workload-linear --test` produces a
//! variance profile with the exact machinery the paper figures use.
//!
//! # Built once per process
//!
//! Each workload is constructed at most once per process for each
//! (name, scale) pair, on first use, and shared as an
//! `Arc<dyn Workload>` from then on. [`find`] builds only the entry it
//! names; [`all`] reads through the same memo. Concurrent first lookups
//! of one entry block on a single construction and all receive the same
//! `Arc`.
//!
//! Sharing cannot change a byte. A built workload is immutable: its data
//! pool is drawn from a fixed seed at construction, and nothing in it
//! has interior mutability, so every caller sees exactly what a fresh
//! construction would give.
//!
//! What stays resident is bounded by the table: at most 21 entries (7
//! workloads × 3 scales). The 7 quick-scale pools together hold about
//! 0.5 M f64, roughly 4 MB.

use crate::args::Effort;
use std::sync::{Arc, OnceLock};
use varbench_core::ctx::RunContext;
use varbench_core::report::Report;
use varbench_core::study::Study;
use varbench_pipeline::{CaseStudy, LinearWorkload, Scale, SyntheticWorkload, Workload};

/// Builds one workload at a scale.
type Constructor = fn(Scale) -> Box<dyn Workload>;

/// Every built-in workload by registered name, in listing order: the
/// case studies in the paper's Fig. 1 column order, then the two
/// non-MLP workloads. Each name is the one its constructor reports.
const REGISTRY: [(&str, Constructor); 7] = [
    ("glue-rte-bert", |s| Box::new(CaseStudy::glue_rte_bert(s))),
    ("glue-sst2-bert", |s| Box::new(CaseStudy::glue_sst2_bert(s))),
    ("mhc-mlp", |s| Box::new(CaseStudy::mhc_mlp(s))),
    ("pascalvoc-resnet", |s| {
        Box::new(CaseStudy::pascal_voc_resnet(s))
    }),
    ("cifar10-vgg11", |s| Box::new(CaseStudy::cifar10_vgg11(s))),
    ("linear-logreg", |s| Box::new(LinearWorkload::new(s))),
    ("synthetic-ridge", |s| Box::new(SyntheticWorkload::new(s))),
];

/// The per-process memo: one slot per registry entry and scale.
static BUILT: [[OnceLock<Arc<dyn Workload>>; 3]; REGISTRY.len()] =
    [const { [const { OnceLock::new() }; 3] }; REGISTRY.len()];

/// Registry entry `index` at `scale`, constructed on first use.
fn built(index: usize, scale: Scale) -> Arc<dyn Workload> {
    let slot = match scale {
        Scale::Test => 0,
        Scale::Quick => 1,
        Scale::Full => 2,
    };
    let (_, construct) = REGISTRY[index];
    Arc::clone(BUILT[index][slot].get_or_init(|| Arc::from(construct(scale))))
}

/// Every built-in workload at `scale`, case studies first.
pub fn all(scale: Scale) -> Vec<Arc<dyn Workload>> {
    (0..REGISTRY.len()).map(|i| built(i, scale)).collect()
}

/// Looks a workload up by registered name at `scale` (the serve
/// protocol's and the worker fleet's workload resolution). Builds only
/// the named workload, and only on its first lookup.
pub fn find(name: &str, scale: Scale) -> Option<Arc<dyn Workload>> {
    let index = REGISTRY.iter().position(|(n, _)| *n == name)?;
    Some(built(index, scale))
}

/// The registry artifact that measures `workload_name`'s variance
/// profile (`varbench run <artifact>`), if one exists. The five case
/// studies are measured by the paper-figure artifacts instead.
pub fn artifact_for(workload_name: &str) -> Option<&'static str> {
    match workload_name {
        "linear-logreg" => Some("workload-linear"),
        "synthetic-ridge" => Some("workload-synth"),
        _ => None,
    }
}

/// Study sizing per effort: `(seeds per source, HPO budget)`.
fn study_preset(effort: Effort) -> (usize, usize) {
    match effort {
        Effort::Test => (4, 3),
        Effort::Quick => (20, 15),
        Effort::Full => (100, 50),
    }
}

/// Runs the shared-seed study of the registered `workload` (the body of
/// the `workload-*` artifacts).
fn study_report(workload: &str, name: &str, effort: Effort, ctx: &RunContext) -> Report {
    let workload = find(workload, effort.scale()).expect("artifact workloads are registered");
    let (seeds, budget) = study_preset(effort);
    // One shared study seed so repeated runs can share cached matrices.
    Study::new(workload.as_ref())
        .named(name)
        .seeds(seeds)
        .budget(budget)
        .base_seed(crate::figures::SOURCE_STUDY_SEED)
        .run(ctx)
}

/// The `workload-linear` artifact: variance profile of the
/// logistic-regression workload.
pub fn linear_report(effort: Effort, ctx: &RunContext) -> Report {
    study_report("linear-logreg", "workload-linear", effort, ctx)
}

/// The `workload-synth` artifact: variance profile of the closed-form
/// ridge workload.
pub fn synth_report(effort: Effort, ctx: &RunContext) -> Report {
    study_report("synthetic-ridge", "workload-synth", effort, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_seven_unique_workloads() {
        let ws = all(Scale::Test);
        let names: Vec<&str> = ws.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "glue-rte-bert",
                "glue-sst2-bert",
                "mhc-mlp",
                "pascalvoc-resnet",
                "cifar10-vgg11",
                "linear-logreg",
                "synthetic-ridge",
            ],
            "listing order is part of the CLI and /v1/workloads output"
        );
        for w in &ws {
            assert_eq!(w.default_params().len(), w.search_space().len());
            assert!(!w.active_sources().is_empty());
        }
        // The table's names are the constructors' own, at every scale.
        for scale in [Scale::Test, Scale::Quick, Scale::Full] {
            for (name, construct) in REGISTRY {
                let w = construct(scale);
                assert_eq!(w.name(), name);
                assert_eq!(w.scale_label(), scale.label(), "{name}");
            }
        }
        assert!(find("nope", Scale::Test).is_none());
        assert!(find("", Scale::Quick).is_none());

        // Lookups share one instance per (name, scale).
        for scale in [Scale::Test, Scale::Quick] {
            for w in all(scale) {
                let found = find(w.name(), scale).expect("listed workloads are found");
                assert!(Arc::ptr_eq(&found, &w), "{}", w.name());
                assert!(Arc::ptr_eq(&found, &find(w.name(), scale).unwrap()));
            }
        }
        let test = find("synthetic-ridge", Scale::Test).unwrap();
        let quick = find("synthetic-ridge", Scale::Quick).unwrap();
        assert!(!Arc::ptr_eq(&test, &quick), "scales never share an entry");

        // Racing first lookups block on one build and share its result.
        // No test in this crate builds full-scale workloads through the
        // memo, so this entry is still empty when the four threads start.
        let (name, scale) = ("pascalvoc-resnet", Scale::Full);
        let index = REGISTRY.iter().position(|(n, _)| *n == name).unwrap();
        assert!(BUILT[index][2].get().is_none(), "{name} already built");
        let start = std::sync::Barrier::new(4);
        let raced: Vec<Arc<dyn Workload>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        find(name, scale).expect("registered")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for w in &raced {
            assert!(Arc::ptr_eq(&raced[0], w));
        }
        assert!(Arc::ptr_eq(&raced[0], &find(name, scale).unwrap()));
    }

    #[test]
    fn reports_render_variance_profiles() {
        let ctx = RunContext::serial_cached();
        let linear = linear_report(Effort::Test, &ctx);
        assert_eq!(linear.name(), "workload-linear");
        assert!(linear.render_text().contains("Weights init"));
        let synth = synth_report(Effort::Test, &ctx);
        assert_eq!(synth.name(), "workload-synth");
        assert!(synth.render_text().contains("HyperOpt"));
    }
}
