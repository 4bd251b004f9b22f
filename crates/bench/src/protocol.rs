//! The `varbench serve` request/response protocol: JSON request types,
//! their validation, and the shared report envelope.
//!
//! The protocol is the *semantic* layer of the serve subsystem — it
//! knows nothing about sockets (that is [`crate::serve`]). Everything
//! here is reused by the offline CLI, which is how the serve↔CLI
//! bit-identity rule is enforced structurally: a `POST /v1/run` body is
//! produced by the same [`json_envelope`] + `Report::to_json` calls as
//! `varbench run --json`, and a `POST /v1/study` by the same
//! [`Study`] builder as `varbench study`, so equal requests cannot
//! drift from equal CLI invocations.
//!
//! Requests reject unknown fields: a typo (`"seed"` for `"seeds"`)
//! must fail loudly, not silently run with defaults.

use crate::args::Effort;
use crate::registry::{self, Spec};
use crate::workloads;
use std::sync::Arc;
use varbench_core::ctx::RunContext;
use varbench_core::json::Json;
use varbench_core::report::{json_string, Report};
use varbench_core::study::Study;
use varbench_pipeline::{HpoAlgorithm, VarianceSource};

/// The `varbench-report/1` JSON document wrapping rendered artifacts —
/// the one envelope shared by `varbench run --json`, per-artifact
/// `--out` files, and every serve report response.
pub fn json_envelope(effort: Effort, artifact_docs: &[String]) -> String {
    format!(
        "{{\"schema\":\"varbench-report/1\",\"effort\":{},\"artifacts\":[{}]}}",
        json_string(effort.label()),
        artifact_docs.join(",")
    )
}

/// Parses a variance-source label (`data_split`, `weights_init`, ... —
/// the [`VarianceSource::label`] vocabulary).
pub fn parse_source(label: &str) -> Option<VarianceSource> {
    VarianceSource::ALL
        .iter()
        .copied()
        .find(|s| s.label() == label)
}

/// Parses an HPO algorithm display name (`Random Search`, `Grid
/// Search`, `Noisy Grid Search`, `Bayes Opt`).
pub fn parse_algo(name: &str) -> Option<HpoAlgorithm> {
    [
        HpoAlgorithm::RandomSearch,
        HpoAlgorithm::GridSearch,
        HpoAlgorithm::NoisyGridSearch,
        HpoAlgorithm::BayesOpt,
    ]
    .into_iter()
    .find(|a| a.display_name() == name)
}

/// Rejects fields outside `allowed` (the anti-typo guard).
fn check_fields(doc: &Json, allowed: &[&str]) -> Result<(), String> {
    let fields = doc
        .as_object()
        .ok_or_else(|| format!("request must be a JSON object, got {}", doc.type_name()))?;
    for (key, _) in fields {
        if !allowed.contains(&key.as_str()) {
            return Err(format!(
                "unknown field \"{key}\" (allowed: {})",
                allowed.join(", ")
            ));
        }
    }
    Ok(())
}

/// Reads an optional field through `conv`, distinguishing "absent"
/// (`Ok(None)`) from "present but wrong type/value" (`Err`).
fn optional<T>(
    doc: &Json,
    key: &str,
    expected: &str,
    conv: impl Fn(&Json) -> Option<T>,
) -> Result<Option<T>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => conv(v)
            .map(Some)
            .ok_or_else(|| format!("field \"{key}\" must be {expected}, got {}", v.type_name())),
    }
}

fn parse_effort_field(doc: &Json) -> Result<Effort, String> {
    Ok(optional(doc, "effort", "a string", |v| {
        v.as_str().map(str::to_string)
    })?
    .map(|label| {
        Effort::from_label(&label)
            .ok_or_else(|| format!("unknown effort \"{label}\" (expected test, quick, or full)"))
    })
    .transpose()?
    .unwrap_or(Effort::Quick))
}

/// A `POST /v1/run` request: run registered artifacts, answer with the
/// same `varbench-report/1` envelope the CLI prints.
#[derive(Debug)]
pub struct RunRequest {
    /// The artifacts to run, resolved against the registry.
    pub artifacts: Vec<&'static Spec>,
    /// Effort preset (default `quick`).
    pub effort: Effort,
}

impl RunRequest {
    /// Validates a parsed JSON document into a request.
    ///
    /// Shape: `{"artifacts": ["fig1", ...] | ["all"], "effort"?: "test" |
    /// "quick" | "full"}`.
    pub fn from_json(doc: &Json) -> Result<RunRequest, String> {
        check_fields(doc, &["artifacts", "effort"])?;
        let names = doc
            .get("artifacts")
            .ok_or("missing field \"artifacts\"")?
            .as_array()
            .ok_or("field \"artifacts\" must be an array of names")?;
        if names.is_empty() {
            return Err("field \"artifacts\" must not be empty".into());
        }
        let names: Vec<&str> = names
            .iter()
            .map(|n| n.as_str().ok_or("artifact names must be strings"))
            .collect::<Result<_, _>>()?;
        let artifacts: Vec<&'static Spec> = if names == ["all"] {
            registry::all().iter().collect()
        } else {
            names
                .iter()
                .map(|n| {
                    registry::find(n)
                        .ok_or_else(|| format!("unknown artifact \"{n}\" (see GET /v1/artifacts)"))
                })
                .collect::<Result<_, _>>()?
        };
        Ok(RunRequest {
            artifacts,
            effort: parse_effort_field(doc)?,
        })
    }

    /// Runs the artifacts through `ctx` and renders the response body:
    /// the report envelope plus the CLI's trailing newline, so a warm
    /// request is byte-identical to `varbench run ... --json` stdout.
    pub fn run(&self, ctx: &RunContext) -> String {
        let reports = registry::run_specs(&self.artifacts, self.effort, ctx);
        let docs: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
        let mut body = json_envelope(self.effort, &docs);
        body.push('\n');
        body
    }
}

/// A `POST /v1/study` request: a [`Study`]-builder invocation over any
/// registered workload.
#[derive(Debug)]
pub struct StudyRequest {
    /// Registered workload name (see `GET /v1/workloads`).
    pub workload: String,
    /// Effort preset — selects the workload scale (default `quick`).
    pub effort: Effort,
    /// Randomized ξ_O source set (default: all active sources).
    pub sources: Option<Vec<VarianceSource>>,
    /// Seeds per source (default: the builder's 10).
    pub seeds: Option<usize>,
    /// Base seed (default: the builder's).
    pub base_seed: Option<u64>,
    /// HPO budget; > 0 adds the ξ_H row (default: 0).
    pub budget: Option<usize>,
    /// HPO algorithm display name (default: random search).
    pub algo: Option<HpoAlgorithm>,
    /// Comparison threshold γ: adds the Noether planning block.
    pub gamma: Option<f64>,
    /// Report name override.
    pub name: Option<String>,
    /// Route the plan through the serve-side worker fleet: rows are
    /// enqueued into the lease queue and the response is assembled from
    /// the warm cache (default `false` — compute in-process). Ignored by
    /// offline [`StudyRequest::run`]; only the serve layer dispatches.
    pub dispatch: bool,
}

impl StudyRequest {
    /// Validates a parsed JSON document into a request.
    ///
    /// Shape: `{"workload": "synthetic-ridge", "effort"?, "sources"?:
    /// ["data_split", ...], "seeds"?, "base_seed"?, "budget"?, "algo"?,
    /// "gamma"?, "name"?, "dispatch"?: true}`.
    pub fn from_json(doc: &Json) -> Result<StudyRequest, String> {
        check_fields(
            doc,
            &[
                "workload",
                "effort",
                "sources",
                "seeds",
                "base_seed",
                "budget",
                "algo",
                "gamma",
                "name",
                "dispatch",
            ],
        )?;
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing string field \"workload\" (see GET /v1/workloads)")?
            .to_string();
        let sources = match doc.get("sources") {
            None => None,
            Some(v) => {
                let labels = v.as_array().ok_or("field \"sources\" must be an array")?;
                let parsed: Vec<VarianceSource> = labels
                    .iter()
                    .map(|l| {
                        let label = l.as_str().ok_or("source labels must be strings")?;
                        parse_source(label)
                            .ok_or_else(|| format!("unknown variance source \"{label}\""))
                    })
                    .collect::<Result<_, String>>()?;
                Some(parsed)
            }
        };
        let seeds = optional(doc, "seeds", "an integer >= 2", |v| {
            v.as_u64().filter(|&n| n >= 2).map(|n| n as usize)
        })?;
        let base_seed = optional(doc, "base_seed", "a non-negative integer", Json::as_u64)?;
        let budget = optional(doc, "budget", "a non-negative integer", |v| {
            v.as_u64().map(|n| n as usize)
        })?;
        let algo = optional(doc, "algo", "an algorithm display name", |v| {
            v.as_str().and_then(parse_algo)
        })?;
        let gamma = optional(doc, "gamma", "a number in (0, 1), != 0.5", |v| {
            v.as_f64()
                .filter(|g| *g > 0.0 && *g < 1.0 && (*g - 0.5).abs() > 1e-9)
        })?;
        let name = optional(doc, "name", "a string", |v| v.as_str().map(str::to_string))?;
        let dispatch = optional(doc, "dispatch", "a boolean", Json::as_bool)?.unwrap_or(false);
        Ok(StudyRequest {
            workload,
            effort: parse_effort_field(doc)?,
            sources,
            seeds,
            base_seed,
            budget,
            algo,
            gamma,
            name,
            dispatch,
        })
    }

    /// Resolves the workload this request targets (the effort preset
    /// picks its scale): the process-wide shared instance, built on the
    /// first lookup only (see [`workloads`]).
    pub fn find_workload(&self) -> Result<Arc<dyn varbench_pipeline::Workload>, String> {
        workloads::find(&self.workload, self.effort.scale()).ok_or_else(|| {
            format!(
                "unknown workload \"{}\" (see GET /v1/workloads)",
                self.workload
            )
        })
    }

    /// Builds the configured [`Study`] over `workload` — the single
    /// builder chain behind [`StudyRequest::run`] *and* the worker-fleet
    /// dispatcher, so a dispatched study plans exactly the measurements
    /// the in-process study runs.
    pub fn configure<'w>(
        &self,
        workload: &'w dyn varbench_pipeline::Workload,
    ) -> Result<Study<'w>, String> {
        // Pre-validate what Study::run would panic on: a source selection
        // that leaves nothing to randomize is a client error, not a 500.
        if let Some(requested) = &self.sources {
            let usable = requested
                .iter()
                .any(|s| !s.is_hyperopt() && workload.active_sources().contains(s));
            if !usable {
                return Err(format!(
                    "no requested source is active for \"{}\" (active: {})",
                    self.workload,
                    workload
                        .active_sources()
                        .iter()
                        .map(|s| s.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
        }
        let mut study = Study::new(workload);
        if let Some(sources) = &self.sources {
            study = study.randomize(sources);
        }
        if let Some(n) = self.seeds {
            study = study.seeds(n);
        }
        if let Some(seed) = self.base_seed {
            study = study.base_seed(seed);
        }
        if let Some(budget) = self.budget {
            study = study.budget(budget);
        }
        if let Some(algo) = self.algo {
            study = study.algorithm(algo);
        }
        if let Some(gamma) = self.gamma {
            study = study.gamma(gamma);
        }
        if let Some(name) = &self.name {
            study = study.named(name.clone());
        }
        Ok(study)
    }

    /// Runs the study through `ctx`, returning the report (the caller
    /// picks a rendering — the serve layer wraps it in [`json_envelope`],
    /// the CLI may render text).
    pub fn run(&self, ctx: &RunContext) -> Result<Report, String> {
        let workload = self.find_workload()?;
        Ok(self.configure(workload.as_ref())?.run(ctx))
    }

    /// [`StudyRequest::run`] rendered as the serve response body: the
    /// one-report envelope plus trailing newline (byte-identical to
    /// `varbench study ... --json`).
    pub fn run_json(&self, ctx: &RunContext) -> Result<String, String> {
        let report = self.run(ctx)?;
        let mut body = json_envelope(self.effort, &[report.to_json()]);
        body.push('\n');
        Ok(body)
    }

    /// Renders the request as a `POST /v1/study` body (the `varbench
    /// study --addr` transport). Round-trips through
    /// [`StudyRequest::from_json`].
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"workload\":{}", json_string(&self.workload)),
            format!("\"effort\":{}", json_string(self.effort.label())),
        ];
        if let Some(sources) = &self.sources {
            let labels: Vec<String> = sources.iter().map(|s| json_string(s.label())).collect();
            fields.push(format!("\"sources\":[{}]", labels.join(",")));
        }
        if let Some(n) = self.seeds {
            fields.push(format!("\"seeds\":{n}"));
        }
        if let Some(seed) = self.base_seed {
            fields.push(format!("\"base_seed\":{seed}"));
        }
        if let Some(budget) = self.budget {
            fields.push(format!("\"budget\":{budget}"));
        }
        if let Some(algo) = self.algo {
            fields.push(format!("\"algo\":{}", json_string(algo.display_name())));
        }
        if let Some(gamma) = self.gamma {
            fields.push(format!("\"gamma\":{gamma}"));
        }
        if let Some(name) = &self.name {
            fields.push(format!("\"name\":{}", json_string(name)));
        }
        // Emitted only when set: a non-dispatching request keeps the
        // exact byte shape it had before the field existed.
        if self.dispatch {
            fields.push("\"dispatch\":true".to_string());
        }
        format!("{{{}}}", fields.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varbench_rng::sweep::{sweep, Case};

    fn parse(s: &str) -> Json {
        Json::parse(s).expect("test request parses")
    }

    #[test]
    fn run_request_resolves_artifacts() {
        let r = RunRequest::from_json(&parse(
            r#"{"artifacts":["figc1","tables"],"effort":"test"}"#,
        ))
        .unwrap();
        assert_eq!(r.artifacts.len(), 2);
        assert_eq!(r.artifacts[0].name, "figc1");
        assert_eq!(r.effort, Effort::Test);
        let all = RunRequest::from_json(&parse(r#"{"artifacts":["all"]}"#)).unwrap();
        assert_eq!(all.artifacts.len(), registry::all().len());
        assert_eq!(all.effort, Effort::Quick, "effort defaults to quick");
    }

    #[test]
    fn run_request_rejects_bad_shapes() {
        for (body, needle) in [
            (r#"{}"#, "missing field \"artifacts\""),
            (r#"{"artifacts":[]}"#, "must not be empty"),
            (r#"{"artifacts":["nope"]}"#, "unknown artifact"),
            (r#"{"artifacts":[1]}"#, "must be strings"),
            (r#"{"artifacts":["fig1"],"effort":"max"}"#, "unknown effort"),
            (
                r#"{"artifacts":["fig1"],"efort":"test"}"#,
                "unknown field \"efort\"",
            ),
            (r#"[1]"#, "must be a JSON object"),
        ] {
            let err = RunRequest::from_json(&parse(body)).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn run_request_matches_cli_envelope() {
        let req =
            RunRequest::from_json(&parse(r#"{"artifacts":["figc1"],"effort":"test"}"#)).unwrap();
        let ctx = RunContext::serial_cached();
        let body = req.run(&ctx);
        // Exactly what `varbench run figc1 --test --json` prints.
        let spec = registry::find("figc1").unwrap();
        let report = spec.run(Effort::Test, &RunContext::serial());
        let expect = json_envelope(Effort::Test, &[report.to_json()]) + "\n";
        assert_eq!(body, expect);
    }

    #[test]
    fn study_request_full_shape() {
        let r = StudyRequest::from_json(&parse(
            r#"{"workload":"synthetic-ridge","effort":"test","sources":["data_split"],
                "seeds":4,"base_seed":161,"budget":2,"algo":"Bayes Opt","gamma":0.75,
                "name":"my-study"}"#,
        ))
        .unwrap();
        assert_eq!(r.workload, "synthetic-ridge");
        assert_eq!(r.sources, Some(vec![VarianceSource::DataSplit]));
        assert_eq!(
            (r.seeds, r.base_seed, r.budget),
            (Some(4), Some(161), Some(2))
        );
        assert_eq!(r.algo, Some(HpoAlgorithm::BayesOpt));
        assert_eq!(r.gamma, Some(0.75));
        let report = r.run(&RunContext::serial()).unwrap();
        assert_eq!(report.name(), "my-study");
        let text = report.render_text();
        assert!(text.contains("synthetic-ridge"), "{text}");
        assert!(text.contains(">= 29 paired runs"), "{text}");
    }

    #[test]
    fn study_request_rejects_bad_values() {
        for (body, needle) in [
            (r#"{"seeds":3}"#, "missing string field \"workload\""),
            (r#"{"workload":"x","seeds":1}"#, "must be an integer >= 2"),
            (r#"{"workload":"x","gamma":0.5}"#, "in (0, 1)"),
            (r#"{"workload":"x","gamma":1.5}"#, "in (0, 1)"),
            (r#"{"workload":"x","algo":"sgd"}"#, "algorithm display name"),
            (
                r#"{"workload":"x","sources":["weights"]}"#,
                "unknown variance source",
            ),
            (r#"{"workload":"x","budget":-1}"#, "non-negative"),
            (r#"{"workload":"x","dispatch":1}"#, "must be a boolean"),
            (r#"{"workload":"x","extra":1}"#, "unknown field \"extra\""),
        ] {
            let err = StudyRequest::from_json(&parse(body)).unwrap_err();
            assert!(err.contains(needle), "{body}: {err}");
        }
    }

    #[test]
    fn study_request_semantic_errors_are_not_panics() {
        let ctx = RunContext::serial();
        let unknown = StudyRequest::from_json(&parse(r#"{"workload":"nope"}"#)).unwrap();
        assert!(unknown.run(&ctx).unwrap_err().contains("unknown workload"));
        // weights_init is inert for the closed-form ridge workload: the
        // builder would panic; the protocol reports a client error.
        let inert = StudyRequest::from_json(&parse(
            r#"{"workload":"synthetic-ridge","effort":"test","sources":["weights_init"]}"#,
        ))
        .unwrap();
        let err = inert.run(&ctx).unwrap_err();
        assert!(err.contains("no requested source is active"), "{err}");
        assert!(
            err.contains("data_split"),
            "error lists active sources: {err}"
        );
    }

    #[test]
    fn study_request_round_trips_through_json() {
        for body in [
            r#"{"workload":"synthetic-ridge"}"#,
            r#"{"workload":"linear-logreg","effort":"test","sources":["data_split","data_order"],
                "seeds":4,"base_seed":7,"budget":3,"algo":"Grid Search","gamma":0.75,
                "name":"rt","dispatch":true}"#,
        ] {
            let req = StudyRequest::from_json(&parse(body)).unwrap();
            let again = StudyRequest::from_json(&parse(&req.to_json())).unwrap();
            assert_eq!(req.workload, again.workload);
            assert_eq!(req.effort, again.effort);
            assert_eq!(req.sources, again.sources);
            assert_eq!(req.seeds, again.seeds);
            assert_eq!(req.base_seed, again.base_seed);
            assert_eq!(req.budget, again.budget);
            assert_eq!(req.algo, again.algo);
            assert_eq!(req.gamma, again.gamma);
            assert_eq!(req.name, again.name);
            assert_eq!(req.dispatch, again.dispatch);
        }
        // The flag only appears in the wire shape when set.
        let plain = StudyRequest::from_json(&parse(r#"{"workload":"synthetic-ridge"}"#)).unwrap();
        assert!(!plain.dispatch);
        assert!(!plain.to_json().contains("dispatch"));
    }

    /// Bytes a one-byte mutation writes: JSON structure, digits, letters,
    /// an escape, a control byte and bytes that break UTF-8.
    const MUTATION_BYTES: &[u8] = b"{}[]\":,. -+0129aeflnrstuxz\\\x00\xc3\xff";

    /// A strict prefix (even cases) or a one-byte mutation (odd cases)
    /// of a valid body. Returns the input and whether it is a prefix.
    fn mangle(case: &mut Case, valid: &str) -> (String, bool) {
        let mut bytes = valid.as_bytes().to_vec();
        let at = case.usize_in(0, bytes.len());
        let truncated = case.index().is_multiple_of(2);
        if truncated {
            bytes.truncate(at);
        } else {
            bytes[at] = MUTATION_BYTES[case.usize_in(0, MUTATION_BYTES.len())];
        }
        (String::from_utf8_lossy(&bytes).into_owned(), truncated)
    }

    /// Sweeps mangled `valid` bodies through `Json::parse` and `accept`
    /// (a request validator, with its follow-up checks on success).
    /// Every strict prefix must be rejected; no input may panic. Returns
    /// how many inputs were accepted.
    fn fuzz(label: &str, valid: &[&str], accept: impl Fn(&Json) -> Result<(), String>) -> usize {
        let mut accepted = 0;
        sweep(label, 512, |case| {
            let body = valid[case.usize_in(0, valid.len())];
            let (input, truncated) = mangle(case, body);
            let outcome = Json::parse(&input)
                .map_err(|e| e.to_string())
                .and_then(|doc| accept(&doc));
            assert!(
                !(truncated && outcome.is_ok()),
                "truncated body accepted: {input}"
            );
            accepted += usize::from(outcome.is_ok());
        });
        accepted
    }

    #[test]
    fn fuzzed_study_bodies_never_panic() {
        let accepted = fuzz(
            "fuzz_study_request",
            &[
                r#"{"workload":"synthetic-ridge","effort":"test","sources":["data_split"],"seeds":4,"base_seed":161,"budget":2,"algo":"Bayes Opt","gamma":0.75,"name":"fuzz","dispatch":true}"#,
                r#"{"workload":"linear-logreg","effort":"quick","seeds":3}"#,
            ],
            |doc| {
                let req = StudyRequest::from_json(doc)?;
                // Whatever validates must survive its own wire shape.
                let again = StudyRequest::from_json(&parse(&req.to_json()))?;
                assert_eq!(again.to_json(), req.to_json());
                match req.find_workload() {
                    Ok(w) => assert_eq!(w.name(), req.workload),
                    Err(e) => assert!(e.contains("unknown workload"), "{e}"),
                }
                Ok(())
            },
        );
        assert!(accepted > 0, "no mutation kept a study body valid");
    }

    #[test]
    fn fuzzed_run_bodies_never_panic() {
        let accepted = fuzz(
            "fuzz_run_request",
            &[
                r#"{"artifacts":["figc1","tables"],"effort":"test"}"#,
                r#"{"artifacts":["all"]}"#,
            ],
            |doc| {
                let req = RunRequest::from_json(doc)?;
                assert!(!req.artifacts.is_empty());
                Ok(())
            },
        );
        assert!(accepted > 0, "no mutation kept a run body valid");
    }

    #[test]
    fn source_and_algo_vocabularies() {
        assert_eq!(parse_source("data_split"), Some(VarianceSource::DataSplit));
        assert_eq!(parse_source("hyperopt"), Some(VarianceSource::HyperOpt));
        assert_eq!(parse_source("Data Split"), None);
        assert_eq!(
            parse_algo("Random Search"),
            Some(HpoAlgorithm::RandomSearch)
        );
        assert_eq!(
            parse_algo("Noisy Grid Search"),
            Some(HpoAlgorithm::NoisyGridSearch)
        );
        assert_eq!(parse_algo("random"), None);
    }
}
