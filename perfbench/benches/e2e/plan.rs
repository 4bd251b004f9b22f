//! The parts of `perfbench/plan.json` the bench acts on.

use std::path::Path;

use varbench_core::json::Json;

/// One request kind of the serve-warm mix.
pub struct MixEntry {
    pub kind: String,
    pub weight: u64,
    pub method: String,
    pub path: String,
    /// Request bodies (`""` for GETs); one is drawn uniformly per request.
    pub bodies: Vec<String>,
}

/// A served response that must equal the offline CLI's output.
pub struct CliCheck {
    pub kind: String,
    pub index: usize,
    pub argv: Vec<String>,
}

pub struct Plan {
    pub reproduce_setups: usize,
    pub reproduce_argv: Vec<String>,
    pub reproduce_reference_argv: Vec<String>,
    pub reproduce_tail: f64,
    pub serve_setups: usize,
    pub serve_clients: u64,
    pub serve_requests_per_connection: u64,
    pub serve_mix: Vec<MixEntry>,
    pub serve_cli_checks: Vec<CliCheck>,
    pub serve_tail: f64,
    pub dispatch_setups: usize,
    pub dispatch_rotation: Vec<String>,
    pub dispatch_effort: String,
    pub dispatch_seeds: u64,
    pub dispatch_budget: u64,
    pub dispatch_workers: u64,
    pub dispatch_tail: f64,
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("plan.json: missing {}", path.join(".")))?;
    }
    Ok(cur)
}

fn string(doc: &Json, path: &[&str]) -> Result<String, String> {
    field(doc, path)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("plan.json: {} must be a string", path.join(".")))
}

fn uint(doc: &Json, path: &[&str]) -> Result<u64, String> {
    field(doc, path)?
        .as_u64()
        .ok_or_else(|| format!("plan.json: {} must be a whole number", path.join(".")))
}

fn strings(v: &Json, what: &str) -> Result<Vec<String>, String> {
    v.as_array()
        .ok_or_else(|| format!("plan.json: {what} must be an array"))?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("plan.json: {what} must hold strings"))
        })
        .collect()
}

fn tail(doc: &Json, workload: &str) -> Result<f64, String> {
    let p = uint(doc, &["workloads", workload, "tail_percentile"])? as f64;
    if !(50.0..100.0).contains(&p) {
        return Err(format!(
            "plan.json: {workload} tail_percentile must be in [50, 100)"
        ));
    }
    Ok(p)
}

fn setups(doc: &Json, workload: &str) -> Result<usize, String> {
    Ok(uint(doc, &["workloads", workload, "setup_repeats"])?.max(1) as usize)
}

impl Plan {
    pub fn load(path: &Path) -> Result<Plan, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("plan.json: {e}"))?;
        let w = |name: &str, key: &str| field(&doc, &["workloads", name, key]);
        let serve_mix = w("serve-warm", "mix")?
            .as_array()
            .ok_or("plan.json: serve-warm mix must be an array")?
            .iter()
            .map(|e| {
                Ok(MixEntry {
                    kind: string(e, &["kind"])?,
                    weight: uint(e, &["weight"])?,
                    method: string(e, &["method"])?,
                    path: string(e, &["path"])?,
                    bodies: strings(field(e, &["bodies"])?, "mix bodies")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if serve_mix.iter().any(|e| e.bodies.is_empty()) || serve_mix.is_empty() {
            return Err("plan.json: every serve-warm mix entry needs a body".into());
        }
        let serve_cli_checks = w("serve-warm", "cli_checks")?
            .as_array()
            .ok_or("plan.json: cli_checks must be an array")?
            .iter()
            .map(|c| {
                Ok(CliCheck {
                    kind: string(c, &["kind"])?,
                    index: uint(c, &["index"])? as usize,
                    argv: strings(field(c, &["argv"])?, "cli_checks argv")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let plan = Plan {
            reproduce_setups: setups(&doc, "reproduce-cold")?,
            reproduce_argv: strings(w("reproduce-cold", "argv")?, "argv")?,
            reproduce_reference_argv: strings(
                w("reproduce-cold", "reference_argv")?,
                "reference_argv",
            )?,
            reproduce_tail: tail(&doc, "reproduce-cold")?,
            serve_setups: setups(&doc, "serve-warm")?,
            serve_clients: uint(&doc, &["workloads", "serve-warm", "clients"])?.clamp(1, 2),
            serve_requests_per_connection: uint(
                &doc,
                &["workloads", "serve-warm", "requests_per_connection"],
            )?
            .max(1),
            serve_mix,
            serve_cli_checks,
            serve_tail: tail(&doc, "serve-warm")?,
            dispatch_setups: setups(&doc, "dispatch-cold")?,
            dispatch_rotation: strings(w("dispatch-cold", "rotation")?, "rotation")?,
            dispatch_effort: string(&doc, &["workloads", "dispatch-cold", "effort"])?,
            dispatch_seeds: uint(&doc, &["workloads", "dispatch-cold", "seeds"])?,
            dispatch_budget: uint(&doc, &["workloads", "dispatch-cold", "budget"])?,
            dispatch_workers: uint(&doc, &["workloads", "dispatch-cold", "fleet_workers"])?,
            dispatch_tail: tail(&doc, "dispatch-cold")?,
        };
        if plan.dispatch_rotation.is_empty() {
            return Err("plan.json: dispatch-cold rotation is empty".into());
        }
        Ok(plan)
    }
}
