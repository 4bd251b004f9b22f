//! `serve-warm`: keep-alive clients in a closed loop against a
//! `varbench serve` whose disk cache was warmed during set-up, so every
//! request is a cache hit and no kernel runs. Time goes to HTTP,
//! protocol parsing, workload construction, cache lookup and report
//! rendering. Client count, request mix and connection length come from
//! `plan.json`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use varbench_bench::args::Effort;
use varbench_bench::protocol::{json_envelope, RunRequest, StudyRequest};
use varbench_bench::registry;
use varbench_bench::serve::{route, HttpClient, ServeState};
use varbench_bench::workloads;
use varbench_core::ctx::RunContext;
use varbench_core::exec::Runner;
use varbench_core::json::Json;
use varbench_pipeline::{
    CacheStats, CaseStudy, LinearWorkload, MeasureCache, Scale, SyntheticWorkload, Workload,
};

use crate::clock;
use crate::plan::{MixEntry, Plan};
use crate::procs::{self, run_pass, Server};
use crate::stats::{median, SplitMix};
use crate::trace::Tracer;
use crate::{layers, Bench, Outcome};

/// One request of the mix: `(entry, body index)`.
type Key = (usize, usize);

/// Draws a request from the mix by weight, then a body uniformly.
fn draw(plan: &Plan, rng: &mut SplitMix) -> Key {
    let total: u64 = plan.serve_mix.iter().map(|e| e.weight).sum();
    let mut pick = rng.below(total.max(1));
    let entry = plan
        .serve_mix
        .iter()
        .position(|e| {
            let hit = pick < e.weight;
            pick = pick.saturating_sub(e.weight);
            hit
        })
        .unwrap_or(0);
    let body = rng.below(plan.serve_mix[entry].bodies.len() as u64) as usize;
    (entry, body)
}

fn send(client: &mut HttpClient, e: &MixEntry, body: &str) -> std::io::Result<(u16, String)> {
    let body = (e.method == "POST").then_some(body);
    client.request(&e.method, &e.path, body)
}

fn parse_stats(body: &str) -> Option<CacheStats> {
    let doc = Json::parse(body).ok()?;
    let n = |k: &str| doc.get(k).and_then(Json::as_u64);
    Some(CacheStats {
        full_hits: n("full_hits")?,
        extensions: n("extensions")?,
        misses: n("misses")?,
        rows_computed: n("rows_computed")?,
        rows_served: n("rows_served")?,
        records_computed: n("records_computed")?,
        records_served: n("records_served")?,
        record_fits_computed: n("record_fits_computed")?,
        disk_loads: n("disk_loads")?,
        coalesced: n("coalesced")?,
    })
}

fn fetch_stats(client: &mut HttpClient) -> Result<CacheStats, String> {
    match client.request("GET", "/v1/cache/stats", None) {
        Ok((200, body)) => parse_stats(&body).ok_or(format!("unreadable cache stats {body:?}")),
        Ok((status, _)) => Err(format!("cache stats answered HTTP {status}")),
        Err(e) => Err(format!("cache stats: {e}")),
    }
}

/// A warmed server and the response recorded for every distinct request.
struct Warm {
    server: Server,
    recorded: BTreeMap<Key, String>,
    /// `rows_computed` once warm: later stats responses must repeat it.
    rows_computed: u64,
}

/// Starts a server on `cache` (files under `dir`) and sends it every
/// distinct request once, recording the responses.
fn answer_all(b: &Bench, dir: &Path, cache: &Path) -> Result<Warm, String> {
    let server = Server::start(&b.bin, dir, Some(cache), 0)?;
    let mut client = server.client()?;
    let mut recorded = BTreeMap::new();
    for (i, e) in b.plan.serve_mix.iter().enumerate() {
        for (j, body) in e.bodies.iter().enumerate() {
            match send(&mut client, e, body) {
                Ok((200, resp)) => {
                    recorded.insert((i, j), resp);
                }
                Ok((status, resp)) => {
                    return Err(format!(
                        "warm-up {} {} answered HTTP {status}: {resp}",
                        e.method, e.path
                    ))
                }
                Err(e) => return Err(format!("warm-up request: {e}")),
            }
        }
    }
    let rows_computed = fetch_stats(&mut client)?.rows_computed;
    Ok(Warm {
        server,
        recorded,
        rows_computed,
    })
}

/// Whether two recordings agree on every request but the cache stats.
fn same_answers(plan: &Plan, a: &BTreeMap<Key, String>, b: &BTreeMap<Key, String>) -> bool {
    a.iter()
        .all(|(key, body)| plan.serve_mix[key.0].kind == "stats" || b.get(key) == Some(body))
}

/// One set-up: a server on a fresh cache dir computes every distinct
/// request once and shuts down; a restarted server on the same dir then
/// answers each once more, from disk. The timed phase runs against the
/// restarted server, so its heap holds what serving needs and not the
/// leftovers of the cold computation.
fn set_up(b: &Bench, k: usize, out: &mut Outcome) -> Result<Warm, String> {
    let dir = b.scratch.join(format!("serve-warm-{k}"));
    let cache = dir.join("cache");
    let cold = answer_all(b, &dir.join("cold"), &cache)?;
    if let Err(e) = cold.server.shutdown() {
        out.problems.push(format!("set-up server: {e}"));
    }
    let warm = answer_all(b, &dir.join("warm"), &cache)?;
    if !same_answers(&b.plan, &cold.recorded, &warm.recorded) {
        out.problems
            .push("a server answering from disk differs from the one that computed".into());
    }
    if warm.rows_computed != 0 {
        out.problems.push(format!(
            "the restarted server computed {} row(s) on a warm cache",
            warm.rows_computed
        ));
    }
    Ok(warm)
}

/// Whether a response is the right answer to `key`.
fn correct(plan: &Plan, warm: &Warm, key: Key, body: &str) -> bool {
    if plan.serve_mix[key.0].kind == "stats" {
        parse_stats(body).is_some_and(|s| s.rows_computed == warm.rows_computed)
    } else {
        warm.recorded.get(&key).is_some_and(|r| r == body)
    }
}

/// The set-ups, timed. Every set-up's server is kept for the timed
/// phase, and each must record the same responses.
fn setups(b: &Bench, out: &mut Outcome) -> Result<Vec<Warm>, String> {
    let mut setup_s = Vec::new();
    let mut servers: Vec<Warm> = Vec::new();
    for k in 0..b.plan.serve_setups {
        let start = clock::now();
        let warm = set_up(b, k, out)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if servers
            .first()
            .is_some_and(|first| !same_answers(&b.plan, &first.recorded, &warm.recorded))
        {
            out.problems
                .push("warm-up responses differ between set-ups".into());
        }
        servers.push(warm);
    }
    out.setup(&setup_s);
    Ok(servers)
}

struct ClientResult {
    latencies: Vec<f64>,
    attempted: u64,
    failed: u64,
    shed: u64,
}

fn client_loop(
    b: &Bench,
    warm: &Warm,
    id: usize,
    rng: &mut SplitMix,
    start: Instant,
    until_s: f64,
) -> ClientResult {
    let mut r = ClientResult {
        latencies: Vec::new(),
        attempted: 0,
        failed: 0,
        shed: 0,
    };
    let mut client: Option<HttpClient> = None;
    let mut on_connection = 0;
    while start.elapsed().as_secs_f64() < until_s {
        if client.is_none() || on_connection == b.plan.serve_requests_per_connection {
            // Drop the old connection first so its handler is free.
            client = None;
            on_connection = 0;
            match warm.server.client() {
                Ok(c) => client = Some(c),
                Err(e) => {
                    eprintln!("perfbench: client {id}: {e}");
                    r.attempted += 1;
                    r.failed += 1;
                    continue;
                }
            }
        }
        let client = client.as_mut().expect("connected above");
        on_connection += 1;
        let key = draw(&b.plan, rng);
        let e = &b.plan.serve_mix[key.0];
        r.attempted += 1;
        let t0 = clock::now();
        let resp = send(client, e, &e.bodies[key.1]);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok((200, body)) if correct(&b.plan, warm, key, &body) => r.latencies.push(ms),
            Ok((503, _)) => {
                r.shed += 1;
                r.failed += 1;
            }
            Ok((status, _)) => {
                r.failed += 1;
                eprintln!(
                    "perfbench: {} {} answered HTTP {status} or wrong bytes",
                    e.method, e.path
                );
            }
            Err(err) => {
                r.failed += 1;
                eprintln!("perfbench: {} {}: {err}", e.method, e.path);
            }
        }
    }
    r
}

/// Served responses that must equal the offline CLI's output, computed
/// on an empty in-memory cache.
fn cli_checks(b: &Bench, warm: &Warm, out: &mut Outcome) {
    for check in &b.plan.serve_cli_checks {
        let Some(entry) = b.plan.serve_mix.iter().position(|e| e.kind == check.kind) else {
            out.problems
                .push(format!("cli check names unknown kind {}", check.kind));
            continue;
        };
        let served = warm.recorded.get(&(entry, check.index));
        match run_pass(procs::varbench(&b.bin).args(&check.argv)) {
            Ok(pass)
                if pass.status.success()
                    && served.map(|s| s.as_bytes()) == Some(&pass.stdout[..]) => {}
            Ok(_) => out.problems.push(format!(
                "served response differs from `varbench {}`",
                check.argv.join(" ")
            )),
            Err(e) => out.problems.push(e),
        }
    }
}

/// Slices of the timed phase per server: the phase rotates over the
/// set-up servers this many times, so each run averages over several
/// server processes (a process's memory layout moves a warm request's
/// cost by up to a quarter) and over the whole phase's wall time.
const ROUNDS: usize = 2;

pub fn run(b: &Bench) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut servers = setups(b, &mut out)?;
    let mut before = Vec::new();
    let mut cpu_before = 0.0;
    for w in servers.iter_mut() {
        before.push(fetch_stats(&mut w.server.client()?)?);
        procs::reset_peak_rss(w.server.pid())?;
        cpu_before += w.server.cpu_ms();
    }
    let mut rngs: Vec<SplitMix> = (0..b.plan.serve_clients)
        .map(|id| SplitMix(b.seed ^ (id + 1).wrapping_mul(0xA076_1D64_78BD_642F)))
        .collect();
    let slices = ROUNDS * servers.len();
    let mut results: Vec<ClientResult> = Vec::new();
    let start = clock::now();
    for slice in 0..slices {
        let warm = &servers[slice % servers.len()];
        let until_s = b.seconds * (slice + 1) as f64 / slices as f64;
        std::thread::scope(|s| {
            let handles: Vec<_> = rngs
                .iter_mut()
                .enumerate()
                .map(|(id, rng)| s.spawn(move || client_loop(b, warm, id, rng, start, until_s)))
                .collect();
            for h in handles {
                results.push(h.join().expect("client thread"));
            }
        });
    }
    let elapsed = start.elapsed();
    let mut cpu_ms = -cpu_before;
    let mut peaks_mb = Vec::new();
    for (w, before) in servers.iter_mut().zip(&before) {
        cpu_ms += w.server.cpu_ms();
        let peak_kb = procs::vm_hwm_kb(w.server.pid()).ok_or("cannot read a server's peak RSS")?;
        peaks_mb.push(peak_kb as f64 / 1024.0);
        let after = fetch_stats(&mut w.server.client()?)?;
        if after.rows_computed != before.rows_computed || after.misses != before.misses {
            out.problems.push(format!(
                "a warm server computed {} row(s) on {} miss(es) during the timed phase",
                after.rows_computed - before.rows_computed,
                after.misses - before.misses
            ));
        }
    }
    cli_checks(b, &servers[0], &mut out);
    let mut latencies = Vec::new();
    let mut shed = 0;
    for r in results {
        latencies.extend(r.latencies);
        out.attempted += r.attempted;
        out.failed += r.failed;
        shed += r.shed;
    }
    for w in servers {
        if let Err(e) = w.server.shutdown() {
            out.problems.push(e);
        }
    }
    out.latency(&latencies, elapsed, b.plan.serve_tail);
    out.metric("peak_rss_mb", crate::stats::median(&peaks_mb));
    out.metric("cpu_ms_per_op", cpu_ms / out.attempted.max(1) as f64);
    out.detail("shed_503", shed.to_string());
    Ok(out)
}

/// Builds the named workload with its own constructor, bypassing the
/// registry's lookup: the baseline `workloads.built_per_find` divides
/// by.
fn construct(name: &str, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "cifar10-vgg11" => Box::new(CaseStudy::cifar10_vgg11(scale)),
        "glue-rte-bert" => Box::new(CaseStudy::glue_rte_bert(scale)),
        "glue-sst2-bert" => Box::new(CaseStudy::glue_sst2_bert(scale)),
        "pascalvoc-resnet" => Box::new(CaseStudy::pascal_voc_resnet(scale)),
        "mhc-mlp" => Box::new(CaseStudy::mhc_mlp(scale)),
        "linear-logreg" => Box::new(LinearWorkload::new(scale)),
        "synthetic-ridge" => Box::new(SyntheticWorkload::new(scale)),
        _ => return None,
    })
}

/// `workloads.built_per_find`: mean `workloads::find` time over mean
/// single-constructor time across the workloads — how many workloads
/// one lookup builds, in units of an average build.
fn built_per_find(t: &mut Tracer, names: &[String]) -> Result<f64, String> {
    let scale = Effort::Quick.scale();
    let mut find_ms = Vec::new();
    let mut build_ms = Vec::new();
    for name in names {
        for _ in 0..3 {
            let t0 = clock::now();
            let found = t.span("workloads.find.setup", |_| workloads::find(name, scale));
            find_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            found.ok_or(format!("workloads::find({name}) found nothing"))?;
            let t0 = clock::now();
            let built = t.span("workloads.construct", |_| construct(name, scale));
            build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            built.ok_or(format!("no constructor for workload {name}"))?;
        }
    }
    Ok(find_ms.iter().sum::<f64>() / build_ms.iter().sum::<f64>())
}

/// One request through the layers in-process (parse, lookup, plan,
/// probe, warm run, render), through `serve::route`, and over the
/// socket. Returns whether all three answers match the recording.
fn traced_request(
    t: &mut Tracer,
    plan: &Plan,
    warm: &Warm,
    state: &ServeState,
    client: &mut HttpClient,
    key: Key,
) -> bool {
    let e = &plan.serve_mix[key.0];
    let body = &e.bodies[key.1];
    let ctx = state.ctx();
    let in_process = match e.kind.as_str() {
        "study" => {
            let req = t.span("protocol.parse", |_| {
                Json::parse(body)
                    .map_err(|e| e.to_string())
                    .and_then(|d| StudyRequest::from_json(&d))
            });
            let Ok(req) = req else { return false };
            let Ok(w) = t.span("workloads.find", |_| req.find_workload()) else {
                return false;
            };
            let Ok(study_plan) = t.span("study.plan", |_| {
                req.configure(w.as_ref()).map(|s| s.plan())
            }) else {
                return false;
            };
            for pm in &study_plan {
                let key = ctx.measure_key(w.as_ref(), pm.measure_kind(), pm.base_seed);
                t.span("cache.probe", |_| ctx.cache().probe_rows(&key));
            }
            let report = t.span("study.run_warm", |_| {
                req.configure(w.as_ref()).map(|s| s.run(ctx))
            });
            let Ok(report) = report else { return false };
            Some(t.span("report.render", |_| {
                json_envelope(req.effort, &[report.to_json()]) + "\n"
            }))
        }
        "run" => {
            let req = t.span("protocol.parse", |_| {
                Json::parse(body)
                    .map_err(|e| e.to_string())
                    .and_then(|d| RunRequest::from_json(&d))
            });
            let Ok(req) = req else { return false };
            let reports = t.span("registry.run_warm", |_| {
                registry::run_specs(&req.artifacts, req.effort, ctx)
            });
            Some(t.span("report.render", |_| {
                let docs: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
                json_envelope(req.effort, &docs) + "\n"
            }))
        }
        _ => None,
    };
    let routed = t.span(&format!("serve.route.{}", e.kind), |_| {
        route(state, &e.method, &e.path, body)
    });
    let before = if t.enabled() {
        fetch_stats(client).ok()
    } else {
        None
    };
    let served = t.span(&format!("serve.roundtrip.{}", e.kind), |_| {
        send(client, e, body)
    });
    if let Some(before) = before {
        if let Ok(after) = fetch_stats(client) {
            layers::cache_counts(t, &after, Some(&before));
        }
    }
    let served_ok = match served {
        Ok((200, s)) => correct(plan, warm, key, &s),
        Ok((503, _)) => {
            t.count("serve.shed_503", 1.0);
            false
        }
        _ => false,
    };
    let routed_ok = routed.0 == 200 && (e.kind == "stats" || correct(plan, warm, key, &routed.1));
    let in_process_ok = in_process.is_none_or(|bytes| correct(plan, warm, key, &bytes));
    served_ok && routed_ok && in_process_ok
}

pub fn trace(b: &Bench) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let warm = set_up(b, 0, &mut out)?;
    let state = ServeState::new(RunContext::new(
        Runner::new(0),
        MeasureCache::with_dir(
            warm.server
                .cache_dir()
                .expect("warm server has a disk cache"),
        ),
    ));
    let mut t = Tracer::new();
    // Load every warm record into the in-process cache too.
    for (i, e) in b.plan.serve_mix.iter().enumerate() {
        for body in &e.bodies {
            let (status, _) = route(&state, &e.method, &e.path, body);
            if status != 200 {
                return Err(format!(
                    "in-process warm-up of request kind {i} answered {status}"
                ));
            }
        }
    }
    let names: Vec<String> = workloads::all(Effort::Quick.scale())
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    let ratio = built_per_find(&mut t, &names)?;
    out.metric("workloads.built_per_find", ratio);
    let mut client = warm.server.client()?;
    let mut rng = SplitMix(b.seed);
    let start = clock::now();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < b.seconds {
        let key = draw(&b.plan, &mut rng);
        for traced in crate::pair_order(out.attempted) {
            out.attempted += 1;
            let ok = t.op("serve-warm.request", traced, true, |t| {
                traced_request(t, &b.plan, &warm, &state, &mut client, key)
            });
            if !ok {
                out.failed += 1;
            }
        }
    }
    drop(client);
    if let Err(e) = warm.server.shutdown() {
        out.problems.push(e);
    }
    out.metric("workloads.find_ms", layers::median_ms(&t, "workloads.find"));
    let mut transport = Vec::new();
    for e in &b.plan.serve_mix {
        let route_ms = t.ms_by_req(&format!("serve.route.{}", e.kind));
        let trip_ms = t.ms_by_req(&format!("serve.roundtrip.{}", e.kind));
        transport.extend(
            trip_ms
                .iter()
                .filter_map(|(req, trip)| Some(trip - route_ms.get(req)?)),
        );
        out.metric(
            &format!("serve.route_us.{}", e.kind),
            median(&route_ms.into_values().collect::<Vec<_>>()) * 1e3,
        );
        out.metric(
            &format!("serve.roundtrip_us.{}", e.kind),
            median(&trip_ms.into_values().collect::<Vec<_>>()) * 1e3,
        );
    }
    out.metric("serve.transport_us", median(&transport) * 1e3);
    out.metric("serve.shed_503", layers::total(&t.counts("serve.shed_503")));
    out.metric(
        "protocol.parse_us",
        layers::median_ms(&t, "protocol.parse") * 1e3,
    );
    out.metric("study.plan_us", layers::median_ms(&t, "study.plan") * 1e3);
    out.metric("study.run_warm_ms", layers::median_ms(&t, "study.run_warm"));
    out.metric(
        "report.render_us",
        layers::median_ms(&t, "report.render") * 1e3,
    );
    layers::report_cache(&t, &mut out);
    out.traced(b, &t)?;
    Ok(out)
}
