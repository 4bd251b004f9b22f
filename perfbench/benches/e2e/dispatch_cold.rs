//! `dispatch-cold`: one client in a closed loop posting studies with
//! `"dispatch": true` to `varbench serve --workers N` on a fresh cache
//! dir. Every request uses a never-used base seed, so each unit is
//! enqueued, leased, computed by a fleet worker, published to disk,
//! loaded back by the server and assembled: the write side of the cache.

use std::path::Path;
use std::time::Duration;

use varbench_bench::protocol::{json_envelope, StudyRequest};
use varbench_bench::supervisor::{Supervisor, SupervisorConfig};
use varbench_bench::worker::{self, DispatchConfig};
use varbench_core::ctx::RunContext;
use varbench_core::exec::Runner;
use varbench_core::json::Json;
use varbench_core::study::StudyUnit;
use varbench_pipeline::{gc_dir, lease, MeasureCache};

use crate::clock;
use crate::procs::{self, run_pass, Server};
use crate::stats::SplitMix;
use crate::trace::Tracer;
use crate::{layers, Bench, Outcome};

/// The request sequence: the rotation's start and the first base seed
/// derive from `--seed`. Request `i` of lane `l` uses base seed
/// `base + 2i + l`, so no seed is ever used twice.
struct Requests {
    offset: u64,
    base: u64,
}

impl Requests {
    fn new(seed: u64) -> Requests {
        let mut rng = SplitMix(seed);
        Requests {
            offset: rng.next(),
            // Below 2^53 so JSON numbers carry the seed exactly.
            base: 1 << 20 | rng.below(1 << 40),
        }
    }

    /// The `i`-th request body of `lane` (0 or 1), with or without the
    /// dispatch flag.
    fn body(&self, b: &Bench, i: u64, lane: u64, dispatch: bool) -> String {
        let rotation = &b.plan.dispatch_rotation;
        let workload = &rotation[((self.offset + i) % rotation.len() as u64) as usize];
        format!(
            "{{\"workload\":\"{workload}\",\"effort\":\"{}\",\"seeds\":{},\"budget\":{},\
             \"base_seed\":{}{}}}",
            b.plan.dispatch_effort,
            b.plan.dispatch_seeds,
            b.plan.dispatch_budget,
            self.base + 2 * i + lane,
            if dispatch { ",\"dispatch\":true" } else { "" }
        )
    }
}

/// Set-up: a fresh cache dir and a fleet-backed server, ready once
/// `/v1/ready` answers 200 with every worker running.
fn start_fleet(b: &Bench, k: usize) -> Result<Server, String> {
    let dir = b.scratch.join(format!("dispatch-{k}"));
    let server = Server::start(
        &b.bin,
        &dir,
        Some(&dir.join("cache")),
        b.plan.dispatch_workers,
    )?;
    let mut client = server.client()?;
    let running = format!("\"running\":{}", b.plan.dispatch_workers);
    let start = clock::now();
    loop {
        match client.request("GET", "/v1/ready", None) {
            Ok((200, body)) if body.contains(&running) => return Ok(server),
            Ok(_) if start.elapsed() < Duration::from_secs(30) => {
                std::thread::sleep(Duration::from_millis(1))
            }
            Ok((status, body)) => return Err(format!("fleet never became ready: {status} {body}")),
            Err(e) => return Err(format!("/v1/ready: {e}")),
        }
    }
}

/// `varbench cache gc` on `cache` must find no torn record and no stale
/// lease.
fn gc_check(b: &Bench, cache: &Path, out: &mut Outcome) {
    let mut cmd = procs::varbench(&b.bin);
    cmd.args(["cache", "gc"]).env("VARBENCH_CACHE_DIR", cache);
    match run_pass(&mut cmd) {
        Ok(pass) if pass.status.success() => {
            let text = String::from_utf8_lossy(&pass.stdout);
            if !(text.contains("torn 0") && text.contains("stale-lease 0")) {
                out.problems
                    .push(format!("cache gc after the run: {}", text.trim()));
            }
        }
        Ok(pass) => out
            .problems
            .push(format!("cache gc exited with {}", pass.status)),
        Err(e) => out.problems.push(e),
    }
}

pub fn run(b: &Bench) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut server = None;
    for k in 0..b.plan.dispatch_setups {
        let start = clock::now();
        let s = start_fleet(b, k)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(prev) = server.replace(s) {
            if let Err(e) = Server::shutdown(prev) {
                out.problems.push(format!("set-up server: {e}"));
            }
        }
    }
    out.setup(&setup_s);
    let mut server: Server = server.expect("at least one set-up");
    let cache = server
        .cache_dir()
        .expect("the fleet server has a disk cache")
        .to_path_buf();

    let requests = Requests::new(b.seed);
    let mut client = server.client()?;
    let mut latencies = Vec::new();
    let mut answered: Vec<(u64, String)> = Vec::new();
    procs::reset_peak_rss(server.pid())?;
    let cpu_before = server.cpu_ms();
    let start = clock::now();
    while start.elapsed().as_secs_f64() < b.seconds {
        let i = out.attempted;
        out.attempted += 1;
        let body = requests.body(b, i, 0, true);
        let t0 = clock::now();
        let resp = client.request("POST", "/v1/study", Some(&body));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match resp {
            Ok((200, resp)) => {
                latencies.push(ms);
                answered.push((i, resp));
            }
            Ok((status, resp)) => {
                out.failed += 1;
                eprintln!("perfbench: dispatched study answered HTTP {status}: {resp}");
            }
            Err(e) => {
                out.failed += 1;
                eprintln!("perfbench: dispatched study: {e}");
            }
        }
    }
    let elapsed = start.elapsed();
    let cpu_ms = server.cpu_ms() - cpu_before;
    let peak_kb = procs::vm_hwm_kb(server.pid()).ok_or("cannot read the server's peak RSS")?;
    drop(client);
    if let Err(e) = server.shutdown() {
        out.problems.push(e);
    }
    gc_check(b, &cache, &mut out);

    // Reference: the same requests without dispatch, on a separate
    // server with an empty in-memory cache.
    let reference = Server::start(&b.bin, &b.scratch.join("dispatch-reference"), None, 0)?;
    let mut client = reference.client()?;
    for (i, served) in &answered {
        match client.request("POST", "/v1/study", Some(&requests.body(b, *i, 0, false))) {
            Ok((200, expect)) if expect == *served => {}
            _ => {
                out.failed += 1;
                eprintln!("perfbench: dispatched response {i} differs from the undispatched one");
            }
        }
    }
    drop(client);
    if let Err(e) = reference.shutdown() {
        out.problems.push(format!("reference server: {e}"));
    }

    out.latency(&latencies, elapsed, b.plan.dispatch_tail);
    out.metric("peak_rss_mb", peak_kb as f64 / 1024.0);
    out.metric("cpu_ms_per_op", cpu_ms / out.attempted.max(1) as f64);
    Ok(out)
}

/// What a traced operation hands to the probes that follow it.
struct Dispatched {
    body: String,
    bytes: String,
    wait_ms: f64,
}

/// One dispatched study through the layers in-process: parse, lookup,
/// plan, job list, dispatch against the live fleet, warm assembly and
/// render.
fn dispatch_one(
    t: &mut Tracer,
    ctx: &RunContext,
    dcfg: &DispatchConfig,
    body: String,
) -> Result<Dispatched, String> {
    let before = t.enabled().then(|| ctx.cache().stats());
    let req = t.span("protocol.parse", |_| {
        Json::parse(&body)
            .map_err(|e| e.to_string())
            .and_then(|d| StudyRequest::from_json(&d))
    })?;
    let w = t.span("workloads.find", |_| req.find_workload())?;
    let plan = t.span("study.plan", |_| {
        req.configure(w.as_ref()).map(|s| s.plan())
    })?;
    let jobs = t.span("dispatch.jobs", |_| {
        worker::study_jobs(&req.workload, req.effort, w.as_ref(), plan, ctx)
    });
    let t0 = clock::now();
    let outcome = t.span("dispatch.wait", |_| worker::dispatch(dcfg, jobs, ctx));
    let wait_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = t.span("study.run_warm", |_| {
        req.configure(w.as_ref()).map(|s| s.run(ctx))
    })?;
    let bytes = t.span("report.render", |_| {
        json_envelope(req.effort, &[report.to_json()]) + "\n"
    });
    if let Some(before) = before {
        t.count("dispatch.completed", outcome.completed as f64);
        t.count(
            "dispatch.satisfied_upfront",
            outcome.satisfied_upfront as f64,
        );
        t.count("dispatch.reclaims", outcome.reclaims as f64);
        t.count("dispatch.timed_out", f64::from(u8::from(outcome.timed_out)));
        layers::cache_counts(t, &ctx.cache().stats(), Some(&before));
        let tally = lease::tally(&dcfg.cache_dir);
        t.count("lease.queued", tally.queued as f64);
        t.count("lease.active", tally.active as f64);
        t.count("lease.takeovers", tally.takeovers as f64);
    }
    Ok(Dispatched {
        body,
        bytes,
        wait_ms,
    })
}

/// After a traced operation: each planned unit computed cold on an
/// empty serial context (the reference bytes come from that context),
/// cache probes, and one lease claim/release on a scratch dir.
fn probe(t: &mut Tracer, ctx: &RunContext, scratch: &Path, d: &Dispatched) -> Result<bool, String> {
    let req = Json::parse(&d.body)
        .map_err(|e| e.to_string())
        .and_then(|doc| StudyRequest::from_json(&doc))?;
    let w = req.find_workload()?;
    let cold = RunContext::new(Runner::serial(), MeasureCache::new());
    let mut cold_ms = 0.0;
    for pm in req.configure(w.as_ref())?.plan() {
        let kind = match pm.unit {
            StudyUnit::Source(_) => "source",
            StudyUnit::Joint(_) => "joint",
            StudyUnit::HyperOpt => "hyperopt",
        };
        let t0 = clock::now();
        t.span(&format!("study.unit_cold.{kind}"), |_| {
            pm.execute(w.as_ref(), &cold)
        });
        cold_ms += t0.elapsed().as_secs_f64() * 1e3;
        let key = ctx.measure_key(w.as_ref(), pm.measure_kind(), pm.base_seed);
        t.span("cache.probe", |_| ctx.cache().probe_rows(&key));
    }
    t.count("dispatch.overhead_ratio", d.wait_ms / cold_ms);
    let expect = json_envelope(
        req.effort,
        &[req.configure(w.as_ref())?.run(&cold).to_json()],
    ) + "\n";
    let job = format!("perfbench-probe-{}", t.span_count());
    let claimed = t.span("lease.claim_release", |_| {
        let got = lease::claim(scratch, &job, "perfbench");
        lease::release(scratch, &job, "perfbench");
        got
    });
    Ok(expect == d.bytes && matches!(claimed, Ok(lease::ClaimOutcome::Acquired(1))))
}

pub fn trace(b: &Bench) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut t = Tracer::new();
    let dir = b.scratch.join("dispatch-trace");
    let cache = dir.join("cache");
    let lease_dir = dir.join("leases");
    let mut cfg = SupervisorConfig::new(&cache, b.plan.dispatch_workers as usize);
    cfg.exe = Some(b.bin.clone());
    let fleet = t.op("dispatch-cold.setup", true, false, |t| {
        let fleet = t.span("supervisor.start", |_| -> Result<Supervisor, String> {
            let fleet = Supervisor::start(cfg).map_err(|e| format!("fleet start: {e}"))?;
            while fleet.status().running() < b.plan.dispatch_workers as usize {
                std::thread::sleep(Duration::from_micros(200));
            }
            Ok(fleet)
        });
        layers::pipeline_sweep(t, varbench_bench::args::Effort::Test);
        fleet
    })?;
    procs::remember_children_of_self();
    let ctx = RunContext::new(Runner::new(0), MeasureCache::with_dir(&cache));
    let mut dcfg = DispatchConfig::new(&cache, 0);
    dcfg.exe = None;
    let requests = Requests::new(b.seed);
    let mut i = 0;
    let start = clock::now();
    while out.attempted == 0 || start.elapsed().as_secs_f64() < b.seconds {
        // Both sides of a pair use the same workload with fresh seeds.
        for traced in crate::pair_order(out.attempted) {
            let lane = u64::from(!traced);
            out.attempted += 1;
            let body = requests.body(b, i, lane, true);
            let d = t.op("dispatch-cold.request", traced, true, |t| {
                dispatch_one(t, &ctx, &dcfg, body)
            });
            let ok = d.and_then(|d| {
                t.op("dispatch-cold.probe", true, false, |t| {
                    probe(t, &ctx, &lease_dir, &d)
                })
            });
            if !matches!(ok, Ok(true)) {
                out.failed += 1;
                eprintln!("perfbench: traced dispatch {i}: {ok:?}");
            }
        }
        i += 1;
    }
    let status = fleet.status();
    t.op("dispatch-cold.teardown", true, false, |t| {
        t.count("supervisor.respawns", f64::from(status.respawns()));
        t.count("supervisor.quarantined", status.quarantined() as f64);
        t.span("supervisor.drain", |_| {
            fleet.shutdown(Duration::from_secs(2))
        })
    });
    match gc_dir(&cache) {
        Ok(gc) if gc.torn_files == 0 && gc.stale_leases == 0 => {}
        Ok(gc) => out.problems.push(format!("gc after the run: {gc:?}")),
        Err(e) => out.problems.push(format!("gc after the run: {e}")),
    }
    out.metric(
        "supervisor.start_ms",
        layers::median_ms(&t, "supervisor.start"),
    );
    out.metric(
        "supervisor.drain_ms",
        layers::median_ms(&t, "supervisor.drain"),
    );
    out.metric(
        "supervisor.respawns",
        layers::total(&t.counts("supervisor.respawns")),
    );
    out.metric(
        "supervisor.quarantined",
        layers::total(&t.counts("supervisor.quarantined")),
    );
    out.metric(
        "protocol.parse_us",
        layers::median_ms(&t, "protocol.parse") * 1e3,
    );
    out.metric("workloads.find_ms", layers::median_ms(&t, "workloads.find"));
    out.metric("study.plan_us", layers::median_ms(&t, "study.plan") * 1e3);
    out.metric("study.run_warm_ms", layers::median_ms(&t, "study.run_warm"));
    for kind in ["source", "joint", "hyperopt"] {
        out.metric(
            &format!("study.unit_cold_ms.{kind}"),
            layers::median_ms(&t, &format!("study.unit_cold.{kind}")),
        );
    }
    out.metric(
        "report.render_us",
        layers::median_ms(&t, "report.render") * 1e3,
    );
    out.metric("dispatch.jobs_ms", layers::median_ms(&t, "dispatch.jobs"));
    out.metric("dispatch.wait_ms", layers::median_ms(&t, "dispatch.wait"));
    for name in [
        "dispatch.completed",
        "dispatch.satisfied_upfront",
        "dispatch.reclaims",
        "dispatch.timed_out",
    ] {
        out.metric(name, layers::mean(&t.counts(name)));
    }
    out.metric(
        "dispatch.overhead_ratio",
        crate::stats::median(&t.counts("dispatch.overhead_ratio")),
    );
    out.metric(
        "lease.claim_release_us",
        layers::median_ms(&t, "lease.claim_release") * 1e3,
    );
    for name in ["lease.queued", "lease.active", "lease.takeovers"] {
        out.metric(name, t.counts(name).iter().copied().fold(0.0, f64::max));
    }
    layers::report_cache(&t, &mut out);
    layers::report_pipeline(&t, &mut out);
    out.traced(b, &t)?;
    Ok(out)
}
