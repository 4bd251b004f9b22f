//! Child processes of the program under test: spawning with a clean
//! environment, reaping on every path, `/proc` readings (CPU time and
//! peak RSS), and the leak check.
//!
//! Every pid this bench starts or discovers (servers, fleet workers,
//! CLI passes) is remembered; at the end of a run any of them still
//! alive is killed and fails the run.

use std::io::Read;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use varbench_bench::serve::{http_request, HttpClient};

use crate::clock;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (USER_HZ,
/// 100 on every Linux ABI this repo builds for).
const TICKS_PER_S: f64 = 100.0;

static SEEN: Mutex<Vec<u32>> = Mutex::new(Vec::new());

fn remember(pid: u32) {
    SEEN.lock().expect("pid registry").push(pid);
}

/// A `varbench` command with the environment knobs that change its
/// behaviour removed, so the caller's shell cannot alter a run.
pub fn varbench(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for key in [
        "VARBENCH_CACHE_DIR",
        "VARBENCH_THREADS",
        "VARBENCH_PAR_BOOTSTRAP",
    ] {
        cmd.env_remove(key);
    }
    cmd.stdin(Stdio::null());
    cmd
}

/// A child process that is killed (if still running) and reaped when
/// dropped, so no failure path leaves it behind.
pub struct Reaped {
    child: Child,
}

impl Reaped {
    pub fn spawn(cmd: &mut Command) -> Result<Reaped, String> {
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn {:?}: {e}", cmd.get_program()))?;
        remember(child.id());
        Ok(Reaped { child })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Waits up to `limit` for the child to exit.
    pub fn wait_for(&mut self, limit: Duration) -> Option<ExitStatus> {
        let start = clock::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Some(status),
                Ok(None) if start.elapsed() < limit => std::thread::sleep(Duration::from_millis(2)),
                _ => return None,
            }
        }
    }

    fn exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One finished CLI pass.
pub struct Pass {
    pub stdout: Vec<u8>,
    pub status: ExitStatus,
    pub wall: Duration,
    /// Highest `VmHWM` seen while the process ran, if any sample landed.
    pub peak_kb: Option<u64>,
}

/// Runs `cmd` to completion with stdout captured and stderr discarded,
/// sampling the child's peak RSS every few milliseconds from a second
/// thread. Wall time runs from spawn to reap.
pub fn run_pass(cmd: &mut Command) -> Result<Pass, String> {
    cmd.stdout(Stdio::piped()).stderr(Stdio::null());
    let start = clock::now();
    let mut proc = Reaped::spawn(cmd)?;
    let pid = proc.pid();
    let mut stdout = proc.child.stdout.take().expect("stdout is piped");
    let done = AtomicBool::new(false);
    let (read, peak_kb) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = None;
            while !done.load(Ordering::Relaxed) {
                if let Some(kb) = vm_hwm_kb(pid) {
                    peak = peak.max(Some(kb));
                }
                std::thread::sleep(Duration::from_millis(3));
            }
            peak
        });
        let mut buf = Vec::new();
        let read = stdout.read_to_end(&mut buf).map(|_| buf);
        // Stdout closes as the process exits; its peak is behind it.
        done.store(true, Ordering::Relaxed);
        (read, sampler.join().expect("rss sampler"))
    });
    let stdout = read.map_err(|e| format!("reading child stdout: {e}"))?;
    let status = proc
        .child
        .wait()
        .map_err(|e| format!("waiting for child: {e}"))?;
    Ok(Pass {
        stdout,
        status,
        wall: start.elapsed(),
        peak_kb,
    })
}

/// Fields of `/proc/<pid>/stat` after the command name (index 0 is the
/// state letter, so field N of proc(5) is index N - 3).
fn stat_fields(pid: &str) -> Option<(String, Vec<String>)> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let open = text.find('(')?;
    let close = text.rfind(')')?;
    let comm = text[open + 1..close].to_string();
    Some((
        comm,
        text[close + 1..]
            .split_whitespace()
            .map(str::to_string)
            .collect(),
    ))
}

fn tick_sum(fields: &[String], a: usize, b: usize) -> Option<f64> {
    let x: f64 = fields.get(a)?.parse().ok()?;
    let y: f64 = fields.get(b)?.parse().ok()?;
    Some((x + y) * 1000.0 / TICKS_PER_S)
}

/// User + system CPU time of a live process, in ms.
pub fn cpu_ms(pid: u32) -> Option<f64> {
    let (_, f) = stat_fields(&pid.to_string())?;
    tick_sum(&f, 11, 12)
}

/// CPU time of this process's reaped children (and theirs), in ms.
pub fn reaped_children_cpu_ms() -> f64 {
    stat_fields("self")
        .and_then(|(_, f)| tick_sum(&f, 13, 14))
        .unwrap_or(0.0)
}

/// Peak resident set size (`VmHWM`) of a live process, in kB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets a live process's `VmHWM` to its current RSS (proc(5),
/// `clear_refs` value 5), so a later reading is the peak since now.
pub fn reset_peak_rss(pid: u32) -> Result<(), String> {
    std::fs::write(format!("/proc/{pid}/clear_refs"), "5")
        .map_err(|e| format!("cannot reset the peak RSS of {pid}: {e}"))
}

/// Live child processes of `pid` (found by scanning `/proc`).
pub fn children_of(pid: u32) -> Vec<u32> {
    let Ok(entries) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let parent = pid.to_string();
    let mut out: Vec<u32> = entries
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|p| {
            stat_fields(&p.to_string()).is_some_and(|(_, f)| {
                f.first().is_some_and(|s| s != "Z") && f.get(1) == Some(&parent)
            })
        })
        .collect();
    out.sort_unstable();
    out
}

/// Remembers this process's own live `varbench` children (fleet
/// workers an in-process supervisor spawned) for the leak check.
pub fn remember_children_of_self() {
    for pid in children_of(std::process::id()) {
        if is_live_varbench(pid) {
            remember(pid);
        }
    }
}

fn is_live_varbench(pid: u32) -> bool {
    stat_fields(&pid.to_string())
        .is_some_and(|(comm, f)| comm == "varbench" && f.first().is_some_and(|s| s != "Z"))
}

fn kill(pid: u32) {
    let _ = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// Kills every remembered process still alive and returns their pids.
pub fn reap_leaked() -> Vec<u32> {
    let pids = SEEN.lock().expect("pid registry").clone();
    let leaked: Vec<u32> = pids.into_iter().filter(|&p| is_live_varbench(p)).collect();
    for &p in &leaked {
        kill(p);
    }
    leaked
}

/// A running `varbench serve` on an OS-assigned loopback port.
pub struct Server {
    proc: Reaped,
    pub addr: SocketAddr,
    cache: Option<PathBuf>,
    log: PathBuf,
    workers: Vec<u32>,
    closed: bool,
}

impl Server {
    /// Starts `varbench serve` with its files under `dir`, the disk
    /// cache at `cache` (in-memory when `None`) and `workers` fleet
    /// workers, and returns once the listener is live.
    pub fn start(
        bin: &Path,
        dir: &Path,
        cache: Option<&Path>,
        workers: u64,
    ) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let ready = dir.join("ready");
        let log = dir.join("serve.log");
        let _ = std::fs::remove_file(&ready);
        let log_file =
            std::fs::File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut cmd = varbench(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--ready-file"])
            .arg(&ready)
            .stdout(Stdio::null())
            .stderr(log_file);
        if let Some(cache) = cache {
            cmd.env("VARBENCH_CACHE_DIR", cache);
        }
        if workers > 0 {
            cmd.args(["--workers", &workers.to_string()]);
        }
        let mut proc = Reaped::spawn(&mut cmd)?;
        let start = clock::now();
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&ready) {
                if let Some(line) = text.strip_suffix('\n') {
                    break line
                        .parse::<SocketAddr>()
                        .map_err(|e| format!("bad ready file {line:?}: {e}"))?;
                }
            }
            if proc.exited() || start.elapsed() > Duration::from_secs(30) {
                return Err(format!(
                    "varbench serve did not come up: {}",
                    log_tail(&log)
                ));
            }
            std::thread::sleep(Duration::from_micros(500));
        };
        let mut server = Server {
            proc,
            addr,
            cache: cache.map(Path::to_path_buf),
            log,
            workers: Vec::new(),
            closed: false,
        };
        server.note_workers();
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.proc.pid()
    }

    /// The server's disk cache directory, if it has one.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache.as_deref()
    }

    pub fn client(&self) -> Result<HttpClient, String> {
        HttpClient::connect(self.addr).map_err(|e| format!("connect {}: {e}", self.addr))
    }

    /// Records the server's current fleet workers for CPU accounting and
    /// the leak check; returns them.
    pub fn note_workers(&mut self) -> Vec<u32> {
        let now = children_of(self.pid());
        for &p in &now {
            if !self.workers.contains(&p) {
                self.workers.push(p);
                remember(p);
            }
        }
        now
    }

    /// CPU time of the server and its live workers, in ms.
    pub fn cpu_ms(&mut self) -> f64 {
        let workers = self.note_workers();
        std::iter::once(self.pid())
            .chain(workers)
            .filter_map(cpu_ms)
            .sum()
    }

    /// Graceful shutdown through `POST /v1/shutdown`; fails if the server
    /// or any of its workers is still alive afterwards.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.note_workers();
        let (status, _) = http_request(self.addr, "POST", "/v1/shutdown", None)
            .map_err(|e| format!("shutdown request: {e}"))?;
        if status != 200 {
            return Err(format!("shutdown answered HTTP {status}"));
        }
        let Some(exit) = self.proc.wait_for(Duration::from_secs(20)) else {
            return Err("varbench serve did not exit after shutdown".into());
        };
        if !exit.success() {
            return Err(format!(
                "varbench serve exited with {exit}: {}",
                log_tail(&self.log)
            ));
        }
        self.closed = true;
        let start = clock::now();
        while self.workers.iter().any(|&p| is_live_varbench(p)) {
            if start.elapsed() > Duration::from_secs(5) {
                return Err("fleet worker(s) outlived the server".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if !self.closed {
            // Killing the server skips its fleet drain, so take the
            // workers down too; `Reaped` then reaps the server.
            let _ = self.proc.child.kill();
            for &p in &self.workers {
                if is_live_varbench(p) {
                    kill(p);
                }
            }
        }
    }
}

fn log_tail(log: &Path) -> String {
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let tail: Vec<&str> = text.lines().rev().take(5).collect();
    tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
}
