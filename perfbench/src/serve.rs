//! The untraced `serve_session` workload: one `sisyn serve` per pass with
//! its default settings, and one client connection over a Unix socket
//! that waits for each reply, as `sisyn submit` does.

use crate::jobs::Job;
use crate::oracle;
use crate::Tally;
use sisyn::serve::json::{self, Value};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server and the client's connection to it.
pub struct Session {
    child: Child,
    socket: PathBuf,
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Session {
    /// Starts `sisyn serve` on a socket under `dir` and connects to it
    /// once it accepts.
    pub fn start(sisyn: &Path, dir: &Path) -> Result<Session, String> {
        let socket = dir.join(format!("serve-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let mut child = Command::new(sisyn)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start sisyn serve: {e}"))?;
        let deadline = Instant::now() + Duration::from_secs(20);
        let stream = loop {
            match UnixStream::connect(&socket) {
                Ok(stream) => break stream,
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("sisyn serve never accepted: {e}"));
                }
            }
        };
        let reader = stream
            .try_clone()
            .map(BufReader::new)
            .map_err(|e| e.to_string())?;
        Ok(Session {
            child,
            socket,
            writer: stream,
            reader,
        })
    }

    /// Sends one request line and reads the response line.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut response = String::new();
        match self.reader.read_line(&mut response) {
            Ok(0) => Err("the server closed the connection".to_string()),
            Ok(_) => Ok(response),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    /// The server's peak resident set so far, in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|status| {
                status.lines().find_map(|l| {
                    l.strip_prefix("VmHWM:")?
                        .split_whitespace()
                        .next()?
                        .parse()
                        .ok()
                })
            })
            .unwrap_or(0)
    }
}

/// Dropping a session stops its server and waits for it to exit, on error
/// paths too.
impl Drop for Session {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// What the server's envelope said about one request.
#[derive(Clone, Debug, Default)]
pub struct Envelope {
    pub cache_hit: bool,
    pub job_ms: f64,
    pub reach_builds: f64,
    pub covers_reused: f64,
    pub covers_derived: f64,
    pub store_mem_bytes: f64,
    pub store_entries: f64,
    pub store_evictions: f64,
}

impl Envelope {
    fn read(v: &Value) -> Envelope {
        let num = |v: &Value, key| v.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let store = |key| v.get("store").map_or(0.0, |s| num(s, key));
        Envelope {
            cache_hit: v.get("cache_hit").and_then(Value::as_bool).unwrap_or(false),
            job_ms: num(v, "job_ms"),
            reach_builds: num(v, "reach_builds"),
            covers_reused: num(v, "covers_reused"),
            covers_derived: num(v, "covers_derived"),
            store_mem_bytes: store("mem_bytes"),
            store_entries: store("mem_entries"),
            store_evictions: store("evictions"),
        }
    }
}

/// One answered request: round trip, envelope and verdict.
pub struct Exchange {
    pub round_trip_ms: f64,
    pub envelope: Envelope,
    pub verdict: Result<oracle::Answer, String>,
}

/// Sends one job and checks the reply: the verdict against the known
/// answer, and the cache outcome against the job's class.
pub fn exchange(session: &mut Session, job: &Job) -> Exchange {
    let line = job.op.request(&job.text);
    let started = Instant::now();
    let response = session.request(&line);
    let round_trip_ms = started.elapsed().as_secs_f64() * 1e3;
    let parsed = response.and_then(|r| json::parse(r.trim_end()).map_err(|e| e.to_string()));
    let envelope = parsed.as_ref().map(Envelope::read).unwrap_or_default();
    let verdict = parsed.and_then(|v| {
        if envelope.cache_hit != job.class.is_hit() {
            return Err(format!(
                "{:?} request answered with cache_hit {}",
                job.class, envelope.cache_hit
            ));
        }
        oracle::check_report(job.op, job.spec, &v)
    });
    Exchange {
        round_trip_ms,
        envelope,
        verdict,
    }
}

/// Runs one pass on `session`, then stops the server: every pass is a
/// session of its own.
pub fn run_pass(mut session: Session, pass: &[Job], tally: &mut Tally) -> Vec<(Job, Exchange)> {
    let mut exchanges = Vec::new();
    let started = Instant::now();
    for job in pass {
        let ex = exchange(&mut session, job);
        tally.latency_sum_ms += ex.round_trip_ms;
        if ex.envelope.cache_hit {
            tally.hit_ms.push(ex.round_trip_ms);
        } else {
            tally.pipeline_ms.push(ex.round_trip_ms);
        }
        tally.record(job, ex.verdict.clone());
        exchanges.push((job.clone(), ex));
    }
    tally.elapsed_s += started.elapsed().as_secs_f64();
    tally.peak_rss_kb = tally.peak_rss_kb.max(session.peak_rss_kb());
    drop(session);
    exchanges
}
