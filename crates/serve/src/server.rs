//! The socket server: accept loop, connection handlers, graceful drain.
//!
//! The listener (Unix or TCP) runs non-blocking and is polled every
//! ~20 ms against the cancellation token, so SIGINT is observed between
//! accepts. Each connection gets its own handler thread that reads
//! newline-delimited requests, submits them to the shared [`JobQueue`]
//! (which bounds actual compute concurrency) and writes one response
//! line per request. On cancellation the server stops accepting, the
//! handlers finish their in-flight request and exit, and the queue
//! drains queued jobs to completion — a `Ctrl-C` loses no work that was
//! already submitted.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use si_petri::{Budget, CancelToken};

use crate::json::{Object, Raw};
use crate::queue::JobQueue;
use crate::service::{envelope, Request, Response, Service};
use crate::store::ArtifactStore;

/// Where the server listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix-domain socket at this path.
    Unix(PathBuf),
    /// A TCP address, e.g. `127.0.0.1:7432`.
    Tcp(String),
}

/// Server configuration (the `sisyn serve` flags).
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listening endpoint.
    pub endpoint: Endpoint,
    /// Worker threads on the job queue.
    pub workers: usize,
    /// Byte ceiling of the in-memory artifact tier.
    pub store_bytes: usize,
    /// Spill directory for the disk tier (`None` = memory only).
    pub store_dir: Option<PathBuf>,
    /// Log one line per executed job to stderr.
    pub log: bool,
    /// TCP address of the Prometheus-style text metrics endpoint
    /// (`None` = no endpoint). Binding it turns the observability layer
    /// on for the whole server process.
    pub metrics_addr: Option<String>,
}

impl ServerConfig {
    /// Defaults: 2 workers, 64 MiB memory tier, no spill, no log, no
    /// metrics endpoint.
    pub fn new(endpoint: Endpoint) -> Self {
        ServerConfig {
            endpoint,
            workers: 2,
            store_bytes: 64 << 20,
            store_dir: None,
            log: false,
            metrics_addr: None,
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Listener {
    fn bind(endpoint: &Endpoint) -> io::Result<Listener> {
        match endpoint {
            Endpoint::Unix(path) => {
                // A stale socket file from a crashed server would make
                // bind fail; connect() distinguishes live from stale.
                if path.exists() && UnixStream::connect(path).is_err() {
                    let _ = std::fs::remove_file(path);
                }
                Ok(Listener::Unix(UnixListener::bind(path)?))
            }
            Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
        }
    }

    fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            Listener::Unix(l) => l.set_nonblocking(nb),
            Listener::Tcp(l) => l.set_nonblocking(nb),
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

impl Stream {
    fn configure(&self) -> io::Result<()> {
        // The stream must be blocking (it may inherit non-blocking from
        // the polled listener) with a short read timeout, so handlers
        // observe cancellation while idle.
        let timeout = Some(Duration::from_millis(200));
        match self {
            Stream::Unix(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(timeout)
            }
            Stream::Tcp(s) => {
                s.set_nonblocking(false)?;
                s.set_read_timeout(timeout)
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Runs the server until `cancel` fires, then drains and returns.
///
/// # Errors
///
/// Propagates the bind failure; per-connection I/O errors only drop
/// that connection.
pub fn serve(config: &ServerConfig, cancel: &CancelToken) -> io::Result<()> {
    let store = Arc::new(ArtifactStore::new(
        Budget::unbounded().max_bytes(config.store_bytes),
        config.store_dir.clone(),
    ));
    let service = Arc::new(Service::new(store));
    let queue = Arc::new(JobQueue::new(config.workers));
    let listener = Listener::bind(&config.endpoint)?;
    listener.set_nonblocking(true)?;
    if config.log {
        si_obs::log_line(&format!(
            "serve: listening on {:?} ({} worker(s), {} byte memory tier{})",
            config.endpoint,
            config.workers,
            config.store_bytes,
            config
                .store_dir
                .as_ref()
                .map_or(String::new(), |d| format!(", spill {}", d.display())),
        ));
    }
    // The metrics endpoint thread scrapes the same registry the job
    // pipeline records into; binding it switches observation on so
    // there is something to scrape.
    let metrics_handle = config.metrics_addr.clone().map(|addr| {
        si_obs::set_enabled(true);
        let service = Arc::clone(&service);
        let queue = Arc::clone(&queue);
        let cancel = cancel.clone();
        std::thread::spawn(move || metrics_endpoint(&addr, &service, &queue, &cancel))
    });

    let mut handlers = Vec::new();
    while !cancel.is_cancelled() {
        match listener.accept() {
            Ok(stream) => {
                if stream.configure().is_err() {
                    continue;
                }
                let service = Arc::clone(&service);
                let queue = Arc::clone(&queue);
                let cancel = cancel.clone();
                let log = config.log;
                handlers.push(std::thread::spawn(move || {
                    handle_connection(stream, &service, &queue, &cancel, log);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }

    // Graceful shutdown: no new connections, handlers finish the request
    // they are on (the read timeout bounds how long an idle one lingers),
    // queued jobs run to completion.
    drop(listener);
    for handle in handlers {
        let _ = handle.join();
    }
    queue.drain();
    if let Some(handle) = metrics_handle {
        let _ = handle.join();
    }
    if let Endpoint::Unix(path) = &config.endpoint {
        let _ = std::fs::remove_file(path);
    }
    if config.log {
        let s = service.store().stats();
        let q = queue.stats();
        si_obs::log_line(&format!(
            "serve: drained; {} job(s) executed ({} panicked), store {} hit(s) \
             / {} disk hit(s) / {} miss(es), {} eviction(s)",
            q.executed, q.panicked, s.hits, s.disk_hits, s.misses, s.evictions,
        ));
    }
    Ok(())
}

/// Mirrors the queue and store counters into the shared registry as
/// gauges — called at snapshot time only (a `metrics` op or an endpoint
/// scrape), so the `QueueStats`/`StoreStats` structs stay the source of
/// truth and the job pipeline pays nothing for them.
fn sync_serve_gauges(s: &crate::store::StoreStats, q: &crate::queue::QueueStats) {
    si_obs::gauge_sync("serve.queue.submitted", q.submitted as i64);
    si_obs::gauge_sync("serve.queue.executed", q.executed as i64);
    si_obs::gauge_sync("serve.queue.panicked", q.panicked as i64);
    si_obs::gauge_sync("serve.queue.depth", q.depth as i64);
    si_obs::gauge_sync("serve.queue.busy_ms", q.busy_ms as i64);
    si_obs::gauge_sync("serve.store.hits", s.hits as i64);
    si_obs::gauge_sync("serve.store.disk_hits", s.disk_hits as i64);
    si_obs::gauge_sync("serve.store.misses", s.misses as i64);
    si_obs::gauge_sync("serve.store.evictions", s.evictions as i64);
    si_obs::gauge_sync("serve.store.disk_writes", s.disk_writes as i64);
    si_obs::gauge_sync("serve.store.mem_bytes", s.mem_bytes as i64);
    si_obs::gauge_sync("serve.store.mem_entries", s.mem_entries as i64);
}

/// The Prometheus-style text endpoint: a minimal HTTP/1.0 responder that
/// answers every request with the current registry exposition. Polled
/// non-blocking against the cancellation token, like the main listener.
fn metrics_endpoint(
    addr: &str,
    service: &Arc<Service>,
    queue: &Arc<JobQueue>,
    cancel: &CancelToken,
) {
    let listener = match TcpListener::bind(addr) {
        Ok(l) => l,
        Err(e) => {
            si_obs::log_line(&format!("serve: cannot bind metrics endpoint {addr}: {e}"));
            return;
        }
    };
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !cancel.is_cancelled() {
        match listener.accept() {
            Ok((mut stream, _)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
                // Drain the request head; every path answers the same.
                let mut head = [0u8; 1024];
                let _ = stream.read(&mut head);
                sync_serve_gauges(&service.store().stats(), &queue.stats());
                let body = si_obs::render_prometheus();
                let _ = write!(
                    stream,
                    "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
                    body.len(),
                );
                let _ = stream.flush();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Reads request lines until EOF or cancellation, answering each.
fn handle_connection(
    mut stream: Stream,
    service: &Arc<Service>,
    queue: &Arc<JobQueue>,
    cancel: &CancelToken,
    log: bool,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut eof = false;
    loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            if !answer(&line, &mut stream, service, queue, log) {
                return;
            }
        }
        if eof {
            // A final request without a trailing newline still counts.
            if !buf.is_empty() {
                let line = std::mem::take(&mut buf);
                let _ = answer(&line, &mut stream, service, queue, log);
            }
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => eof = true,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if cancel.is_cancelled() {
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Executes one request line on the queue and writes the response line.
/// Returns `false` when the connection should close.
fn answer(
    raw: &[u8],
    stream: &mut Stream,
    service: &Arc<Service>,
    queue: &Arc<JobQueue>,
    log: bool,
) -> bool {
    let line = String::from_utf8_lossy(raw).trim().to_string();
    if line.is_empty() {
        return true;
    }
    let request = Request::parse(&line);
    // A `metrics` op is answered inline on the handler thread: it is the
    // one place the queue and store stats are both in scope, and a
    // snapshot should not wait behind queued synthesis jobs.
    if matches!(&request, Ok(r) if r.op == "metrics") {
        let started = Instant::now();
        sync_serve_gauges(&service.store().stats(), &queue.stats());
        let body = Object::new()
            .field("command", "metrics")
            .field("ok", true)
            .field("profile", Raw(&si_obs::render_json()))
            .finish();
        let resp = Response::new("metrics", body);
        let job_ms = started.elapsed().as_secs_f64() * 1e3;
        if log {
            log_job(&resp, job_ms);
        }
        let out = envelope(&resp, job_ms, &service.store().stats(), &queue.stats());
        return stream
            .write_all(out.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush())
            .is_ok();
    }
    let job_service = Arc::clone(service);
    let job_queue = Arc::clone(queue);
    let result = queue.submit(move || {
        let started = Instant::now();
        let resp = job_service.execute_parsed(request);
        let job_ms = started.elapsed().as_secs_f64() * 1e3;
        if log {
            log_job(&resp, job_ms);
        }
        envelope(
            &resp,
            job_ms,
            &job_service.store().stats(),
            &job_queue.stats(),
        )
    });
    let out = match result {
        Ok(out) => out,
        // The panic was isolated by the queue; the connection gets a
        // structured error and stays usable.
        Err(detail) => envelope(
            &Response::error("?", "worker-panicked", detail),
            0.0,
            &service.store().stats(),
            &queue.stats(),
        ),
    };
    stream
        .write_all(out.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush())
        .is_ok()
}

fn log_job(resp: &Response, job_ms: f64) {
    si_obs::log_line(&format!(
        "serve: {} cache_hit={} job_ms={job_ms:.1} reach_builds={} \
         covers_reused={} covers_derived={}",
        resp.op, resp.cache_hit, resp.reach_builds, resp.covers_reused, resp.covers_derived,
    ));
}
