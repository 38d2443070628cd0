//! The `sisyn serve` / `sisyn submit` subcommands.
//!
//! Both live here rather than in the binary so the socket protocol,
//! flag parsing and exit-code mapping are testable as library code; the
//! binary only forwards `argv` and its SIGINT token.

use std::io::Read;
use std::path::PathBuf;

use si_petri::CancelToken;

use crate::client::submit_lines;
use crate::json::{self, Value};
use crate::report::{JobOptions, EXIT_INCONCLUSIVE, OPTION_USAGE};
use crate::server::{serve, Endpoint, ServerConfig};
use crate::service::Request;

/// Exit code for usage errors (matches the CLI convention).
const EXIT_USAGE: u8 = 2;

fn serve_usage() -> u8 {
    eprintln!(
        "usage: sisyn serve (--socket PATH | --tcp ADDR) [--workers N] \
         [--store-bytes N] [--store-dir DIR] [--log] [--metrics-addr ADDR]"
    );
    EXIT_USAGE
}

fn submit_usage() -> u8 {
    eprintln!(
        "usage: sisyn submit (--socket PATH | --tcp ADDR) \
         <check|synth|verify|resolve|stats|metrics> [SPEC.g] [-o FILE] {OPTION_USAGE}"
    );
    EXIT_USAGE
}

/// Reads the spec at `path`, or stdin for `-`.
///
/// # Errors
///
/// The read failure.
pub fn read_input(path: &str) -> std::io::Result<String> {
    if path == "-" {
        let mut s = String::new();
        std::io::stdin().read_to_string(&mut s)?;
        Ok(s)
    } else {
        std::fs::read_to_string(path)
    }
}

/// Runs `sisyn serve ARGS` until `cancel` fires (Ctrl-C in the binary),
/// returning the process exit code.
pub fn serve_main(args: &[String], cancel: &CancelToken) -> u8 {
    let mut endpoint = None;
    let mut config_workers = 2usize;
    let mut store_bytes = 64usize << 20;
    let mut store_dir = None;
    let mut log = false;
    let mut metrics_addr = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => endpoint = Some(Endpoint::Unix(PathBuf::from(p))),
                None => return serve_usage(),
            },
            "--tcp" => match it.next() {
                Some(addr) => endpoint = Some(Endpoint::Tcp(addr.clone())),
                None => return serve_usage(),
            },
            "--workers" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => config_workers = n,
                _ => return serve_usage(),
            },
            "--store-bytes" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => store_bytes = n,
                _ => return serve_usage(),
            },
            "--store-dir" => match it.next() {
                Some(d) => store_dir = Some(PathBuf::from(d)),
                None => return serve_usage(),
            },
            "--log" => log = true,
            "--metrics-addr" => match it.next() {
                Some(addr) => metrics_addr = Some(addr.clone()),
                None => return serve_usage(),
            },
            other => {
                eprintln!("unexpected argument {other:?}");
                return serve_usage();
            }
        }
    }
    let Some(endpoint) = endpoint else {
        return serve_usage();
    };
    let config = ServerConfig {
        endpoint,
        workers: config_workers,
        store_bytes,
        store_dir,
        log,
        metrics_addr,
    };
    match serve(&config, cancel) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("serve: {e}");
            1
        }
    }
}

/// Runs `sisyn submit ARGS`: builds one request from the flags (parsed
/// by the CLI's option parser), sends it, prints the response line and
/// maps it to the CLI exit codes (0 ok, 1 failed, 3 inconclusive).
pub fn submit_main(args: &[String]) -> u8 {
    let mut endpoint = None;
    let mut op = None;
    let mut spec_path = None;
    let mut output = None;
    let mut options = JobOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match options.parse_flag(a, &mut it) {
            Some(Ok(())) => continue,
            Some(Err(e)) => {
                eprintln!("{e}");
                return submit_usage();
            }
            None => {}
        }
        match a.as_str() {
            "--socket" => match it.next() {
                Some(p) => endpoint = Some(Endpoint::Unix(PathBuf::from(p))),
                None => return submit_usage(),
            },
            "--tcp" => match it.next() {
                Some(addr) => endpoint = Some(Endpoint::Tcp(addr.clone())),
                None => return submit_usage(),
            },
            "-o" => match it.next() {
                Some(p) => output = Some(p.clone()),
                None => return submit_usage(),
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}");
                return submit_usage();
            }
            _ if op.is_none() => op = Some(a.clone()),
            _ if spec_path.is_none() => spec_path = Some(a.clone()),
            other => {
                eprintln!("unexpected argument {other:?}");
                return submit_usage();
            }
        }
    }
    let (Some(endpoint), Some(op)) = (endpoint, op) else {
        return submit_usage();
    };
    let mut spec = String::new();
    if !matches!(op.as_str(), "stats" | "metrics") {
        let Some(path) = spec_path else {
            eprintln!("{op} needs a SPEC.g argument");
            return submit_usage();
        };
        spec = match read_input(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return 1;
            }
        };
    }
    let request = Request { op, spec, options };
    let response = match submit_lines(&endpoint, &[request.to_line()]) {
        Ok(mut lines) => lines.remove(0),
        Err(e) => {
            eprintln!("submit: {e}");
            return 1;
        }
    };
    println!("{response}");
    response_exit(&response, output.as_deref())
}

/// Maps a response line to an exit code, writing the `-o` artifact
/// (synth's Verilog, resolve's `.g`) when present.
fn response_exit(response: &str, output: Option<&str>) -> u8 {
    let Ok(v) = json::parse(response) else {
        eprintln!("submit: malformed response");
        return 1;
    };
    if let Some(path) = output {
        let artifact = v
            .get("verilog")
            .or_else(|| v.get("resolved"))
            .and_then(Value::as_str);
        if let Some(text) = artifact {
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("cannot write {path}: {e}");
                return 1;
            }
        }
    }
    match v.get("ok").and_then(Value::as_bool) {
        Some(true) => 0,
        _ if v.get("inconclusive").and_then(Value::as_bool) == Some(true) => EXIT_INCONCLUSIVE,
        _ => 1,
    }
}
