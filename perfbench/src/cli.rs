//! The untraced CLI workloads: one `sisyn` process per job, the spec on
//! stdin, timed from spawn to exit.

use crate::jobs::Job;
use crate::oracle::{self, Answer};
use crate::Tally;
use std::io::Write;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Runs one job as its own process and checks its report. Returns the
/// wall time from spawn to exit in milliseconds.
pub fn run_job(sisyn: &Path, job: &Job) -> (f64, Result<Answer, String>) {
    let started = Instant::now();
    let output = Command::new(sisyn)
        .args(job.op.cli_args())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .and_then(|mut child| {
            let mut stdin = child.stdin.take().expect("stdin is piped");
            // A process that exits before reading its input reports the
            // failure through its exit code; the wait below still runs.
            let _ = stdin.write_all(job.text.as_bytes());
            drop(stdin);
            child.wait_with_output()
        });
    let ms = started.elapsed().as_secs_f64() * 1e3;
    let verdict = match output {
        Ok(out) => oracle::check_cli(
            job.op,
            job.spec,
            out.status.code(),
            &String::from_utf8_lossy(&out.stdout),
        ),
        Err(e) => Err(format!("cannot run sisyn: {e}")),
    };
    (ms, verdict)
}

/// Runs one pass. With `repeat`, every job repeats one of an earlier
/// pass, so its latency is also a repeat ("hit") sample.
pub fn run_pass(sisyn: &Path, pass: &[Job], repeat: bool, tally: &mut Tally) {
    let started = Instant::now();
    for job in pass {
        let (ms, verdict) = run_job(sisyn, job);
        tally.latency_sum_ms += ms;
        tally.pipeline_ms.push(ms);
        if repeat {
            tally.hit_ms.push(ms);
        }
        tally.record(job, verdict);
    }
    tally.elapsed_s += started.elapsed().as_secs_f64();
    tally.peak_rss_kb = children_peak_rss_kb();
}

/// Largest resident set of any child process this process waited for,
/// in KiB (`getrusage(RUSAGE_CHILDREN).ru_maxrss` on Linux).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn children_peak_rss_kb() -> u64 {
    extern "C" {
        // The C library's `getrusage(2)`: there is no `libc` crate in the
        // offline build, so declare the one symbol needed directly.
        fn getrusage(who: i32, usage: *mut i64) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    // `struct rusage` on 64-bit Linux: two `timeval`s (two longs each)
    // followed by fourteen longs, the first of which is `ru_maxrss`.
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is 18 * 8 = 144 bytes, the size of `struct rusage`
    // on 64-bit Linux, and `getrusage` writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, usage.as_mut_ptr()) };
    if rc == 0 {
        usage[4].max(0) as u64
    } else {
        0
    }
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn children_peak_rss_kb() -> u64 {
    0
}
