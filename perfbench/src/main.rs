//! The repository benchmark: four workloads over the SwitchPointer query,
//! stream and replica planes, one command per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <adhoc|sweep|monitor|inproc> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics with
//! every tracer off. A traced run (`--trace 1`) reports the per-layer
//! metrics: it measures an untraced phase and a traced phase of the same
//! load (their difference is `trace.overhead_pct`), then passes the
//! distinct requests one at a time so per-class counts are exact, and
//! writes the benchmark's spans to a file. The last line of standard
//! output is the result row; the lines before it print every metric
//! with its unit, sample counts, the tails that are not gated and the
//! run's metadata. See `perfbench/README.md` for what each metric
//! measures on each workload.

mod adhoc;
mod common;
mod fixture;
mod gen;
mod inproc;
mod load;
mod monitor;
mod report;
mod spans;
mod stats;
mod steal;
mod sweep;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use common::{peak_rss_mb, Ctx};
use report::{esc, num, Report};
use spans::Spans;

const WORKLOADS: [&str; 4] = ["adhoc", "sweep", "monitor", "inproc"];

/// A run that has not finished by then is stuck: it exits non-zero
/// without a result rather than run past the 180 s a run may take.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --self-test",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse(args: &[String]) -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(v) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => a.workload = v.clone(),
            "--seed" => a.seed = v.parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = v.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !(WORKLOADS.contains(&a.workload.as_str()) && a.seconds > 0.0 && a.seconds <= 120.0) {
        usage()
    }
    a
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs one workload in this process.
fn run_workload(workload: &str, ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    match workload {
        "adhoc" => adhoc::run(ctx, &mut rep),
        "sweep" => sweep::run(ctx, &mut rep),
        "monitor" => monitor::run(ctx, &mut rep),
        "inproc" => inproc::run(ctx, &mut rep),
        _ => unreachable!("workload names are checked at parse"),
    }
    rep.set("peak_rss_mb", peak_rss_mb());
    rep
}

/// The source revision: git's when the tree is a checkout, otherwise a
/// digest of the sources the benchmark builds (`tree-<fnv64>`).
fn revision() -> String {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output();
    if let Ok(out) = git {
        if out.status.success() {
            return String::from_utf8_lossy(&out.stdout).trim().to_string();
        }
    }
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    collect(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    format!("tree-{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Where a traced run writes its spans: under the build directory, so
/// nothing lands in the sources.
fn span_path(workload: &str, seed: u64) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    base.join("perfbench-spans")
        .join(format!("{workload}-seed{seed}.jsonl"))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let started = Instant::now();
    let ticks_before = steal::cpu_ticks();
    let sampler = steal::start_sampler();
    std::thread::spawn(move || {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: no result after {WATCHDOG:?}; giving up");
        std::process::exit(3);
    });
    if argv.first().map(String::as_str) == Some("--self-test") {
        let code = self_test();
        sampler.finish();
        std::process::exit(code);
    }
    let a = parse(&argv);
    let ctx = Ctx {
        seed: a.seed,
        seconds: a.seconds,
        traced: a.trace,
        nproc: nproc(),
        corrupt_expected: false,
        spans: Spans::new(a.trace),
    };
    let rep = run_workload(&a.workload, &ctx);
    sampler.finish();
    for line in &rep.notes {
        println!("# {line}");
    }
    for f in &rep.check_failures {
        println!("# CHECK FAILED: {f}");
    }
    if a.trace {
        for (name, (count, total, own)) in ctx.spans.self_times() {
            println!(
                "# span {name}: n={count} total {:.3} ms self {:.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let path = span_path(&a.workload, a.seed);
        match ctx.spans.write(&path) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written ({}): {e}", path.display()),
        }
    }
    for (name, unit) in Report::catalogue(a.trace) {
        let v = rep.metrics.get(&name).copied().unwrap_or(f64::NAN);
        println!("metric {name} = {} {unit}", num(v));
    }
    let invalid = rep.invalid(a.trace);
    if !invalid.is_empty() {
        eprintln!(
            "perfbench: metrics missing or not finite: {}",
            invalid.join(", ")
        );
        std::process::exit(1);
    }
    let ticks_after = steal::cpu_ticks();
    let steal_pct = 100.0 * (ticks_after.0 - ticks_before.0) as f64
        / (ticks_after.1 - ticks_before.1).max(1) as f64;
    println!(
        "meta {{\"rev\": {}, \"nproc\": {}, \"seed\": {}, \"workload\": {}, \"seconds\": {}, \"trace\": {}, \"wall_s\": {}, \"steal_pct\": {}}}",
        esc(&revision()),
        ctx.nproc,
        a.seed,
        esc(&a.workload),
        num(a.seconds),
        u8::from(a.trace),
        num(started.elapsed().as_secs_f64()),
        num(steal_pct)
    );
    println!("{}", rep.json(a.trace));
}

/// Runs every workload briefly, untraced and traced, and asserts that
/// every named metric is present and finite, that the seed code fails no
/// operation, and that a deliberately wrong expected verdict is counted
/// as a failed operation; and checks that the sliced statistics still see
/// an injected intermittent stall. Returns the exit code.
fn self_test() -> i32 {
    let mut problems: Vec<String> = stats::check_sliced_sees_stalls().into_iter().collect();
    for w in WORKLOADS {
        for (trace, corrupt) in [(false, false), (true, false), (false, true)] {
            let ctx = Ctx {
                seed: 7,
                seconds: 1.5,
                traced: trace,
                nproc: nproc(),
                corrupt_expected: corrupt,
                spans: Spans::new(trace),
            };
            let rep = run_workload(w, &ctx);
            let label = format!("{w} trace={} corrupt={corrupt}", u8::from(trace));
            let invalid = rep.invalid(trace);
            if !invalid.is_empty() {
                problems.push(format!(
                    "{label}: missing or non-finite {}",
                    invalid.join(", ")
                ));
            }
            if corrupt && rep.failed == 0 {
                problems.push(format!(
                    "{label}: a wrong expected verdict was not counted as failed"
                ));
            }
            if !corrupt && !rep.correct() {
                problems.push(format!(
                    "{label}: {} of {} operations failed; {:?}",
                    rep.failed, rep.attempted, rep.check_failures
                ));
            }
            println!(
                "self-test {label}: attempted {} failed {}",
                rep.attempted, rep.failed
            );
        }
    }
    if problems.is_empty() {
        println!("self-test ok");
        0
    } else {
        for p in &problems {
            println!("self-test FAILED: {p}");
        }
        1
    }
}
