//! `perfbench --workload paper|city|serve --seed N --seconds S --trace 0|1`
//!
//! Runs one workload for `S` seconds on inputs generated from `N`,
//! checks every output, and prints the result as the last line of
//! standard output. Exits 1 when a check fails, 2 on bad arguments.

use perfbench::city::{self, City};
use perfbench::paper::{self, Paper};
use perfbench::serve::{self, Serve};
use perfbench::stats::{median, percentile};
use perfbench::{layers, trace, work_dir, Run, END_TO_END, PER_LAYER, WORKLOADS};
use polite_wifi_obs::json::JsonWriter;
use std::io;
use std::path::Path;
use std::process::exit;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload paper|city|serve --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.len() != 8 {
        return Err(format!("expected 4 flags, got {:?}", argv));
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let (flag, value) = (pair[0].as_str(), pair[1].as_str());
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number `{value}`"))
        };
        match flag {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| **w == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => match num()? {
                n @ 1..=120 => seconds = Some(n),
                n => return Err(format!("--seconds: {n} is outside 1..=120")),
            },
            "--trace" => match value {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        }),
        _ => Err("every flag is required".to_string()),
    }
}

enum Workload {
    Paper(Paper),
    City(City),
    Serve(Serve),
}

impl Workload {
    fn new(args: &Args, dir: &Path) -> Workload {
        match args.workload {
            "paper" => Workload::Paper(Paper::new(args.seed, dir)),
            "city" => Workload::City(City::new(args.seed)),
            _ => Workload::Serve(Serve::new(args.seed, dir)),
        }
    }

    /// The set-ups before each pass, each timed into `run.setup_s`.
    fn setup(&mut self, run: &mut Run) -> io::Result<()> {
        match self {
            Workload::Paper(w) => (0..paper::SETUPS_PER_PASS).try_for_each(|_| w.setup(run)),
            Workload::City(w) => {
                (0..city::SETUPS_PER_PASS).for_each(|_| w.setup(run));
                Ok(())
            }
            Workload::Serve(w) => (0..serve::SETUPS_PER_PASS).try_for_each(|_| w.setup(run)),
        }
    }

    fn pass(&mut self, run: &mut Run) {
        let _g = trace::span("pass", "bench");
        match self {
            Workload::Paper(w) => w.pass(run),
            Workload::City(w) => w.pass(run),
            Workload::Serve(w) => w.pass(run),
        }
    }

    fn finish(self, run: &mut Run) -> io::Result<()> {
        match self {
            Workload::Serve(mut w) => w.stop(run),
            Workload::Paper(_) | Workload::City(_) => Ok(()),
        }
    }
}

/// Set-up and a pass, again and again until `seconds` have elapsed.
///
/// Each set-up and pass runs pinned to one CPU, so the serve workload's
/// threads hand requests over on one CPU and never wait for the host to
/// run another. Successive passes take the allowed CPUs in turn: this
/// host runs one virtual CPU up to 1.4x slower than the other for tens
/// of seconds at a time, and the per-operation minimum then comes from
/// whichever CPU was faster. A traced run records spans on every other
/// pass, so traced and untraced passes share the same stretch of host
/// speed and both CPUs.
fn measure(args: &Args, dir: &Path) -> io::Result<Run> {
    let mut run = Run::default();
    let mut workload = Workload::new(args, dir);
    let cpus = perfbench::allowed_cpus();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let min_passes = if args.trace { 2 } else { 1 };
    while run.correct() && (start.elapsed() < budget || run.pass_s.len() < min_passes) {
        let n = run.pass_s.len();
        if !cpus.is_empty() && !perfbench::pin_to(cpus[(n / 2) % cpus.len()]) {
            eprintln!(
                "perfbench: cannot pin to CPU {}",
                cpus[(n / 2) % cpus.len()]
            );
        }
        let traced = args.trace && n % 2 == 1;
        trace::set_recording(traced);
        workload.setup(&mut run)?;
        let t = Instant::now();
        workload.pass(&mut run);
        run.pass_s.push(t.elapsed().as_secs_f64());
        run.pass_traced.push(traced);
    }
    trace::set_recording(false);
    workload.finish(&mut run)?;
    Ok(run)
}

/// The end-to-end metrics, and on standard error the other figures a
/// user of the workload sees.
fn end_to_end(run: &Run) -> Vec<(&'static str, f64)> {
    let best = run.best_pass_s();
    eprintln!(
        "perfbench: median pass {:.6} s over {} passes; failed ratio {}",
        median(&run.pass_s),
        run.pass_s.len(),
        run.failed as f64 / run.attempted.max(1) as f64
    );
    if run.events > 0 {
        eprintln!(
            "perfbench: {:.0} simulated events per host second",
            run.events as f64 / run.pass_s.iter().sum::<f64>()
        );
    }
    for (kind, ms) in [("hits", &run.hit_ms), ("misses", &run.miss_ms)] {
        if !ms.is_empty() {
            eprintln!(
                "perfbench: {} {kind}: p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms",
                ms.len(),
                percentile(ms, 50.0),
                percentile(ms, 90.0),
                percentile(ms, 99.0)
            );
        }
    }
    vec![
        ("setup_s", median(&run.setup_s)),
        ("wall_s", best),
        ("peak_rss_mb", perfbench::peak_rss_mb()),
    ]
}

/// The traced run's report: prints self time per layer and the tracing
/// overhead, writes the Chrome trace, returns the per-layer metrics.
fn per_layer(args: &Args, run: &Run, dir: &Path) -> io::Result<Vec<(&'static str, f64)>> {
    let pick = |want: bool| -> Vec<f64> {
        run.pass_s
            .iter()
            .zip(&run.pass_traced)
            .filter(|(_, &traced)| traced == want)
            .map(|(s, _)| *s)
            .collect()
    };
    let overhead_s = median(&pick(true)) - median(&pick(false));
    trace::set_recording(true);
    let probes = {
        let _g = trace::span("probes", "bench");
        layers::probe(args.seed, dir)?
    };
    trace::set_recording(false);
    let spans = trace::spans();
    eprintln!(
        "perfbench: tracing overhead {overhead_s:+.6} s per pass (traced minus untraced wall_s); {} spans",
        spans.len()
    );
    let traced_passes = run.pass_traced.iter().filter(|&&t| t).count() as f64;
    eprintln!("perfbench: self time by layer, per traced set-up and pass of the workload:");
    for (layer, ms) in trace::self_ms_by_layer(&spans, |root| root != "probes") {
        eprintln!("  {layer:<10} {:>12.3} ms", ms / traced_passes);
    }
    eprintln!("perfbench: self time by layer, layer probes:");
    for (layer, ms) in trace::self_ms_by_layer(&spans, |root| root == "probes") {
        eprintln!("  {layer:<10} {ms:>12.3} ms");
    }
    let path = Path::new(".perfbench").join(format!("trace-{}-{}.json", args.workload, args.seed));
    std::fs::write(&path, trace::chrome_trace(&spans))?;
    eprintln!("perfbench: Chrome trace written to {}", path.display());
    Ok(probes)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            exit(2);
        }
    };
    let silenced = perfbench::SilencedStdout::new()
        .map_err(|e| eprintln!("perfbench: standard output stays on: {e}"))
        .ok();
    let dir = work_dir(args.workload);
    let outcome = std::fs::create_dir_all(&dir).and_then(|()| {
        let run = measure(&args, &dir)?;
        let metrics = if args.trace {
            per_layer(&args, &run, &dir)?
        } else {
            end_to_end(&run)
        };
        Ok((run, metrics))
    });
    let _ = std::fs::remove_dir_all(&dir);
    drop(silenced);
    let (run, metrics) = match outcome {
        Ok(done) => done,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            exit(1);
        }
    };

    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut w = JsonWriter::new();
    w.begin_object()
        .key("correct")
        .bool(run.correct())
        .key("attempted")
        .u64(run.attempted)
        .key("failed")
        .u64(run.failed)
        .key("metrics")
        .begin_object();
    eprintln!(
        "perfbench: {} seed {}: {} passes, {} of {} operations failed, {}",
        args.workload,
        args.seed,
        run.pass_s.len(),
        run.failed,
        run.attempted,
        if run.correct() {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for (name, unit) in expected {
        let value = metrics
            .iter()
            .find(|(m, _)| *m == name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        eprintln!("  {name:<24} {value:>16.6} {unit}");
        w.key(name)
            .begin_object()
            .key("value")
            .f64(value)
            .key("unit")
            .string(unit)
            .end_object();
    }
    w.end_object().end_object();
    println!("{}", w.finish());
    if !run.correct() {
        exit(1);
    }
}
