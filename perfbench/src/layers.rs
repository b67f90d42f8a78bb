//! The traced run's direct calls into each layer.
//!
//! Most layers are reached only from inside another, so the traced run
//! also calls each one's public entry point on the workload seed's own
//! inputs: the city population of the slice's first neighbourhood, the
//! serve workload's first pass of request bodies and the envelopes the
//! daemon answers them with, and the Fig. 5 CSI series. Times are
//! medians over repeated calls; `*.allocs` counts the heap allocations
//! of one call sequence on this thread, which repeats exactly.

use crate::alloc::count;
use crate::serve::{self, Request};
use crate::stats::median;
use crate::trace::span;
use crate::{city, Rng};
use polite_wifi_core::{BatchSensingHub, BatteryDrainAttack, KeystrokeAttack};
use polite_wifi_daemon::{http, CacheRead, ResultStore};
use polite_wifi_devices::CityPopulation;
use polite_wifi_frame::{builder, Frame, MacAddr};
use polite_wifi_obs::json::JsonValue;
use polite_wifi_obs::{names, Obs};
use polite_wifi_phy::csi::CsiChannel;
use polite_wifi_scenario::ScenarioSpec;
use polite_wifi_sensing::filter;
use polite_wifi_sensing::keystroke::{detect_keystrokes, KeystrokeDetectorConfig};
use polite_wifi_sensing::segment::{segment, SegmenterConfig};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Median over `reps` calls of `f`'s duration, in units of `scale`
/// seconds (1e-3 for ms, 1e-6 for µs...), divided by `per_call` when
/// one call of `f` does `per_call` operations.
fn time<T>(reps: usize, per_call: usize, scale: f64, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64() / scale / per_call as f64
        })
        .collect();
    median(&samples)
}

const MS: f64 = 1e-3;
const US: f64 = 1e-6;
const NS: f64 = 1e-9;

/// Converts a parsed envelope into the value `harness::write_json`
/// serialises.
fn to_serde(v: &JsonValue) -> serde_json::Value {
    use serde_json::Value;
    match v {
        JsonValue::Null => Value::Null,
        JsonValue::Bool(b) => Value::Bool(*b),
        JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
            Value::UInt(*n as u64)
        }
        JsonValue::Num(n) => Value::Float(*n),
        JsonValue::Str(s) => Value::String(s.clone()),
        JsonValue::Arr(items) => Value::Array(items.iter().map(to_serde).collect()),
        JsonValue::Obj(fields) => Value::Object(
            fields
                .iter()
                .map(|(k, v)| (k.clone(), to_serde(v)))
                .collect(),
        ),
    }
}

/// Runs every probe; returns `(metric, value)` in no particular order.
pub fn probe(seed: u64, dir: &Path) -> io::Result<Vec<(&'static str, f64)>> {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let nb_seed = city::FIRST_SEED + city::slice(seed)[0] as u64;

    // devices + sim: the slice's first neighbourhood.
    {
        let _g = span("synthetic_city", "devices");
        m.push((
            "devices.population_ms",
            time(5, 1, MS, || {
                CityPopulation::synthetic_city(city::DEVICES, nb_seed)
            }),
        ));
        let (_, allocs) = count(|| CityPopulation::synthetic_city(city::DEVICES, nb_seed));
        m.push(("devices.allocs", allocs as f64));
    }
    {
        let _g = span("run_observed", "sim");
        let mut per_event = Vec::new();
        let mut last = None;
        for _ in 0..3 {
            let mut obs = Obs::new();
            let t = Instant::now();
            let (report, allocs) = count(|| city::drive(nb_seed).run_observed(1, &mut obs));
            per_event.push(t.elapsed().as_secs_f64() / NS / report.events_dispatched as f64);
            last = Some((report, allocs, obs));
        }
        let (report, allocs, obs) = last.expect("three runs");
        let arrivals = obs
            .profiler
            .sorted()
            .iter()
            .find(|(kind, _)| *kind == "arrival")
            .map_or(0, |(_, s)| s.count);
        let txed = obs.counters.get("sim.frames_txed").max(1);
        m.push(("sim.ns_per_event", median(&per_event)));
        m.push(("sim.events", report.events_dispatched as f64));
        m.push(("sim.arrivals_per_tx", arrivals as f64 / txed as f64));
        m.push(("sim.allocs", allocs as f64));
    }

    // frame: a fake null frame to every device of the neighbourhood.
    {
        let _g = span("encode_parse", "frame");
        let population = CityPopulation::synthetic_city(city::DEVICES, nb_seed);
        let frames: Vec<Frame> = population
            .devices
            .iter()
            .map(|d| builder::fake_null_frame(d.mac, MacAddr::FAKE))
            .collect();
        let n = frames.len();
        m.push((
            "frame.encode_ns",
            time(9, n, NS, || {
                frames.iter().map(|f| f.encode(true).len()).sum::<usize>()
            }),
        ));
        let bytes: Vec<Vec<u8>> = frames.iter().map(|f| f.encode(true)).collect();
        m.push((
            "frame.parse_ns",
            time(9, n, NS, || {
                bytes
                    .iter()
                    .filter(|b| Frame::parse(b, true).is_ok())
                    .count()
            }),
        ));
        let (_, allocs) = count(|| {
            for f in &frames {
                black_box(Frame::parse(&f.encode(true), true).is_ok());
            }
        });
        m.push(("frame.allocs", allocs as f64));
    }

    // core + sensing + phy: the Fig. 5 keystroke attack and its series.
    let amplitudes = {
        let _g = span("keystroke_run", "core");
        let fig5 = KeystrokeAttack::figure5(2020);
        let t = Instant::now();
        let (result, keystroke_allocs) = count(|| fig5.run());
        m.push(("core.keystroke_run_ms", t.elapsed().as_secs_f64() / MS));
        let drain = BatteryDrainAttack::default();
        let t = Instant::now();
        let (_, drain_allocs) = count(|| drain.run());
        m.push(("core.drain_run_ms", t.elapsed().as_secs_f64() / MS));
        m.push(("core.allocs", (keystroke_allocs + drain_allocs) as f64));
        result.amplitudes
    };
    {
        let _g = span("csi_sample", "phy");
        let n = amplitudes.len();
        let render = || {
            let mut ch = CsiChannel::new(2020);
            (0..n)
                .map(|i| {
                    ch.sample(if i % 100 < 30 { 0.6 } else { 0.0 })
                        .amplitude(17)
                })
                .sum::<f64>()
        };
        m.push(("phy.csi_sample_ns", time(5, n, NS, render)));
        m.push(("phy.allocs", count(render).1 as f64));
    }
    {
        let _g = span("kernels", "sensing");
        let conditioned = filter::condition(&amplitudes);
        let seg_cfg = SegmenterConfig::default();
        let key_cfg = KeystrokeDetectorConfig::default();
        m.push((
            "sensing.condition_ms",
            time(9, 1, MS, || filter::condition(&amplitudes)),
        ));
        m.push((
            "sensing.segment_ms",
            time(9, 1, MS, || segment(&conditioned, &seg_cfg)),
        ));
        m.push((
            "sensing.keystroke_ms",
            time(9, 1, MS, || detect_keystrokes(&conditioned, &key_cfg)),
        ));
        let (_, allocs) = count(|| {
            let c = filter::condition(&amplitudes);
            black_box(segment(&c, &seg_cfg));
            black_box(detect_keystrokes(&c, &key_cfg));
        });
        m.push(("sensing.allocs", allocs as f64));
        // One kernel batch of the default hub (its 1000 links take 30 s).
        let hub = BatchSensingHub {
            links: BatchSensingHub::default().links_per_batch,
            ..BatchSensingHub::default()
        };
        m.push((
            "sensing.hub_ms",
            time(1, 1, MS, || hub.run_observed(1, &mut Obs::new())),
        ));
    }

    // scenario: the serve workload's first pass of request bodies.
    let bodies = serve::pass_bodies(&mut Rng::new(seed));
    {
        let _g = span("parse_hash", "scenario");
        let specs: Vec<ScenarioSpec> = bodies
            .iter()
            .map(|b| ScenarioSpec::parse(b).map_err(io::Error::other))
            .collect::<io::Result<_>>()?;
        let k = bodies.len();
        m.push((
            "scenario.parse_us",
            time(25, k, US, || {
                bodies
                    .iter()
                    .filter(|b| ScenarioSpec::parse(b).is_ok())
                    .count()
            }),
        ));
        m.push((
            "scenario.hash_us",
            time(25, k, US, || {
                specs
                    .iter()
                    .map(|s| s.canonical_hash().len())
                    .sum::<usize>()
            }),
        ));
        let (_, allocs) = count(|| ScenarioSpec::parse(&bodies[0]).map(|s| s.canonical_hash()));
        m.push(("scenario.allocs", allocs as f64));
    }

    // daemon: the same bodies through a fresh daemon, one hit per miss.
    let state = dir.join("probe-daemon");
    let (daemon, envelopes) = {
        let _g = span("serve_mix", "daemon");
        let daemon = serve::start_daemon(&state)?;
        serve::wait_healthy(&daemon)?;
        let mut envelopes: Vec<Option<Vec<u8>>> = vec![None; bodies.len()];
        for (spec, body) in bodies.iter().enumerate() {
            for hit in [false, true] {
                let (_, problem) =
                    serve::submit(&daemon, body, Request { spec, hit }, &mut envelopes);
                if let Some(why) = problem {
                    return Err(io::Error::other(format!("probe request: {why}")));
                }
            }
        }
        m.push((
            "daemon.http_rtt_us",
            time(101, 1, US, || {
                http::request(daemon.addr(), "GET", "/healthz", b"").map(|r| r.0)
            }),
        ));
        (daemon, envelopes)
    };
    let hits = daemon.counter(names::DAEMON_CACHE_HIT) as f64;
    let misses = daemon.counter(names::DAEMON_CACHE_MISS) as f64;
    m.push(("daemon.cache_hit_ratio", hits / (hits + misses).max(1.0)));
    m.push((
        "daemon.jobs_completed",
        daemon.counter(names::DAEMON_JOBS_COMPLETED) as f64,
    ));
    m.push((
        "daemon.rejected",
        daemon.counter(names::DAEMON_ADMISSION_REJECTED) as f64,
    ));
    daemon.drain()?;
    let envelopes: Vec<Vec<u8>> = envelopes.into_iter().flatten().collect();
    let texts: Vec<&str> = envelopes
        .iter()
        .map(|e| std::str::from_utf8(e).map_err(io::Error::other))
        .collect::<io::Result<_>>()?;

    // obs: counter increments and the envelopes' JSON.
    {
        let _g = span("incr_parse", "obs");
        let mut obs = Obs::new();
        m.push((
            "obs.incr_ns",
            time(9, 100_000, NS, || {
                for _ in 0..100_000 {
                    obs.incr(names::SIM_EVENTS_DISPATCHED);
                }
            }),
        ));
        m.push((
            "obs.json_parse_us",
            time(25, texts.len(), US, || {
                texts
                    .iter()
                    .filter(|t| polite_wifi_obs::json::parse(t).is_ok())
                    .count()
            }),
        ));
        m.push((
            "obs.allocs",
            count(|| polite_wifi_obs::json::parse(texts[0])).1 as f64,
        ));
    }

    // harness + daemon cache: the envelopes written and stored again.
    {
        let _g = span("write_json", "harness");
        let value = to_serde(&polite_wifi_obs::json::parse(texts[0]).map_err(io::Error::other)?);
        let prev = polite_wifi_harness::set_thread_results_dir(Some(dir.join("probe-results")));
        let write = || polite_wifi_harness::write_json("probe_envelope", &value);
        let written = write()?;
        m.push(("harness.envelope_ms", time(25, 1, MS, write)));
        m.push((
            "harness.envelope_bytes",
            std::fs::metadata(&written)?.len() as f64,
        ));
        // Counted around the rendering `write_json` does, not the whole
        // call: its temp-file name carries the process id, and whether
        // that id has four or five digits moves the count by one.
        let render = || serde_json::to_string_pretty(&value).map(|json| json.len());
        m.push(("harness.allocs", count(render).1 as f64));
        polite_wifi_harness::set_thread_results_dir(prev);
    }
    {
        let _g = span("cache", "daemon");
        let store = ResultStore::new(dir.join("probe-store"));
        let keys: Vec<String> = (0..envelopes.len()).map(|i| format!("{i:016x}")).collect();
        let put_all = || {
            keys.iter()
                .zip(&envelopes)
                .try_for_each(|(k, e)| store.put(k, e))
        };
        m.push(("daemon.cache_put_us", time(9, keys.len(), US, put_all)));
        let get_all = || {
            keys.iter()
                .filter(|k| matches!(store.get(k), CacheRead::Hit(_)))
                .count()
        };
        if get_all() != keys.len() {
            return Err(io::Error::other("probe cache entry did not read back"));
        }
        m.push(("daemon.cache_get_us", time(25, keys.len(), US, get_all)));
        let (_, allocs) = count(|| {
            store
                .put(&keys[0], &envelopes[0])
                .map(|()| store.get(&keys[0]))
        });
        m.push(("daemon.allocs", allocs as f64));
    }
    Ok(m)
}
