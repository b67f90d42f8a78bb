//! `serve`: one client in a closed loop of blocking `POST /submit?wait=1`
//! calls against an in-process `polite-wifi-d` with one worker.
//!
//! The workload seed generates every request body. A pass sends
//! `SPECS_PER_PASS` distinct `generic`-runner null-flood specs (a sweep
//! over attack rate × scenario seed; each first submission is a cache
//! miss: parse, hash, queue, trial run, envelope, cache write) and
//! `HITS_PER_SPEC` resubmissions of each (cache hits: parse, hash,
//! CRC-verified cache read), in a seeded order where every hit follows
//! its miss. Each pass runs against a fresh daemon.

use crate::trace::span;
use crate::{Rng, Run};
use polite_wifi_daemon::{http, Daemon, DaemonConfig};
use polite_wifi_obs::names;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub const SPECS_PER_PASS: usize = 32;
pub const HITS_PER_SPEC: usize = 4;
/// Attack rates the spec sweep cycles through, frames per second.
pub const RATES_PPS: [u32; 4] = [50, 100, 200, 400];
/// Set-ups before each pass.
pub const SETUPS_PER_PASS: usize = 1;

/// The request body of the sweep point (`rate_pps`, `seed`).
pub fn spec_body(rate_pps: u32, seed: u64) -> String {
    format!(
        r#"{{
  "name": "serve workload null flood",
  "paper_ref": "none",
  "slug": "serve_flood",
  "runner": "generic",
  "run": {{"seed": {seed}, "trials": 1, "workers": 1}},
  "topology": {{
    "duration_us": 100000,
    "nodes": [
      {{"name": "ap", "mac": "68:02:b8:00:00:01", "kind": "ap", "position": [2, 0], "ssid": "Net"}},
      {{"name": "victim", "mac": "f2:6e:0b:11:22:33", "kind": "client", "position": [0, 0]}},
      {{"name": "attacker", "mac": "aa:bb:bb:bb:bb:bb", "kind": "monitor", "position": [4, 0]}}
    ],
    "links": [["victim", "ap"]]
  }},
  "attacks": [
    {{"kind": "null-flood", "attacker": "attacker", "victim": "victim",
     "rate_pps": {rate_pps}, "start_us": 1000, "duration_us": 80000, "bitrate": "6"}}
  ],
  "probes": [
    {{"kind": "station-stat", "node": "victim", "stat": "acks_sent", "metric": "acks_sent"}}
  ]
}}"#
    )
}

/// One scheduled request: which spec of the pass, and whether the
/// daemon must answer it from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    pub spec: usize,
    pub hit: bool,
}

/// The seeded order of one pass: every spec's miss precedes its hits.
pub fn schedule(rng: &mut Rng) -> Vec<Request> {
    let mut left = [HITS_PER_SPEC; SPECS_PER_PASS];
    let mut sent = 0usize;
    let mut out = Vec::with_capacity(SPECS_PER_PASS * (1 + HITS_PER_SPEC));
    loop {
        let hits_open: Vec<usize> = (0..sent).filter(|&s| left[s] > 0).collect();
        let hits_left: usize = hits_open.iter().map(|&s| left[s]).sum();
        let new_left = SPECS_PER_PASS - sent;
        if new_left + hits_left == 0 {
            return out;
        }
        if rng.below(new_left + hits_left) < new_left {
            out.push(Request {
                spec: sent,
                hit: false,
            });
            sent += 1;
        } else {
            let s = hits_open[rng.below(hits_open.len())];
            left[s] -= 1;
            out.push(Request { spec: s, hit: true });
        }
    }
}

/// The bodies of one pass: distinct sweep points with fresh seeds.
pub fn pass_bodies(rng: &mut Rng) -> Vec<String> {
    (0..SPECS_PER_PASS)
        .map(|i| spec_body(RATES_PPS[i % RATES_PPS.len()], rng.next_u64() >> 16))
        .collect()
}

/// A daemon with one worker on `state_dir`, which the caller empties.
pub fn start_daemon(state_dir: &Path) -> io::Result<Daemon> {
    Daemon::start(DaemonConfig {
        workers: 1,
        state_dir: state_dir.to_path_buf(),
        ..DaemonConfig::default()
    })
}

/// Polls `GET /healthz` until it answers 200.
pub fn wait_healthy(daemon: &Daemon) -> io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok((200, _, _)) = http::request(daemon.addr(), "GET", "/healthz", b"") {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(io::Error::other("daemon never became healthy"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Sends one request and checks the answer against the schedule. The
/// miss's body is stored in `envelopes`; a hit must repeat it byte for byte.
pub fn submit(
    daemon: &Daemon,
    body: &str,
    req: Request,
    envelopes: &mut [Option<Vec<u8>>],
) -> (f64, Option<String>) {
    let t = Instant::now();
    let answer = {
        let _g = span("submit", "daemon");
        http::request(daemon.addr(), "POST", "/submit?wait=1", body.as_bytes())
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let (status, headers, got) = match answer {
        Ok(a) => a,
        Err(e) => return (ms, Some(format!("submit failed: {e}"))),
    };
    let want = if req.hit { "hit" } else { "miss" };
    let cache = headers.get("x-cache").map_or("none", String::as_str);
    let problem = if status != 200 {
        Some(format!(
            "status {status}: {}",
            String::from_utf8_lossy(&got)
        ))
    } else if cache != want {
        Some(format!("x-cache {cache}, scheduled {want}"))
    } else if req.hit {
        (envelopes[req.spec].as_deref() != Some(&got[..]))
            .then(|| "hit body differs from its miss body".to_string())
    } else if !got.starts_with(b"{") {
        Some("miss body is not a JSON envelope".to_string())
    } else {
        envelopes[req.spec] = Some(got);
        None
    };
    (ms, problem)
}

pub struct Serve {
    rng: Rng,
    order: Vec<Request>,
    state: PathBuf,
    daemon: Option<Daemon>,
    misses: u64,
    hits: u64,
}

impl Serve {
    /// The request order is drawn once from the workload seed, so the
    /// request at each place of a pass is the same kind in every pass.
    pub fn new(seed: u64, dir: &Path) -> Serve {
        let mut rng = Rng::new(seed);
        let order = schedule(&mut rng);
        Serve {
            rng,
            order,
            state: dir.join("state"),
            daemon: None,
            misses: 0,
            hits: 0,
        }
    }

    /// Replaces the daemon with a fresh one on an empty state directory
    /// and waits for `/healthz`; only the start is timed. The daemon keeps
    /// every job it ever ran, and its supervisor scans them all every
    /// 2 ms, so one daemon per pass keeps each pass the same.
    pub fn setup(&mut self, run: &mut Run) -> io::Result<()> {
        self.stop(run)?;
        let t = Instant::now();
        let daemon = {
            let _g = span("start", "daemon");
            let daemon = start_daemon(&self.state)?;
            wait_healthy(&daemon)?;
            daemon
        };
        run.setup_s.push(t.elapsed().as_secs_f64());
        self.daemon = Some(daemon);
        Ok(())
    }

    /// Sends one pass: fresh specs and their resubmissions.
    pub fn pass(&mut self, run: &mut Run) {
        let daemon = self.daemon.as_ref().expect("set up before a pass");
        let bodies = pass_bodies(&mut self.rng);
        let mut envelopes: Vec<Option<Vec<u8>>> = vec![None; bodies.len()];
        for (k, &req) in self.order.iter().enumerate() {
            let (ms, problem) = submit(daemon, &bodies[req.spec], req, &mut envelopes);
            if req.hit {
                self.hits += 1;
                run.hit_ms.push(ms);
            } else {
                self.misses += 1;
                run.miss_ms.push(ms);
            }
            run.op(k, ms, problem);
        }
    }

    /// Stops admission, checks the daemon's counters against what was
    /// sent to it, and drains it.
    pub fn stop(&mut self, run: &mut Run) -> io::Result<()> {
        let Some(daemon) = self.daemon.take() else {
            return Ok(());
        };
        daemon.initiate_drain();
        let completed = daemon.counter(names::DAEMON_JOBS_COMPLETED);
        let hits = daemon.counter(names::DAEMON_CACHE_HIT);
        if completed != self.misses {
            run.fail(format!(
                "daemon.jobs.completed {completed}, misses sent {}",
                self.misses
            ));
        }
        if hits != self.hits {
            run.fail(format!("daemon.cache.hit {hits}, hits sent {}", self.hits));
        }
        (self.misses, self.hits) = (0, 0);
        daemon.drain()?;
        std::fs::remove_dir_all(&self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_hit_follows_its_miss() {
        for seed in 0..50 {
            let order = schedule(&mut Rng::new(seed));
            assert_eq!(order.len(), SPECS_PER_PASS * (1 + HITS_PER_SPEC));
            let mut sent = [false; SPECS_PER_PASS];
            let mut hits = [0; SPECS_PER_PASS];
            for req in order {
                if req.hit {
                    assert!(sent[req.spec], "seed {seed}: hit before its miss");
                    hits[req.spec] += 1;
                } else {
                    assert!(!sent[req.spec], "seed {seed}: spec sent twice");
                    sent[req.spec] = true;
                }
            }
            assert!(hits.iter().all(|&h| h == HITS_PER_SPEC));
        }
    }
}
