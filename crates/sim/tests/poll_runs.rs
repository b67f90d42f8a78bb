//! Regression pins for counted poll runs.
//!
//! Every frame a power-save victim hears resets its doze timer through
//! `reschedule_poll`. In the legacy `AllPairs` mode each reset starts
//! one more self-perpetuating poll chain, so a battery-drain flood piles
//! up thousands of duplicate chains that fall due at the same instants.
//! The simulator carries them as counted runs (one queue entry per node
//! and instant) while dispatching exactly the events the one-entry-per-
//! chain queue did. The pins below are the counts that queue produced
//! for this scenario; the queue-length bound is what the runs buy.

use polite_wifi_frame::{builder, MacAddr};
use polite_wifi_mac::{Behavior, StationConfig};
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{SimConfig, Simulator};

const RATE_PPS: u64 = 900;
const WARMUP_US: u64 = 2_000_000;
const MEASURE_US: u64 = 5_000_000;
/// `events_dispatched` and the profiler's poll count for [`drain_run`]
/// at seed 42, as the one-entry-per-chain queue dispatched them.
const EVENTS_PIN: u64 = 917_573;
const POLLS_PIN: u64 = 859_947;

struct DrainRun {
    events: u64,
    polls: u64,
    max_queue_len: usize,
}

/// The Fig. 6 battery-drain set-up, shortened: an AP, an associated
/// power-save victim and an attacker flooding it with forged null
/// frames at 900 pps, fire-and-forget.
fn drain_run(seed: u64) -> DrainRun {
    let victim_mac: MacAddr = "24:0a:c4:00:00:01".parse().unwrap();
    let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
    let mut sim = Simulator::new(SimConfig::default(), seed);
    let ap = sim.add_node(StationConfig::access_point(ap_mac, "HomeNet"), (0.0, 0.0));
    let mut victim_cfg = StationConfig::client(victim_mac);
    victim_cfg.behavior = Behavior::iot_power_save();
    let victim = sim.add_node(victim_cfg, (3.0, 0.0));
    sim.station_mut(victim).associate(ap_mac);
    sim.station_mut(ap).associate(victim_mac);
    let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (8.0, 0.0));
    sim.set_retries(attacker, false);

    // Frames are queued one 100 ms window ahead, so the queue holds at
    // most one window of injections besides the simulator's own events.
    let gap_us = 1_000_000 / RATE_PPS;
    let mut max_queue_len = 0;
    let mut next_frame_us = 0;
    for window_end in (1..=(WARMUP_US + MEASURE_US) / 100_000).map(|w| w * 100_000) {
        while next_frame_us < window_end {
            let frame = builder::fake_null_frame(victim_mac, MacAddr::FAKE);
            sim.inject(next_frame_us, attacker, frame, BitRate::Mbps1);
            next_frame_us += gap_us;
        }
        sim.run_until(window_end);
        if window_end > WARMUP_US {
            max_queue_len = max_queue_len.max(sim.queue_len());
        }
    }
    DrainRun {
        events: sim.events_dispatched(),
        polls: sim.obs().profiler.get("poll").expect("polls ran").count,
        max_queue_len,
    }
}

#[test]
fn drain_flood_dispatch_counts_match_one_entry_per_chain() {
    let run = drain_run(42);
    assert_eq!(run.events, EVENTS_PIN, "events_dispatched drifted");
    assert_eq!(run.polls, POLLS_PIN, "profiler poll count drifted");
}

#[test]
fn drain_flood_keeps_the_queue_small() {
    let run = drain_run(42);
    assert!(
        run.max_queue_len < 1_000,
        "queue grew to {} entries — duplicate poll chains are not sharing runs",
        run.max_queue_len
    );
}
