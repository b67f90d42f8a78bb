//! Regression pins for the transmission fan-out entry.
//!
//! A transmission's end travels as one queue entry that stands for the
//! `TxEnd` at the transmitter and the frame's arrival at each receiver.
//! The pins below are the counts the one-entry-per-arrival queue
//! produced for the same scenarios: dispatch counts, the profiler's
//! arrival attribution and the reception fates must not move.

use polite_wifi_frame::{builder, MacAddr};
use polite_wifi_mac::StationConfig;
use polite_wifi_obs::names;
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{NodeId, PropagationMode, SimConfig, Simulator};

const ATTACKER_START_US: u64 = 1_000;

fn mac(i: u8) -> MacAddr {
    MacAddr::new([0xf2, 0x6e, 0x0b, 0, 0, i])
}

fn arrivals(sim: &Simulator) -> u64 {
    sim.obs().profiler.get("arrival").map_or(0, |s| s.count)
}

/// Eight plain clients around an attacker at the origin: six within
/// 60 m, two 2 km out (beyond the grid's cutoff, not beyond all-pairs).
/// The attacker sends one ~10 ms data frame to client 0, fire-and-forget.
fn one_frame(mode: PropagationMode) -> Simulator {
    let cfg = SimConfig {
        propagation: mode,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg, 5);
    let spots = [
        (10.0, 0.0),
        (0.0, 20.0),
        (-30.0, 0.0),
        (0.0, -40.0),
        (25.0, 25.0),
        (-35.0, -35.0),
        (2_000.0, 0.0),
        (0.0, -2_000.0),
    ];
    for (i, &spot) in spots.iter().enumerate() {
        sim.add_node(StationConfig::client(mac(i as u8)), spot);
    }
    let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (0.0, 0.0));
    sim.set_retries(attacker, false);
    let frame = builder::protected_qos_data(mac(0), MacAddr::FAKE, MacAddr::FAKE, 1, 1_200);
    sim.inject(ATTACKER_START_US, attacker, frame, BitRate::Mbps1);
    sim
}

/// When the attacker's frame ends (the first frame the ideal observer
/// logs).
fn frame_end_us(mode: PropagationMode) -> u64 {
    let mut sim = one_frame(mode);
    sim.run_until(100_000);
    sim.global_capture().frames()[0].ts_us
}

#[test]
fn a_transmission_is_one_queue_entry_for_its_end_and_arrivals() {
    // (mode, receivers k, events and arrivals dispatched by 100 ms)
    // — the totals as the one-entry-per-arrival queue dispatched them.
    let cases = [
        (PropagationMode::AllPairs, 8, 21, 16),
        (PropagationMode::CellGrid, 6, 17, 12),
    ];
    for (mode, k, events_pin, arrivals_pin) in cases {
        let end = frame_end_us(mode);
        let mut sim = one_frame(mode);
        // The injection is handed over; its CSMA attempt is pending.
        sim.run_until(ATTACKER_START_US);
        let queued = sim.queue_len();
        // The attempt fired and the frame is on the air: the attempt's
        // entry gave way to exactly one entry for the frame's end, not
        // one per receiver.
        sim.run_until(end - 1);
        assert!(
            sim.global_capture().is_empty(),
            "{mode:?}: frame ended early"
        );
        assert_eq!(sim.queue_len(), queued, "{mode:?}");

        let (events, heard) = (sim.events_dispatched(), arrivals(&sim));
        sim.run_until(end);
        assert_eq!(sim.events_dispatched() - events, 1 + k, "{mode:?}");
        assert_eq!(arrivals(&sim) - heard, k, "{mode:?}");

        sim.run_until(100_000);
        assert_eq!(sim.events_dispatched(), events_pin, "{mode:?}");
        assert_eq!(arrivals(&sim), arrivals_pin, "{mode:?}");
    }
}

/// A hidden-terminal scene in the cell-grid mode: the attacker A sends
/// a ~10 ms frame to victim V; 1 ms in, interferer I (120 m from A, out
/// of its carrier-sense range, 60 m from V) sends a short frame
/// overlapping it. A's frame ends just after t = 1 s, so the first
/// event past the 1 s prune cadence is A's `TxEnd`: prune runs before
/// V's arrival and drops I's transmission, which ended more than the
/// 1 ms grace window earlier. V then hears A's frame cleanly.
/// Returns the simulator and V.
fn hidden_terminal() -> (Simulator, NodeId) {
    let cfg = SimConfig {
        propagation: PropagationMode::CellGrid,
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(cfg, 3);
    let victim = sim.add_node(StationConfig::client(mac(0)), (0.0, 0.0));
    let attacker = sim.add_node(StationConfig::client(MacAddr::FAKE), (-60.0, 0.0));
    let interferer = sim.add_node(StationConfig::client(mac(9)), (60.0, 0.0));
    sim.set_retries(attacker, false);
    sim.set_retries(interferer, false);
    let long = builder::protected_qos_data(mac(0), MacAddr::FAKE, MacAddr::FAKE, 1, 1_200);
    sim.inject(995_000, attacker, long, BitRate::Mbps1);
    let short = builder::fake_null_frame(mac(7), mac(9));
    sim.inject(996_000, interferer, short, BitRate::Mbps1);
    (sim, victim)
}

#[test]
fn prune_between_a_long_frames_end_and_its_arrival_keeps_its_fate() {
    let (mut sim, victim) = hidden_terminal();
    sim.run_until(1_100_000);
    let frames = sim.global_capture().frames();
    let long_end = frames
        .iter()
        .find(|f| f.frame.transmitter() == Some(MacAddr::FAKE))
        .expect("A transmitted")
        .ts_us;
    let short_end = frames
        .iter()
        .find(|f| f.frame.transmitter() == Some(mac(9)))
        .expect("I transmitted")
        .ts_us;
    // The scene is as described: I's frame ended inside A's airtime,
    // more than 1 ms before A's end, and A ended past the 1 s cadence.
    assert!(long_end > 1_000_000, "A ended at {long_end} µs");
    assert!(short_end > 995_000 && short_end + 1_000 < long_end);

    let fates = |name| sim.obs().counters.get(name);
    // As the one-entry-per-arrival queue left them: V's reception of
    // A's frame was judged after the prune, so it was delivered, V
    // acknowledged it and A heard the ACK.
    assert_eq!(fates(names::FRAME_FATE_DELIVERED), 2);
    assert_eq!(fates(names::FRAME_FATE_COLLIDED), 0);
    assert_eq!(sim.station(victim).stats.acks_sent, 1);
}
