//! The medium's cell index of active transmissions answers every scan
//! exactly as the flat list does.
//!
//! Two media see the same transmissions: one keeps the flat list, the
//! other files static transmitters by `(tune, cell)` and keeps moving
//! ones on its flat list. Carrier sense (`channel_busy_ranged`) and
//! keyed receptions (collision outcomes) must agree on both, before and
//! after a prune and a re-filing of transmitters whose motion changed.

use polite_wifi_phy::band::Band;
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::medium::{Medium, Transmission, Tune};
use polite_wifi_sim::{MediumConfig, NodeId};
use proptest::prelude::*;

const NODES: usize = 12;
const TUNES: [Tune; 3] = [(Band::Ghz2, 1), (Band::Ghz2, 6), (Band::Ghz5, 36)];
/// Transmit powers: at 30 dBm the carrier-sense range (~250 m indoors)
/// spans more than one cell of either size below.
const POWERS: [f64; 4] = [0.0, 10.0, 20.0, 30.0];
/// Speed of a moving node, in metres per microsecond of the scene.
const SPEED: f64 = 0.02;

/// Where nodes stand, in cells: on a half-cell lattice (so many sit
/// exactly on cell edges and corners) or anywhere.
fn spot() -> impl Strategy<Value = (f64, f64)> {
    prop_oneof![
        (-8i32..8, -8i32..8).prop_map(|(x, y)| (x as f64 * 0.5, y as f64 * 0.5)),
        (-4.0f64..4.0, -4.0f64..4.0),
    ]
}

struct Scene {
    base: Vec<(f64, f64)>,
    moving: [bool; NODES],
}

impl Scene {
    fn position(&self, id: NodeId, now_us: u64) -> (f64, f64) {
        let (x, y) = self.base[id.0];
        let t = if self.moving[id.0] {
            now_us as f64
        } else {
            0.0
        };
        (x + SPEED * t, y - SPEED * t)
    }

    fn site(&self, id: NodeId) -> Option<(f64, f64)> {
        (!self.moving[id.0]).then_some(self.base[id.0])
    }
}

fn distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).hypot(a.1 - b.1).max(0.1)
}

/// Asks both media the same carrier-sense and reception questions.
fn agree(
    scene: &Scene,
    flat: &mut Medium,
    indexed: &mut Medium,
    queries: &[(usize, usize, u64, usize)],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(flat.active_len(), indexed.active_len());
    for &(rx, from, now, tune) in queries {
        let (rx, from, tune) = (NodeId(rx), NodeId(from), TUNES[tune]);
        let at = scene.position(rx, now);
        let dist_sq = |other: NodeId| {
            let p = scene.position(other, now);
            (at.0 - p.0).powi(2) + (at.1 - p.1).powi(2)
        };
        prop_assert_eq!(
            flat.channel_busy_ranged(now, rx, tune, at, dist_sq),
            indexed.channel_busy_ranged(now, rx, tune, at, dist_sq),
            "carrier sense at {:?} by {:?} on {:?} at {} µs",
            at,
            rx,
            tune,
            now
        );
        if rx == from {
            continue;
        }
        let end = now + 400;
        let rx_at = scene.position(rx, end);
        let d = distance(rx_at, scene.position(from, end));
        let interferer = |other: NodeId| distance(rx_at, scene.position(other, end));
        let eval = |m: &mut Medium| {
            m.evaluate_rx_keyed(
                from,
                rx,
                now,
                end,
                20.0,
                d,
                28,
                BitRate::Mbps1,
                tune,
                rx_at,
                interferer,
            )
        };
        prop_assert_eq!(
            eval(flat),
            eval(indexed),
            "reception at {:?} from {:?}",
            rx,
            from
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cell_index_answers_like_the_flat_list(
        cell_m in prop_oneof![Just(40.0), Just(150.0)],
        spots in proptest::collection::vec(spot(), NODES..NODES + 1),
        txs in proptest::collection::vec(
            (0..NODES, 0u64..4_000, 1u64..2_500, 0..POWERS.len(), 0..TUNES.len()),
            1..60,
        ),
        queries in proptest::collection::vec(
            (0..NODES, 0..NODES, 0u64..6_000, 0..TUNES.len()),
            1..40,
        ),
        prune_at in 0u64..8_000,
        seed in 0u64..1_000,
    ) {
        let config = MediumConfig { max_range_m: cell_m, ..MediumConfig::default() };
        let mut flat = Medium::new(config, seed);
        let mut indexed = Medium::new(config, seed).with_cell_index();
        // Node 0 drives through the scene; everyone else stands still.
        let mut moving = [false; NODES];
        moving[0] = true;
        let mut scene = Scene {
            base: spots.iter().map(|&(x, y)| (x * cell_m, y * cell_m)).collect(),
            moving,
        };
        for &(from, start, airtime, power, tune) in &txs {
            let from = NodeId(from);
            let tx = Transmission {
                from,
                start_us: start,
                end_us: start + airtime,
                tx_power_dbm: POWERS[power],
                tune: TUNES[tune],
            };
            flat.begin_transmission(tx.clone(), scene.site(from));
            indexed.begin_transmission(tx, scene.site(from));
        }
        agree(&scene, &mut flat, &mut indexed, &queries)?;

        // Node 0 parks at its base position and node 1 starts driving:
        // their live entries change lists.
        scene.moving[0] = false;
        scene.moving[1] = true;
        for id in [NodeId(0), NodeId(1)] {
            flat.refile(id, scene.site(id));
            indexed.refile(id, scene.site(id));
        }
        agree(&scene, &mut flat, &mut indexed, &queries)?;

        flat.prune(prune_at);
        indexed.prune(prune_at);
        agree(&scene, &mut flat, &mut indexed, &queries)?;
    }
}
