//! The shared radio medium: propagation, link quality, and collisions.

use crate::arena::{cell_of, CellKey, CellMap};
use crate::faults::{GilbertElliott, SnrDegradation, FAULT_STREAM};
use crate::node::NodeId;
use polite_wifi_phy::fading::Fading;
use polite_wifi_phy::link;
use polite_wifi_phy::pathloss::{noise_floor_dbm, PathLoss};
use polite_wifi_phy::rate::BitRate;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Radio-environment parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MediumConfig {
    /// Large-scale propagation model.
    pub path_loss: PathLoss,
    /// Small-scale fading statistics per frame.
    pub fading: Fading,
    /// Receiver noise figure in dB.
    pub noise_figure_db: f64,
    /// Channel bandwidth in MHz (for the noise floor).
    pub bandwidth_mhz: f64,
    /// Energy-detect / carrier-sense threshold in dBm.
    pub cs_threshold_dbm: f64,
    /// Minimum power ratio (dB) for the stronger of two overlapping frames
    /// to survive (physical-layer capture).
    pub capture_threshold_db: f64,
    /// Hard propagation cutoff in metres, used by the spatially-sharded
    /// propagation modes: receivers beyond this range are not evaluated
    /// at all (their mean rx power sits tens of dB below the
    /// energy-detect floor). Ignored by the legacy all-pairs mode, and
    /// it is the interference-cell edge length of the grid mode.
    pub max_range_m: f64,
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig {
            path_loss: PathLoss::indoor_2ghz4(),
            fading: Fading::Rician { k: 8.0 },
            noise_figure_db: 7.0,
            bandwidth_mhz: 20.0,
            cs_threshold_dbm: -82.0,
            capture_threshold_db: 10.0,
            max_range_m: 400.0,
        }
    }
}

impl MediumConfig {
    /// Distance within which a transmission at `tx_power_dbm` is sensed
    /// at or above the carrier-sense threshold (0 when it never is).
    fn cs_range_m(&self, tx_power_dbm: f64) -> f64 {
        let budget = tx_power_dbm - self.cs_threshold_dbm;
        if budget < self.path_loss.loss_db(0.1) {
            return 0.0;
        }
        self.path_loss.distance_for_loss_db(budget)
    }
}

/// A (band, channel) tune — two transmissions interact only when their
/// tunes match. Adjacent-channel leakage is out of scope (documented in
/// DESIGN.md).
pub type Tune = (polite_wifi_phy::band::Band, u8);

/// A transmission currently (or recently) on the air.
#[derive(Debug, Clone)]
pub struct Transmission {
    /// Transmitting node.
    pub from: NodeId,
    /// Start of the frame on the air.
    pub start_us: u64,
    /// End of the frame on the air.
    pub end_us: u64,
    /// Transmit power in dBm.
    pub tx_power_dbm: f64,
    /// Band/channel the frame rides on.
    pub tune: Tune,
}

/// The active transmissions of static transmitters, filed by the
/// `(tune, cell)` of the transmitter's position — the cell-indexed
/// medium's spatial index (see [`Medium::with_cell_index`]).
#[derive(Debug)]
struct TxCells {
    /// Cell edge in metres (the medium's `max_range_m`).
    cell_m: f64,
    buckets: CellMap<Vec<Transmission>>,
    /// Keys of the non-empty buckets, in no particular order: what
    /// prune and the whole-index scan walk.
    occupied: Vec<CellKey>,
    /// Highest transmit power ever filed, and its carrier-sense range:
    /// no filed transmission is sensed farther away than that.
    max_tx_power_dbm: f64,
    cs_reach_m: f64,
}

impl TxCells {
    fn insert(&mut self, tx: Transmission, site: (f64, f64), config: &MediumConfig) {
        if tx.tx_power_dbm > self.max_tx_power_dbm {
            self.max_tx_power_dbm = tx.tx_power_dbm;
            self.cs_reach_m = config.cs_range_m(tx.tx_power_dbm);
        }
        let (cx, cy) = cell_of(site, self.cell_m);
        let key = (tx.tune, cx, cy);
        let bucket = self.buckets.entry(key).or_default();
        if bucket.is_empty() {
            self.occupied.push(key);
        }
        bucket.push(tx);
    }

    /// Drops entries `keep` rejects; returns how many were dropped.
    fn retain(&mut self, mut keep: impl FnMut(&Transmission) -> bool) -> usize {
        let mut dropped = 0;
        let buckets = &mut self.buckets;
        self.occupied.retain(|key| {
            let bucket = buckets.get_mut(key).expect("occupied bucket");
            let before = bucket.len();
            bucket.retain(&mut keep);
            dropped += before - bucket.len();
            !bucket.is_empty()
        });
        dropped
    }

    /// Whether `pred` holds for any filed transmission on `tune` whose
    /// transmitter may lie within `reach_m` of `point`. Visits the
    /// cells within `⌈reach_m / cell_m⌉` rings of `point`'s cell, or
    /// every occupied bucket on `tune` when that is fewer (an infinite
    /// reach always takes this path). Either way a superset of the
    /// transmissions in reach is tested, so a `pred` that itself checks
    /// tune and distance answers exactly as a scan of everything would.
    fn any_near(
        &self,
        tune: Tune,
        point: (f64, f64),
        reach_m: f64,
        mut pred: impl FnMut(&Transmission) -> bool,
    ) -> bool {
        let rings = (reach_m / self.cell_m).ceil();
        let side = 2.0 * rings + 1.0;
        if side * side >= self.occupied.len() as f64 {
            return self
                .occupied
                .iter()
                .filter(|key| key.0 == tune)
                .any(|key| self.buckets[key].iter().any(&mut pred));
        }
        let rings = rings as i64;
        let (cx, cy) = cell_of(point, self.cell_m);
        for x in cx - rings..=cx + rings {
            for y in cy - rings..=cy + rings {
                if let Some(bucket) = self.buckets.get(&(tune, x, y)) {
                    if bucket.iter().any(&mut pred) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

/// The shared medium. Owns the propagation RNG so link draws are
/// reproducible.
#[derive(Debug)]
pub struct Medium {
    config: MediumConfig,
    rng: ChaCha8Rng,
    /// Transmissions on the air or in the prune grace window: all of
    /// them on a flat list, or with a cell index only those of moving
    /// transmitters (scanned on every query).
    active: Vec<Transmission>,
    /// The cell index, when enabled.
    cells: Option<TxCells>,
    /// Entries across `active` and `cells`.
    active_len: usize,
    noise_dbm: f64,
    /// Fault decisions draw from this dedicated stream (`seed ^
    /// FAULT_STREAM`), never from `rng`, so a clean plan leaves the
    /// propagation draws — and therefore every result — untouched.
    fault_rng: ChaCha8Rng,
    burst: Option<GilbertElliott>,
    burst_bad: bool,
    snr_faults: SnrDegradation,
    /// Seed for the keyed (per-reception) draw mode: fading and FER
    /// draws come from a ChaCha8 stream keyed on (seed, from, to,
    /// start_us) instead of the shared sequential stream, making each
    /// reception's randomness independent of evaluation *order* — the
    /// property that lets the cell grid skip out-of-range receivers
    /// without perturbing anyone else's draws.
    keyed_seed: u64,
}

/// Mixes one word into a splitmix64 hash state — the keyed-draw mode's
/// per-reception seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Outcome of receiving one frame at one receiver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RxOutcome {
    /// Mean received power in dBm (before fading).
    pub rx_power_dbm: f64,
    /// Post-fading SNR in dB.
    pub snr_db: f64,
    /// Whether the preamble was detectable at all.
    pub detectable: bool,
    /// Whether the FCS check passes (link errors + collisions folded in).
    pub fcs_ok: bool,
    /// Whether an overlapping transmission corrupted this frame.
    pub collided: bool,
    /// Whether injected burst loss corrupted a frame that would
    /// otherwise have decoded (always `false` under a clean plan).
    pub fault_dropped: bool,
}

impl Medium {
    /// A medium with the given config, seeded deterministically.
    pub fn new(config: MediumConfig, seed: u64) -> Medium {
        use rand::SeedableRng;
        Medium {
            config,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x4d45_4449_554d), // "MEDIUM"
            noise_dbm: noise_floor_dbm(config.bandwidth_mhz, config.noise_figure_db),
            active: Vec::new(),
            cells: None,
            active_len: 0,
            fault_rng: ChaCha8Rng::seed_from_u64(seed ^ FAULT_STREAM),
            burst: None,
            burst_bad: false,
            snr_faults: SnrDegradation::default(),
            keyed_seed: seed ^ 0x004b_4559_4544, // "KEYED"
        }
    }

    /// Installs medium-level faults: burst loss and per-direction SNR
    /// penalties. Passing `None` / a zero degradation restores the clean
    /// medium.
    pub fn set_faults(&mut self, burst: Option<GilbertElliott>, snr: SnrDegradation) {
        self.burst = burst;
        self.burst_bad = false;
        self.snr_faults = snr;
    }

    /// The noise floor in dBm.
    pub fn noise_dbm(&self) -> f64 {
        self.noise_dbm
    }

    /// The configuration.
    pub fn config(&self) -> &MediumConfig {
        &self.config
    }

    /// Files active transmissions by the `(tune, cell)` of their
    /// transmitter's position, cell edge `max_range_m` — the layout of
    /// the cell-grid propagation mode. The keyed scans then visit only
    /// the cells a transmission could matter from: the 3×3
    /// neighbourhood for collisions (their cutoff is one cell edge) and
    /// as many rings as the largest carrier-sense range needs. Moving
    /// transmitters stay on the always-scanned flat list. Every answer
    /// is the one a scan of the whole list gives, because a scan skips
    /// only transmissions its own tune and distance tests would reject.
    pub fn with_cell_index(mut self) -> Medium {
        self.cells = Some(TxCells {
            cell_m: self.config.max_range_m.max(1.0),
            buckets: CellMap::default(),
            occupied: Vec::new(),
            max_tx_power_dbm: f64::NEG_INFINITY,
            cs_reach_m: 0.0,
        });
        self
    }

    /// Registers a transmission on the air. `site` is the position of
    /// a transmitter that does not move, `None` for a moving one; only
    /// the cell index reads it.
    pub fn begin_transmission(&mut self, tx: Transmission, site: Option<(f64, f64)>) {
        self.active_len += 1;
        match (&mut self.cells, site) {
            (Some(cells), Some(site)) => cells.insert(tx, site, &self.config),
            _ => self.active.push(tx),
        }
    }

    /// Re-files `from`'s live transmissions after its motion changed:
    /// onto the moving list when `site` is `None`, otherwise into the
    /// cells of `site`. A no-op without the cell index.
    pub fn refile(&mut self, from: NodeId, site: Option<(f64, f64)>) {
        let Some(cells) = &mut self.cells else { return };
        match site {
            None => {
                let active = &mut self.active;
                cells.retain(|t| {
                    if t.from == from {
                        active.push(t.clone());
                    }
                    t.from != from
                });
            }
            Some(site) => {
                let (mine, others) = std::mem::take(&mut self.active)
                    .into_iter()
                    .partition(|t| t.from == from);
                self.active = others;
                for tx in mine {
                    cells.insert(tx, site, &self.config);
                }
            }
        }
    }

    /// Drops transmissions that ended more than 1 ms before `now_us`.
    /// The grace window keeps a transmission visible to the arrivals
    /// of frames that ended up to 1 ms after it, not to every arrival
    /// it overlapped: a frame longer than 1 ms can outlive an
    /// interferer's entry, so when prune runs is observable.
    pub fn prune(&mut self, now_us: u64) {
        let keep = |t: &Transmission| t.end_us + 1_000 >= now_us;
        let before = self.active.len();
        self.active.retain(keep);
        let mut dropped = before - self.active.len();
        if let Some(cells) = &mut self.cells {
            dropped += cells.retain(keep);
        }
        self.active_len -= dropped;
    }

    /// Number of transmissions held, on the air or in the prune grace
    /// window — the keyed modes' prune trigger.
    pub fn active_len(&self) -> usize {
        self.active_len
    }

    /// Whether `pred` holds for any held transmission on `tune` whose
    /// transmitter may lie within `reach_m` of `point` (see
    /// [`TxCells::any_near`]); without the cell index, for any at all.
    fn any_active(
        &self,
        tune: Tune,
        point: (f64, f64),
        reach_m: f64,
        mut pred: impl FnMut(&Transmission) -> bool,
    ) -> bool {
        self.active.iter().any(&mut pred)
            || self
                .cells
                .as_ref()
                .is_some_and(|cells| cells.any_near(tune, point, reach_m, pred))
    }

    /// Mean received power at distance `d_m` from a transmitter.
    pub fn rx_power_dbm(&self, tx_power_dbm: f64, d_m: f64) -> f64 {
        self.config.path_loss.rx_power_dbm(tx_power_dbm, d_m)
    }

    /// Whether a node tuned to `tune` senses the channel busy at
    /// `now_us`. `exclude` skips the node's own transmission;
    /// `distance_to` maps an active transmitter to its distance from
    /// the sensing node — evaluated only for transmissions actually on
    /// the air, so the scan is O(active), not O(nodes). With the cell
    /// index this scan still visits every entry on `tune` (it has no
    /// position to search around).
    pub fn channel_busy(
        &self,
        now_us: u64,
        exclude: NodeId,
        tune: Tune,
        distance_to: impl Fn(NodeId) -> f64,
    ) -> bool {
        self.any_active(tune, (0.0, 0.0), f64::INFINITY, |t| {
            t.from != exclude
                && t.tune == tune
                && t.start_us <= now_us
                && now_us < t.end_us
                && self.rx_power_dbm(t.tx_power_dbm, distance_to(t.from))
                    >= self.config.cs_threshold_dbm
        })
    }

    /// Like [`channel_busy`](Self::channel_busy), but built for the hot
    /// path of the keyed (spatially-sharded) modes: the caller supplies
    /// **squared** distances and the threshold comparison happens in the
    /// distance domain against a precomputed carrier-sense radius
    /// (inverse path loss), so the scan runs zero `log10`/`sqrt` calls
    /// per active entry. Equivalent to `channel_busy` up to the
    /// round-trip error of [`PathLoss::distance_for_loss_db`] (~1e-15
    /// relative); the legacy all-pairs mode keeps the exact power-domain
    /// scan so pinned results cannot drift. `at` is the sensing node's
    /// position: with the cell index, only cells within the largest
    /// carrier-sense range of it are visited.
    pub fn channel_busy_ranged(
        &self,
        now_us: u64,
        exclude: NodeId,
        tune: Tune,
        at: (f64, f64),
        distance_sq_to: impl Fn(NodeId) -> f64,
    ) -> bool {
        // One inverse per distinct tx power per call — in practice every
        // transmitter runs the same power, so the transcendentals run once.
        let mut memo = (f64::NAN, 0.0); // (tx_power_dbm, cs_range²)
        let reach = self.cells.as_ref().map_or(f64::INFINITY, |c| c.cs_reach_m);
        self.any_active(tune, at, reach, |t| {
            if t.from == exclude || t.tune != tune || t.start_us > now_us || now_us >= t.end_us {
                return false;
            }
            if t.tx_power_dbm != memo.0 {
                let r = self.config.cs_range_m(t.tx_power_dbm);
                memo = (t.tx_power_dbm, r * r);
            }
            // The forward model clamps distances below at 0.1 m; mirror it.
            distance_sq_to(t.from).max(0.01) <= memo.1
        })
    }

    /// Evaluates the reception of a frame that occupied
    /// `[start_us, end_us]` on the air, at receiver `to`, `d_m` metres
    /// from the transmitter. `interferer_distance` maps other nodes to
    /// their distance from this receiver.
    /// `tune` is the band/channel the frame rode on; only co-channel
    /// interferers corrupt it.
    ///
    /// Draws ride the shared sequential propagation stream: every call
    /// consumes exactly one fading draw (plus, lazily, one FER draw),
    /// so results depend on the global evaluation order. This is the
    /// legacy all-pairs contract every pinned result rests on.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_rx(
        &mut self,
        from: NodeId,
        to: NodeId,
        start_us: u64,
        end_us: u64,
        tx_power_dbm: f64,
        d_m: f64,
        psdu_len: usize,
        rate: BitRate,
        tune: Tune,
        interferer_distance: impl Fn(NodeId) -> f64,
    ) -> RxOutcome {
        let mut rng = self.rng.clone();
        let out = self.evaluate_rx_with(
            &mut rng,
            from,
            to,
            start_us,
            end_us,
            tx_power_dbm,
            d_m,
            psdu_len,
            rate,
            tune,
            // An infinite cutoff scans every entry, so the receiver's
            // position is never consulted.
            (0.0, 0.0),
            f64::INFINITY,
            interferer_distance,
        );
        self.rng = rng;
        out
    }

    /// Like [`evaluate_rx`](Self::evaluate_rx), but fading and FER
    /// draws come from a per-reception stream keyed on
    /// `(seed, from, to, start_us)` — half-duplex radios start at most
    /// one transmission per microsecond, so the key is collision-free.
    /// Reception outcomes become independent of evaluation order, which
    /// is what lets the cell-sharded propagation mode skip out-of-range
    /// receivers while staying draw-for-draw identical to the all-pairs
    /// oracle on the receptions both evaluate. The burst-loss fault
    /// chain still steps sequentially on the dedicated fault stream.
    /// `rx_at` is the receiver's position, around which the cell index
    /// looks for interferers.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_rx_keyed(
        &mut self,
        from: NodeId,
        to: NodeId,
        start_us: u64,
        end_us: u64,
        tx_power_dbm: f64,
        d_m: f64,
        psdu_len: usize,
        rate: BitRate,
        tune: Tune,
        rx_at: (f64, f64),
        interferer_distance: impl Fn(NodeId) -> f64,
    ) -> RxOutcome {
        use rand::SeedableRng;
        let mut key = splitmix64(self.keyed_seed ^ from.0 as u64);
        key = splitmix64(key ^ to.0 as u64);
        key = splitmix64(key ^ start_us);
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        // In the spatially-sharded modes the medium simply does not
        // exist beyond `max_range_m`, for interferers as for receivers:
        // an interferer out there delivers mean power tens of dB under
        // the energy-detect floor, and cutting it off lets the collision
        // scan skip the path-loss `log10` for distant co-channel frames.
        let cutoff = self.config.max_range_m;
        self.evaluate_rx_with(
            &mut rng,
            from,
            to,
            start_us,
            end_us,
            tx_power_dbm,
            d_m,
            psdu_len,
            rate,
            tune,
            rx_at,
            cutoff,
            interferer_distance,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn evaluate_rx_with(
        &mut self,
        rng: &mut ChaCha8Rng,
        from: NodeId,
        to: NodeId,
        start_us: u64,
        end_us: u64,
        tx_power_dbm: f64,
        d_m: f64,
        psdu_len: usize,
        rate: BitRate,
        tune: Tune,
        rx_at: (f64, f64),
        interference_cutoff_m: f64,
        interferer_distance: impl Fn(NodeId) -> f64,
    ) -> RxOutcome {
        let rx_power = self.rx_power_dbm(tx_power_dbm, d_m);
        let mut faded = self.config.fading.faded_power_dbm(rx_power, rng);
        // Injected asymmetric link-budget penalty (0 under a clean plan).
        let penalty = self.snr_faults.penalty_db(from.0, to.0);
        if penalty != 0.0 {
            faded -= penalty;
        }
        let snr_db = faded - self.noise_dbm;
        let detectable = faded >= self.config.cs_threshold_dbm && link::detectable(snr_db);

        // Collision check: any other transmission overlapping this frame's
        // airtime whose power at the receiver is within the capture
        // threshold corrupts the frame.
        let collided = self.any_active(tune, rx_at, interference_cutoff_m, |t| {
            if t.from == from || t.tune != tune {
                return false;
            }
            let overlaps = t.start_us < end_us && start_us < t.end_us;
            if !overlaps {
                return false;
            }
            let d_i = interferer_distance(t.from);
            if d_i > interference_cutoff_m {
                return false;
            }
            let interferer_power = self.rx_power_dbm(t.tx_power_dbm, d_i);
            faded - interferer_power < self.config.capture_threshold_db
        });

        let fer = link::fer(psdu_len, rate, snr_db);
        // Lazy FER draw: only a frame that passed detection and
        // collision checks consumes a propagation draw. Undetectable or
        // collided receptions must leave `rng` exactly where the
        // pre-fault simulator left it, or clean runs stop being
        // byte-identical to pinned results.
        let clean_ok = detectable && !collided && rng.gen::<f64>() >= fer;

        // Burst loss steps its Markov chain on the dedicated fault
        // stream — one step per reception — and only *counts* as a
        // fault drop when it corrupted a frame that would otherwise
        // have decoded.
        let burst_hit = match self.burst {
            Some(ge) => ge.step(&mut self.burst_bad, &mut self.fault_rng),
            None => false,
        };
        let fcs_ok = clean_ok && !burst_hit;
        RxOutcome {
            rx_power_dbm: rx_power,
            snr_db,
            detectable,
            fcs_ok,
            collided,
            fault_dropped: clean_ok && burst_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CH6: Tune = (polite_wifi_phy::band::Band::Ghz2, 6);
    const CH36: Tune = (polite_wifi_phy::band::Band::Ghz5, 36);

    fn medium() -> Medium {
        Medium::new(MediumConfig::default(), 1)
    }

    #[test]
    fn close_range_reception_is_reliable() {
        let mut m = medium();
        let mut ok = 0;
        for i in 0..200 {
            let out = m.evaluate_rx(
                NodeId(0),
                NodeId(1),
                i * 1000,
                i * 1000 + 400,
                20.0,
                5.0,
                28,
                BitRate::Mbps1,
                CH6,
                |_| f64::INFINITY,
            );
            if out.fcs_ok {
                ok += 1;
            }
        }
        assert!(ok >= 198, "only {ok}/200 at 5 m");
    }

    #[test]
    fn extreme_range_fails() {
        let mut m = medium();
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            0,
            400,
            20.0,
            1_000.0,
            28,
            BitRate::Mbps54,
            CH6,
            |_| f64::INFINITY,
        );
        assert!(!out.fcs_ok);
        assert!(!out.detectable);
    }

    #[test]
    fn overlapping_comparable_power_collides() {
        let mut m = medium();
        m.begin_transmission(
            Transmission {
                from: NodeId(7),
                start_us: 100,
                end_us: 500,
                tx_power_dbm: 20.0,
                tune: CH6,
            },
            None,
        );
        // Victim frame overlaps [100,500]; interferer at the same distance.
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            200,
            600,
            20.0,
            5.0,
            28,
            BitRate::Mbps1,
            CH6,
            |_| 5.0,
        );
        assert!(out.collided);
        assert!(!out.fcs_ok);
    }

    #[test]
    fn capture_survives_weak_interferer() {
        let mut m = medium();
        m.begin_transmission(
            Transmission {
                from: NodeId(7),
                start_us: 100,
                end_us: 500,
                tx_power_dbm: 20.0,
                tune: CH6,
            },
            None,
        );
        // Interferer is 100 m away (≫ capture threshold below our 2 m frame).
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            200,
            600,
            20.0,
            2.0,
            28,
            BitRate::Mbps1,
            CH6,
            |_| 100.0,
        );
        assert!(!out.collided, "strong frame should capture");
    }

    #[test]
    fn cross_channel_interferer_harmless() {
        let mut m = medium();
        m.begin_transmission(
            Transmission {
                from: NodeId(7),
                start_us: 100,
                end_us: 500,
                tx_power_dbm: 20.0,
                tune: CH36, // different band entirely
            },
            None,
        );
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            200,
            600,
            20.0,
            5.0,
            28,
            BitRate::Mbps1,
            CH6,
            |_| 5.0,
        );
        assert!(!out.collided, "cross-channel frames must not collide");
    }

    #[test]
    fn carrier_sense_is_per_channel() {
        let mut m = medium();
        m.begin_transmission(
            Transmission {
                from: NodeId(3),
                start_us: 0,
                end_us: 1_000,
                tx_power_dbm: 20.0,
                tune: CH6,
            },
            None,
        );
        assert!(m.channel_busy(500, NodeId(0), CH6, |_| 5.0));
        assert!(!m.channel_busy(500, NodeId(0), CH36, |_| 5.0));
    }

    #[test]
    fn non_overlapping_does_not_collide() {
        let mut m = medium();
        m.begin_transmission(
            Transmission {
                from: NodeId(7),
                start_us: 0,
                end_us: 100,
                tx_power_dbm: 20.0,
                tune: CH6,
            },
            None,
        );
        let out = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            100,
            500,
            20.0,
            5.0,
            28,
            BitRate::Mbps1,
            CH6,
            |_| 5.0,
        );
        assert!(!out.collided);
    }

    #[test]
    fn channel_busy_detection() {
        let mut m = medium();
        m.begin_transmission(
            Transmission {
                from: NodeId(3),
                start_us: 0,
                end_us: 1_000,
                tx_power_dbm: 20.0,
                tune: CH6,
            },
            None,
        );
        assert!(m.channel_busy(500, NodeId(0), CH6, |_| 5.0));
        assert!(!m.channel_busy(500, NodeId(0), CH6, |_| 10_000.0));
        // After the transmission ends the channel is free.
        assert!(!m.channel_busy(1_500, NodeId(0), CH6, |_| 5.0));
        // A node never senses its own transmission as busy.
        assert!(!m.channel_busy(500, NodeId(3), CH6, |_| 5.0));
    }

    /// The distance-domain carrier-sense scan must agree with the exact
    /// power-domain one across the sensing range (it exists so the hot
    /// path can drop the per-entry `log10`, not to change physics).
    #[test]
    fn ranged_carrier_sense_matches_exact_scan() {
        let mut m = medium();
        m.begin_transmission(
            Transmission {
                from: NodeId(3),
                start_us: 0,
                end_us: 1_000,
                tx_power_dbm: 20.0,
                tune: CH6,
            },
            None,
        );
        for d in [0.05, 0.5, 5.0, 50.0, 114.0, 116.0, 150.0, 1_000.0] {
            assert_eq!(
                m.channel_busy(500, NodeId(0), CH6, |_| d),
                m.channel_busy_ranged(500, NodeId(0), CH6, (0.0, 0.0), |_| d * d),
                "disagree at {d} m"
            );
        }
        // Same tune/time/exclusion filters as the exact scan.
        assert!(!m.channel_busy_ranged(500, NodeId(3), CH6, (0.0, 0.0), |_| 25.0));
        assert!(!m.channel_busy_ranged(500, NodeId(0), CH36, (0.0, 0.0), |_| 25.0));
        assert!(!m.channel_busy_ranged(1_500, NodeId(0), CH6, (0.0, 0.0), |_| 25.0));
    }

    #[test]
    fn prune_keeps_recent() {
        let mut m = medium();
        m.begin_transmission(
            Transmission {
                from: NodeId(1),
                start_us: 0,
                end_us: 100,
                tx_power_dbm: 20.0,
                tune: CH6,
            },
            None,
        );
        m.prune(500);
        assert_eq!(m.active.len(), 1, "grace window keeps it");
        m.prune(10_000);
        assert!(m.active.is_empty());
    }

    #[test]
    fn undetectable_rx_consumes_no_fer_draw() {
        // Regression: an undetectable reception must leave the
        // propagation RNG exactly where the pre-fault simulator left it
        // — one fading draw, no FER draw — or every clean result pinned
        // before the fault layer existed silently drifts.
        use rand::SeedableRng;
        let cfg = MediumConfig::default();
        let mut m = Medium::new(cfg, 42);
        let far = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            0,
            400,
            20.0,
            5_000.0,
            28,
            BitRate::Mbps1,
            CH6,
            |_| f64::INFINITY,
        );
        assert!(!far.detectable);
        let near = m.evaluate_rx(
            NodeId(0),
            NodeId(1),
            1_000,
            1_400,
            20.0,
            5.0,
            28,
            BitRate::Mbps1,
            CH6,
            |_| f64::INFINITY,
        );

        // Replay the expected draw sequence on a parallel RNG: the far
        // frame fades but never reaches the FER draw.
        let mut rng = ChaCha8Rng::seed_from_u64(42 ^ 0x4d45_4449_554d);
        let far_power = cfg.path_loss.rx_power_dbm(20.0, 5_000.0);
        let _ = cfg.fading.faded_power_dbm(far_power, &mut rng);
        let near_power = cfg.path_loss.rx_power_dbm(20.0, 5.0);
        let faded = cfg.fading.faded_power_dbm(near_power, &mut rng);
        let noise = noise_floor_dbm(cfg.bandwidth_mhz, cfg.noise_figure_db);
        assert!(
            (near.snr_db - (faded - noise)).abs() < 1e-9,
            "far reception shifted the propagation stream: {} vs {}",
            near.snr_db,
            faded - noise
        );
    }

    /// The keyed-draw mode's defining property: a reception's outcome
    /// depends only on its (from, to, start_us) key, not on how many
    /// other receptions were evaluated before it — so skipping
    /// out-of-range receivers cannot perturb anyone else's draws.
    #[test]
    fn keyed_draws_are_order_independent() {
        let eval = |m: &mut Medium, start: u64| {
            m.evaluate_rx_keyed(
                NodeId(0),
                NodeId(1),
                start,
                start + 100,
                20.0,
                30.0,
                1500,
                BitRate::Mbps54,
                CH6,
                (0.0, 0.0),
                |_| f64::INFINITY,
            )
        };
        // Run A: evaluate receptions 0..20. Run B: only the even ones.
        let mut a = Medium::new(MediumConfig::default(), 9);
        let full: Vec<RxOutcome> = (0..20).map(|i| eval(&mut a, i * 1_000)).collect();
        let mut b = Medium::new(MediumConfig::default(), 9);
        let sparse: Vec<RxOutcome> = (0..20)
            .step_by(2)
            .map(|i| eval(&mut b, i * 1_000))
            .collect();
        for (k, out) in sparse.iter().enumerate() {
            assert_eq!(*out, full[2 * k], "reception {k} drifted");
        }
        // ...and a different medium seed gives different realisations.
        let mut c = Medium::new(MediumConfig::default(), 10);
        let other: Vec<RxOutcome> = (0..20).map(|i| eval(&mut c, i * 1_000)).collect();
        assert_ne!(full, other);
    }

    #[test]
    fn determinism_under_seed() {
        let run = |seed: u64| {
            let mut m = Medium::new(MediumConfig::default(), seed);
            (0..50)
                .map(|i| {
                    m.evaluate_rx(
                        NodeId(0),
                        NodeId(1),
                        i * 1000,
                        i * 1000 + 100,
                        20.0,
                        30.0,
                        1500,
                        BitRate::Mbps54,
                        CH6,
                        |_| f64::INFINITY,
                    )
                    .fcs_ok
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
