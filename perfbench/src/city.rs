//! `city`: neighbourhood wardrives through the city-scale simulator.
//!
//! A neighbourhood is one `CityWardrive` of 2048 devices at a 500 ms
//! dwell with the default propagation (cell grid) and scheduler
//! (calendar queue), run on one worker. The workload seed draws a slice
//! of `SLICE` neighbourhoods, in order, from a pool of `POOL` whose
//! reports are pinned; each pass drives the whole slice and checks every
//! report against its pin.

use crate::trace::span;
use crate::{Rng, Run};
use polite_wifi_core::{CityReport, CityWardrive};
use polite_wifi_devices::CityPopulation;
use std::time::Instant;

pub const DEVICES: usize = 2048;
pub const DWELL_US: u64 = 500_000;
/// Neighbourhoods per pass.
pub const SLICE: usize = 12;
/// Neighbourhood `i` of the pool is the drive seeded `FIRST_SEED + i`.
pub const FIRST_SEED: u64 = 2026;
/// Set-ups before each pass.
pub const SETUPS_PER_PASS: usize = 3;

/// Pinned `(segments, discovered, verified, events_dispatched,
/// occupied_cells)` of each pool neighbourhood.
pub const PINS: [(usize, usize, usize, u64, u64); POOL] = [
    (7, 17, 14, 144210, 1345),
    (7, 8, 7, 148578, 1364),
    (7, 10, 5, 147670, 1341),
    (7, 12, 7, 140732, 1372),
    (7, 13, 11, 140523, 1351),
    (7, 6, 6, 140992, 1370),
    (7, 15, 9, 140904, 1365),
    (7, 13, 9, 148360, 1358),
    (7, 12, 10, 142890, 1360),
    (7, 11, 7, 140469, 1375),
    (7, 8, 8, 142054, 1373),
    (7, 9, 8, 144129, 1342),
    (7, 15, 14, 136282, 1385),
    (7, 9, 8, 139667, 1383),
    (7, 11, 10, 139358, 1397),
    (7, 11, 11, 140738, 1378),
    (7, 10, 8, 145957, 1382),
    (7, 13, 9, 142400, 1401),
    (7, 14, 12, 140190, 1388),
    (7, 13, 13, 139840, 1372),
    (7, 10, 8, 142048, 1393),
    (7, 10, 9, 143775, 1360),
    (7, 13, 10, 141889, 1384),
    (7, 8, 6, 146796, 1359),
    (7, 10, 9, 142331, 1362),
    (7, 12, 12, 150819, 1370),
    (7, 12, 10, 147537, 1359),
    (7, 16, 14, 155506, 1357),
    (7, 12, 11, 149237, 1341),
    (7, 13, 12, 145848, 1360),
    (7, 10, 10, 135473, 1378),
    (7, 11, 7, 139917, 1387),
    (7, 10, 8, 141397, 1374),
    (7, 12, 9, 144380, 1367),
    (7, 10, 9, 145239, 1368),
    (7, 9, 8, 136415, 1381),
    (7, 9, 8, 141967, 1365),
    (7, 8, 7, 142428, 1367),
    (7, 10, 6, 140604, 1374),
    (7, 11, 9, 136430, 1397),
    (7, 6, 6, 140547, 1368),
    (7, 10, 10, 139076, 1380),
    (7, 7, 5, 142648, 1352),
    (7, 11, 8, 139624, 1380),
    (7, 9, 8, 145486, 1368),
    (7, 10, 6, 143876, 1352),
    (7, 5, 4, 143001, 1357),
    (7, 10, 8, 139834, 1345),
];

pub const POOL: usize = 48;

/// The neighbourhood drive seeded `seed`.
pub fn drive(seed: u64) -> CityWardrive {
    CityWardrive {
        seed,
        devices: DEVICES,
        dwell_us: DWELL_US,
        ..CityWardrive::default()
    }
}

/// The pool indices of the slice the workload seed draws.
pub fn slice(seed: u64) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..POOL).collect();
    Rng::new(seed).shuffle(&mut pool);
    pool.truncate(SLICE);
    pool
}

pub struct City {
    slice: Vec<usize>,
}

impl City {
    pub fn new(seed: u64) -> City {
        City { slice: slice(seed) }
    }

    /// Generates the slice's device populations.
    pub fn setup(&mut self, run: &mut Run) {
        let t = Instant::now();
        for &i in &self.slice {
            let _g = span("synthetic_city", "devices");
            std::hint::black_box(CityPopulation::synthetic_city(
                DEVICES,
                FIRST_SEED + i as u64,
            ));
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
    }

    /// Drives every neighbourhood of the slice once; each is one
    /// operation.
    pub fn pass(&mut self, run: &mut Run) {
        for (k, &i) in self.slice.iter().enumerate() {
            let t = Instant::now();
            let report = {
                let _g = span("run_sharded", "core");
                drive(FIRST_SEED + i as u64).run_sharded(1)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            run.events += report.events_dispatched;
            run.op(k, ms, check(i, &report));
        }
    }
}

fn check(i: usize, r: &CityReport) -> Option<String> {
    let got = (
        r.segments,
        r.discovered,
        r.verified,
        r.events_dispatched,
        r.occupied_cells,
    );
    match PINS.get(i) {
        Some(&pin) if pin == got => None,
        pin => Some(format!(
            "neighbourhood {i} (seed {}): report {got:?}, pinned {pin:?}",
            FIRST_SEED + i as u64
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_are_distinct_pool_members() {
        for seed in 0..50 {
            let mut s = slice(seed);
            assert_eq!(s.len(), SLICE);
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), SLICE);
            assert!(s.iter().all(|&i| i < POOL));
        }
        assert_ne!(slice(1), slice(2));
    }
}
