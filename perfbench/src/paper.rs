//! `paper`: the CLI user's path over the committed paper specs.
//!
//! Set-up reads, parses and validates every spec (as `exp_run` does) and
//! makes a fresh results directory. A pass runs every spec through
//! `run_spec` at its own committed seed with one worker, in an order
//! drawn from the workload seed, and checks that each returns 0 and
//! writes the pinned envelope.

use crate::trace::span;
use crate::{Rng, Run};
use polite_wifi_scenario::{fnv1a64, run_spec, ScenarioSpec};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The paper's specs with the FNV-1a 64 digest of the envelope each
/// writes. The envelopes hold no wall-clock field, so the digests are
/// exact and independent of the workload seed.
pub const SPECS: [(&str, u64); 8] = [
    ("fig2_trace", 0x5372_330c_8df8_356f),
    ("fig3_deauth", 0x40f4_64b2_d3a3_6f63),
    ("sifs_timing", 0x9e0b_358d_177f_418d),
    ("table1_devices", 0x75c5_14d4_2856_daac),
    ("fig5_keystroke", 0x8f9b_6ead_c775_f6f0),
    ("fig6_power", 0x6113_efb2_58ef_ad8d),
    ("battery_life", 0x8be7_865c_9e87_5f2e),
    ("sensing_hub", 0xff34_d9ec_8042_68bd),
];

/// Set-ups before each pass: one alone takes a fraction of a millisecond.
pub const SETUPS_PER_PASS: usize = 10;

pub struct Paper {
    order: Vec<(&'static str, u64)>,
    specs: Vec<ScenarioSpec>,
    results: PathBuf,
}

impl Paper {
    pub fn new(seed: u64, dir: &Path) -> Paper {
        let mut order: Vec<(&'static str, u64)> = SPECS.to_vec();
        Rng::new(seed).shuffle(&mut order);
        Paper {
            order,
            specs: Vec::new(),
            results: dir.join("results"),
        }
    }

    /// Makes a fresh results directory and reads, parses and validates
    /// every spec.
    pub fn setup(&mut self, run: &mut Run) -> io::Result<()> {
        let t = Instant::now();
        let _g = span("setup", "scenario");
        if self.results.exists() {
            std::fs::remove_dir_all(&self.results)?;
        }
        std::fs::create_dir_all(&self.results)?;
        self.specs.clear();
        for (slug, _) in &self.order {
            let path = format!("scenarios/{slug}.json");
            let text = std::fs::read_to_string(&path)
                .map_err(|e| io::Error::new(e.kind(), format!("{path}: {e}")))?;
            let spec = ScenarioSpec::parse(&text)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{path}: {e}")))?;
            self.specs.push(spec);
        }
        run.setup_s.push(t.elapsed().as_secs_f64());
        Ok(())
    }

    /// Runs every spec once; each spec is one operation.
    pub fn pass(&mut self, run: &mut Run) {
        let prev = polite_wifi_harness::set_thread_results_dir(Some(self.results.clone()));
        for (i, ((slug, pin), spec)) in self.order.iter().zip(&self.specs).enumerate() {
            let t = Instant::now();
            let status = {
                let _g = span(slug, "scenario");
                let mut args = spec.run_args();
                args.quiet = true;
                args.workers = 1;
                run_spec(spec, args)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let problem = match status {
                Ok(0) => check_envelope(&self.results, slug, *pin),
                Ok(status) => Some(format!("{slug}: run_spec returned {status}")),
                Err(e) => Some(format!("{slug}: run_spec failed: {e}")),
            };
            run.op(i, ms, problem);
        }
        polite_wifi_harness::set_thread_results_dir(prev);
    }
}

fn check_envelope(results: &Path, slug: &str, pin: u64) -> Option<String> {
    let path = results.join(format!("{slug}.json"));
    match std::fs::read(&path) {
        Ok(bytes) => {
            let digest = fnv1a64(&bytes);
            (digest != pin)
                .then(|| format!("{slug}: envelope digest {digest:#018x}, pinned {pin:#018x}"))
        }
        Err(e) => Some(format!("{}: {e}", path.display())),
    }
}
