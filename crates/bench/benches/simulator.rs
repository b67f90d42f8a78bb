//! Criterion benchmarks for the discrete-event simulator: how many
//! fake→ACK exchanges per wall-clock second the substrate sustains, and
//! the collision-model ablation from DESIGN.md §5.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use polite_wifi_frame::{builder, MacAddr};
use polite_wifi_mac::StationConfig;
use polite_wifi_phy::fading::Fading;
use polite_wifi_phy::rate::BitRate;
use polite_wifi_sim::{MediumConfig, SimConfig, Simulator};

fn victim() -> MacAddr {
    "f2:6e:0b:11:22:33".parse().unwrap()
}

fn exchange_sim(config: SimConfig, n_frames: u64) -> Simulator {
    let mut sim = Simulator::new(config, 7);
    let _v = sim.add_node(StationConfig::client(victim()), (0.0, 0.0));
    let a = sim.add_node(StationConfig::client(MacAddr::FAKE), (5.0, 0.0));
    sim.set_retries(a, false);
    for i in 0..n_frames {
        sim.inject(
            i * 1_000,
            a,
            builder::fake_null_frame(victim(), MacAddr::FAKE),
            BitRate::Mbps1,
        );
    }
    sim
}

fn bench_exchanges(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(1000));
    g.bench_function("1000_fake_ack_exchanges", |b| {
        b.iter_batched(
            || exchange_sim(SimConfig::default(), 1000),
            |mut sim| sim.run_until(2_000_000),
            BatchSize::SmallInput,
        )
    });

    // Ablation: a no-fading medium (cheaper link draws) vs the default
    // Rician medium — documents what the channel realism costs.
    let mut no_fading = SimConfig::default();
    no_fading.medium.fading = Fading::None;
    g.bench_function("1000_exchanges_no_fading", |b| {
        b.iter_batched(
            || exchange_sim(no_fading, 1000),
            |mut sim| sim.run_until(2_000_000),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_dense_cell(c: &mut Criterion) {
    // 40 stations + 1 beaconing AP: the wardriving segment workload.
    let mut g = c.benchmark_group("simulator_dense");
    g.sample_size(10);
    g.bench_function("segment_40_nodes_1s", |b| {
        b.iter_batched(
            || {
                let mut sim = Simulator::new(SimConfig::default(), 9);
                let ap_mac: MacAddr = "68:02:b8:00:00:01".parse().unwrap();
                sim.add_node(StationConfig::access_point(ap_mac, "Cell"), (0.0, 0.0));
                for i in 0..40u8 {
                    let mac = MacAddr::new([0x02, 0, 0, 0, 1, i]);
                    let angle = i as f64 * 0.157;
                    sim.add_node(
                        StationConfig::client(mac),
                        (15.0 * angle.cos(), 15.0 * angle.sin()),
                    );
                }
                sim
            },
            |mut sim| sim.run_until(1_000_000),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn bench_medium_ablation(c: &mut Criterion) {
    use polite_wifi_sim::medium::{Medium, Transmission};
    use polite_wifi_sim::NodeId;
    let mut g = c.benchmark_group("medium");
    g.throughput(Throughput::Elements(1));
    const CH6: polite_wifi_sim::medium::Tune = (polite_wifi_phy::band::Band::Ghz2, 6);
    let mut m = Medium::new(MediumConfig::default(), 3);
    m.begin_transmission(
        Transmission {
            from: NodeId(9),
            start_us: 0,
            end_us: 1_000_000_000,
            tx_power_dbm: 20.0,
            tune: CH6,
        },
        None,
    );
    g.bench_function("evaluate_rx_with_interferer", |b| {
        let mut t = 0u64;
        b.iter(|| {
            t += 500;
            m.evaluate_rx(
                NodeId(0),
                NodeId(1),
                t,
                t + 400,
                20.0,
                8.0,
                28,
                BitRate::Mbps1,
                CH6,
                |_| 40.0,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_exchanges,
    bench_dense_cell,
    bench_medium_ablation
);
criterion_main!(benches);
