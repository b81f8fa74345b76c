//! Case study 1 in miniature: the influence of thread pinning on STREAM
//! triad bandwidth (Figures 4 and 5), comparing unpinned runs against
//! likwid-pin placements on the Westmere EP node.
//!
//! Run with `cargo run --release --example stream_pinning`.

use likwid_suite::affinity::pinlist::scatter_placement;
use likwid_suite::workloads::openmp::{CompilerPersonality, PlacementPolicy};
use likwid_suite::workloads::stream::StreamTriad;
use likwid_suite::workloads::Experiment;
use likwid_suite::x86_machine::MachinePreset;

fn main() {
    let preset = MachinePreset::WestmereEp2S;
    let personality = CompilerPersonality::IntelIcc;
    // 50 samples per thread count, all drawn from base seed 42.
    let stats = |threads: usize, policy: PlacementPolicy| {
        Experiment::on(preset)
            .personality(personality)
            .placement(policy)
            .threads(threads)
            .samples(50)
            .seed(42)
            .run(&StreamTriad::new(personality))
            .expect("a counter-less experiment cannot fail")
            .bandwidth_stats()
            .expect("at least one sample")
    };

    println!("STREAM triad on {}, Intel icc personality", preset.id());
    println!(
        "{:>7} | {:>28} | {:>28}",
        "threads", "unpinned median [q1..q3]", "likwid-pin median [q1..q3]"
    );
    for threads in [1usize, 2, 4, 6, 8, 12, 16, 24] {
        let unpinned = stats(threads, PlacementPolicy::Unpinned);
        // The paper's pinned runs: round robin across sockets, physical
        // cores before SMT threads.
        let pinned = stats(
            threads,
            PlacementPolicy::LikwidPin(scatter_placement(&preset.topology(), threads)),
        );
        println!(
            "{:7} | {:10.0} [{:7.0}..{:7.0}] | {:10.0} [{:7.0}..{:7.0}]  MB/s",
            threads, unpinned.median, unpinned.q1, unpinned.q3, pinned.median, pinned.q1, pinned.q3
        );
    }
    println!();
    println!(
        "Pinning removes the placement lottery: the pinned quartiles collapse onto the median,"
    );
    println!(
        "while unpinned runs spread widely — the effect shown in Figures 4 and 5 of the paper."
    );
}
