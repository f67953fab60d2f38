//! Quickstart: run the full three-level quantitative study for one workload
//! on the emulated disaggregated-memory machine and print the guidance.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use dismem::core::{DeploymentAdvice, PlacementPriority, QuantitativeStudy};
use dismem::sim::MachineConfig;
use dismem::workloads::WorkloadKind;

fn main() {
    // The emulated platform: node-local DDR (73 GB/s, 111 ns) plus a
    // rack-level memory pool (34 GB/s, 202 ns over an 85 GB/s raw link),
    // with caches scaled to the proxy workloads' footprints.
    let machine = MachineConfig::scaled_testbed();

    // Study Hypre — the paper's most interference-sensitive workload — with
    // 50% of its footprint in node-local memory.
    let study = QuantitativeStudy::new(WorkloadKind::Hypre.instantiate_tiny(), machine);
    let report = study.full_study(&[0.5]);

    println!("== Level 1: general characteristics ==");
    let l1 = &report.level1;
    println!(
        "  footprint: {:.1} MiB",
        l1.footprint_bytes as f64 / (1 << 20) as f64
    );
    for p in &l1.phases {
        println!(
            "  {:<12} AI = {:>6.3} flop/B, {:>7.2} Gflop/s, {:>6.1} GB/s",
            p.label, p.arithmetic_intensity, p.gflops, p.bandwidth_gbs
        );
    }
    println!(
        "  prefetching: accuracy {:.0}%, coverage {:.0}%, performance gain {:.0}%",
        100.0 * l1.prefetch.accuracy,
        100.0 * l1.prefetch.coverage,
        100.0 * l1.prefetch.performance_gain
    );

    println!("\n== Level 2: multi-tier memory access (50% of the footprint fits locally) ==");
    let l2 = &report.level2[0];
    println!(
        "  remote capacity ratio {:.0}%, remote bandwidth ratio {:.0}%",
        100.0 * l2.remote_capacity_ratio,
        100.0 * l2.remote_bandwidth_ratio
    );
    for p in &l2.phases {
        println!(
            "  {:<12} remote access ratio {:.0}%",
            p.label,
            100.0 * p.remote_access_ratio
        );
    }

    println!("\n== Level 3: interference on the memory pool ==");
    for p in &report.level3[0].sensitivity {
        println!(
            "  LoI = {:>2.0}%  relative performance {:.3}",
            p.loi_percent, p.relative_performance
        );
    }

    println!("\n== Guidance ==");
    let guidance = &report.guidance;
    match &guidance.placement {
        PlacementPriority::LittleOpportunity => {
            println!("  placement: access ratios already match the tier design")
        }
        PlacementPriority::OptimizeDataPlacement {
            phases,
            hottest_remote_object,
        } => {
            println!("  placement: optimize phases {phases:?}");
            if let Some(obj) = hottest_remote_object {
                println!("             hottest pool-resident object: '{obj}'");
            }
        }
    }
    match guidance.deployment {
        DeploymentAdvice::LeveragePoolCapacity => {
            println!("  deployment: low sensitivity — take capacity from the pool, use fewer nodes")
        }
        DeploymentAdvice::BalancedWithInterferenceAwareScheduling => {
            println!("  deployment: moderate sensitivity — co-locate with interference awareness")
        }
        DeploymentAdvice::MinimisePoolExposure => {
            println!("  deployment: high sensitivity — minimise pool exposure (more nodes / pin data locally)")
        }
    }
    for note in &guidance.notes {
        println!("  note: {note}");
    }
}
