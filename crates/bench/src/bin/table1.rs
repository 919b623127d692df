//! Table 1: parameters/statistics of the four (simulated) evaluation datasets.

use slimfast_bench::{all_datasets, HARNESS_SEED};
use slimfast_data::DatasetStats;

fn main() {
    let datasets = all_datasets(HARNESS_SEED);
    let stats: Vec<(String, DatasetStats)> = datasets
        .iter()
        .map(|inst| {
            (
                inst.name.clone(),
                DatasetStats::compute(&inst.dataset, &inst.features, &inst.truth),
            )
        })
        .collect();

    println!("Table 1: Parameters of the data used for evaluation (simulated datasets)\n");
    print!("{:<24}", "Parameter");
    for (name, _) in &stats {
        print!("{name:>16}");
    }
    println!();

    let rows = [
        "# Sources",
        "# Objects",
        "Available GrdTruth",
        "# Observations",
        "# Domain Features",
        "# Feature Values",
        "Avg. Src. Acc.",
        "Avg. Obsrvs per Obj.",
        "Avg. Obsrvs per Src.",
    ];
    for (row_idx, label) in rows.iter().enumerate() {
        print!("{label:<24}");
        for (i, (_, stat)) in stats.iter().enumerate() {
            let mut rendered = stat.rows()[row_idx].1.clone();
            // The paper reports 7/7/4/4 *base* feature families; our feature matrices store
            // the discretized indicators, so show the base-family count here.
            if *label == "# Domain Features" {
                rendered = datasets[i].num_base_features.to_string();
            }
            print!("{rendered:>16}");
        }
        println!();
    }
    println!();
    println!(
        "Note: '# Feature Values' counts non-zero feature-matrix entries; Genomics' average\n\
         source accuracy is withheld because sources average {:.2} observations each, too few\n\
         to estimate reliably (matching the paper's footnote).",
        stats[3].1.avg_observations_per_source
    );

    println!();
    println!("Storage footprint (columnar CSR layout vs the pre-CSR nested-Vec estimate)\n");
    println!(
        "{:<16}{:>14}{:>18}{:>20}{:>10}{:>12}{:>10}{:>12}{:>12}",
        "Dataset",
        "Claims",
        "CSR B/claim",
        "Nested B/claim",
        "Saved",
        "Delta B",
        "Dead",
        "Compactions",
        "Name B"
    );
    for inst in &datasets {
        let storage = inst.dataset.storage_stats();
        let csr = storage.bytes_per_claim();
        let nested = storage.nested_bytes_per_claim();
        println!(
            "{:<16}{:>14}{:>18.1}{:>20.1}{:>9.0}%{:>12}{:>10}{:>12}{:>12}",
            inst.name,
            storage.live_claims,
            csr,
            nested,
            (1.0 - csr / nested.max(f64::MIN_POSITIVE)) * 100.0,
            storage.delta_bytes,
            storage.dead_claims,
            storage.compactions,
            storage.name_bytes,
        );
    }
    println!(
        "\nDelta B / Dead / Compactions report the incremental-maintenance state: bytes in\n\
         the append-side delta log, tombstoned claims awaiting compaction, and compactions\n\
         absorbed — all zero for these freshly built batch instances. Name B is the memory\n\
         of the source, object and value names (arena, offsets and hash table), which the\n\
         B/claim columns leave out."
    );
}
