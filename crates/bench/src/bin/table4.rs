//! Table 4: evaluation of SLiMFast's optimizer. For every dataset and training fraction we
//! report the accuracy of SLiMFast-ERM and SLiMFast-EM, which the optimizer picked, whether
//! the pick was correct, and the relative difference. A τ-robustness sweep follows.

use slimfast_bench::{
    accuracy_diff_pct, all_datasets, protocol_for, scale_from_env, slimfast_config_for,
    HARNESS_SEED,
};
use slimfast_core::{OptimizerDecision, SlimFast};
use slimfast_data::{FeatureMatrix, FusionInput, FusionMethod, SplitPlan};

fn main() {
    let scale = scale_from_env();
    let protocol = protocol_for(scale);
    let config = slimfast_config_for(scale);
    println!(
        "Table 4 (scale: {scale:?}, {} repetitions per cell, tau = {})\n",
        protocol.repetitions, config.optimizer_threshold
    );
    println!(
        "{:<16}{:>8}{:>12}{:>10}{:>10}{:>14}{:>14}",
        "Dataset", "TD(%)", "Decision", "Correct", "Diff(%)", "SLiMFast-ERM", "SLiMFast-EM"
    );

    let mut correct_decisions = 0usize;
    let mut total_decisions = 0usize;
    for instance in all_datasets(HARNESS_SEED) {
        eprintln!("[table4] running {} ...", instance.name);
        let _empty = FeatureMatrix::empty(instance.dataset.num_sources());
        for &fraction in &protocol.train_fractions {
            let plan = SplitPlan::new(fraction, protocol.seed);
            let mut erm_sum = 0.0;
            let mut em_sum = 0.0;
            let mut decisions_em = 0usize;
            let mut reps = 0usize;
            for rep in 0..protocol.repetitions {
                let Ok(split) = plan.draw(&instance.truth, rep) else {
                    continue;
                };
                let train = split.train_truth(&instance.truth);
                let input = FusionInput::new(&instance.dataset, &instance.features, &train);

                let erm = SlimFast::erm(config.clone()).fuse(&input);
                let em = SlimFast::em(config.clone()).fuse(&input);
                erm_sum += erm
                    .assignment
                    .accuracy_against(&instance.truth, &split.test);
                em_sum += em.assignment.accuracy_against(&instance.truth, &split.test);
                let report = SlimFast::new(config.clone()).plan(&input);
                if report.decision == OptimizerDecision::Em {
                    decisions_em += 1;
                }
                reps += 1;
            }
            let reps_f = reps.max(1) as f64;
            let erm_acc = erm_sum / reps_f;
            let em_acc = em_sum / reps_f;
            let decision = if decisions_em * 2 > reps {
                OptimizerDecision::Em
            } else {
                OptimizerDecision::Erm
            };
            let best_is_em = em_acc > erm_acc;
            let chosen_em = decision == OptimizerDecision::Em;
            let diff = accuracy_diff_pct(erm_acc, em_acc);
            // A decision is "correct" when it picks the better algorithm or the two are
            // effectively tied (within 1% relative), mirroring the paper's reading.
            let correct = chosen_em == best_is_em || diff < 1.0;
            correct_decisions += correct as usize;
            total_decisions += 1;
            println!(
                "{:<16}{:>8.1}{:>12}{:>10}{:>10.1}{:>14.3}{:>14.3}",
                instance.name,
                fraction * 100.0,
                if chosen_em { "EM" } else { "ERM" },
                if correct { "Y" } else { "N" },
                diff,
                erm_acc,
                em_acc
            );
        }
    }
    println!(
        "\nOptimizer picked the better (or tied) algorithm in {correct_decisions}/{total_decisions} cells"
    );

    // τ-robustness sweep (Section 5.2.3): how the decision changes with the threshold.
    println!("\nThreshold-robustness sweep (decision per dataset at 5% training):");
    print!("{:<16}", "Dataset");
    let taus = [0.01, 0.1, 0.5, 1.0];
    for tau in taus {
        print!("{:>12}", format!("tau={tau}"));
    }
    println!();
    for instance in all_datasets(HARNESS_SEED) {
        print!("{:<16}", instance.name);
        let split = SplitPlan::new(0.05, protocol.seed)
            .draw(&instance.truth, 0)
            .unwrap();
        let train = split.train_truth(&instance.truth);
        for tau in taus {
            let mut tau_config = config.clone();
            tau_config.optimizer_threshold = tau;
            let report = SlimFast::new(tau_config).plan(&FusionInput::new(
                &instance.dataset,
                &instance.features,
                &train,
            ));
            print!(
                "{:>12}",
                match report.decision {
                    OptimizerDecision::Em => "EM",
                    OptimizerDecision::Erm => "ERM",
                }
            );
        }
        println!();
    }
}
