//! Integration tests of transient-straggler handling (paper §VI-B3).

use sync_switch::prelude::*;
use sync_switch_core::SimBackend as Backend;

fn run(
    setup: &ExperimentSetup,
    online: OnlinePolicyKind,
    scenario: StragglerScenario,
    seed: u64,
) -> TrainingReport {
    let policy = SyncSwitchPolicy::paper_policy(setup).with_online(online);
    let mut backend = Backend::new(setup, seed).with_scenario(scenario);
    ClusterManager::new(policy)
        .run(&mut backend, setup)
        .expect("valid policy")
}

fn mean<I: IntoIterator<Item = f64>>(xs: I) -> f64 {
    let v: Vec<f64> = xs.into_iter().collect();
    v.iter().sum::<f64>() / v.len() as f64
}

#[test]
fn elastic_policy_preserves_accuracy_and_beats_baseline() {
    let setup = ExperimentSetup::one();
    let seeds = [1u64, 2, 3];
    let scenario = || StragglerScenario::moderate(60.0, 150.0);

    let baseline: Vec<TrainingReport> = seeds
        .iter()
        .map(|&s| run(&setup, OnlinePolicyKind::Baseline, scenario(), s))
        .collect();
    let elastic: Vec<TrainingReport> = seeds
        .iter()
        .map(|&s| run(&setup, OnlinePolicyKind::Elastic, scenario(), s))
        .collect();

    let base_acc = mean(baseline.iter().map(|r| r.converged_accuracy.unwrap()));
    let elastic_acc = mean(elastic.iter().map(|r| r.converged_accuracy.unwrap()));
    assert!(
        (base_acc - elastic_acc).abs() < 0.006,
        "elastic must preserve accuracy: {base_acc} vs {elastic_acc}"
    );

    let base_t = mean(baseline.iter().map(|r| r.total_time_s));
    let elastic_t = mean(elastic.iter().map(|r| r.total_time_s));
    assert!(
        elastic_t < base_t,
        "elastic should be faster: {elastic_t} vs {base_t} (paper: 1.11x)"
    );
    // Both injected stragglers were evicted, then the cluster restored.
    for r in &elastic {
        let evicted: Vec<usize> = r.removed_workers.iter().map(|&(_, w)| w).collect();
        assert!(
            evicted.contains(&0) && evicted.contains(&1),
            "evicted {evicted:?}"
        );
    }
}

#[test]
fn greedy_policy_costs_accuracy() {
    let setup = ExperimentSetup::one();
    let scenario = || StragglerScenario::mild(150.0);
    let baseline = run(&setup, OnlinePolicyKind::Baseline, scenario(), 5);
    let greedy = run(&setup, OnlinePolicyKind::Greedy, scenario(), 5);
    // Two extra switches (BSP→ASP→BSP) around the episode.
    assert!(
        greedy.switches.len() >= 3,
        "greedy should add switches: {}",
        greedy.switches.len()
    );
    let base_acc = baseline.converged_accuracy.unwrap();
    let greedy_acc = greedy.converged_accuracy.unwrap();
    assert!(
        base_acc - greedy_acc > 0.008,
        "greedy costs accuracy (paper ~2%): {base_acc} vs {greedy_acc}"
    );
}

#[test]
fn straggler_free_runs_are_untouched_by_online_policies() {
    // With no stragglers, all three online policies behave identically in
    // switches, evictions, and accuracy.
    let setup = ExperimentSetup::one();
    for online in OnlinePolicyKind::all() {
        let r = run(&setup, online, StragglerScenario::none(), 7);
        assert_eq!(r.switches.len(), 1, "{online}: only the planned switch");
        assert!(r.removed_workers.is_empty(), "{online}: no evictions");
        let acc = r.converged_accuracy.unwrap();
        assert!((acc - 0.919).abs() < 0.012, "{online}: accuracy {acc}");
    }
}

#[test]
fn stragglers_after_the_switch_are_harmless() {
    // An episode landing in the ASP phase should not trigger any online
    // reaction and should barely affect total time (paper: once in ASP,
    // the job is immune).
    let setup = ExperimentSetup::one();
    let late = StragglerScenario {
        name: "late".into(),
        episodes: vec![sync_switch_cluster::StragglerEpisode {
            worker: 2,
            start_s: 1_200.0, // ASP phase (switch ends ~700s incl. init)
            duration_s: 100.0,
            added_latency_s: 0.030,
        }],
    };
    let clean = run(
        &setup,
        OnlinePolicyKind::Elastic,
        StragglerScenario::none(),
        9,
    );
    let slowed = run(&setup, OnlinePolicyKind::Elastic, late, 9);
    assert!(
        slowed.removed_workers.is_empty(),
        "no eviction after switch"
    );
    assert_eq!(slowed.switches.len(), 1);
    let ratio = slowed.total_time_s / clean.total_time_s;
    assert!(
        ratio < 1.05,
        "late straggler should cost <5% time, cost {ratio}"
    );
}

#[test]
fn baseline_pays_for_stragglers_under_bsp() {
    let setup = ExperimentSetup::one();
    let clean = run(
        &setup,
        OnlinePolicyKind::Baseline,
        StragglerScenario::none(),
        11,
    );
    let slowed = run(
        &setup,
        OnlinePolicyKind::Baseline,
        StragglerScenario::moderate(60.0, 150.0),
        11,
    );
    assert!(
        slowed.total_time_s > clean.total_time_s * 1.05,
        "BSP-phase stragglers must cost the baseline time: {} vs {}",
        slowed.total_time_s,
        clean.total_time_s
    );
}

#[test]
fn elastic_evicts_the_mild_straggler_at_every_detect_chunk() {
    // The detection chunk trades reaction time against noisier throughput
    // samples: at every chunk size the straggler is still caught, and a
    // finer chunk catches it no later than a coarser one.
    let setup = ExperimentSetup::one();
    let mut previous: Option<(u64, u64)> = None;
    for chunk in [16u64, 64, 256] {
        let mut policy =
            SyncSwitchPolicy::paper_policy(&setup).with_online(OnlinePolicyKind::Elastic);
        policy.detect_chunk = chunk;
        let mut backend =
            Backend::new(&setup, 0xAB7C).with_scenario(StragglerScenario::mild(150.0));
        let r = ClusterManager::new(policy)
            .run(&mut backend, &setup)
            .expect("valid policy");
        let &(step, _) = r
            .removed_workers
            .first()
            .unwrap_or_else(|| panic!("chunk {chunk}: the straggler is never evicted"));
        if let Some((finer, finer_step)) = previous {
            assert!(
                finer_step <= step,
                "chunk {finer} evicts at step {finer_step}, later than chunk {chunk} at {step}"
            );
        }
        previous = Some((chunk, step));
    }
}
