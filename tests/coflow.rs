//! Coflow subsystem integration tests: the CCT ≥ max-member-FCT property, and the
//! differential check of packet-level coflow completion times against the fluid-model
//! lower bound ([`pdq_flowsim::coflow_cct_lower_bounds`]).

use std::collections::BTreeMap;

use proptest::prelude::*;

use pdq::{install_pdq, Discipline, PdqParams};
use pdq_flowsim::coflow_cct_lower_bounds;
use pdq_netsim::{CoflowId, FlowSpec, SimConfig, SimTime, Simulator};
use pdq_topology::single_bottleneck;
use pdq_workloads::Coflow;

/// Run one packet-level coflow workload under coflow-aware PDQ: every group's members
/// all target the single-bottleneck receiver and arrive at t = 0, so the fluid-model
/// prefix-sum bound over the shared 1 Gbps link applies to any schedule. Returns
/// per-coflow (CCT, max member FCT) in seconds, keyed by coflow id.
fn run_coflows(groups: &[Vec<u64>]) -> BTreeMap<u64, (f64, f64)> {
    let width = groups.iter().map(|g| g.len()).max().unwrap_or(1);
    let topo = single_bottleneck(width, Default::default());
    let receiver = *topo.hosts.last().unwrap();
    let cfg = SimConfig {
        max_sim_time: SimTime::from_secs(20),
        ..SimConfig::default()
    };
    let mut sim = Simulator::new(topo.net.clone(), cfg);
    install_pdq(&mut sim, &PdqParams::coflow(), &Discipline::Exact);
    let mut id = 1u64;
    for (k, sizes) in groups.iter().enumerate() {
        let members: Vec<FlowSpec> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| {
                let spec = FlowSpec::new(id, topo.hosts[i], receiver, bytes);
                id += 1;
                spec
            })
            .collect();
        let coflow = Coflow::new(CoflowId(k as u64 + 1), SimTime::ZERO, None, members);
        for m in coflow.members {
            sim.add_flow(m);
        }
    }
    let res = sim.run();
    let mut per_coflow: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
    for rec in &res.flows {
        let tag = rec.spec.coflow().expect("every flow is tagged");
        let done = rec
            .completed_at
            .unwrap_or_else(|| panic!("flow {:?} did not complete", rec.spec.id))
            .as_secs_f64();
        let entry = per_coflow.entry(tag.id.value()).or_insert((0.0, 0.0));
        entry.0 = entry.0.max(done); // CCT: the group's last completion
        entry.1 = entry.1.max(done); // max member FCT (same arrival t = 0)
    }
    per_coflow
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Two invariants for arbitrary same-arrival coflow mixes on one bottleneck:
    /// each coflow's CCT is at least its slowest member's FCT, and the sorted CCT
    /// vector dominates the fluid-model prefix-sum lower bound elementwise — no
    /// packet-level schedule may beat the work-conservation bound.
    #[test]
    fn cct_dominates_member_fcts_and_the_fluid_bound(
        groups in prop::collection::vec(
            prop::collection::vec(20_000u64..300_000, 1..4),
            1..5,
        ),
    ) {
        let per_coflow = run_coflows(&groups);
        prop_assert_eq!(per_coflow.len(), groups.len());
        let mut ccts: Vec<f64> = Vec::new();
        for (cct, max_fct) in per_coflow.values() {
            prop_assert!(cct + 1e-12 >= *max_fct,
                "CCT {cct} below a member FCT {max_fct}");
            ccts.push(*cct);
        }
        ccts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let works: Vec<f64> = groups
            .iter()
            .map(|g| g.iter().map(|&b| b as f64 * 8.0 / 1e9).sum())
            .collect();
        let bounds = coflow_cct_lower_bounds(&works);
        for (i, (&cct, &bound)) in ccts.iter().zip(bounds.iter()).enumerate() {
            prop_assert!(cct + 1e-9 >= bound,
                "{i}-th smallest CCT {cct} beats the fluid bound {bound}");
        }
    }
}

/// The committed CI spec is exactly the quick deadline-constrained coflow scenario,
/// so the CI run-spec smoke test and the in-process experiment exercise the same run.
#[test]
fn committed_coflow_spec_matches_the_code() {
    use pdq_experiments::{coflow::coflow_scenario, Scale};
    use pdq_workloads::DeadlineDist;

    let committed = pdq_scenario::Scenario::from_spec(include_str!("../specs/coflow_quick.scn"))
        .expect("committed spec parses");
    assert_eq!(
        committed,
        coflow_scenario(Scale::Quick, "cpdq", DeadlineDist::exponential_ms(40), 1)
    );
}

/// Differential test against the fluid model, pinned: three concurrent coflows with
/// known work (0.8 Mb, 1.2 Mb, 3.2 Mb) on the shared 1 Gbps bottleneck. The sorted
/// packet-level CCTs must dominate the prefix-sum bound [0.8 ms, 2.0 ms, 5.2 ms]
/// and stay within the protocol's overhead envelope of it (headers, handshake,
/// switchovers) — the pinned factor guards against silent efficiency regressions.
#[test]
fn pinned_coflow_ccts_track_the_fluid_bound() {
    let groups: Vec<Vec<u64>> = vec![
        vec![50_000, 50_000],           // 0.8 Mb of work
        vec![100_000, 30_000, 20_000],  // 1.2 Mb
        vec![250_000, 100_000, 50_000], // 3.2 Mb
    ];
    let per_coflow = run_coflows(&groups);
    let mut ccts: Vec<f64> = per_coflow.values().map(|&(cct, _)| cct).collect();
    ccts.sort_by(|a, b| a.partial_cmp(b).unwrap());

    let works: Vec<f64> = groups
        .iter()
        .map(|g| g.iter().map(|&b| b as f64 * 8.0 / 1e9).sum())
        .collect();
    let bounds = coflow_cct_lower_bounds(&works);
    assert_eq!(bounds.len(), 3);
    assert!((bounds[0] - 0.0008).abs() < 1e-12, "{bounds:?}");
    assert!((bounds[1] - 0.0020).abs() < 1e-12, "{bounds:?}");
    assert!((bounds[2] - 0.0052).abs() < 1e-12, "{bounds:?}");

    for (i, (&cct, &bound)) in ccts.iter().zip(bounds.iter()).enumerate() {
        assert!(
            cct >= bound,
            "{i}-th smallest CCT {cct} beats the fluid bound {bound}"
        );
        assert!(
            cct <= bound * 1.25 + 0.001,
            "{i}-th smallest CCT {cct} too far above the fluid bound {bound}"
        );
    }
}
