//! `appgen` — seeded random generation of complete PEDF dataflow
//! applications, plus the differential-testing oracle harness that
//! cross-checks the static analyzers (dfa/bcv/sched) against the
//! simulator's observed behavior and the replay engine's fixpoint.

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod seed;
pub mod shrink;
pub mod spec;

pub use corpus::{load_dir, Scenario, Status};
pub use gen::generate;
pub use oracle::{
    capacity_arms, check_parking, check_spec, explore_probe, observe, replay_round_trip,
    static_pass, CapacityArms, CheckReport, Divergence, Observed, RoundTrip,
};
pub use seed::{iter_seed, parse_seed};
pub use shrink::shrink;
pub use spec::{AppSpec, FilterSpec, KernelOp, LinkSpec, ModuleSpec};

#[cfg(test)]
mod smoke {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn tiny_chain_builds_boots_and_completes() {
        let spec = AppSpec {
            seed: 1,
            steps: 4,
            shape: "chain".into(),
            modules: vec![spec::ModuleSpec {
                filters: vec![
                    FilterSpec {
                        ops: vec![KernelOp::Push { link: 0, count: 1 }],
                    },
                    FilterSpec {
                        ops: vec![
                            KernelOp::Pop { link: 0, count: 1 },
                            KernelOp::Push { link: 1, count: 1 },
                        ],
                    },
                    FilterSpec {
                        ops: vec![KernelOp::Pop { link: 1, count: 1 }],
                    },
                ],
            }],
            links: vec![
                LinkSpec {
                    from: (0, 0),
                    to: (0, 1),
                    cap: 2,
                },
                LinkSpec {
                    from: (0, 1),
                    to: (0, 2),
                    cap: 2,
                },
            ],
        };
        spec.validate().unwrap();
        let (mut sys, app) = mind::build_with_caps(
            &spec.to_adl(),
            &spec.to_sources(),
            p2012::PlatformConfig::default(),
            &BTreeMap::new(),
        )
        .unwrap_or_else(|e| panic!("build failed: {e}\n--- adl ---\n{}", spec.to_adl()));
        for m in 0..spec.modules.len() {
            let id = app.actor(&format!("m{m}")).expect("module actor");
            sys.runtime.set_max_steps(id, spec.steps);
        }
        sys.boot(app.boot_entry).unwrap();
        let finished = sys.run_to_quiescence(2_000_000);
        assert_eq!(sys.first_fault(), None);
        assert!(finished, "tiny chain must reach quiescence");
    }
}
