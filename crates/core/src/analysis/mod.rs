//! Instance analysis: feasibility characterization, attack-suite resilience
//! checking, and the executable lower-bound (scenario-swap) construction.

pub mod complexity;
pub mod coupled_attack;
pub mod feasibility;
pub mod placement;
pub mod report;
pub mod resilience;
pub mod tolerance;

pub use complexity::{pka_honest_messages, zcpa_honest_messages, TrailBudgetExceeded};
pub use coupled_attack::{
    run_coupled_attack, run_coupled_attack_observed, CoupledAttackError, CoupledAttackReport,
};
pub use feasibility::{
    characterize, minimal_knowledge_radius, quick_unsolvable, solvable_receivers, Characterization,
};
pub use placement::{minimal_upgrade_set, mixed_views_instance};
pub use report::{report, InstanceReport, ProtocolOutcome};
pub use resilience::{pka_attack_suite, zcpa_attack_suite, SuiteReport};
pub use tolerance::{dolev_bound, max_tolerable_threshold};
