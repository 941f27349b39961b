//! The coverage-guided search loop.
//!
//! [`execute`] runs one [`AttackGenome`] against one instance through
//! [`NetRunner`] and classifies the outcome; [`Hunter`] drives a seeded,
//! fully deterministic candidate loop over that executor, using
//! [`Signature`] novelty as its retention signal and greedily shrinking
//! every novel violation before reporting it. Determinism is load-bearing:
//! the same `(instance, input, HuntConfig)` always explores the same
//! candidates in the same order and reports byte-identical minimized
//! genomes, which is what lets CI re-run a hunt and compare artifacts.

use std::collections::{BTreeMap, BTreeSet};

use rand::Rng;
use rmt_core::protocols::attacks::{pka_adversary, zcpa_adversary};
use rmt_core::protocols::{rmt_pka::RmtPka, zcpa::ZCpa};
use rmt_core::{Instance, Value};
use rmt_net::{FaultStats, NetRunner, PlanError, Termination};
use rmt_obs::{Counter, Registry, VecObserver};

use crate::coverage::Signature;
use crate::genome::{mutation_rng, AttackGenome, Behaviour};

/// How one execution ended, from the receiver's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The receiver decided the dealer's input: the protocol held.
    Safe,
    /// The receiver decided a *different* value — a safety violation, the
    /// one thing the theorems forbid outright.
    Wrong,
    /// The receiver never decided — a liveness violation (expected under
    /// enough suppression; the frontier in `BENCH_E14.json` charts where
    /// it starts).
    Stalled,
}

impl Verdict {
    /// Snake-case wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Safe => "safe",
            Verdict::Wrong => "wrong",
            Verdict::Stalled => "stalled",
        }
    }

    /// Parses a wire name; `at` prefixes the error path.
    pub fn parse(s: &str, at: &str) -> Result<Self, PlanError> {
        match s {
            "safe" => Ok(Verdict::Safe),
            "wrong" => Ok(Verdict::Wrong),
            "stalled" => Ok(Verdict::Stalled),
            _ => Err(PlanError::new(at, format!("unknown verdict {s:?}"))),
        }
    }
}

/// Everything one execution produced that the hunt consumes.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// The classification.
    pub verdict: Verdict,
    /// Rounds the run took.
    pub rounds: u32,
    /// The network's fault account.
    pub faults: FaultStats,
    /// Quiesced or stalled.
    pub termination: Termination,
    /// The coverage signature.
    pub signature: Signature,
}

/// Runs `genome` against `inst` with the dealer holding `input`, observed.
///
/// The protocol is chosen by the genome's behaviour tag; everything else —
/// corruption set, fault plan, suppression — comes from the genome. Pure in
/// its arguments: same triple, same report.
pub fn execute(inst: &Instance, input: Value, genome: &AttackGenome) -> RunReport {
    let corrupted = genome.corruption(inst);
    let mut observer = VecObserver::new();
    let (decision, rounds, faults, termination, decided) = match genome.behaviour {
        Behaviour::Pka(attack) => {
            let mut runner = NetRunner::new(
                inst.graph().clone(),
                |v| RmtPka::node(inst, v, input),
                pka_adversary(inst, input, corrupted, attack, genome.attack_seed),
                genome.plan.clone(),
            );
            if let Some(s) = &genome.suppression {
                runner = runner.with_message_adversary(s.clone());
            }
            let out = runner.run_observed(&mut observer);
            let decided = inst
                .graph()
                .nodes()
                .iter()
                .filter(|&v| out.decision(v).is_some())
                .count();
            (
                out.decision(inst.receiver()),
                out.metrics.rounds,
                out.faults,
                out.termination,
                decided,
            )
        }
        Behaviour::Zcpa(attack) => {
            let mut runner = NetRunner::new(
                inst.graph().clone(),
                |v| ZCpa::node(inst, v, input),
                zcpa_adversary(input, corrupted, attack),
                genome.plan.clone(),
            );
            if let Some(s) = &genome.suppression {
                runner = runner.with_message_adversary(s.clone());
            }
            let out = runner.run_observed(&mut observer);
            let decided = inst
                .graph()
                .nodes()
                .iter()
                .filter(|&v| out.decision(v).is_some())
                .count();
            (
                out.decision(inst.receiver()),
                out.metrics.rounds,
                out.faults,
                out.termination,
                decided,
            )
        }
    };
    let verdict = match decision {
        Some(d) if d == input => Verdict::Safe,
        Some(_) => Verdict::Wrong,
        None => Verdict::Stalled,
    };
    // Signature::of_run only needs faults/termination, which both arms
    // already extracted; synthesize the features directly.
    let signature = signature_from_parts(&observer, &faults, &termination, verdict, decided);
    RunReport {
        verdict,
        rounds,
        faults,
        termination,
        signature,
    }
}

fn signature_from_parts(
    observer: &VecObserver,
    faults: &FaultStats,
    termination: &Termination,
    verdict: Verdict,
    decided: usize,
) -> Signature {
    Signature::distill(&observer.events, faults, termination, verdict, decided)
}

/// Knobs of one hunt.
#[derive(Clone, Debug)]
pub struct HuntConfig {
    /// Master seed: the only entropy source of the whole search.
    pub seed: u64,
    /// Candidate executions to spend (excluding shrink probes).
    pub candidates: u32,
    /// Maximum shrink probes per violation.
    pub shrink_budget: u32,
    /// Behaviours to seed the pool with (each protocol's catalogue entry
    /// point; mutation cycles within a protocol from there).
    pub behaviours: Vec<Behaviour>,
}

/// A found-and-minimized violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The minimized genome.
    pub genome: AttackGenome,
    /// Its verdict (never `Safe`).
    pub verdict: Verdict,
    /// Complexity of the genome as first found, before shrinking.
    pub found_complexity: u64,
    /// Shrink probes it took to minimize.
    pub shrink_steps: u32,
}

/// The hunt's result.
#[derive(Clone, Debug)]
pub struct HuntReport {
    /// Minimized violations, deduplicated by genome, in discovery order.
    pub violations: Vec<Violation>,
    /// Candidates executed.
    pub executed: u32,
    /// Candidates whose signature contributed an unseen feature.
    pub novel: u32,
    /// Verdict tallies over all candidates (safe, wrong, stalled).
    pub tally: (u32, u32, u32),
}

/// The coverage-guided searcher.
///
/// Counter handles are acquired in [`Hunter::new`] so every `hunt.*` metric
/// registers (at zero) even for hunts that find nothing — the metrics
/// catalogue test relies on names being present, not lucky.
pub struct Hunter {
    executed: Counter,
    novel: Counter,
    safe: Counter,
    wrong: Counter,
    stalled: Counter,
    minimized: Counter,
    shrink_steps: Counter,
}

impl Hunter {
    /// Creates a hunter reporting into `registry`.
    pub fn new(registry: &Registry) -> Self {
        Hunter {
            executed: registry.counter("hunt.candidates_executed"),
            novel: registry.counter("hunt.novel_signatures"),
            safe: registry.counter("hunt.safe"),
            wrong: registry.counter("hunt.wrong"),
            stalled: registry.counter("hunt.stalled"),
            minimized: registry.counter("hunt.violations_minimized"),
            shrink_steps: registry.counter("hunt.shrink_steps"),
        }
    }

    /// Runs the full search against one instance.
    pub fn hunt(&self, inst: &Instance, input: Value, config: &HuntConfig) -> HuntReport {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        // The mutation pool: genomes that taught us something. Violations
        // are keyed by their minimized JSON so re-finding the same attack
        // through a different mutation path doesn't duplicate the corpus.
        let mut pool: Vec<AttackGenome> = Vec::new();
        let mut found: BTreeMap<String, Violation> = BTreeMap::new();
        let mut order: Vec<String> = Vec::new();
        let mut executed = 0u32;
        let mut novel = 0u32;
        let mut tally = (0u32, 0u32, 0u32);

        // Seed pool: each behaviour bare, plus a focused suppressor and a
        // lossy-network variant — cheap hand-picked starting corners so the
        // first mutations explore from somewhere interesting.
        let mut seeds: Vec<AttackGenome> = Vec::new();
        for &b in &config.behaviours {
            let bare = AttackGenome::bare(b);
            let mut suppressed = bare.clone();
            suppressed.suppression = Some(rmt_net::MessageAdversary::focused(
                1,
                rmt_sets::NodeSet::singleton(inst.receiver()),
            ));
            let mut lossy = bare.clone();
            lossy.plan = lossy.plan.with_default_policy(rmt_net::LinkPolicy {
                drop: 0.3,
                ..rmt_net::LinkPolicy::default()
            });
            seeds.extend([bare, suppressed, lossy]);
        }

        for i in 0..config.candidates {
            let candidate = if (i as usize) < seeds.len() {
                seeds[i as usize].clone()
            } else {
                let mut rng = mutation_rng(config.seed, u64::from(i));
                let parent = if pool.is_empty() {
                    seeds[i as usize % seeds.len()].clone()
                } else {
                    pool[rng.random_range(0usize..pool.len())].clone()
                };
                parent.mutate(&mut rng, inst)
            };

            let report = execute(inst, input, &candidate);
            executed += 1;
            self.executed.inc();
            match report.verdict {
                Verdict::Safe => {
                    tally.0 += 1;
                    self.safe.inc();
                }
                Verdict::Wrong => {
                    tally.1 += 1;
                    self.wrong.inc();
                }
                Verdict::Stalled => {
                    tally.2 += 1;
                    self.stalled.inc();
                }
            }

            let fresh = report.signature.novel_against(&seen);
            if fresh.is_empty() {
                continue;
            }
            novel += 1;
            self.novel.inc();
            seen.extend(fresh);
            pool.push(candidate.clone());

            if report.verdict != Verdict::Safe {
                let found_complexity = candidate.complexity();
                let (minimized, steps) =
                    self.shrink(inst, input, candidate, report.verdict, config.shrink_budget);
                let key = minimized.to_json().encode();
                if let std::collections::btree_map::Entry::Vacant(slot) = found.entry(key.clone()) {
                    self.minimized.inc();
                    order.push(key);
                    slot.insert(Violation {
                        genome: minimized,
                        verdict: report.verdict,
                        found_complexity,
                        shrink_steps: steps,
                    });
                }
            }
        }

        HuntReport {
            violations: order.into_iter().map(|k| found[&k].clone()).collect(),
            executed,
            novel,
            tally,
        }
    }

    /// Greedy shrink: scan the strictly-simpler candidates in order, take
    /// the first that reproduces the verdict, restart from it. Terminates
    /// because complexity is a strictly decreasing non-negative integer.
    fn shrink(
        &self,
        inst: &Instance,
        input: Value,
        mut genome: AttackGenome,
        verdict: Verdict,
        budget: u32,
    ) -> (AttackGenome, u32) {
        let mut steps = 0u32;
        'outer: while steps < budget {
            for candidate in genome.shrink_candidates() {
                if steps >= budget {
                    break 'outer;
                }
                steps += 1;
                self.shrink_steps.inc();
                if execute(inst, input, &candidate).verdict == verdict {
                    genome = candidate;
                    continue 'outer;
                }
            }
            break;
        }
        (genome, steps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::Behaviour;
    use crate::spec::{Family, InstanceSpec};
    use rmt_core::protocols::attacks::{PkaAttack, ZcpaAttack};
    use rmt_graph::ViewKind;

    fn instance() -> Instance {
        // Deterministically screened: seed 11 yields a solvable E3 instance
        // at n = 6 (checked by the assertion below, not by luck at runtime).
        let inst = InstanceSpec {
            family: Family::E3,
            n: 6,
            view: ViewKind::AdHoc,
            seed: 11,
        }
        .build();
        assert!(
            rmt_core::cuts::find_rmt_cut(&inst, None).is_none(),
            "test instance must be solvable"
        );
        inst
    }

    #[test]
    fn bare_silent_genomes_are_safe() {
        let inst = instance();
        for b in [
            Behaviour::Pka(PkaAttack::Silent),
            Behaviour::Zcpa(ZcpaAttack::Silent),
        ] {
            let report = execute(&inst, 7, &AttackGenome::bare(b));
            assert_eq!(report.verdict, Verdict::Safe, "{b:?}");
            assert!(matches!(report.termination, Termination::Quiesced { .. }));
        }
    }

    #[test]
    fn execute_is_deterministic() {
        let inst = instance();
        let mut g = AttackGenome::bare(Behaviour::Pka(PkaAttack::ForgeTrails));
        g.attack_seed = 42;
        g.plan = g.plan.with_default_policy(rmt_net::LinkPolicy {
            drop: 0.4,
            ..rmt_net::LinkPolicy::default()
        });
        let a = execute(&inst, 7, &g);
        let b = execute(&inst, 7, &g);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.signature, b.signature);
    }

    #[test]
    fn receiver_focused_suppression_stalls_the_run() {
        let inst = instance();
        let mut g = AttackGenome::bare(Behaviour::Pka(PkaAttack::Silent));
        g.suppression = Some(rmt_net::MessageAdversary::focused(
            10_000,
            rmt_sets::NodeSet::singleton(inst.receiver()),
        ));
        let report = execute(&inst, 7, &g);
        assert_eq!(report.verdict, Verdict::Stalled);
        assert!(report.faults.suppressed > 0);
    }

    #[test]
    fn hunts_are_deterministic_and_find_suppression_violations() {
        let inst = instance();
        let registry = Registry::new();
        let config = HuntConfig {
            seed: 0xE14,
            candidates: 40,
            shrink_budget: 60,
            behaviours: vec![
                Behaviour::Pka(PkaAttack::Silent),
                Behaviour::Zcpa(ZcpaAttack::Silent),
            ],
        };
        let a = Hunter::new(&registry).hunt(&inst, 7, &config);
        let b = Hunter::new(&registry).hunt(&inst, 7, &config);
        assert_eq!(a.executed, b.executed);
        assert_eq!(a.novel, b.novel);
        assert_eq!(a.tally, b.tally);
        assert_eq!(
            a.violations
                .iter()
                .map(|v| v.genome.to_json().encode())
                .collect::<Vec<_>>(),
            b.violations
                .iter()
                .map(|v| v.genome.to_json().encode())
                .collect::<Vec<_>>(),
        );
        // The seed pool alone contains a receiver-focused suppressor, so a
        // liveness violation must surface; safety must hold throughout.
        assert!(a.tally.1 == 0, "no safety violations expected");
        assert!(
            a.violations.iter().any(|v| v.verdict == Verdict::Stalled),
            "expected at least one stall"
        );
        // Every reported violation is a local minimum: no strictly simpler
        // variant reproduces it.
        for v in &a.violations {
            for simpler in v.genome.shrink_candidates() {
                assert_ne!(
                    execute(&inst, 7, &simpler).verdict,
                    v.verdict,
                    "genome was not fully minimized"
                );
            }
        }
    }

    #[test]
    fn verdicts_round_trip() {
        for v in [Verdict::Safe, Verdict::Wrong, Verdict::Stalled] {
            assert_eq!(Verdict::parse(v.as_str(), "verdict").unwrap(), v);
        }
        assert!(Verdict::parse("maybe", "verdict").is_err());
    }
}
