//! The declarative fault model: what the network may do to each message.
//!
//! A [`FaultPlan`] is pure data — a seed plus per-link policies, node
//! crashes and transient partitions. The `NetRunner` interprets it with the
//! stateless [`FaultRng`](crate::FaultRng), so a run is bit-reproducible
//! from `(plan, protocol, adversary)` alone, and the *empty* plan is
//! guaranteed transparent (the differential gate against `rmt-sim`'s
//! `Runner` checks this byte for byte).

use std::collections::HashMap;
use std::fmt;

use rmt_obs::Json;
use rmt_sets::{NodeId, NodeSet};

/// Why a serialized fault plan (or message adversary) was rejected.
///
/// Malformed input is a *validation error*, never a panic: corpus fixtures
/// and hand-written plans go through the same decoder, and a bad file must
/// surface as a diagnosable message naming the offending field.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanError {
    /// Dotted path of the offending field (e.g. `links[2].policy.drop`).
    pub field: String,
    /// What was wrong with it.
    pub message: String,
}

impl PlanError {
    /// Builds an error for `field`.
    pub fn new(field: impl Into<String>, message: impl Into<String>) -> Self {
        PlanError {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`: {}", self.field, self.message)
    }
}

impl std::error::Error for PlanError {}

/// Encodes a `u64` losslessly: `Json::Int` only holds `i64`, so large seeds
/// go over the wire as `"0x..."` strings.
pub fn u64_to_json(value: u64) -> Json {
    match i64::try_from(value) {
        Ok(n) => Json::Int(n),
        Err(_) => Json::Str(format!("{value:#x}")),
    }
}

/// Decodes a `u64` from either a non-negative integer or a `"0x..."` string.
pub fn u64_from_json(v: &Json, at: &str) -> Result<u64, PlanError> {
    match v {
        Json::Int(n) if *n >= 0 => Ok(*n as u64),
        Json::Int(_) => Err(PlanError::new(at, "must be non-negative")),
        Json::Str(s) => {
            let digits = s
                .strip_prefix("0x")
                .ok_or_else(|| PlanError::new(at, "expected an integer or a \"0x...\" string"))?;
            u64::from_str_radix(digits, 16)
                .map_err(|_| PlanError::new(at, format!("bad hex literal {s:?}")))
        }
        _ => Err(PlanError::new(
            at,
            "expected an integer or a \"0x...\" string",
        )),
    }
}

/// Decodes a `u32` round/count field.
pub fn u32_from_json(v: &Json, at: &str) -> Result<u32, PlanError> {
    let raw = u64_from_json(v, at)?;
    u32::try_from(raw).map_err(|_| PlanError::new(at, "does not fit in u32"))
}

/// Decodes a probability: a finite number in `[0, 1]`.
fn prob_from_json(v: &Json, at: &str) -> Result<f64, PlanError> {
    let p = match v {
        Json::Num(p) => *p,
        Json::Int(n) => *n as f64,
        _ => return Err(PlanError::new(at, "expected a number")),
    };
    if !p.is_finite() || !(0.0..=1.0).contains(&p) {
        return Err(PlanError::new(
            at,
            format!("probability {p} outside [0, 1]"),
        ));
    }
    Ok(p)
}

/// Encodes a node set as a sorted array of raw ids.
pub fn nodeset_to_json(set: &NodeSet) -> Json {
    Json::Arr(set.iter().map(|v| Json::Int(i64::from(v.raw()))).collect())
}

/// Decodes a node set from an array of non-negative integers.
pub fn nodeset_from_json(v: &Json, at: &str) -> Result<NodeSet, PlanError> {
    let arr = v
        .as_arr()
        .ok_or_else(|| PlanError::new(at, "expected an array of node ids"))?;
    let mut set = NodeSet::new();
    for (i, item) in arr.iter().enumerate() {
        let raw = u32_from_json(item, &format!("{at}[{i}]"))?;
        set.insert(NodeId::new(raw));
    }
    Ok(set)
}

/// Looks up a required object field.
pub fn field<'a>(v: &'a Json, key: &str, at: &str) -> Result<&'a Json, PlanError> {
    v.get(key)
        .ok_or_else(|| PlanError::new(format!("{at}{key}"), "missing required field"))
}

/// What one directed link may do to each message it carries.
///
/// Probabilities are evaluated per message with independent seeded draws;
/// the default policy (all zeros) is transparent — the link behaves like the
/// perfect synchronous channel of the paper's model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkPolicy {
    /// Probability the message is lost.
    pub drop: f64,
    /// Probability delivery is delayed beyond the synchronous `r + 1` bound.
    pub delay: f64,
    /// Maximum extra delay in rounds; a delayed message arrives at
    /// `r + 1 + d` with `d` uniform in `1..=max_delay`. Ignored while
    /// `delay` is zero.
    pub max_delay: u32,
    /// Probability a second copy of the message is enqueued (with its own
    /// independent delay draw).
    pub duplicate: f64,
    /// Scramble within-round delivery order: messages on this link get a
    /// seeded pseudorandom delivery sequence instead of send order, so a
    /// recipient's inbox no longer reflects the order in which its
    /// neighbours sent.
    pub reorder: bool,
}

impl Default for LinkPolicy {
    fn default() -> Self {
        LinkPolicy {
            drop: 0.0,
            delay: 0.0,
            max_delay: 0,
            duplicate: 0.0,
            reorder: false,
        }
    }
}

impl LinkPolicy {
    /// The perfect channel: no faults at all.
    pub fn transparent() -> Self {
        LinkPolicy::default()
    }

    /// `true` if this policy can never alter a message's fate.
    pub fn is_transparent(&self) -> bool {
        self.drop <= 0.0
            && (self.delay <= 0.0 || self.max_delay == 0)
            && self.duplicate <= 0.0
            && !self.reorder
    }

    /// The largest extra delay this policy can inject.
    pub fn effective_max_delay(&self) -> u32 {
        if self.delay > 0.0 {
            self.max_delay
        } else {
            0
        }
    }

    /// Serializes the policy (rmt-obs codec conventions: snake_case keys,
    /// insertion order preserved).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("drop", Json::Num(self.drop)),
            ("delay", Json::Num(self.delay)),
            ("max_delay", Json::Int(i64::from(self.max_delay))),
            ("duplicate", Json::Num(self.duplicate)),
            ("reorder", Json::Bool(self.reorder)),
        ])
    }

    /// Decodes and validates a policy; `at` prefixes error paths.
    pub fn from_json(v: &Json, at: &str) -> Result<Self, PlanError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(PlanError::new(
                at.trim_end_matches('.'),
                "expected an object",
            ));
        }
        let reorder = match v.get("reorder") {
            None => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(PlanError::new(format!("{at}reorder"), "expected a bool")),
        };
        let opt_prob = |key: &str| -> Result<f64, PlanError> {
            v.get(key)
                .map_or(Ok(0.0), |p| prob_from_json(p, &format!("{at}{key}")))
        };
        Ok(LinkPolicy {
            drop: opt_prob("drop")?,
            delay: opt_prob("delay")?,
            max_delay: v
                .get("max_delay")
                .map_or(Ok(0), |n| u32_from_json(n, &format!("{at}max_delay")))?,
            duplicate: opt_prob("duplicate")?,
            reorder,
        })
    }
}

/// A transient network partition: while active, messages *sent* in
/// `rounds` that cross between `side` and its complement are lost.
#[derive(Clone, Debug, PartialEq)]
pub struct Partition {
    /// First send round the partition affects.
    pub from_round: u32,
    /// Last send round the partition affects (inclusive).
    pub to_round: u32,
    /// One side of the split; the other side is everything else.
    pub side: NodeSet,
}

impl Partition {
    /// `true` if a message sent `from → to` in `round` crosses the split
    /// while it is active.
    pub fn cuts(&self, from: NodeId, to: NodeId, round: u32) -> bool {
        (self.from_round..=self.to_round).contains(&round)
            && self.side.contains(from) != self.side.contains(to)
    }

    /// Serializes the partition.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("from_round", Json::Int(i64::from(self.from_round))),
            ("to_round", Json::Int(i64::from(self.to_round))),
            ("side", nodeset_to_json(&self.side)),
        ])
    }

    /// Decodes and validates a partition; `at` prefixes error paths.
    pub fn from_json(v: &Json, at: &str) -> Result<Self, PlanError> {
        let from_round = u32_from_json(field(v, "from_round", at)?, &format!("{at}from_round"))?;
        let to_round = u32_from_json(field(v, "to_round", at)?, &format!("{at}to_round"))?;
        if from_round > to_round {
            return Err(PlanError::new(
                format!("{at}from_round"),
                format!("window {from_round}..={to_round} is empty"),
            ));
        }
        Ok(Partition {
            from_round,
            to_round,
            side: nodeset_from_json(field(v, "side", at)?, &format!("{at}side"))?,
        })
    }
}

/// The full fault schedule of one run.
///
/// Built with the `with_*` combinators; an unmodified `FaultPlan::new(seed)`
/// is empty and therefore transparent.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    seed: u64,
    default_policy: LinkPolicy,
    links: HashMap<(NodeId, NodeId), LinkPolicy>,
    crashes: HashMap<NodeId, u32>,
    partitions: Vec<Partition>,
}

impl FaultPlan {
    /// The empty (transparent) plan with the given fault seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The seed all fault draws derive from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Replaces the fault seed, keeping the schedule.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The default (non-overridden) link policy.
    pub fn default_policy(&self) -> &LinkPolicy {
        &self.default_policy
    }

    /// The explicit per-link overrides, sorted by `(from, to)`.
    pub fn link_overrides(&self) -> Vec<((NodeId, NodeId), LinkPolicy)> {
        let mut out: Vec<_> = self.links.iter().map(|(&k, &v)| (k, v)).collect();
        out.sort_by_key(|(coords, _)| *coords);
        out
    }

    /// The scheduled crashes, sorted by node.
    pub fn crash_schedule(&self) -> Vec<(NodeId, u32)> {
        let mut out: Vec<_> = self.crashes.iter().map(|(&v, &r)| (v, r)).collect();
        out.sort();
        out
    }

    /// The transient partitions, in insertion order.
    pub fn partitions(&self) -> &[Partition] {
        &self.partitions
    }

    /// Applies `policy` to every link without an explicit override.
    pub fn with_default_policy(mut self, policy: LinkPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// Overrides the policy of the directed link `from → to`.
    pub fn with_link(mut self, from: NodeId, to: NodeId, policy: LinkPolicy) -> Self {
        self.links.insert((from, to), policy);
        self
    }

    /// Crash-stops `node` at `round`: from that round on it neither acts nor
    /// sends (an honest node's protocol is no longer invoked; a corrupted
    /// node's adversarial sends are dropped).
    pub fn with_crash(mut self, node: NodeId, round: u32) -> Self {
        self.crashes.insert(node, round);
        self
    }

    /// Adds a transient partition.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partitions.push(partition);
        self
    }

    /// The policy governing `from → to`.
    pub fn policy(&self, from: NodeId, to: NodeId) -> &LinkPolicy {
        self.links.get(&(from, to)).unwrap_or(&self.default_policy)
    }

    /// The round `node` crash-stops at, if any.
    pub fn crash_round(&self, node: NodeId) -> Option<u32> {
        self.crashes.get(&node).copied()
    }

    /// `true` if `node` is dead in `round`.
    pub fn crashed(&self, node: NodeId, round: u32) -> bool {
        self.crash_round(node).is_some_and(|r| r <= round)
    }

    /// The nodes crashing exactly at `round`, in ascending order (for
    /// deterministic event emission).
    pub fn crashes_at(&self, round: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .crashes
            .iter()
            .filter(|&(_, &r)| r == round)
            .map(|(&v, _)| v)
            .collect();
        out.sort();
        out
    }

    /// `true` if some active partition separates `from` and `to` for a
    /// message sent in `round`.
    pub fn partitioned(&self, from: NodeId, to: NodeId, round: u32) -> bool {
        self.partitions.iter().any(|p| p.cuts(from, to, round))
    }

    /// `true` if the plan can never alter a run: no crashes, no partitions,
    /// and every policy (default and overrides) transparent.
    ///
    /// This is the hypothesis of the differential gate: an empty plan makes
    /// `NetRunner` byte-identical to `Runner`.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.partitions.is_empty()
            && self.default_policy.is_transparent()
            && self.links.values().all(LinkPolicy::is_transparent)
    }

    /// The largest extra delay any policy of this plan can inject; the
    /// `NetRunner` scales its default round cap by `1 + max_delay()` so
    /// delay faults cannot silently truncate a run that would quiesce.
    pub fn max_delay(&self) -> u32 {
        self.links
            .values()
            .chain(std::iter::once(&self.default_policy))
            .map(LinkPolicy::effective_max_delay)
            .max()
            .unwrap_or(0)
    }

    /// Serializes the plan. Links and crashes are emitted in sorted order so
    /// equal plans encode to identical bytes.
    pub fn to_json(&self) -> Json {
        let mut links: Vec<(&(NodeId, NodeId), &LinkPolicy)> = self.links.iter().collect();
        links.sort_by_key(|(coords, _)| **coords);
        let mut crashes: Vec<(&NodeId, &u32)> = self.crashes.iter().collect();
        crashes.sort();
        Json::obj([
            ("seed", u64_to_json(self.seed)),
            ("default_policy", self.default_policy.to_json()),
            (
                "links",
                Json::Arr(
                    links
                        .into_iter()
                        .map(|(&(from, to), policy)| {
                            Json::obj([
                                ("from", Json::Int(i64::from(from.raw()))),
                                ("to", Json::Int(i64::from(to.raw()))),
                                ("policy", policy.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "crashes",
                Json::Arr(
                    crashes
                        .into_iter()
                        .map(|(&node, &round)| {
                            Json::obj([
                                ("node", Json::Int(i64::from(node.raw()))),
                                ("round", Json::Int(i64::from(round))),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "partitions",
                Json::Arr(self.partitions.iter().map(Partition::to_json).collect()),
            ),
        ])
    }

    /// Decodes and validates a plan. Every malformed field is reported as a
    /// [`PlanError`] naming its path — never a panic.
    pub fn from_json(v: &Json) -> Result<Self, PlanError> {
        if !matches!(v, Json::Obj(_)) {
            return Err(PlanError::new("plan", "expected an object"));
        }
        let seed = u64_from_json(field(v, "seed", "")?, "seed")?;
        let default_policy = v
            .get("default_policy")
            .map_or(Ok(LinkPolicy::default()), |p| {
                LinkPolicy::from_json(p, "default_policy.")
            })?;

        let mut links = HashMap::new();
        if let Some(raw) = v.get("links") {
            let arr = raw
                .as_arr()
                .ok_or_else(|| PlanError::new("links", "expected an array"))?;
            for (i, entry) in arr.iter().enumerate() {
                let at = format!("links[{i}].");
                let from = NodeId::new(u32_from_json(
                    field(entry, "from", &at)?,
                    &format!("{at}from"),
                )?);
                let to = NodeId::new(u32_from_json(field(entry, "to", &at)?, &format!("{at}to"))?);
                let policy =
                    LinkPolicy::from_json(field(entry, "policy", &at)?, &format!("{at}policy."))?;
                if links.insert((from, to), policy).is_some() {
                    return Err(PlanError::new(
                        format!("links[{i}]"),
                        format!("duplicate entry for link {} -> {}", from.raw(), to.raw()),
                    ));
                }
            }
        }

        let mut crashes = HashMap::new();
        if let Some(raw) = v.get("crashes") {
            let arr = raw
                .as_arr()
                .ok_or_else(|| PlanError::new("crashes", "expected an array"))?;
            for (i, entry) in arr.iter().enumerate() {
                let at = format!("crashes[{i}].");
                let node = NodeId::new(u32_from_json(
                    field(entry, "node", &at)?,
                    &format!("{at}node"),
                )?);
                let round = u32_from_json(field(entry, "round", &at)?, &format!("{at}round"))?;
                if crashes.insert(node, round).is_some() {
                    return Err(PlanError::new(
                        format!("crashes[{i}]"),
                        format!("duplicate crash for node {}", node.raw()),
                    ));
                }
            }
        }

        let mut partitions = Vec::new();
        if let Some(raw) = v.get("partitions") {
            let arr = raw
                .as_arr()
                .ok_or_else(|| PlanError::new("partitions", "expected an array"))?;
            for (i, entry) in arr.iter().enumerate() {
                partitions.push(Partition::from_json(entry, &format!("partitions[{i}]."))?);
            }
        }

        Ok(FaultPlan {
            seed,
            default_policy,
            links,
            crashes,
            partitions,
        })
    }

    /// Decodes a plan from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, PlanError> {
        let v = Json::parse(text)
            .map_err(|e| PlanError::new("plan", format!("not valid JSON: {e}")))?;
        FaultPlan::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> NodeSet {
        ids.iter().copied().collect()
    }

    #[test]
    fn empty_plan_is_empty_and_transparent() {
        let plan = FaultPlan::new(9);
        assert!(plan.is_empty());
        assert_eq!(plan.max_delay(), 0);
        assert!(plan.policy(0.into(), 1.into()).is_transparent());
        assert!(!plan.crashed(0.into(), 100));
        assert!(!plan.partitioned(0.into(), 1.into(), 3));
    }

    #[test]
    fn link_overrides_beat_the_default() {
        let lossy = LinkPolicy {
            drop: 0.5,
            ..LinkPolicy::default()
        };
        let plan = FaultPlan::new(0)
            .with_default_policy(LinkPolicy::transparent())
            .with_link(0.into(), 1.into(), lossy);
        assert_eq!(plan.policy(0.into(), 1.into()).drop, 0.5);
        assert_eq!(plan.policy(1.into(), 0.into()).drop, 0.0); // directed
        assert!(!plan.is_empty());
        let sym = FaultPlan::new(0)
            .with_link(0.into(), 1.into(), lossy)
            .with_link(1.into(), 0.into(), lossy);
        assert_eq!(sym.policy(1.into(), 0.into()).drop, 0.5);
    }

    #[test]
    fn delay_without_probability_is_transparent() {
        let pol = LinkPolicy {
            max_delay: 5,
            ..LinkPolicy::default()
        };
        assert!(pol.is_transparent());
        assert_eq!(pol.effective_max_delay(), 0);
        let plan = FaultPlan::new(0).with_default_policy(pol);
        assert!(plan.is_empty());
        assert_eq!(plan.max_delay(), 0);
    }

    #[test]
    fn max_delay_scans_all_policies() {
        let plan = FaultPlan::new(0)
            .with_default_policy(LinkPolicy {
                delay: 0.1,
                max_delay: 2,
                ..LinkPolicy::default()
            })
            .with_link(
                0.into(),
                1.into(),
                LinkPolicy {
                    delay: 1.0,
                    max_delay: 7,
                    ..LinkPolicy::default()
                },
            );
        assert_eq!(plan.max_delay(), 7);
    }

    #[test]
    fn crash_schedule_is_queried_by_round() {
        let plan = FaultPlan::new(0)
            .with_crash(2.into(), 3)
            .with_crash(1.into(), 3)
            .with_crash(4.into(), 0);
        assert!(!plan.crashed(2.into(), 2));
        assert!(plan.crashed(2.into(), 3));
        assert!(plan.crashed(4.into(), 9));
        assert_eq!(plan.crashes_at(3), vec![NodeId::new(1), NodeId::new(2)]);
        assert_eq!(plan.crashes_at(1), Vec::<NodeId>::new());
        assert!(!plan.is_empty());
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlan::new(u64::MAX - 3)
            .with_default_policy(LinkPolicy {
                drop: 0.25,
                delay: 0.5,
                max_delay: 3,
                duplicate: 0.125,
                reorder: true,
            })
            .with_link(
                2.into(),
                0.into(),
                LinkPolicy {
                    drop: 1.0,
                    ..LinkPolicy::default()
                },
            )
            .with_link(0.into(), 1.into(), LinkPolicy::transparent())
            .with_link(1.into(), 0.into(), LinkPolicy::transparent())
            .with_crash(3.into(), 2)
            .with_crash(1.into(), 0)
            .with_partition(Partition {
                from_round: 1,
                to_round: 4,
                side: set(&[0, 2]),
            });
        let text = plan.to_json().encode();
        let back = FaultPlan::from_json_str(&text).expect("round-trip");
        assert_eq!(back, plan);
        // Sorted emission: equal plans encode identically even though the
        // internal maps are unordered.
        assert_eq!(back.to_json().encode(), text);
    }

    #[test]
    fn empty_plan_round_trips_and_stays_empty() {
        let plan = FaultPlan::new(7);
        let back = FaultPlan::from_json_str(&plan.to_json().encode()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.seed(), 7);
    }

    #[test]
    fn malformed_plans_are_rejected_with_field_paths() {
        let reject = |text: &str, needle: &str| {
            let err = FaultPlan::from_json_str(text).unwrap_err();
            assert!(
                err.field.contains(needle),
                "expected field path containing {needle:?}, got {err}"
            );
        };
        reject("[]", "plan");
        reject("{}", "seed");
        reject(r#"{"seed": -1}"#, "seed");
        reject(r#"{"seed": "0xZZ"}"#, "seed");
        reject(
            r#"{"seed": 1, "default_policy": {"drop": 1.5}}"#,
            "default_policy.drop",
        );
        reject(
            r#"{"seed": 1, "links": [{"from": 0, "to": 1}]}"#,
            "links[0].policy",
        );
        reject(
            r#"{"seed": 1, "links": [
                {"from": 0, "to": 1, "policy": {}},
                {"from": 0, "to": 1, "policy": {}}
            ]}"#,
            "links[1]",
        );
        reject(
            r#"{"seed": 1, "crashes": [{"node": 0, "round": 0}, {"node": 0, "round": 2}]}"#,
            "crashes[1]",
        );
        reject(
            r#"{"seed": 1, "partitions": [{"from_round": 5, "to_round": 2, "side": []}]}"#,
            "partitions[0].from_round",
        );
        reject(
            r#"{"seed": 1, "partitions": [{"from_round": 0, "to_round": 2, "side": [-1]}]}"#,
            "partitions[0].side[0]",
        );
        assert!(FaultPlan::from_json_str("not json").is_err());
    }

    #[test]
    fn partitions_cut_crossing_traffic_only_while_active() {
        let p = Partition {
            from_round: 2,
            to_round: 4,
            side: set(&[0, 1]),
        };
        assert!(p.cuts(0.into(), 2.into(), 2));
        assert!(p.cuts(2.into(), 1.into(), 4));
        assert!(!p.cuts(0.into(), 1.into(), 3)); // same side
        assert!(!p.cuts(2.into(), 3.into(), 3)); // same (other) side
        assert!(!p.cuts(0.into(), 2.into(), 1)); // not yet active
        assert!(!p.cuts(0.into(), 2.into(), 5)); // healed
        let plan = FaultPlan::new(0).with_partition(p);
        assert!(plan.partitioned(0.into(), 3.into(), 3));
        assert!(!plan.is_empty());
    }
}
