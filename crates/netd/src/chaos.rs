//! Declarative chaos for the socket runtime: kill/restart node tasks and
//! sever/restore connections at round boundaries.
//!
//! A [`ChaosPlan`] is the socket-world sibling of `rmt-net`'s `FaultPlan`:
//! it names *what the environment does*, while the physical consequences —
//! closed sockets, reconnect storms, queue overflow, shed messages — come
//! from the runtime actually living through them. Faults trigger at the
//! start of the named round, before that round's deliveries, matching the
//! crash semantics of the deterministic schedulers.
//!
//! Kill/restart pairs model a supervised process: the node's protocol state
//! survives (a restarted node resumes where it stopped, it does not rejoin
//! fresh), its listening port stays bound, but every connection is torn down
//! and every message addressed to it while dead is subject to the sender's
//! queue budget. Sever/restore windows cut one undirected link both ways;
//! the link-level retransmit buffer replays the unacknowledged suffix on
//! restore, so a severed-then-restored link loses nothing (liveness is
//! delayed, not destroyed) — unlike a kill, which discards whatever sat in
//! the dead node's socket buffers.

use rmt_net::codec::{field, node_from_json, u32_from_json};
use rmt_net::PlanError;
use rmt_obs::Json;
use rmt_sets::NodeId;

/// One sever window: the undirected link `{a, b}` is down for rounds
/// `from_round..=to_round` (inclusive).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeverWindow {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// First round the link is down.
    pub from_round: u32,
    /// Last round the link is down.
    pub to_round: u32,
}

impl SeverWindow {
    /// `true` when this window covers `round` and the unordered pair
    /// `{u, v}`.
    pub fn covers(&self, u: NodeId, v: NodeId, round: u32) -> bool {
        let same_link = (self.a == u && self.b == v) || (self.a == v && self.b == u);
        same_link && (self.from_round..=self.to_round).contains(&round)
    }
}

/// The full chaos schedule of one session.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChaosPlan {
    kills: Vec<(NodeId, u32)>,
    restarts: Vec<(NodeId, u32)>,
    severs: Vec<SeverWindow>,
}

impl ChaosPlan {
    /// The empty plan: nothing ever happens.
    pub fn new() -> Self {
        ChaosPlan::default()
    }

    /// `true` when the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.kills.is_empty() && self.restarts.is_empty() && self.severs.is_empty()
    }

    /// Kills `node` at the start of `round`.
    pub fn with_kill(mut self, node: NodeId, round: u32) -> Self {
        self.kills.push((node, round));
        self
    }

    /// Restarts `node` at the start of `round` (its protocol state and
    /// listening port survive the outage).
    pub fn with_restart(mut self, node: NodeId, round: u32) -> Self {
        self.restarts.push((node, round));
        self
    }

    /// Severs the undirected link `{a, b}` for rounds
    /// `from_round..=to_round`.
    pub fn with_sever(mut self, a: NodeId, b: NodeId, from_round: u32, to_round: u32) -> Self {
        self.severs.push(SeverWindow {
            a,
            b,
            from_round,
            to_round,
        });
        self
    }

    /// The scheduled kills, as `(node, round)`.
    pub fn kills(&self) -> &[(NodeId, u32)] {
        &self.kills
    }

    /// The scheduled restarts, as `(node, round)`.
    pub fn restarts(&self) -> &[(NodeId, u32)] {
        &self.restarts
    }

    /// The scheduled sever windows.
    pub fn severs(&self) -> &[SeverWindow] {
        &self.severs
    }

    /// `true` when `node` is dead during `round`: the latest kill/restart
    /// event at or before `round` decides (a kill and restart in the same
    /// round resolves to restarted).
    pub fn dead(&self, node: NodeId, round: u32) -> bool {
        let last_kill = self
            .kills
            .iter()
            .filter(|&&(v, r)| v == node && r <= round)
            .map(|&(_, r)| r)
            .max();
        let last_restart = self
            .restarts
            .iter()
            .filter(|&&(v, r)| v == node && r <= round)
            .map(|&(_, r)| r)
            .max();
        match (last_kill, last_restart) {
            (Some(k), Some(s)) => k > s,
            (Some(_), None) => true,
            _ => false,
        }
    }

    /// `true` when the undirected link `{u, v}` is severed during `round`.
    pub fn severed(&self, u: NodeId, v: NodeId, round: u32) -> bool {
        self.severs.iter().any(|w| w.covers(u, v, round))
    }

    /// Nodes whose kill fires exactly at `round`, ascending.
    pub fn kills_at(&self, round: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .kills
            .iter()
            .filter(|&&(_, r)| r == round)
            .map(|&(v, _)| v)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Nodes whose restart fires exactly at `round`, ascending.
    pub fn restarts_at(&self, round: u32) -> Vec<NodeId> {
        let mut out: Vec<NodeId> = self
            .restarts
            .iter()
            .filter(|&&(_, r)| r == round)
            .map(|&(v, _)| v)
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The last round at which any scheduled fault fires (used to size
    /// round caps so chaos cannot silently truncate recovery). A sever
    /// that is never restored (`to_round == u32::MAX`) contributes only
    /// its start round: its restore never fires.
    pub fn horizon(&self) -> u32 {
        let kill_max = self.kills.iter().map(|&(_, r)| r).max().unwrap_or(0);
        let restart_max = self.restarts.iter().map(|&(_, r)| r).max().unwrap_or(0);
        let sever_max = self
            .severs
            .iter()
            .map(|w| {
                if w.to_round == u32::MAX {
                    w.from_round
                } else {
                    w.to_round.saturating_add(1)
                }
            })
            .max()
            .unwrap_or(0);
        kill_max.max(restart_max).max(sever_max)
    }

    /// `true` when some scheduled fault (kill, restart, sever start, or
    /// restore) still fires at or after `round`. The session's round loop
    /// uses this to decide whether queued traffic could still heal on its
    /// own: while future chaos is pending, rounds must advance to reach it;
    /// once the schedule is exhausted, the only thing left to wait for is
    /// the physical layer. An unrestored sever (`to_round == u32::MAX`)
    /// schedules no restore and therefore no future event.
    pub fn has_event_at_or_after(&self, round: u32) -> bool {
        self.kills.iter().any(|&(_, r)| r >= round)
            || self.restarts.iter().any(|&(_, r)| r >= round)
            || self.severs.iter().any(|w| {
                w.from_round >= round
                    || (w.to_round != u32::MAX && w.to_round.saturating_add(1) >= round)
            })
    }

    /// Serializes the plan.
    pub fn to_json(&self) -> Json {
        let event = |(v, r): &(NodeId, u32)| {
            Json::obj([("node", Json::from(v.raw())), ("round", Json::from(*r))])
        };
        Json::obj([
            ("kills", Json::Arr(self.kills.iter().map(event).collect())),
            (
                "restarts",
                Json::Arr(self.restarts.iter().map(event).collect()),
            ),
            (
                "severs",
                Json::Arr(
                    self.severs
                        .iter()
                        .map(|w| {
                            Json::obj([
                                ("a", Json::from(w.a.raw())),
                                ("b", Json::from(w.b.raw())),
                                ("from_round", Json::from(w.from_round)),
                                ("to_round", Json::from(w.to_round)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a plan, validating each entry.
    pub fn from_json(v: &Json, at: &str) -> Result<Self, PlanError> {
        let events = |key: &str| -> Result<Vec<(NodeId, u32)>, PlanError> {
            let here = format!("{at}.{key}");
            let arr = field(v, key, at)?
                .as_arr()
                .ok_or_else(|| PlanError::new(here.clone(), "expected an array"))?;
            arr.iter()
                .enumerate()
                .map(|(i, e)| {
                    let at_i = format!("{here}[{i}]");
                    let node = node_from_json(field(e, "node", &at_i)?, &format!("{at_i}.node"))?;
                    let round = u32_from_json(field(e, "round", &at_i)?, &at_i)?;
                    Ok((node, round))
                })
                .collect()
        };
        let kills = events("kills")?;
        let restarts = events("restarts")?;
        let severs_at = format!("{at}.severs");
        let severs = field(v, "severs", at)?
            .as_arr()
            .ok_or_else(|| PlanError::new(severs_at.clone(), "expected an array"))?
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let at_i = format!("{severs_at}[{i}]");
                let a = node_from_json(field(e, "a", &at_i)?, &format!("{at_i}.a"))?;
                let b = node_from_json(field(e, "b", &at_i)?, &format!("{at_i}.b"))?;
                if a == b {
                    return Err(PlanError::new(at_i, "a sever window needs two endpoints"));
                }
                let from_round = u32_from_json(field(e, "from_round", &at_i)?, &at_i)?;
                let to_round = u32_from_json(field(e, "to_round", &at_i)?, &at_i)?;
                if to_round < from_round {
                    return Err(PlanError::new(at_i, "to_round precedes from_round"));
                }
                Ok(SeverWindow {
                    a,
                    b,
                    from_round,
                    to_round,
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ChaosPlan {
            kills,
            restarts,
            severs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_restart_resolution() {
        let plan = ChaosPlan::new()
            .with_kill(2.into(), 1)
            .with_restart(2.into(), 4)
            .with_kill(2.into(), 6);
        assert!(!plan.dead(2.into(), 0));
        assert!(plan.dead(2.into(), 1));
        assert!(plan.dead(2.into(), 3));
        assert!(!plan.dead(2.into(), 4));
        assert!(!plan.dead(2.into(), 5));
        assert!(plan.dead(2.into(), 6));
        assert!(!plan.dead(3.into(), 6));
        assert_eq!(plan.kills_at(1), vec![NodeId::new(2)]);
        assert_eq!(plan.restarts_at(4), vec![NodeId::new(2)]);
        assert_eq!(plan.horizon(), 6);
    }

    #[test]
    fn sever_windows_are_undirected_and_inclusive() {
        let plan = ChaosPlan::new().with_sever(0.into(), 1.into(), 2, 4);
        assert!(!plan.severed(0.into(), 1.into(), 1));
        assert!(plan.severed(0.into(), 1.into(), 2));
        assert!(plan.severed(1.into(), 0.into(), 4));
        assert!(!plan.severed(0.into(), 1.into(), 5));
        assert!(!plan.severed(0.into(), 2.into(), 3));
    }

    #[test]
    fn json_round_trip() {
        let plan = ChaosPlan::new()
            .with_kill(1.into(), 2)
            .with_restart(1.into(), 5)
            .with_sever(0.into(), 3.into(), 1, 3);
        let back = ChaosPlan::from_json(&plan.to_json(), "plan").expect("round trip");
        assert_eq!(back, plan);
        // Textual fixpoint through the parser too.
        let text = plan.to_json().encode();
        let reparsed = Json::parse(&text).expect("parse");
        assert_eq!(ChaosPlan::from_json(&reparsed, "plan").unwrap(), plan);
    }

    #[test]
    fn malformed_plans_are_rejected() {
        let missing = Json::obj([("kills", Json::Arr(Vec::new()))]);
        assert!(ChaosPlan::from_json(&missing, "plan").is_err());

        let degenerate = ChaosPlan::new().with_sever(2.into(), 2.into(), 0, 1);
        assert!(ChaosPlan::from_json(&degenerate.to_json(), "plan").is_err());

        let backwards = ChaosPlan::new().with_sever(0.into(), 1.into(), 5, 2);
        assert!(ChaosPlan::from_json(&backwards.to_json(), "plan").is_err());
    }
}
