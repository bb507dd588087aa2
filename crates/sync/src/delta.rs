//! Delta-encoded sync sessions.
//!
//! [`crate::two_way_sync`] reconciles with a pairwise `|a| × |b|` scan,
//! ships every op with its full owned path string, and applies through
//! the owned tree. Under a 10k-edit write storm all three hurt. This
//! module rebuilds the fast path:
//!
//! * **Touched-path index** ([`TouchedIndex`]) — a trie keyed by
//!   [`NodePath`] steps over one side's new ops. A conflicting pair
//!   requires one target path to be a step-prefix of the other, so the
//!   candidates for an op are exactly the ops on its root-walk plus the
//!   subtree below its target: `O(n + m + matches·depth)` instead of
//!   `n × m`. The candidate set provably contains every pair
//!   [`crate::session::ops_conflict`] accepts, and candidate pairs are
//!   examined in the oracle's `(i, j)` order, so conflict counts,
//!   winners and the manual queue come out identical.
//! * **Dictionary delta encoding** ([`DeltaCodec`]) — each distinct
//!   path is shipped once per session; every op after that carries a
//!   fixed-size header plus a dictionary reference and its payload.
//!   [`SyncReport::bytes_exchanged`] measures the saving against the
//!   oracle's owned-path framing.
//! * **In-place application** — accepted remote ops apply straight to
//!   the owned document ([`Replica::apply_remote`], the oracle's own
//!   apply), so a one-op session touches one node instead of
//!   converting the whole document to and from another representation.
//!
//! [`two_way_sync`](crate::two_way_sync) is retained untouched as the
//! byte-identical differential oracle (`tests/sync_differential.rs`).

use std::collections::HashMap;
use std::sync::atomic::Ordering;

use gupster_telemetry::{stage, SimTime, Tracer};
use gupster_xml::{EditOp, NodePath, Step};

use crate::changelog::{CompactStats, LogEntry};
use crate::intern::PathId;
use crate::reconcile::ReconcilePolicy;
use crate::replica::Replica;
use crate::session::{canonicalize, op_bytes, ops_conflict, run_slow_sync, SyncError, SyncReport};

/// A trie over [`NodePath`] steps indexing one side's new ops by target
/// path. Conflict candidates for a probe path are the ops at every node
/// along the walk to it (ancestor targets) plus every op in the subtree
/// below it (descendant targets) — precisely the pairs with a
/// step-prefix relation between targets.
pub struct TouchedIndex {
    nodes: Vec<TrieNode>,
}

#[derive(Default)]
struct TrieNode {
    kids: HashMap<Step, usize>,
    ops: Vec<usize>,
}

impl TouchedIndex {
    /// Indexes `ops` by target path.
    pub fn build(ops: &[LogEntry]) -> Self {
        let mut ix = TouchedIndex { nodes: vec![TrieNode::default()] };
        for (j, e) in ops.iter().enumerate() {
            let mut cur = 0usize;
            for step in &e.op.target().steps {
                cur = match ix.nodes[cur].kids.get(step) {
                    Some(&n) => n,
                    None => {
                        let n = ix.nodes.len();
                        ix.nodes.push(TrieNode::default());
                        ix.nodes[cur].kids.insert(step.clone(), n);
                        n
                    }
                };
            }
            ix.nodes[cur].ops.push(j);
        }
        ix
    }

    /// Collects (ascending) the indexed ops whose target is a prefix of
    /// `path` or has `path` as a prefix.
    pub fn candidates(&self, path: &NodePath, out: &mut Vec<usize>) {
        out.clear();
        let mut cur = 0usize;
        let mut complete = true;
        for step in &path.steps {
            out.extend_from_slice(&self.nodes[cur].ops);
            match self.nodes[cur].kids.get(step) {
                Some(&n) => cur = n,
                None => {
                    complete = false;
                    break;
                }
            }
        }
        if complete {
            // Everything at and below the probe target.
            let mut stack = vec![cur];
            while let Some(n) = stack.pop() {
                out.extend_from_slice(&self.nodes[n].ops);
                stack.extend(self.nodes[n].kids.values());
            }
        }
        out.sort_unstable();
    }
}

/// Session-scoped delta encoder: a path dictionary shared by both
/// directions of one session (the SyncML-style session handshake
/// carries one path table) plus per-op framing.
#[derive(Default)]
pub struct DeltaCodec {
    dict: HashMap<PathId, u16>,
}

/// Fixed per-op framing: one byte op kind + flags, a 2-byte dictionary
/// reference, and a varint-class timestamp/actor field.
const OP_HEADER_BYTES: usize = 8;

impl DeltaCodec {
    /// Bytes this op costs on the wire under delta encoding: the fixed
    /// header, the payload, and — first time only — the dictionary
    /// entry for its path.
    pub fn encode(&mut self, op: &EditOp) -> usize {
        let pid = PathId::intern(op.target());
        let mut bytes = OP_HEADER_BYTES;
        let next = self.dict.len() as u16;
        if self.dict.try_insert_like(pid, next) {
            // Dictionary entry: the path string plus a 2-byte ref.
            bytes += op.target().to_string().len() + 2;
        }
        bytes += match op {
            // The inserted subtree must ship whole either way.
            EditOp::Insert { element, .. } => element.byte_size(),
            EditOp::Delete { .. } => 0,
            EditOp::SetText { text, .. } => text.len(),
            EditOp::SetAttr { name, value, .. } => name.len() + value.len() + 2,
            EditOp::RemoveAttr { name, .. } => name.len() + 2,
        };
        bytes
    }
}

/// `HashMap::try_insert` is unstable; this is `insert`-if-absent
/// returning whether an insert happened.
trait TryInsertLike {
    fn try_insert_like(&mut self, k: PathId, v: u16) -> bool;
}

impl TryInsertLike for HashMap<PathId, u16> {
    fn try_insert_like(&mut self, k: PathId, v: u16) -> bool {
        use std::collections::hash_map::Entry;
        match self.entry(k) {
            Entry::Vacant(e) => {
                e.insert(v);
                true
            }
            Entry::Occupied(_) => false,
        }
    }
}

/// [`crate::two_way_sync`] on the delta fast path: indexed conflict
/// detection, dictionary-encoded shipping, in-place application.
///
/// Semantics are identical to the oracle — same conflicts, same
/// winners under every [`ReconcilePolicy`], same queued pairs, same
/// converged documents (byte-identical; `tests/sync_differential.rs`
/// holds this under seeded random storms). Only the *measured work*
/// differs: [`SyncReport::compared`] counts candidate pairs actually
/// examined instead of `|a| × |b|`, and
/// [`SyncReport::bytes_exchanged`] reflects delta framing.
pub fn delta_two_way_sync(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
) -> Result<SyncReport, SyncError> {
    if a.doc.name != b.doc.name {
        return Err(SyncError::ComponentMismatch(a.doc.name.clone(), b.doc.name.clone()));
    }
    let mut report = SyncReport { fast_path: true, ..Default::default() };

    let anchors_ok = a.anchors.consistent_with(&b.id, b.log.head())
        && b.anchors.consistent_with(&a.id, a.log.head());

    if anchors_ok {
        let a_new: Vec<LogEntry> = a
            .log
            .since(b.anchors.last_seen(&a.id))
            .iter()
            .filter(|e| !b.seen.contains(&(e.actor, e.timestamp)))
            .cloned()
            .collect();
        let b_new: Vec<LogEntry> = b
            .log
            .since(a.anchors.last_seen(&b.id))
            .iter()
            .filter(|e| !a.seen.contains(&(e.actor, e.timestamp)))
            .cloned()
            .collect();

        // Indexed conflict detection: probe each a-op against the trie
        // of b-ops. Candidate pairs are a superset of conflicting pairs
        // and are examined in the oracle's (i, j) order.
        let index = TouchedIndex::build(&b_new);
        let mut a_drop = vec![false; a_new.len()];
        let mut b_drop = vec![false; b_new.len()];
        let mut cands: Vec<usize> = Vec::new();
        for (i, ea) in a_new.iter().enumerate() {
            index.candidates(ea.op.target(), &mut cands);
            report.compared += cands.len();
            for &j in &cands {
                let eb = &b_new[j];
                if ops_conflict(&ea.op, &eb.op, &a.keys) {
                    report.conflicts += 1;
                    match policy {
                        ReconcilePolicy::Manual => {
                            a_drop[i] = true;
                            b_drop[j] = true;
                            report.queued.push((ea.op.clone(), eb.op.clone()));
                        }
                        _ => {
                            if policy.first_wins(
                                ea.timestamp,
                                ea.actor_str(),
                                eb.timestamp,
                                eb.actor_str(),
                            ) {
                                report.first_wins += 1;
                                b_drop[j] = true;
                            } else {
                                a_drop[i] = true;
                            }
                        }
                    }
                }
            }
        }

        // Ship surviving ops as dictionary-encoded delta batches and
        // apply them in place; losing halves are marked seen so they
        // are never re-shipped.
        let mut codec = DeltaCodec::default();
        let mut diverged = false;
        for (j, eb) in b_new.iter().enumerate() {
            if b_drop[j] {
                a.mark_seen(eb.actor, eb.timestamp);
                continue;
            }
            report.bytes_exchanged += codec.encode(&eb.op);
            if a.apply_remote(&eb.op, eb.actor, eb.timestamp).is_err() {
                diverged = true;
            } else {
                report.shipped_to_first += 1;
            }
        }
        for (i, ea) in a_new.iter().enumerate() {
            if a_drop[i] {
                b.mark_seen(ea.actor, ea.timestamp);
                continue;
            }
            report.bytes_exchanged += codec.encode(&ea.op);
            if b.apply_remote(&ea.op, ea.actor, ea.timestamp).is_err() {
                diverged = true;
            } else {
                report.shipped_to_second += 1;
            }
        }

        a.anchors.advance(&b.id, b.log.head());
        b.anchors.advance(&a.id, a.log.head());

        canonicalize(&mut a.doc, &a.keys);
        canonicalize(&mut b.doc, &b.keys);

        if !diverged && a.doc == b.doc {
            report.converged = true;
            return Ok(report);
        }
        if policy == ReconcilePolicy::Manual && !report.queued.is_empty() {
            report.converged = a.doc == b.doc;
            return Ok(report);
        }
    }

    run_slow_sync(a, b, policy, &mut report);
    Ok(report)
}

/// What the oracle would have charged for the same surviving ops under
/// owned-path framing — kept on the report path so experiments can
/// print the bytes saving without a second full run.
pub fn naive_batch_bytes(ops: &[&EditOp]) -> usize {
    ops.iter().map(|op| op_bytes(op)).sum()
}

/// [`delta_two_way_sync`] under a telemetry [`Tracer`], charging the
/// **same simulated cost model** as
/// [`crate::two_way_sync_traced`] — 5µs + 10µs/KB shipped, 2µs per
/// pair compared + 3µs per conflict, 5µs per op applied, 20µs + 20µs/KB
/// on the slow path — plus a [`stage::SYNC_DELTA`] span of 1µs + 1µs
/// per (pair examined + op shipped) for index build/probe and
/// dictionary encoding. Because `compared` and `bytes_exchanged` are
/// the *measured smaller* values, the charged session time is where
/// the delta win shows up in experiments.
pub fn delta_two_way_sync_traced(
    a: &mut Replica,
    b: &mut Replica,
    policy: ReconcilePolicy,
    tracer: &mut Tracer,
) -> Result<SyncReport, SyncError> {
    tracer.enter(stage::SYNC_SESSION);
    let result = delta_two_way_sync(a, b, policy);
    if let Ok(report) = &result {
        let kb_us = |bytes: usize, per_kb: u64| (bytes as u64 * per_kb) / 1024;
        let shipped = (report.shipped_to_first + report.shipped_to_second) as u64;
        tracer.span(stage::SYNC_SHIP, SimTime::micros(5 + kb_us(report.bytes_exchanged, 10)));
        tracer.span(
            stage::SYNC_RECONCILE,
            SimTime::micros(2 * report.compared as u64 + 3 * report.conflicts as u64),
        );
        tracer.span(stage::SYNC_DELTA, SimTime::micros(1 + report.compared as u64 + shipped));
        tracer.span(stage::SYNC_APPLY, SimTime::micros(5 * shipped));
        if report.slow_sync {
            tracer.span(stage::SYNC_SLOW, SimTime::micros(20 + kb_us(report.bytes_exchanged, 20)));
        }
        let counters = tracer.hub().counters();
        counters.sync_sessions.fetch_add(1, Ordering::Relaxed);
        counters.sync_ops_shipped.fetch_add(shipped, Ordering::Relaxed);
        counters.sync_conflicts.fetch_add(report.conflicts as u64, Ordering::Relaxed);
        counters.sync_slow_paths.fetch_add(report.slow_sync as u64, Ordering::Relaxed);
    }
    tracer.exit();
    result
}

/// Compacts `r`'s change log against `anchors` under a telemetry
/// [`Tracer`]: a [`stage::SYNC_COMPACT`] span charged 1µs per entry
/// examined, and the fleet `compacted_ops` counter advanced by the
/// number of entries removed.
pub fn compact_traced(r: &mut Replica, anchors: &[u64], tracer: &mut Tracer) -> CompactStats {
    let examined = r.log.len() as u64;
    let stats = r.compact_log(anchors);
    tracer.span(stage::SYNC_COMPACT, SimTime::micros(1 + examined));
    tracer
        .hub()
        .counters()
        .compacted_ops
        .fetch_add(stats.dropped() as u64, Ordering::Relaxed);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two_way_sync;
    use gupster_xml::{parse, Element, MergeKeys};

    fn keys() -> MergeKeys {
        MergeKeys::new().with_key("item", "id")
    }

    fn pair() -> (Replica, Replica) {
        let base = parse(
            r#"<address-book><item id="1"><name>Mom</name><phone>111</phone></item><item id="2"><name>Bob</name></item></address-book>"#,
        )
        .unwrap();
        (Replica::new("phone", base.clone(), keys()), Replica::new("portal", base, keys()))
    }

    fn set_name(id: &str, v: &str) -> EditOp {
        EditOp::SetText {
            path: NodePath::root().keyed("item", "id", id).child("name", 0),
            text: v.into(),
        }
    }

    fn insert_item(id: &str, name: &str) -> EditOp {
        EditOp::Insert {
            parent: NodePath::root(),
            element: Element::new("item")
                .with_attr("id", id)
                .with_child(Element::new("name").with_text(name)),
        }
    }

    /// Runs the same session through the oracle and the delta path on
    /// independent replica pairs; asserts identical semantics.
    fn check_against_oracle(edits_a: &[EditOp], edits_b: &[EditOp], policy: ReconcilePolicy) {
        let (mut oa, mut ob) = pair();
        let (mut da, mut db) = pair();
        for op in edits_a {
            let _ = oa.edit(op.clone());
            let _ = da.edit(op.clone());
        }
        for op in edits_b {
            let _ = ob.edit(op.clone());
            let _ = db.edit(op.clone());
        }
        let ro = two_way_sync(&mut oa, &mut ob, policy).unwrap();
        let rd = delta_two_way_sync(&mut da, &mut db, policy).unwrap();
        assert_eq!(oa.doc, da.doc, "first replica diverged from oracle");
        assert_eq!(ob.doc, db.doc, "second replica diverged from oracle");
        assert_eq!(ro.conflicts, rd.conflicts);
        assert_eq!(ro.first_wins, rd.first_wins);
        assert_eq!(ro.queued, rd.queued);
        assert_eq!(ro.shipped_to_first, rd.shipped_to_first);
        assert_eq!(ro.shipped_to_second, rd.shipped_to_second);
        assert_eq!(ro.converged, rd.converged);
        assert_eq!(ro.fast_path, rd.fast_path);
        assert_eq!(ro.slow_sync, rd.slow_sync);
        assert!(rd.compared <= ro.compared, "{} > {}", rd.compared, ro.compared);
        assert!(
            rd.bytes_exchanged <= ro.bytes_exchanged,
            "{} > {}",
            rd.bytes_exchanged,
            ro.bytes_exchanged
        );
    }

    #[test]
    fn matches_oracle_on_disjoint_edits() {
        check_against_oracle(
            &[insert_item("3", "Carol")],
            &[insert_item("4", "Dave")],
            ReconcilePolicy::LastWriterWins,
        );
    }

    #[test]
    fn matches_oracle_on_conflicts_under_every_policy() {
        for policy in [
            ReconcilePolicy::PreferFirst,
            ReconcilePolicy::PreferSecond,
            ReconcilePolicy::LastWriterWins,
            ReconcilePolicy::Manual,
        ] {
            check_against_oracle(
                &[set_name("1", "A"), insert_item("7", "Eve")],
                &[set_name("1", "B"), set_name("2", "Robert"), insert_item("7", "Eva")],
                policy,
            );
        }
    }

    #[test]
    fn matches_oracle_on_insert_delete_conflicts() {
        check_against_oracle(
            &[EditOp::Delete { path: NodePath::root().keyed("item", "id", "2") }],
            &[EditOp::Insert {
                parent: NodePath::root().keyed("item", "id", "2"),
                element: Element::new("phone").with_text("222"),
            }],
            ReconcilePolicy::LastWriterWins,
        );
    }

    #[test]
    fn compared_and_bytes_shrink_on_wide_storms() {
        let (mut da, mut db) = pair();
        let (mut oa, mut ob) = pair();
        // Disjoint hot-path edits: naive compares n×m, index ~0 pairs.
        for i in 0..20 {
            let op = set_name("1", &format!("a{i}"));
            da.edit(op.clone()).unwrap();
            oa.edit(op).unwrap();
            let op = set_name("2", &format!("b{i}"));
            db.edit(op.clone()).unwrap();
            ob.edit(op).unwrap();
        }
        let ro = two_way_sync(&mut oa, &mut ob, ReconcilePolicy::LastWriterWins).unwrap();
        let rd = delta_two_way_sync(&mut da, &mut db, ReconcilePolicy::LastWriterWins).unwrap();
        assert_eq!(ro.compared, 400);
        assert_eq!(rd.compared, 0, "disjoint paths should produce no candidate pairs");
        // Dictionary encoding ships each hot path once.
        assert!(
            rd.bytes_exchanged * 2 <= ro.bytes_exchanged,
            "delta {} vs naive {}",
            rd.bytes_exchanged,
            ro.bytes_exchanged
        );
        assert_eq!(da.doc, oa.doc);
    }

    #[test]
    fn touched_index_candidates_are_supersets_of_conflicts() {
        let (mut a, _) = pair();
        let ops = [
            set_name("1", "x"),
            insert_item("9", "Z"),
            EditOp::Delete { path: NodePath::root().keyed("item", "id", "2") },
            EditOp::SetAttr {
                path: NodePath::root().keyed("item", "id", "1"),
                name: "vip".into(),
                value: "1".into(),
            },
        ];
        for op in &ops {
            let _ = a.edit(op.clone());
        }
        let entries: Vec<LogEntry> = a.log.since(0).to_vec();
        let index = TouchedIndex::build(&entries);
        let mut cands = Vec::new();
        for ea in &entries {
            index.candidates(ea.op.target(), &mut cands);
            for (j, eb) in entries.iter().enumerate() {
                if ops_conflict(&ea.op, &eb.op, &a.keys) {
                    assert!(cands.contains(&j), "missing candidate {j} for {:?}", ea.op);
                }
            }
        }
    }

    #[test]
    fn traced_delta_records_delta_stage() {
        use std::sync::Arc;

        use gupster_telemetry::TelemetryHub;

        let hub = Arc::new(TelemetryHub::new());
        let (mut a, mut b) = pair();
        a.edit(set_name("1", "A")).unwrap();
        b.edit(set_name("1", "B")).unwrap();
        let mut tracer = hub.tracer("sync.round");
        let r = delta_two_way_sync_traced(&mut a, &mut b, ReconcilePolicy::LastWriterWins, &mut tracer)
            .unwrap();
        drop(tracer);
        assert!(r.converged);
        assert!(hub.stage_stats(stage::SYNC_DELTA).is_some());
        assert_eq!(hub.counter_snapshot().sync_sessions, 1);
    }

    #[test]
    fn traced_compaction_counts_dropped_ops() {
        use std::sync::Arc;

        use gupster_telemetry::TelemetryHub;

        let hub = Arc::new(TelemetryHub::new());
        let (mut a, _) = pair();
        for i in 0..10 {
            a.edit(set_name("1", &format!("v{i}"))).unwrap();
        }
        let mut tracer = hub.tracer("compact");
        let stats = compact_traced(&mut a, &[0], &mut tracer);
        drop(tracer);
        assert_eq!(stats.coalesced, 9);
        assert_eq!(hub.counter_snapshot().compacted_ops, 9);
        assert!(hub.stage_stats(stage::SYNC_COMPACT).is_some());
    }
}
