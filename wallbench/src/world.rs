//! The fixture one run serves from, and the two operations every loop is
//! made of: a read window and a write round.

use std::sync::Arc;

use gupster_core::{
    write_through, DeliveryBatch, GupsterError, Notification, PlaneReport, ProvenanceLog, Referral,
    ShardRequest, ShardedFanout, ShardedRegistry, Singleflight, StorePool, SyncPlane, UserOutcome,
};
use gupster_policy::Effect;
use gupster_schema::gup_schema;
use gupster_store::{DataStore, StoreId, XmlStore};
use gupster_sync::ReconcilePolicy;
use gupster_telemetry::{stage, TelemetryHub};
use gupster_xml::{Element, MergeKeys};
use gupster_xpath::Path;

use crate::gen::{
    book_path, fleet_owner, item_id, kin_id, presence_path, user_id, Edit, Spec, BOOK_ITEMS,
    DEVICES, SHARDS, STORES, TIME,
};
use crate::probe::{Layer, Probe};

pub type Answer = Result<Vec<Element>, GupsterError>;

/// Disclosure records each registry shard keeps (the library keeps
/// 100,000). Every lookup appends one; with the library's retention the
/// log, and with it the heap peak, grows for as long as a run lasts, so
/// a faster program would read as a larger one. This many fill within
/// the warm-up on every workload.
const DISCLOSURE_LOG: usize = 500;

/// What each owner's family member may see: rule id and scope. Owners
/// always see their own profile.
pub const FAMILY_SCOPES: [(&str, &str); 2] = [
    ("family-presence", "/user/presence"),
    (
        "family-personal",
        "/user/address-book/item[@type='personal']",
    ),
];

pub struct World {
    pub reg: ShardedRegistry,
    pub pool: StorePool,
    pub plane: SyncPlane,
    pub fanout: ShardedFanout,
    pub sync_hub: Arc<TelemetryHub>,
    pub keys: MergeKeys,
    /// Owner ids by index, so loops borrow instead of formatting.
    pub owners: Vec<String>,
    /// One owner per registry shard: the handle `shard_mut` needs.
    shard_owner: Vec<String>,
}

/// One of `owner`'s address-book slices, as its store holds it.
fn slice(owner: &str, items: usize, item: fn(&str, usize) -> Element) -> Element {
    let mut book = Element::new("address-book");
    for k in 0..items {
        book.push_child(item(owner, k));
    }
    Element::new("user").with_attr("id", owner).with_child(book)
}

fn item(owner: &str, kind: &str, prefix: &str, label: &str, k: usize) -> Element {
    Element::new("item")
        .with_attr("id", format!("{prefix}{k}"))
        .with_attr("type", kind)
        .with_child(Element::new("name").with_text(format!("{label} {k} of {owner}")))
}

pub fn personal_item(owner: &str, k: usize) -> Element {
    item(owner, "personal", "p", "Friend", k)
}

pub fn corporate_item(owner: &str, k: usize) -> Element {
    item(owner, "corporate", "c", "Desk", k)
}

pub fn presence_text(owner: usize) -> String {
    format!("online-{owner}")
}

fn replica_book() -> Element {
    let mut book = Element::new("address-book");
    for i in 0..BOOK_ITEMS {
        book.push_child(
            Element::new("item")
                .with_attr("id", item_id(i))
                .with_child(Element::new("name").with_text(format!("Contact {i}"))),
        );
    }
    book
}

impl World {
    /// Builds the stores, registers every component, provisions each
    /// owner's family relationship and rules, and gives the fleet its
    /// replica stars and subscriptions.
    pub fn build(spec: &Spec) -> World {
        let owners: Vec<String> = (0..spec.users).map(user_id).collect();
        let store_id = |j: usize| format!("store{}.net", j % STORES);
        let mut stores: Vec<XmlStore> = (0..STORES).map(|j| XmlStore::new(store_id(j))).collect();
        let mut reg = ShardedRegistry::new(gup_schema(), b"wallbench", SHARDS);
        reg.set_span_limit(0);
        for (i, u) in owners.iter().enumerate() {
            let presence = Element::new("user")
                .with_attr("id", u.as_str())
                .with_child(Element::new("presence").with_text(presence_text(i)));
            let typed = |kind: &str| {
                Path::parse(&format!(
                    "/user[@id='{u}']/address-book/item[@type='{kind}']"
                ))
                .expect("static shape")
            };
            let parts = [
                (presence, presence_path(u)),
                (slice(u, spec.items, personal_item), typed("personal")),
                (slice(u, spec.items, corporate_item), typed("corporate")),
            ];
            for (j, (doc, path)) in parts.into_iter().enumerate() {
                stores[(i + j) % STORES]
                    .put_profile(doc)
                    .expect("profile has an id");
                reg.register_component(u, path, StoreId::new(store_id(i + j)))
                    .expect("path fits the schema");
            }
            let kin = kin_id(i);
            reg.set_relationship(u, &kin, "family");
            let pap = &mut reg.shard_mut(u).pap;
            for (rule, scope) in FAMILY_SCOPES {
                pap.provision(u, rule, Effect::Permit, scope, "relationship='family'", 0)
                    .expect("valid rule");
            }
        }
        let mut pool = StorePool::new();
        for mut s in stores {
            s.drain_events();
            pool.add(Box::new(s));
        }

        let keys = MergeKeys::new().with_key("item", "id");
        let mut plane = SyncPlane::new(SHARDS, ReconcilePolicy::LastWriterWins);
        let mut fanout = ShardedFanout::new(SHARDS);
        for i in (0..spec.fleet).map(|f| fleet_owner(spec, f)) {
            let u = &owners[i];
            plane.add_user(u, replica_book(), keys.clone(), DEVICES);
            let path = book_path(u);
            for watcher in [u.clone(), kin_id(i)] {
                fanout
                    .subscribe(reg.shard_mut(u), u, &path, &watcher, TIME, 0)
                    .expect("self and family may subscribe");
            }
        }
        let shard_owner: Vec<String> = (0..SHARDS)
            .map(|s| {
                owners
                    .iter()
                    .find(|u| reg.shard_of(u) == s)
                    .expect("every shard owns a user")
                    .clone()
            })
            .collect();
        for owner in &shard_owner {
            reg.shard_mut(owner).provenance = ProvenanceLog::with_retention(DISCLOSURE_LOG);
        }
        let sync_hub = Arc::new(TelemetryHub::new());
        sync_hub.set_span_limit(0);
        World {
            reg,
            pool,
            plane,
            fanout,
            sync_hub,
            keys,
            owners,
            shard_owner,
        }
    }

    /// Serves one window layer by layer on this thread, in the order
    /// `ShardedRegistry::answer_batch` serves it: per shard, requests in
    /// submission order, one singleflight table per shard, each request
    /// under its own `shard.request` tracer. `shard_work` receives each
    /// shard's summed lookup and fetch time, `flights` the singleflight
    /// hits and misses; referrals are kept for the store probe.
    pub fn replay_window<P: Probe>(
        &mut self,
        requests: &[ShardRequest],
        probe: &mut P,
        shard_work: &mut [f64; SHARDS],
        flights: &mut [u64; 2],
        referrals: &mut Vec<Referral>,
    ) -> Vec<Answer> {
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
        for (i, r) in requests.iter().enumerate() {
            buckets[self.reg.shard_of(&r.owner)].push(i);
        }
        let mut answers: Vec<Option<Answer>> = (0..requests.len()).map(|_| None).collect();
        for (s, bucket) in buckets.iter().enumerate() {
            let g = self.reg.shard_mut(&self.shard_owner[s]);
            let hub = g.telemetry();
            let mut flight = Singleflight::new();
            for &i in bucket {
                let r = &requests[i];
                let mut tracer = hub.tracer(stage::SHARD_REQUEST);
                let m = probe.start();
                let looked = g.lookup_traced(
                    &r.owner,
                    &r.path,
                    &r.requester,
                    r.purpose,
                    r.time,
                    r.now,
                    &mut tracer,
                );
                shard_work[s] += probe.stop(Layer::Lookup, m);
                answers[i] = Some(looked.and_then(|out| {
                    let signer = g.signer();
                    let m = probe.start();
                    let got = flight.fetch_merge(
                        &self.pool,
                        &out.referral,
                        &r.requester,
                        &signer,
                        r.now,
                        &self.keys,
                        true,
                        Some(&mut tracer),
                    );
                    shard_work[s] += probe.stop(Layer::Fetch, m);
                    referrals.push(out.referral);
                    got
                }));
            }
            flights[0] += flight.hits;
            flights[1] += flight.misses;
        }
        answers
            .into_iter()
            .map(|a| a.expect("every request served"))
            .collect()
    }

    /// Times `DataStore::query` on each fragment of the given referrals.
    pub fn probe_stores<P: Probe>(&self, referrals: &[Referral], probe: &mut P) {
        for referral in referrals {
            for e in &referral.entries {
                let store = self.pool.get(&e.store).expect("referred store is pooled");
                let m = probe.start();
                let got = store.query(&e.path);
                probe.stop(Layer::Query, m);
                drop(std::hint::black_box(got));
            }
        }
    }

    /// One write round: apply the storm, reconcile every star, write
    /// through to each owner's registry shard, stage the change events
    /// on the fanout plane and flush its window.
    pub fn write_round<P: Probe>(&mut self, storm: Vec<Edit>, probe: &mut P) -> RoundOut {
        let mut out = RoundOut::default();
        for e in storm {
            let owner = &self.owners[e.owner];
            let m = probe.start();
            let applied = if e.replica == DEVICES {
                self.plane.edit_hub(owner, e.op)
            } else {
                self.plane.edit_device(owner, e.replica, e.op)
            };
            probe.stop(Layer::Edit, m);
            out.edit_errors += applied.is_err() as usize;
        }

        let m = probe.start();
        let report = self.plane.reconcile(&self.sync_hub);
        probe.stop(Layer::Reconcile, m);
        out.absorb(&report);

        // `write_through` and the fanout plane each take one `Gupster`,
        // while an owner's registry state lives on its own shard: the
        // report is split by owner shard and each part goes to its shard.
        let mut parts: Vec<Vec<UserOutcome>> = vec![Vec::new(); SHARDS];
        for u in report.users {
            parts[self.reg.shard_of(&u.owner)].push(u);
        }
        let mut events = Vec::with_capacity(SHARDS);
        for (s, users) in parts.into_iter().enumerate() {
            let part = PlaneReport {
                users,
                ..PlaneReport::default()
            };
            let g = self.reg.shard_mut(&self.shard_owner[s]);
            let m = probe.start();
            events.push(write_through(g, &part));
            probe.stop(Layer::WriteThrough, m);
        }

        let m = probe.start();
        for (s, ev) in events.iter().enumerate() {
            let mut staged = self.fanout.stage_events(&self.reg.shards()[s], ev, TIME);
            out.staged += staged.staged;
            out.suppressed.append(&mut staged.suppressed);
        }
        probe.stop(Layer::Stage, m);

        let m = probe.start();
        out.batches = self.fanout.flush_window(&self.reg.shards()[0]);
        probe.stop(Layer::Flush, m);
        out
    }
}

/// What one write round reports, for the checks and the trace.
#[derive(Debug, Clone, Default)]
pub struct RoundOut {
    pub edit_errors: usize,
    pub users: usize,
    pub converged_users: usize,
    pub session_errors: usize,
    pub sessions: usize,
    /// Sessions of users whose reconcile shipped no op at all.
    pub idle_sessions: usize,
    pub bytes: usize,
    pub compared: usize,
    pub staged: usize,
    /// Matches the shield refused, never delivered.
    pub suppressed: Vec<Notification>,
    pub batches: Vec<DeliveryBatch>,
}

impl RoundOut {
    fn absorb(&mut self, report: &PlaneReport) {
        self.users = report.users.len();
        self.converged_users = report.converged_users;
        self.sessions = report.sessions;
        self.bytes = report.bytes_exchanged;
        self.compared = report.compared;
        for u in &report.users {
            self.session_errors += u.errors;
            if u.shipped == 0 {
                self.idle_sessions += u.sessions;
            }
        }
    }
}
