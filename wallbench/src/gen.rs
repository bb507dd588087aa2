//! Workload shapes and the seeded inputs they run on.
//!
//! Everything the timed loops consume — request windows and edit storms
//! — is generated here from the seed before any timing starts. Pools of
//! distinct windows and storms are generated once and cycled, so input
//! memory stays flat however long a run lasts.

use gupster_core::ShardRequest;
use gupster_policy::{Purpose, WeekTime};
use gupster_rng::{Rng, SeedableRng, StdRng};
use gupster_xml::{EditOp, NodePath};
use gupster_xpath::Path;

/// Registry, sync and fanout planes all run at this many shards: one
/// worker per core of the 2-core machines the benchmark is sized for.
pub const SHARDS: usize = 2;
/// Requests per scatter window (one `answer_batch` call).
pub const WINDOW: usize = 8;
/// Multi-tenant XML stores the read fixture is spread over.
pub const STORES: usize = 6;
/// Device replicas per owner, besides the hub.
pub const DEVICES: usize = 2;
/// Items in each owner's replicated address book.
pub const BOOK_ITEMS: usize = 40;
/// Items in each replica's private edit band: replica `r` (the hub is
/// `r == DEVICES`) edits items `r*BAND .. (r+1)*BAND` and nobody else
/// does, so the value a band item converges to is known from the storm.
pub const BAND: usize = 4;
/// First item of the hot set every replica edits (`HOT_BASE..BOOK_ITEMS`);
/// conflicts there are settled by last-writer-wins and not checked.
pub const HOT_BASE: usize = 36;
/// One storm edit in this many lands on the hot set.
const HOT_EVERY: usize = 10;
/// Zipf exponent of owner popularity.
const ZIPF_S: f64 = 0.99;
/// Distinct read windows generated per run (cycled).
const WINDOW_POOL: usize = 4096;
/// Distinct edit rounds generated per run (cycled).
const STORM_POOL: usize = 512;
/// The week-time every request and fanout window carries (Tuesday
/// 10:00).
pub const TIME: WeekTime = WeekTime {
    minutes: 24 * 60 + 10 * 60,
};

/// One workload: fixture size, read mix and the per-round loop shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    /// Users in the read fixture (each with presence and two slices).
    pub users: usize,
    /// Items in each of a user's personal and corporate slices.
    pub items: usize,
    /// Percent of reads that ask for presence (the rest ask for the
    /// merged address book).
    pub presence_pct: u32,
    /// Owners holding a hub plus [`DEVICES`] replicas, watched by self
    /// and family: [`fleet_owner`] spreads them evenly over all users.
    pub fleet: usize,
    /// Storm edits applied per round, on owners drawn uniformly from
    /// the fleet.
    pub edits_per_round: usize,
    /// Read windows served per round, after the round's writes.
    pub windows_per_round: usize,
}

/// The read workloads carry a write stream only because every workload
/// reports every end-to-end metric. It runs at a 1% update rate (edits
/// per read), the rate E10 of EXPERIMENTS.md uses, over a fleet of 16
/// owners spread evenly over all users, so it neither follows nor
/// avoids read popularity. Edits per round are set so that a run holds
/// a few hundred rounds for `push_p95_ms`; windows per round then follow
/// from the rate (`referral-small`: 4 edits, 50 windows of 8 reads;
/// `merge-large`: 1 edit, 13 windows). `edit-storm` reads one request
/// per edit: 100 edits, 13 windows.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "referral-small",
        users: 20_000,
        items: 4,
        presence_pct: 70,
        fleet: 16,
        edits_per_round: 4,
        windows_per_round: 50,
    },
    Spec {
        name: "merge-large",
        users: 2_000,
        items: 64,
        presence_pct: 10,
        fleet: 16,
        edits_per_round: 1,
        windows_per_round: 13,
    },
    Spec {
        name: "edit-storm",
        users: 500,
        items: 4,
        presence_pct: 70,
        fleet: 500,
        edits_per_round: 100,
        windows_per_round: 13,
    },
];

/// The `i`th fleet owner: the middle user of the `i`th of `fleet` equal
/// slices of the user range. Users are ranked by read popularity, so
/// the fleet samples every popularity level once per slice.
pub fn fleet_owner(spec: &Spec, i: usize) -> usize {
    let stride = spec.users / spec.fleet;
    i * stride + stride / 2
}

pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

pub fn user_id(i: usize) -> String {
    format!("u{i:05}")
}

/// The family member of user `i`: provisioned with relationship
/// `family`, permitted presence and the personal slice.
pub fn kin_id(i: usize) -> String {
    format!("k{i:05}")
}

pub fn presence_path(owner: &str) -> Path {
    Path::parse(&format!("/user[@id='{owner}']/presence")).expect("static shape")
}

pub fn book_path(owner: &str) -> Path {
    Path::parse(&format!("/user[@id='{owner}']/address-book")).expect("static shape")
}

/// What a read asks, in the form the correctness check needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Read {
    pub owner: usize,
    pub family: bool,
    pub book: bool,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    pub reads: Vec<Read>,
    pub requests: Vec<ShardRequest>,
}

/// One storm edit: `replica == DEVICES` is the hub (a portal write).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Edit {
    pub owner: usize,
    pub replica: usize,
    pub item: usize,
    pub text: String,
    pub op: EditOp,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub windows: Vec<Window>,
    pub storms: Vec<Vec<Edit>>,
}

/// Inverse-CDF Zipf sampler over ranks `0..n`; rank `k` is user `k`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, r: &mut StdRng) -> usize {
        let u: f64 = r.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

pub fn item_id(item: usize) -> String {
    format!("c{item:03}")
}

pub fn generate(spec: &Spec, seed: u64) -> Inputs {
    let mut r = StdRng::seed_from_u64(seed);
    let zipf = Zipf::new(spec.users, ZIPF_S);
    let windows = (0..WINDOW_POOL)
        .map(|w| {
            let reads: Vec<Read> = (0..WINDOW)
                .map(|_| Read {
                    owner: zipf.sample(&mut r),
                    family: r.gen_bool(0.5),
                    book: r.gen_range(0..100u32) >= spec.presence_pct,
                })
                .collect();
            let requests = reads.iter().map(|read| request(read, w as u64)).collect();
            Window { reads, requests }
        })
        .collect();
    let storms = (0..STORM_POOL)
        .map(|round| {
            (0..spec.edits_per_round)
                .map(|k| {
                    let owner = fleet_owner(spec, r.gen_range(0..spec.fleet));
                    let replica = r.gen_range(0..=DEVICES);
                    let off = r.gen_range(0..BAND);
                    let item = if k % HOT_EVERY == HOT_EVERY - 1 {
                        HOT_BASE + off
                    } else {
                        replica * BAND + off
                    };
                    let text = format!("r{round}e{k}v{}", r.gen_range(0..1000u32));
                    let op = EditOp::SetText {
                        path: NodePath::root()
                            .keyed("item", "id", item_id(item))
                            .child("name", 0),
                        text: text.clone(),
                    };
                    Edit {
                        owner,
                        replica,
                        item,
                        text,
                        op,
                    }
                })
                .collect()
        })
        .collect();
    Inputs { windows, storms }
}

fn request(read: &Read, now: u64) -> ShardRequest {
    let owner = user_id(read.owner);
    let requester = if read.family {
        kin_id(read.owner)
    } else {
        owner.clone()
    };
    let path = if read.book {
        book_path(&owner)
    } else {
        presence_path(&owner)
    };
    ShardRequest {
        owner,
        path,
        requester,
        purpose: Purpose::Query,
        time: TIME,
        now,
    }
}
