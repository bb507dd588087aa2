//! Timing each public call from outside: a [`Probe`] brackets every
//! layer call the replay makes. [`Untimed`] compiles to nothing, so the
//! same replay code runs with and without tracing and the difference is
//! the tracing overhead.

use std::time::Instant;

use crate::alloc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Gupster::lookup_traced` on the owner's shard.
    Lookup,
    /// `Singleflight::fetch_merge` with batched fetches.
    Fetch,
    /// `DataStore::query` on one referral fragment (probed apart from
    /// the loop).
    Query,
    /// `SyncPlane::edit_device` / `edit_hub`.
    Edit,
    /// `SyncPlane::reconcile`.
    Reconcile,
    /// `write_through` on one owner shard.
    WriteThrough,
    /// `ShardedFanout::stage_events`, every shard's events of a round.
    Stage,
    /// `ShardedFanout::flush_window`.
    Flush,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Lookup,
    Layer::Fetch,
    Layer::Query,
    Layer::Edit,
    Layer::Reconcile,
    Layer::WriteThrough,
    Layer::Stage,
    Layer::Flush,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Lookup => "registry.lookup",
            Layer::Fetch => "client.fetch",
            Layer::Query => "store.query",
            Layer::Edit => "sync.edit",
            Layer::Reconcile => "sync.reconcile",
            Layer::WriteThrough => "writethrough",
            Layer::Stage => "subs.stage",
            Layer::Flush => "subs.flush",
        }
    }

    /// Layers whose calls make up the replayed loop (the store probe
    /// repeats work already inside `Fetch`).
    pub fn in_loop(self) -> bool {
        self != Layer::Query
    }
}

pub trait Probe {
    type Mark;
    fn start(&mut self) -> Self::Mark;
    /// Records the call and returns its wall time in seconds (0 when
    /// untimed).
    fn stop(&mut self, layer: Layer, mark: Self::Mark) -> f64;
}

pub struct Untimed;

impl Probe for Untimed {
    type Mark = ();
    #[inline(always)]
    fn start(&mut self) {}
    #[inline(always)]
    fn stop(&mut self, _: Layer, _: ()) -> f64 {
        0.0
    }
}

/// Per-layer call times and allocation counts.
#[derive(Debug, Default, Clone)]
pub struct LayerLog {
    pub secs: Vec<f64>,
    pub allocs: u64,
    pub bytes: u64,
}

#[derive(Debug, Default)]
pub struct Timed {
    pub logs: [LayerLog; LAYERS.len()],
}

impl Timed {
    pub fn log(&self, layer: Layer) -> &LayerLog {
        &self.logs[layer as usize]
    }

    /// Share of the given read windows' wall time that their timed
    /// lookup and fetch calls account for; the rest is bookkeeping
    /// between the calls.
    pub fn read_coverage(&self, window_secs: &[f64]) -> f64 {
        let layers: f64 = [Layer::Lookup, Layer::Fetch]
            .iter()
            .map(|&l| self.log(l).secs.iter().sum::<f64>())
            .sum();
        layers / window_secs.iter().sum::<f64>()
    }
}

impl Probe for Timed {
    type Mark = (alloc::Snapshot, Instant);

    fn start(&mut self) -> Self::Mark {
        let a = alloc::snapshot();
        (a, Instant::now())
    }

    fn stop(&mut self, layer: Layer, (a, t): Self::Mark) -> f64 {
        let secs = t.elapsed().as_secs_f64();
        let b = alloc::snapshot();
        let log = &mut self.logs[layer as usize];
        log.secs.push(secs);
        log.allocs += b.allocs - a.allocs;
        log.bytes += b.bytes - a.bytes;
        secs
    }
}
