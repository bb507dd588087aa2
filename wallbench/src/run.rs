//! The closed loops. A round is one write round followed by the
//! workload's read windows; the next call starts only when the previous
//! one has returned.

use std::time::Instant;

use crate::check;
use crate::gen::{Inputs, Spec, SHARDS};
use crate::probe::{Probe, Untimed};
use crate::world::World;

#[derive(Debug, Clone, Copy)]
pub enum Stop {
    At(Instant),
    Rounds(usize),
}

impl Stop {
    fn reached(self, rounds: usize) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= t,
            Stop::Rounds(n) => rounds >= n,
        }
    }
}

/// Counts and wall times of one loop.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub rounds: usize,
    pub reads: u64,
    pub edits: u64,
    pub failed: u64,
    /// Wall time of each read window, in order.
    pub window_secs: Vec<f64>,
    /// Wall time of each write round, first edit to flushed window.
    pub round_secs: Vec<f64>,
}

impl Tally {
    pub fn attempted(&self) -> u64 {
        self.reads + self.edits
    }
}

/// The end-to-end loop: windows go through
/// `ShardedRegistry::answer_batch`, as a client of the registry sees it.
pub fn serve(world: &mut World, spec: &Spec, inputs: &Inputs, stop: Stop) -> Tally {
    let mut t = Tally::default();
    let mut next_window = 0;
    while !stop.reached(t.rounds) {
        let storm = &inputs.storms[t.rounds % inputs.storms.len()];
        let owned = storm.clone();
        let t0 = Instant::now();
        let out = world.write_round(owned, &mut Untimed);
        t.round_secs.push(t0.elapsed().as_secs_f64());
        t.edits += storm.len() as u64;
        t.failed += check::round_failures(spec, storm, &out, &world.plane, &world.owners);

        for _ in 0..spec.windows_per_round {
            let win = &inputs.windows[next_window % inputs.windows.len()];
            next_window += 1;
            let t0 = Instant::now();
            let (answers, _) =
                world
                    .reg
                    .answer_batch(&world.pool, &win.requests, &world.keys, true);
            t.window_secs.push(t0.elapsed().as_secs_f64());
            t.reads += win.requests.len() as u64;
            t.failed += check::read_failures(spec, &win.reads, &answers);
        }
        t.rounds += 1;
    }
    t
}

/// The single-threaded replay of the same rounds, one public call at a
/// time, each bracketed by `probe`.
#[derive(Debug, Default)]
pub struct Replay {
    pub tally: Tally,
    /// Wall time of the loop's calls and their bookkeeping, checks
    /// and the store probe excluded.
    pub loop_secs: f64,
    /// Per window: the busiest shard's summed lookup and fetch time.
    pub busiest: Vec<f64>,
    /// Per window: the mean shard's summed lookup and fetch time.
    pub mean_work: Vec<f64>,
    /// Singleflight hits and misses.
    pub flights: [u64; 2],
    pub fragments: u64,
    pub sessions: u64,
    pub idle_sessions: u64,
    pub bytes: u64,
    pub compared: u64,
    pub staged: u64,
    pub suppressed: u64,
    pub messages: u64,
}

pub fn replay<P: Probe>(
    world: &mut World,
    spec: &Spec,
    inputs: &Inputs,
    stop: Stop,
    probe: &mut P,
    probe_stores: bool,
) -> Replay {
    let mut r = Replay::default();
    let mut next_window = 0;
    let mut referrals = Vec::new();
    while !stop.reached(r.tally.rounds) {
        let storm = &inputs.storms[r.tally.rounds % inputs.storms.len()];
        let owned = storm.clone();
        let t0 = Instant::now();
        let out = world.write_round(owned, probe);
        let dt = t0.elapsed().as_secs_f64();
        r.loop_secs += dt;
        r.tally.round_secs.push(dt);
        r.tally.edits += storm.len() as u64;
        r.tally.failed += check::round_failures(spec, storm, &out, &world.plane, &world.owners);
        r.sessions += out.sessions as u64;
        r.idle_sessions += out.idle_sessions as u64;
        r.bytes += out.bytes as u64;
        r.compared += out.compared as u64;
        r.staged += out.staged as u64;
        r.suppressed += out.suppressed.len() as u64;
        r.messages += out.batches.len() as u64;

        for _ in 0..spec.windows_per_round {
            let win = &inputs.windows[next_window % inputs.windows.len()];
            next_window += 1;
            let mut work = [0.0; SHARDS];
            referrals.clear();
            let t0 = Instant::now();
            let answers = world.replay_window(
                &win.requests,
                probe,
                &mut work,
                &mut r.flights,
                &mut referrals,
            );
            let dt = t0.elapsed().as_secs_f64();
            r.loop_secs += dt;
            r.tally.window_secs.push(dt);
            r.busiest.push(work.iter().copied().fold(0.0, f64::max));
            r.mean_work.push(work.iter().sum::<f64>() / SHARDS as f64);
            r.fragments += referrals
                .iter()
                .map(|x| x.entries.len() as u64)
                .sum::<u64>();
            r.tally.reads += win.requests.len() as u64;
            r.tally.failed += check::read_failures(spec, &win.reads, &answers);
            if probe_stores {
                world.probe_stores(&referrals, probe);
            }
        }
        r.tally.rounds += 1;
    }
    r
}
