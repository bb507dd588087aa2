//! Wall-clock benchmark of GUPster through its public API.
//!
//! ```text
//! cargo run --release --manifest-path wallbench/Cargo.toml -- \
//!     --workload <referral-small|merge-large|edit-storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the end-to-end closed loop and reports the
//! end-to-end metrics; `--trace 1` runs the single-threaded traced
//! replay of the same generated inputs and reports per-layer metrics.
//! The last line of standard output is one JSON object; human-readable
//! tables go to standard error. The process exits 1 when any output was
//! wrong. See README.md for the workloads and what each metric should
//! move.

mod alloc;
mod check;
mod gen;
mod probe;
mod run;
mod stats;
#[cfg(test)]
mod tests;
mod world;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gupster_telemetry::CounterSnapshot;

use gen::{Inputs, Spec, SHARDS, WINDOW};
use probe::{Layer, Timed, Untimed, LAYERS};
use run::{replay, serve, Replay, Stop, Tally};
use stats::{block_median, quantile, ratio, BLOCKS};
use world::World;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Fixture builds per end-to-end run: at least `SETUPS`, and more until
/// they add up to `SETUP_SECS`, so the small `edit-storm` fixture is
/// built often enough for a steady median. `setup_s` is their median.
const SETUPS: usize = 5;
const SETUP_SECS: f64 = 2.0;
/// Untimed closed-loop time before the end-to-end measurement, so the
/// decision memo and allocator reach steady state first.
const WARMUP: Duration = Duration::from_secs(1);
/// Share of `--seconds` the traced replay runs for; the untraced replay
/// and the end-to-end reference then run the same rounds.
const TRACED_SHARE: f64 = 0.3;
/// The least share of the traced replay's read-window wall time its
/// timed lookup and fetch calls must account for; below it the trace
/// misses real work and the run counts one failure.
const COVERAGE_MIN: f64 = 0.90;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: wallbench --workload <referral-small|merge-large|edit-storm> \
                     --seed <n> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut spec, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                spec = Some(gen::spec(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        spec: spec.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let inputs = gen::generate(&args.spec, args.seed);
    let out = if args.trace {
        traced(&args, &inputs)
    } else {
        end_to_end(&args, &inputs)
    };
    let correct = out.failed == 0 && out.metrics.iter().all(|m| m.value.is_finite());
    println!("{}", out.json(correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "wrong outputs: {} of {} operations failed",
            out.failed, out.attempted
        );
        ExitCode::from(1)
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Output {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Output {
    fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn end_to_end(args: &Args, inputs: &Inputs) -> Output {
    let mut setups: Vec<f64> = Vec::new();
    let mut world = None;
    while setups.len() < SETUPS || setups.iter().sum::<f64>() < SETUP_SECS {
        drop(world.take());
        let t0 = Instant::now();
        world = Some(World::build(&args.spec));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut world = world.expect("built at least once");
    let warm = serve(
        &mut world,
        &args.spec,
        inputs,
        Stop::At(Instant::now() + WARMUP),
    );
    let stop = Stop::At(Instant::now() + Duration::from_secs(args.seconds));
    let t = serve(&mut world, &args.spec, inputs, stop);
    // Every window carries WINDOW requests and every round the same
    // number of edits, so rates follow from the samples of a block.
    let windows = &t.window_secs;
    let rounds = &t.round_secs;
    // The first window of each round is the first read after the
    // round's writes and their invalidations.
    let after_write: Vec<f64> = windows
        .iter()
        .step_by(args.spec.windows_per_round)
        .copied()
        .collect();
    let edits_per_round = t.edits as f64 / t.rounds as f64;
    let rate = |per: f64| move |b: &[f64]| b.len() as f64 * per / b.iter().sum::<f64>();
    let q = |p: f64| move |b: &[f64]| quantile(b, p);
    let metrics = vec![
        Metric {
            name: "read_rps",
            value: block_median(windows, rate(WINDOW as f64)),
            unit: "1/s",
        },
        Metric {
            name: "read_p50_us",
            value: block_median(windows, q(0.5)) * 1e6,
            unit: "us",
        },
        Metric {
            name: "read_after_write_p50_us",
            value: block_median(&after_write, q(0.5)) * 1e6,
            unit: "us",
        },
        Metric {
            name: "edits_per_s",
            value: block_median(rounds, rate(edits_per_round)),
            unit: "1/s",
        },
        Metric {
            name: "push_p50_ms",
            value: block_median(rounds, q(0.5)) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "push_p95_ms",
            value: block_median(rounds, q(0.95)) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "setup_s",
            value: quantile(&setups, 0.5),
            unit: "s",
        },
        Metric {
            name: "heap_peak_mb",
            value: alloc::peak_bytes() as f64 / 1e6,
            unit: "MB",
        },
    ];
    eprintln!(
        "{}: {} fixture builds; {} rounds, {} reads in {} windows of {WINDOW}, {} edits, \
         {} failed (warm-up: {} rounds, {} failed); timings are medians over {BLOCKS} \
         consecutive blocks",
        args.spec.name,
        setups.len(),
        t.rounds,
        t.reads,
        t.window_secs.len(),
        t.edits,
        t.failed,
        warm.rounds,
        warm.failed,
    );
    for m in &metrics {
        eprintln!("  {:<14} {:>14.3} {}", m.name, m.value, m.unit);
    }
    Output {
        attempted: t.attempted() + warm.attempted(),
        failed: t.failed + warm.failed,
        metrics,
    }
}

/// Registry-side counters summed over the shards: (counters, memo hits,
/// memo misses).
fn registry_counters(world: &World) -> (CounterSnapshot, u64, u64) {
    let (mut hits, mut misses) = (0, 0);
    for g in world.reg.shards() {
        let (_, h, m) = g.memo_stats();
        hits += h;
        misses += m;
    }
    (world.reg.counter_totals(), hits, misses)
}

fn traced(args: &Args, inputs: &Inputs) -> Output {
    let spec = &args.spec;
    let budget = Duration::from_secs_f64(args.seconds as f64 * TRACED_SHARE);

    let mut world = World::build(spec);
    let (c0, h0, m0) = registry_counters(&world);
    let mut timed = Timed::default();
    let a = replay(
        &mut world,
        spec,
        inputs,
        Stop::At(Instant::now() + budget),
        &mut timed,
        true,
    );
    let (c1, h1, m1) = registry_counters(&world);
    let log_entries = world.plane.log_entries();
    drop(world);
    let rounds = Stop::Rounds(a.tally.rounds);

    let mut world = World::build(spec);
    let plain = replay(&mut world, spec, inputs, rounds, &mut Untimed, false);
    drop(world);

    let mut world = World::build(spec);
    let e2e = serve(&mut world, spec, inputs, rounds);
    drop(world);

    let metrics = layer_metrics(
        &a,
        &timed,
        &plain,
        &e2e,
        (
            c1.lookups - c0.lookups,
            c1.fallback_scans - c0.fallback_scans,
        ),
        (h1 - h0, m1 - m0),
        c1.invalidations - c0.invalidations,
        log_entries,
    );
    print_layer_table(spec, &a, &timed);
    for m in &metrics {
        eprintln!("  {:<36} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let coverage = timed.read_coverage(&a.tally.window_secs);
    let covered = coverage >= COVERAGE_MIN;
    if !covered {
        eprintln!("trace.coverage {coverage:.3} is below {COVERAGE_MIN}: the trace misses work");
    }
    // The coverage check counts as one more operation.
    let runs = [&a.tally, &plain.tally, &e2e];
    Output {
        attempted: runs.iter().map(|t| t.attempted()).sum::<u64>() + 1,
        failed: runs.iter().map(|t| t.failed).sum::<u64>() + !covered as u64,
        metrics,
    }
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    a: &Replay,
    timed: &Timed,
    plain: &Replay,
    e2e: &Tally,
    (lookups, fallback_scans): (u64, u64),
    (memo_hits, memo_misses): (u64, u64),
    invalidations: u64,
    log_entries: usize,
) -> Vec<Metric> {
    let log = |l: Layer| timed.log(l);
    let calls = |l: Layer| log(l).secs.len() as f64;
    let p50_us = |l: Layer| quantile(&log(l).secs, 0.5) * 1e6;
    let per_call = |l: Layer, n: u64| ratio(n as f64, calls(l));
    let rounds = a.tally.rounds as f64;
    let edits = a.tally.edits as f64;
    // `write_through` runs once per owner shard; a round's cost is the
    // sum of its shard calls.
    let wt_rounds: Vec<f64> = log(Layer::WriteThrough)
        .secs
        .chunks(SHARDS)
        .map(|c| c.iter().sum())
        .collect();
    let overhead: Vec<f64> = e2e
        .window_secs
        .iter()
        .zip(&a.busiest)
        .map(|(w, b)| w - b)
        .collect();
    let sync_allocs = log(Layer::Edit).allocs + log(Layer::Reconcile).allocs;
    vec![
        Metric {
            name: "registry.lookup_us",
            value: p50_us(Layer::Lookup),
            unit: "us",
        },
        Metric {
            name: "registry.lookup_allocs",
            value: per_call(Layer::Lookup, log(Layer::Lookup).allocs),
            unit: "count",
        },
        Metric {
            name: "registry.fallback_scans_per_lookup",
            value: ratio(fallback_scans as f64, lookups as f64),
            unit: "count",
        },
        Metric {
            name: "policy.memo_hit_frac",
            value: ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
            unit: "ratio",
        },
        Metric {
            name: "client.fetch_us",
            value: p50_us(Layer::Fetch),
            unit: "us",
        },
        Metric {
            name: "client.fetch_allocs",
            value: per_call(Layer::Fetch, log(Layer::Fetch).allocs),
            unit: "count",
        },
        Metric {
            name: "client.fetch_alloc_bytes",
            value: per_call(Layer::Fetch, log(Layer::Fetch).bytes),
            unit: "B",
        },
        Metric {
            name: "client.fragments_per_req",
            value: ratio(a.fragments as f64, a.tally.reads as f64),
            unit: "count",
        },
        Metric {
            name: "client.singleflight_hit_frac",
            value: ratio(a.flights[0] as f64, (a.flights[0] + a.flights[1]) as f64),
            unit: "ratio",
        },
        Metric {
            name: "store.query_us",
            value: p50_us(Layer::Query),
            unit: "us",
        },
        Metric {
            name: "store.query_allocs",
            value: per_call(Layer::Query, log(Layer::Query).allocs),
            unit: "count",
        },
        Metric {
            name: "shard.window_us",
            value: quantile(&e2e.window_secs, 0.5) * 1e6,
            unit: "us",
        },
        Metric {
            name: "shard.window_p99_us",
            value: quantile(&e2e.window_secs, 0.99) * 1e6,
            unit: "us",
        },
        Metric {
            name: "shard.overhead_us",
            value: quantile(&overhead, 0.5) * 1e6,
            unit: "us",
        },
        Metric {
            name: "shard.imbalance",
            value: ratio(a.busiest.iter().sum(), a.mean_work.iter().sum()),
            unit: "ratio",
        },
        Metric {
            name: "sync.edit_us",
            value: p50_us(Layer::Edit),
            unit: "us",
        },
        Metric {
            name: "sync.reconcile_ms",
            value: quantile(&log(Layer::Reconcile).secs, 0.5) * 1e3,
            unit: "ms",
        },
        Metric {
            name: "sync.sessions_per_edit",
            value: ratio(a.sessions as f64, edits),
            unit: "count",
        },
        Metric {
            name: "sync.idle_session_frac",
            value: ratio(a.idle_sessions as f64, a.sessions as f64),
            unit: "ratio",
        },
        Metric {
            name: "sync.bytes_per_edit",
            value: ratio(a.bytes as f64, edits),
            unit: "B",
        },
        Metric {
            name: "sync.compared_per_edit",
            value: ratio(a.compared as f64, edits),
            unit: "count",
        },
        Metric {
            name: "sync.allocs_per_edit",
            value: ratio(sync_allocs as f64, edits),
            unit: "count",
        },
        Metric {
            name: "sync.log_entries",
            value: log_entries as f64,
            unit: "count",
        },
        Metric {
            name: "writethrough.us",
            value: quantile(&wt_rounds, 0.5) * 1e6,
            unit: "us",
        },
        Metric {
            name: "writethrough.invalidations_per_round",
            value: ratio(invalidations as f64, rounds),
            unit: "count",
        },
        Metric {
            name: "subs.stage_us",
            value: p50_us(Layer::Stage),
            unit: "us",
        },
        Metric {
            name: "subs.flush_us",
            value: p50_us(Layer::Flush),
            unit: "us",
        },
        Metric {
            name: "subs.msgs_per_notification",
            value: ratio(a.messages as f64, a.staged as f64),
            unit: "count",
        },
        Metric {
            name: "subs.suppressed_frac",
            value: ratio(a.suppressed as f64, (a.staged + a.suppressed) as f64),
            unit: "ratio",
        },
        Metric {
            name: "trace.coverage",
            value: timed.read_coverage(&a.tally.window_secs),
            unit: "ratio",
        },
        Metric {
            name: "trace.overhead_frac",
            value: ratio(a.loop_secs, plain.loop_secs) - 1.0,
            unit: "ratio",
        },
    ]
}

fn print_layer_table(spec: &Spec, a: &Replay, timed: &Timed) {
    eprintln!(
        "{} traced replay: {} rounds, {} reads, {} edits, loop {:.3} s",
        spec.name, a.tally.rounds, a.tally.reads, a.tally.edits, a.loop_secs
    );
    eprintln!(
        "  {:<16} {:>8} {:>10} {:>10} {:>8} {:>12} {:>10}",
        "layer", "calls", "p50 us", "mean us", "share", "allocs/call", "B/call"
    );
    for l in LAYERS {
        let log = timed.log(l);
        let n = log.secs.len().max(1) as f64;
        let total: f64 = log.secs.iter().sum();
        let share = if l.in_loop() {
            format!("{:.1}%", 100.0 * total / a.loop_secs)
        } else {
            "-".into()
        };
        eprintln!(
            "  {:<16} {:>8} {:>10.2} {:>10.2} {:>8} {:>12.1} {:>10.0}",
            l.name(),
            log.secs.len(),
            quantile(&log.secs, 0.5) * 1e6,
            total / n * 1e6,
            share,
            log.allocs as f64 / n,
            log.bytes as f64 / n
        );
    }
}
