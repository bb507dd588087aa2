//! Self-tests of the benchmark: its checks catch wrong outputs, and its
//! inputs are a pure function of the seed.

use gupster_core::Notification;
use gupster_xpath::Path;

use crate::check::{read_failures, round_failures};
use crate::gen::{self, generate, kin_id, user_id, Spec};
use crate::probe::{Timed, Untimed};
use crate::run::{replay, serve, Stop};
use crate::world::World;

const TINY: Spec = Spec {
    name: "tiny",
    users: 40,
    items: 3,
    presence_pct: 50,
    fleet: 8,
    edits_per_round: 12,
    windows_per_round: 2,
};

#[test]
fn same_seed_generates_identical_inputs() {
    for spec in gen::SPECS.iter().map(|s| Spec {
        users: 64,
        fleet: 16,
        ..*s
    }) {
        let a = format!("{:?}", generate(&spec, 7));
        assert_eq!(a, format!("{:?}", generate(&spec, 7)), "{}", spec.name);
        assert_ne!(a, format!("{:?}", generate(&spec, 8)), "{}", spec.name);
    }
}

#[test]
fn read_workload_writes_land_on_an_evenly_spread_fleet() {
    for spec in gen::SPECS.iter().filter(|s| s.fleet < s.users) {
        let fleet: Vec<usize> = (0..spec.fleet).map(|i| gen::fleet_owner(spec, i)).collect();
        let stride = spec.users / spec.fleet;
        assert!(fleet.iter().enumerate().all(|(i, &o)| o / stride == i));
        let inputs = generate(spec, 1);
        assert!(inputs
            .storms
            .iter()
            .flatten()
            .all(|e| fleet.contains(&e.owner)));
    }
}

#[test]
fn tampered_read_answers_count_as_failures() {
    let inputs = generate(&TINY, 3);
    let mut world = World::build(&TINY);
    let win = inputs
        .windows
        .iter()
        .find(|w| w.reads.iter().any(|r| r.book) && w.reads.iter().any(|r| !r.book))
        .expect("a window with both read kinds");
    let (answers, _) = world
        .reg
        .answer_batch(&world.pool, &win.requests, &world.keys, true);
    assert_eq!(read_failures(&TINY, &win.reads, &answers), 0);

    let book = win.reads.iter().position(|r| r.book).expect("a book read");
    let mut renamed = answers.clone();
    let elems = renamed[book].as_mut().expect("answered");
    let item = if elems[0].name == "item" {
        &mut elems[0]
    } else {
        elems[0].child_elements_mut().next().expect("an item")
    };
    item.child_mut("name").expect("named").set_text("Mallory");
    assert_eq!(read_failures(&TINY, &win.reads, &renamed), 1);

    let presence = win
        .reads
        .iter()
        .position(|r| !r.book)
        .expect("a presence read");
    let mut swapped = answers.clone();
    swapped[presence] = answers[book].clone();
    assert_eq!(read_failures(&TINY, &win.reads, &swapped), 1);

    let mut dropped = answers.clone();
    dropped[presence].as_mut().expect("answered").clear();
    assert_eq!(read_failures(&TINY, &win.reads, &dropped), 1);
}

#[test]
fn broken_rounds_count_as_failures() {
    let inputs = generate(&TINY, 5);
    let mut world = World::build(&TINY);
    let storm = &inputs.storms[0];
    let out = world.write_round(storm.clone(), &mut Untimed);
    let check =
        |out: &_, storm: &[_]| round_failures(&TINY, storm, out, &world.plane, &world.owners);
    assert_eq!(check(&out, storm), 0);
    assert!(
        out.staged > 0 && !out.suppressed.is_empty(),
        "family pushes are shielded"
    );

    let mut unconverged = out.clone();
    unconverged.converged_users -= 1;
    assert_eq!(check(&unconverged, storm), 1);

    let mut errored = out.clone();
    errored.session_errors = 2;
    assert_eq!(check(&errored, storm), 2);

    // A storm that implies another value for a band item than the hub
    // converged to.
    let mut other = storm.clone();
    let band = other
        .iter()
        .rposition(|e| e.item < gen::HOT_BASE)
        .expect("a band edit");
    other[band].text.push('!');
    assert_eq!(check(&out, &other), 1);

    // A push the shield refuses, delivered anyway.
    let mut leaked = out.clone();
    let refused = leaked.suppressed.pop().expect("a suppressed push");
    assert_eq!(
        refused.subscriber,
        kin_id(refused.owner[1..].parse().expect("owner index"))
    );
    leaked.batches[0].subscriber = refused.subscriber.clone();
    leaked.batches[0].notifications = vec![refused];
    assert!(check(&leaked, storm) >= 1);

    // A push to someone who does not watch the owner.
    let mut stray = out.clone();
    let owner = user_id(storm[0].owner);
    let subscriber = stray.batches[0].subscriber.clone();
    stray.batches[0].notifications.push(Notification {
        subscription_id: 0,
        subscriber,
        owner: owner.clone(),
        path: Path::parse(&format!("/user[@id='{owner}']/address-book")).expect("path"),
    });
    stray.batches[0].subscriber = "stranger".into();
    assert!(check(&stray, storm) >= 1);

    // Every edited owner's owner watcher must be reached.
    let mut silent = out.clone();
    silent.batches.clear();
    assert!(check(&silent, storm) >= 1);
}

#[test]
fn loops_run_clean_and_replay_accounts_for_its_time() {
    let inputs = generate(&TINY, 11);
    let mut world = World::build(&TINY);
    let t = serve(&mut world, &TINY, &inputs, Stop::Rounds(3));
    assert_eq!(t.failed, 0);
    assert_eq!(t.window_secs.len(), 3 * TINY.windows_per_round);
    assert_eq!(t.reads, (3 * TINY.windows_per_round * gen::WINDOW) as u64);

    let mut world = World::build(&TINY);
    let mut timed = Timed::default();
    let r = replay(
        &mut world,
        &TINY,
        &inputs,
        Stop::Rounds(3),
        &mut timed,
        true,
    );
    assert_eq!(r.tally.failed, 0);
    assert_eq!(r.tally.reads, t.reads);
    let coverage = timed.read_coverage(&r.tally.window_secs);
    assert!(coverage > 0.0 && coverage <= 1.0, "coverage {coverage}");
}
