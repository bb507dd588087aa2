//! Correctness checks run inside every loop. They compare outputs with
//! what the generated fixture and storm imply, and call no oracle API.
//! Each wrong or unexpected outcome counts one failure.

use std::collections::{BTreeMap, BTreeSet};

use gupster_core::{Notification, SyncPlane};
use gupster_xml::Element;

use crate::gen::{item_id, kin_id, user_id, Edit, Read, Spec, HOT_BASE};
use crate::world::{corporate_item, personal_item, presence_text, Answer, RoundOut, FAMILY_SCOPES};

/// Failures in one window: each answer must hold exactly the items the
/// requester may see of that owner's fixture.
pub fn read_failures(spec: &Spec, reads: &[Read], answers: &[Answer]) -> u64 {
    if reads.len() != answers.len() {
        return reads.len().max(1) as u64;
    }
    reads
        .iter()
        .zip(answers)
        .filter(|(r, a)| !read_ok(spec, r, a))
        .count() as u64
}

fn read_ok(spec: &Spec, read: &Read, answer: &Answer) -> bool {
    let Ok(elems) = answer else { return false };
    if !read.book {
        return elems.len() == 1
            && elems[0].name == "presence"
            && elems[0].text() == presence_text(read.owner);
    }
    // Self reads merge the personal and corporate slices into one
    // address book; a family read is narrowed to the personal items.
    let mut got: Vec<&Element> = Vec::new();
    for e in elems {
        match e.name.as_str() {
            "address-book" => {
                if e.child_elements().any(|c| c.name != "item") {
                    return false;
                }
                got.extend(e.child_elements());
            }
            "item" => got.push(e),
            _ => return false,
        }
    }
    let owner = user_id(read.owner);
    let mut want: Vec<Element> = (0..spec.items).map(|k| personal_item(&owner, k)).collect();
    if !read.family {
        want.extend((0..spec.items).map(|k| corporate_item(&owner, k)));
    }
    if got.len() != want.len() {
        return false;
    }
    got.sort_by(|a, b| a.attr("id").cmp(&b.attr("id")));
    want.sort_by(|a, b| a.attr("id").cmp(&b.attr("id")));
    got.iter().zip(&want).all(|(g, w)| *g == w)
}

/// Failures in one write round:
/// - every star converged and no session or edit errored;
/// - each band item edited this round holds the storm's last value for
///   it on the hub (bands have a single writer, so the value is known);
/// - every delivered notification is one the provisioned rules permit,
///   every suppressed one is one they refuse, and each watcher of each
///   edited owner got exactly one of the two.
pub fn round_failures(
    spec: &Spec,
    storm: &[Edit],
    out: &RoundOut,
    plane: &SyncPlane,
    owners: &[String],
) -> u64 {
    let mut failed = out.edit_errors + out.session_errors;
    failed += spec.fleet.abs_diff(out.users) + out.users.saturating_sub(out.converged_users);

    let mut last: BTreeMap<(usize, usize), &str> = BTreeMap::new();
    for e in storm.iter().filter(|e| e.item < HOT_BASE) {
        last.insert((e.owner, e.item), &e.text);
    }
    for (&(owner, item), &text) in &last {
        let id = item_id(item);
        let hub = plane.hub_doc(&owners[owner]);
        let held = hub
            .child_elements()
            .find(|c| c.attr("id") == Some(id.as_str()));
        if held.and_then(|c| c.child("name")).map(|n| n.text()) != Some(text.into()) {
            failed += 1;
        }
    }

    let edited: BTreeSet<usize> = storm.iter().map(|e| e.owner).collect();
    let delivered = out.batches.iter().flat_map(|b| {
        b.notifications
            .iter()
            .map(move |n| (n, n.subscriber == b.subscriber))
    });
    let suppressed = out.suppressed.iter().map(|n| (n, true));
    let mut reached: BTreeSet<(usize, bool)> = BTreeSet::new();
    for (outcome, notes) in [
        (true, delivered.collect::<Vec<_>>()),
        (false, suppressed.collect()),
    ] {
        for (n, addressed) in notes {
            match watcher_of(&edited, n) {
                Some((owner, family)) if addressed && permitted(n, family) == outcome => {
                    reached.insert((owner, family));
                }
                _ => failed += 1,
            }
        }
    }
    failed += 2 * edited.len() - reached.len();
    failed as u64
}

/// The edited owner a notification is about and whether it went to
/// their family member (`false`: to the owner), when it is one of the
/// two watchers of an owner edited this round.
fn watcher_of(edited: &BTreeSet<usize>, n: &Notification) -> Option<(usize, bool)> {
    let owner = n.owner.strip_prefix('u')?.parse::<usize>().ok()?;
    if !edited.contains(&owner) || n.owner != user_id(owner) {
        return None;
    }
    if n.subscriber == n.owner {
        Some((owner, false))
    } else if n.subscriber == kin_id(owner) {
        Some((owner, true))
    } else {
        None
    }
}

/// Whether the provisioned rules let this watcher see the changed path:
/// owners see everything under their profile, family members only what
/// lies inside a family scope.
fn permitted(n: &Notification, family: bool) -> bool {
    let path = n.path.to_string();
    let owner_root = format!("/user[@id='{}']", n.owner);
    let Some(rest) = path.strip_prefix(&owner_root) else {
        return false;
    };
    !family
        || FAMILY_SCOPES.iter().any(|(_, scope)| {
            let scope = scope.strip_prefix("/user").expect("scopes are under /user");
            rest == scope || rest.starts_with(&format!("{scope}/"))
        })
}
