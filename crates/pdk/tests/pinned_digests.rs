//! Pinned cache-key digests for the mechanism refactor.
//!
//! The stage cache persists across releases (`~/.cache`-style disk caches,
//! CI artifact reuse), so cache keys are an ABI: the STT keys must be
//! byte-for-byte what they were before the SOT mechanism was added
//! (old caches keep hitting), and every SOT key must live in a disjoint
//! namespace (an SOT run can never replay an STT artifact, or vice versa).
//!
//! The literals below were captured from the pre-refactor key shapes. If
//! one of these tests fails, a hash input changed — that silently orphans
//! every cache on disk and replays stale artifacts under new semantics.
//! Bump the literals only for a *deliberate*, release-noted key break.

use mss_mtj::{MechanismConfig, MechanismKind, MssStack, SotParams};
use mss_pdk::charlib::sot_cache_key;
use mss_pdk::tech::{TechNode, TechParams};
use mss_pipe::digest_of;

fn reference_stack() -> MssStack {
    MssStack::builder().build().expect("reference stack")
}

/// The STT characterization key — `digest_of(&(tech, stack))`, exactly the
/// pre-refactor shape with no mechanism discriminant folded in.
#[test]
fn stt_characterization_keys_are_unchanged() {
    let stack = reference_stack();
    assert_eq!(
        digest_of(&(TechParams::node(TechNode::N45), &stack)),
        "bd6921eb1fecef98",
    );
    assert_eq!(
        digest_of(&(TechParams::node(TechNode::N65), &stack)),
        "030f78423fb3194f",
    );
}

/// The SOT key folds `(params, MechanismKind::Sot)` on top of the STT
/// fields — a different tuple arity, so the namespaces can never overlap.
#[test]
fn sot_characterization_keys_are_pinned_and_disjoint() {
    let stack = reference_stack();
    let tech = TechParams::node(TechNode::N45);
    let key = sot_cache_key(&tech, &stack, &SotParams::default());
    assert_eq!(key, "66f242ff3605689a");
    assert_ne!(key, digest_of(&(&tech, &stack)));

    // Any channel-parameter change forks the key.
    let mut p = SotParams::default();
    p.spin_hall_angle += 0.01;
    assert_ne!(sot_cache_key(&tech, &stack, &p), key);
}

/// The mechanism enums hash to pinned digests: the config is folded into
/// flow-level sweep digests, so its encoding is part of the key ABI too.
#[test]
fn mechanism_enum_digests_are_pinned() {
    assert_eq!(digest_of(&MechanismKind::Stt), "71b8262bb6e2e086");
    assert_eq!(digest_of(&MechanismKind::Sot), "a5a236d15db61159");
    assert_eq!(digest_of(&MechanismConfig::Stt), "71b8262bb6e2e086");
    assert_eq!(
        digest_of(&MechanismConfig::Sot(SotParams::default())),
        "8597da894806e24f",
    );
    // The kind discriminant separates the variants before any payload
    // bytes, so the two config encodings can never collide.
    assert_ne!(
        digest_of(&MechanismConfig::Stt),
        digest_of(&MechanismConfig::Sot(SotParams::default()))
    );
}

/// Prints the actual digests (run with `--nocapture`) — used once to
/// capture the pinned literals above.
#[test]
fn print_digests_for_pinning() {
    let stack = reference_stack();
    println!(
        "STT_N45={}",
        digest_of(&(TechParams::node(TechNode::N45), &stack))
    );
    println!(
        "STT_N65={}",
        digest_of(&(TechParams::node(TechNode::N65), &stack))
    );
    println!(
        "SOT_N45={}",
        sot_cache_key(
            &TechParams::node(TechNode::N45),
            &stack,
            &SotParams::default()
        )
    );
    println!("KIND_STT={}", digest_of(&MechanismKind::Stt));
    println!("KIND_SOT={}", digest_of(&MechanismKind::Sot));
    println!("CFG_STT={}", digest_of(&MechanismConfig::Stt));
    println!(
        "CFG_SOT={}",
        digest_of(&MechanismConfig::Sot(SotParams::default()))
    );
}
