//! Regression test for the consolidated, cached observability env parsing.
//!
//! Before the `env_config` consolidation, `Mode::from_env` re-parsed
//! `MSS_METRICS` on every call site (global registry init,
//! explicit `Registry::from_env`, diagnostics), each with its own warn-once
//! `Once` — so a garbled value was re-validated repeatedly and the
//! bad-env tally differed between consumers. This test runs in its own
//! process (integration tests are separate binaries), sets the flag
//! variables — one of them garbled — *before* anything consults them, and
//! asserts every entry point observes one identical cached parse.

use mss_obs::{Mode, Registry, BAD_ENV_COUNTER, EVENTS_ENV, METRICS_ENV};

#[test]
fn garbled_flags_are_parsed_once_and_consistently() {
    // Must happen before the first env_config() call anywhere in this
    // process; keeping everything in one #[test] guarantees ordering.
    // MSS_METRICS stays valid so the registries below are live enough to
    // record the bad-env tally.
    std::env::set_var(METRICS_ENV, "1");
    std::env::set_var(EVENTS_ENV, "2");

    let config = mss_obs::env_config();
    assert_eq!(config.mode, Mode::Metrics);
    assert!(!config.events, "garbled MSS_EVENTS counts unset");
    assert_eq!(config.bad_env, 1, "the garbled var is tallied once");

    // Every consumer sees the same cached parse — no re-reads, no drift.
    assert_eq!(Mode::from_env(), Mode::Metrics);
    assert!(!mss_obs::events::bus_enabled());
    assert!(std::ptr::eq(config, mss_obs::env_config()));

    // Each registry built from the env seeds the same diagnosable tally.
    let first = Registry::from_env();
    let second = Registry::from_env();
    assert_eq!(first.counter(BAD_ENV_COUNTER), 1);
    assert_eq!(second.counter(BAD_ENV_COUNTER), 1);

    // Changing the environment after the first parse is deliberately
    // ignored: the snapshot is per-process, so warnings cannot repeat.
    std::env::set_var(METRICS_ENV, "0");
    assert_eq!(
        Mode::from_env(),
        Mode::Metrics,
        "env is parsed exactly once"
    );
}
