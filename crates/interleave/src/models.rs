//! Model replicas of the relay's concurrent structures.
//!
//! Each model reproduces the *synchronization skeleton* of a real
//! structure — the loads, stores, and lock acquisitions, at the same
//! granularity — with the domain arithmetic simplified just enough to
//! state an exact invariant. Every model comes in two variants:
//!
//! * **pre-fix** — the shape the code had before this PR's sync-pass
//!   findings were fixed. The checker must find the race.
//! * **fixed** — the shipped shape. The checker must exhaust the
//!   bounded schedule space without a violation.
//!
//! Covered structures:
//! * `relay::admission` — `observe_service_time`'s EWMA update, which
//!   was a `load`/`store` pair (lost updates) and is now a CAS loop.
//! * `relay::breaker` — half-open probe accounting, which used to let
//!   *any* success close the circuit and now attributes outcomes to
//!   the admitted probe via serial tokens.
//! * `relay::service` stats — `RelayStatsSnapshot`-style field-wise
//!   counter reads racing RMW increments.
//! * `crypto::certcache` — a chain validation (run outside the lock)
//!   racing the epoch bump of a configuration change, which used to
//!   clear the table *before* advancing the epoch.

use crate::sched::{Sim, VCell, VMutex, Vt};
use std::sync::{Arc, Mutex, PoisonError};

/// Which side of the fix a model replicates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Variant {
    /// The racy pre-fix shape; exploration must find a violation.
    PreFix,
    /// The shipped shape; exploration must come back clean.
    Fixed,
}

/// `relay::admission::observe_service_time`: concurrent observers fold
/// samples into one shared estimate.
///
/// The arithmetic is additive (each observer contributes exactly 100)
/// so the invariant is exact: after both observers finish, the
/// estimate must reflect both contributions. The pre-fix variant is
/// the literal `load` → compute → `store` window the sync pass flagged
/// at `admission.rs`; the fixed variant is the `fetch_update`-style
/// CAS retry loop that replaced it.
pub fn admission_ewma(variant: Variant) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let estimate = Arc::new(VCell::new(0u64));
        for _ in 0..2 {
            let estimate = Arc::clone(&estimate);
            sim.thread(move |vt| match variant {
                Variant::PreFix => {
                    let current = estimate.read(vt);
                    estimate.write(vt, current + 100);
                }
                Variant::Fixed => loop {
                    let current = estimate.read(vt);
                    if estimate
                        .compare_exchange(vt, current, current + 100)
                        .is_ok()
                    {
                        break;
                    }
                },
            });
        }
        let estimate = Arc::clone(&estimate);
        sim.check(move || {
            let v = estimate.peek();
            if v == 200 {
                Ok(())
            } else {
                Err(format!(
                    "lost update: estimate {v} after two observations of +100 (expected 200)"
                ))
            }
        });
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum BState {
    Open,
    HalfOpen,
    Closed,
}

/// Replica of `relay::breaker::EndpointState`, reduced to the probe
/// bookkeeping.
#[derive(Clone, Debug)]
struct BreakerModel {
    state: BState,
    probe_in_flight: bool,
    probe_serial: u64,
    /// Set when a HalfOpen→Closed transition was driven by an outcome
    /// that was not the current probe's — the bug this PR fixed.
    unattributed_close: bool,
}

#[derive(Clone, Copy, Default)]
struct ModelAdmission {
    probe: bool,
    serial: u64,
}

fn model_try_acquire(breaker: &VMutex<BreakerModel>, vt: &Vt) -> Option<ModelAdmission> {
    let mut g = breaker.lock(vt);
    match g.state {
        BState::HalfOpen if g.probe_in_flight => None, // probe out: fast reject
        // Cooldown is taken as elapsed by construction: Open admits
        // the probe immediately, as `try_acquire` does after the wait.
        BState::Open | BState::HalfOpen => {
            g.state = BState::HalfOpen;
            g.probe_in_flight = true;
            g.probe_serial += 1;
            Some(ModelAdmission {
                probe: true,
                serial: g.probe_serial,
            })
        }
        BState::Closed => Some(ModelAdmission::default()),
    }
}

fn model_record_success(
    breaker: &VMutex<BreakerModel>,
    vt: &Vt,
    admission: ModelAdmission,
    variant: Variant,
) {
    let mut g = breaker.lock(vt);
    if g.state != BState::HalfOpen {
        return;
    }
    let is_current_probe =
        admission.probe && g.probe_in_flight && admission.serial == g.probe_serial;
    match variant {
        // Pre-fix `record_success`: the first success observed while
        // half-open closes the circuit, whoever produced it.
        Variant::PreFix => {
            if !is_current_probe {
                g.unattributed_close = true;
            }
            g.probe_in_flight = false;
            g.state = BState::Closed;
        }
        // Fixed `record_outcome`: only the current probe's own success
        // may close.
        Variant::Fixed => {
            if is_current_probe {
                g.probe_in_flight = false;
                g.state = BState::Closed;
            }
        }
    }
}

/// `relay::breaker` half-open probe attribution.
///
/// A straggler — a request admitted before the circuit tripped —
/// reports success concurrently with a fresh half-open probe. The
/// invariant: the circuit may only close on the current probe's own
/// outcome, and must end Closed (the probe does succeed).
pub fn breaker_probe(variant: Variant) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let breaker = Arc::new(VMutex::new(BreakerModel {
            state: BState::Open, // tripped; cooldown elapsed
            probe_in_flight: false,
            probe_serial: 0,
            unattributed_close: false,
        }));
        {
            // Straggler: was admitted while the circuit was still
            // closed, finishes (successfully) only now.
            let breaker = Arc::clone(&breaker);
            sim.thread(move |vt| {
                model_record_success(&breaker, vt, ModelAdmission::default(), variant);
            });
        }
        {
            // Prober: acquires (becoming the probe) and reports its own
            // success.
            let breaker = Arc::clone(&breaker);
            sim.thread(move |vt| {
                if let Some(admission) = model_try_acquire(&breaker, vt) {
                    model_record_success(&breaker, vt, admission, variant);
                }
            });
        }
        let breaker = Arc::clone(&breaker);
        sim.check(move || {
            let b = breaker.peek();
            if b.unattributed_close {
                return Err(
                    "circuit closed by a stale outcome while the probe was deciding".to_string(),
                );
            }
            if b.state != BState::Closed {
                return Err(format!(
                    "probe succeeded but the circuit ended {:?}",
                    b.state
                ));
            }
            Ok(())
        });
    }
}

/// `RelayStats`-style counters: workers RMW-increment shared fields
/// while a reader takes two field-wise snapshots.
///
/// Invariants: no increment is ever lost (the counter-inference rule
/// the sync pass applies to `fetch_add` fields), and per-field
/// monotonicity across snapshots — the property `RelayStatsSnapshot`
/// consumers rely on even though a field-wise snapshot is not a
/// consistent cut.
pub fn stats_snapshot(variant: Variant) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let forwarded = Arc::new(VCell::new(0u64));
        let shed = Arc::new(VCell::new(0u64));
        for _ in 0..2 {
            let forwarded = Arc::clone(&forwarded);
            let shed = Arc::clone(&shed);
            sim.thread(move |vt| match variant {
                Variant::PreFix => {
                    // Load/store counters: the shape the sync pass
                    // rejects even for statistics.
                    let f = forwarded.read(vt);
                    forwarded.write(vt, f + 1);
                    let s = shed.read(vt);
                    shed.write(vt, s + 1);
                }
                Variant::Fixed => {
                    forwarded.rmw(vt, |v| v + 1);
                    shed.rmw(vt, |v| v + 1);
                }
            });
        }
        let observed: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let forwarded = Arc::clone(&forwarded);
            let shed = Arc::clone(&shed);
            let observed = Arc::clone(&observed);
            sim.thread(move |vt| {
                let mut snaps = Vec::with_capacity(2);
                for _ in 0..2 {
                    let f = forwarded.read(vt);
                    let s = shed.read(vt);
                    snaps.push((f, s));
                }
                observed
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(snaps);
            });
        }
        let forwarded = Arc::clone(&forwarded);
        let shed = Arc::clone(&shed);
        let observed = Arc::clone(&observed);
        sim.check(move || {
            let (f, s) = (forwarded.peek(), shed.peek());
            if f != 2 || s != 2 {
                return Err(format!(
                    "lost counter increments: forwarded={f} shed={s} (expected 2/2)"
                ));
            }
            let snaps = observed.lock().unwrap_or_else(PoisonError::into_inner);
            for pair in snaps.windows(2) {
                let (f1, s1) = pair[0];
                let (f2, s2) = pair[1];
                if f2 < f1 || s2 < s1 {
                    return Err(format!(
                        "snapshot went backwards: ({f1},{s1}) then ({f2},{s2})"
                    ));
                }
            }
            Ok(())
        });
    }
}

/// `crypto::certcache::CertChainCache`: `verified_key` racing
/// `bump_epoch`.
///
/// A validator captures the epoch, validates outside the lock, and
/// inserts its verdict only if the epoch is unchanged; a configuration
/// change advances the epoch and clears the table. Entries are tagged
/// with the epoch their validation started in. The invariant: once
/// both finish, no entry from an earlier epoch is left — a verdict
/// reached under the old root set must not outlive the change. The
/// pre-fix variant is `bump_epoch` as first written (clear, then
/// advance): a validation that started before the change re-checks an
/// epoch that has not moved yet and lands in the freshly cleared table.
pub fn certcache_epoch(variant: Variant) -> impl Fn(&mut Sim) {
    move |sim: &mut Sim| {
        let epoch = Arc::new(VCell::new(0u64));
        let verified: Arc<VMutex<Vec<u64>>> = Arc::new(VMutex::new(Vec::new()));
        {
            let epoch = Arc::clone(&epoch);
            let verified = Arc::clone(&verified);
            sim.thread(move |vt| {
                let epoch_at_start = epoch.read(vt);
                let hit = !verified.lock(vt).is_empty();
                if hit {
                    return;
                }
                // The chain validation itself runs here, unlocked.
                let mut table = verified.lock(vt);
                if epoch.read(vt) == epoch_at_start {
                    table.push(epoch_at_start);
                }
            });
        }
        {
            let epoch = Arc::clone(&epoch);
            let verified = Arc::clone(&verified);
            sim.thread(move |vt| match variant {
                Variant::PreFix => {
                    verified.lock(vt).clear();
                    epoch.rmw(vt, |e| e + 1);
                }
                Variant::Fixed => {
                    epoch.rmw(vt, |e| e + 1);
                    verified.lock(vt).clear();
                }
            });
        }
        let epoch = Arc::clone(&epoch);
        let verified = Arc::clone(&verified);
        sim.check(move || {
            let now = epoch.peek();
            match verified.peek().iter().find(|&&tag| tag != now) {
                None => Ok(()),
                Some(tag) => Err(format!(
                    "stale verdict: entry validated in epoch {tag} survives in epoch {now}"
                )),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{explore, Config};

    #[test]
    fn admission_prefix_race_is_found_and_replays() {
        let report = explore(Config::exhaustive(), admission_ewma(Variant::PreFix));
        let v = report.violation.expect("pre-fix EWMA must lose an update");
        assert!(v.message.contains("lost update"), "{}", v.message);
        let replay = explore(
            Config::replay(v.schedule.clone()),
            admission_ewma(Variant::PreFix),
        );
        assert!(
            replay.violation.is_some(),
            "recorded schedule must reproduce the race"
        );
    }

    #[test]
    fn admission_fixed_is_clean_exhaustively() {
        let report = explore(Config::exhaustive(), admission_ewma(Variant::Fixed));
        assert!(report.violation.is_none(), "{}", report.summary());
        assert!(report.complete, "{}", report.summary());
    }

    #[test]
    fn breaker_prefix_stale_close_is_found() {
        let report = explore(Config::exhaustive(), breaker_probe(Variant::PreFix));
        let v = report
            .violation
            .expect("pre-fix breaker must close on stale evidence");
        assert!(v.message.contains("stale outcome"), "{}", v.message);
    }

    #[test]
    fn breaker_fixed_is_clean_exhaustively() {
        let report = explore(Config::exhaustive(), breaker_probe(Variant::Fixed));
        assert!(report.violation.is_none(), "{}", report.summary());
        assert!(report.complete, "{}", report.summary());
    }

    #[test]
    fn stats_prefix_lost_increment_is_found() {
        let report = explore(Config::exhaustive(), stats_snapshot(Variant::PreFix));
        let v = report
            .violation
            .expect("load/store counters must lose increments");
        assert!(v.message.contains("lost counter"), "{}", v.message);
    }

    #[test]
    fn stats_fixed_is_clean_exhaustively() {
        let report = explore(
            Config::exhaustive_bounded(2),
            stats_snapshot(Variant::Fixed),
        );
        assert!(report.violation.is_none(), "{}", report.summary());
        assert!(report.complete, "{}", report.summary());
    }

    #[test]
    fn certcache_prefix_stale_verdict_is_found() {
        let report = explore(Config::exhaustive(), certcache_epoch(Variant::PreFix));
        let v = report
            .violation
            .expect("clear-then-bump must let an old-epoch verdict land");
        assert!(v.message.contains("stale verdict"), "{}", v.message);
    }

    #[test]
    fn certcache_fixed_is_clean_exhaustively() {
        let report = explore(Config::exhaustive(), certcache_epoch(Variant::Fixed));
        assert!(report.violation.is_none(), "{}", report.summary());
        assert!(report.complete, "{}", report.summary());
    }

    #[test]
    fn seeded_random_finds_the_admission_race() {
        let report = explore(Config::random(42, 256), admission_ewma(Variant::PreFix));
        let v = report
            .violation
            .expect("random exploration finds the 2-thread race fast");
        assert_eq!(v.seed, Some(42));
    }
}
