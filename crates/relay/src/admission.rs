//! Deadline-aware admission control for the relay worker pool.
//!
//! Under sustained overload an unbounded queue converts every request
//! into a deadline miss: work waits, times out, and the worker pool
//! burns cycles on jobs nobody is still waiting for (queue collapse).
//! The admission controller rejects *early* instead: before a request
//! is enqueued it estimates the queue wait from the current depth and
//! a smoothed (EWMA) per-job service time, and sheds the request with a
//! fast, retryable [`crate::RelayError::Overloaded`] when that estimate
//! cannot plausibly fit the deadline budget. Rejects cost microseconds;
//! queue collapse costs the whole deadline per request.
//!
//! The estimator is deliberately simple — `(depth + 1) × service_time /
//! workers` against the deadline — because admission only has to be
//! *roughly* right: an occasional over-admit still times out in the
//! queue (the worker discards it unstarted), and an occasional
//! over-shed is retried by the client, ideally against a less loaded
//! group member.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Tuning knobs for [`AdmissionController`].
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Queue depth below which requests are always admitted, so short
    /// bursts ride out in the queue instead of being shed while the
    /// service-time estimate is still warming up.
    pub burst_floor: u64,
    /// EWMA smoothing factor for the service-time estimate, in (0, 1];
    /// higher weighs recent jobs more.
    pub alpha: f64,
    /// Seed for the service-time estimate before any job has completed.
    pub initial_service_time: Duration,
    /// Fraction of the deadline budget the wait estimate must fit in,
    /// in (0, 1]. Admitting right up to the budget parks the queue
    /// exactly at the deadline boundary, where estimator noise converts
    /// borderline admits into deadline misses; headroom keeps the hover
    /// point safely inside the deadline.
    pub headroom: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            burst_floor: 8,
            alpha: 0.2,
            initial_service_time: Duration::from_micros(500),
            headroom: 0.8,
        }
    }
}

/// Decides, per request, whether the worker pool can plausibly meet the
/// request's deadline at the current queue depth. Shared by the
/// dispatcher (admit) and the workers (service-time feedback); all
/// state is atomic, so the gate itself never queues.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    /// Worker count the estimate divides by; set when the pool starts.
    workers: AtomicU64,
    /// EWMA of per-job service time, in nanoseconds.
    service_ns: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
}

impl AdmissionController {
    /// A controller with the given knobs, assuming one worker until
    /// [`set_workers`](Self::set_workers) is called.
    pub fn new(config: AdmissionConfig) -> Self {
        let initial_ns = config.initial_service_time.as_nanos().min(u64::MAX as u128) as u64;
        AdmissionController {
            config,
            workers: AtomicU64::new(1),
            service_ns: AtomicU64::new(initial_ns.max(1)),
            admitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// Records how many workers drain the queue.
    pub fn set_workers(&self, workers: usize) {
        // Release pairs with the Acquire in `estimated_wait`: a gate that
        // observes the new worker count also observes everything the pool
        // set up before publishing it.
        self.workers.store(workers.max(1) as u64, Ordering::Release);
    }

    /// Admits or sheds a request arriving at `queue_depth` with `budget`
    /// left before its deadline. On shed, returns the wait estimate that
    /// disqualified the request.
    // lint:allow(obs: "Err here is a shed decision, not a failure; the dispatch caller records the admission.shed span event and the flight Admission record")
    pub fn admit(&self, queue_depth: u64, budget: Duration) -> Result<(), Duration> {
        if queue_depth < self.config.burst_floor {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let estimated = self.estimated_wait(queue_depth);
        let usable = budget.mul_f64(self.config.headroom.clamp(f64::EPSILON, 1.0));
        if estimated <= usable {
            self.admitted.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            self.shed.fetch_add(1, Ordering::Relaxed);
            Err(estimated)
        }
    }

    /// The estimated time until a request arriving at `queue_depth`
    /// would *finish*: every queued job plus the new one, spread across
    /// the workers, at the smoothed per-job service time.
    pub fn estimated_wait(&self, queue_depth: u64) -> Duration {
        let workers = self.workers.load(Ordering::Acquire).max(1);
        let service = self.service_ns.load(Ordering::Relaxed).max(1);
        let jobs = queue_depth.saturating_add(1);
        let ns = (jobs as u128).saturating_mul(service as u128) / workers as u128;
        Duration::from_nanos(ns.min(u64::MAX as u128) as u64)
    }

    /// Folds one completed job's service time into the EWMA estimate.
    pub fn observe_service_time(&self, elapsed: Duration) {
        let sample = elapsed.as_nanos().min(u64::MAX as u128) as f64;
        let alpha = self.config.alpha.clamp(0.0, 1.0);
        // A separate load-then-store here silently drops concurrent
        // samples: with W workers completing jobs at once, up to W−1
        // observations vanish per window, and a burst of slow-job
        // reports can be erased by one stale fast-job writer — exactly
        // when the gate most needs to believe the queue got slower. The
        // CAS loop folds every sample in; Relaxed suffices because the
        // estimate is a freestanding statistic (no other data is
        // published through it).
        let _ = self
            .service_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |current| {
                let next = (current as f64 + alpha * (sample - current as f64)).max(1.0);
                Some(next as u64)
            });
    }

    /// The smoothed per-job service-time estimate.
    pub fn service_time_estimate(&self) -> Duration {
        Duration::from_nanos(self.service_ns.load(Ordering::Relaxed))
    }

    /// Requests admitted to the queue.
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests shed at the gate.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(burst_floor: u64, service: Duration) -> AdmissionController {
        AdmissionController::new(AdmissionConfig {
            burst_floor,
            alpha: 0.5,
            initial_service_time: service,
            headroom: 1.0,
        })
    }

    #[test]
    fn admits_below_burst_floor_regardless_of_estimate() {
        let c = controller(4, Duration::from_secs(3600));
        for depth in 0..4 {
            assert!(c.admit(depth, Duration::from_millis(1)).is_ok());
        }
        assert_eq!(c.admitted(), 4);
        assert_eq!(c.shed(), 0);
    }

    #[test]
    fn sheds_when_estimated_wait_exceeds_budget() {
        let c = controller(0, Duration::from_millis(10));
        c.set_workers(2);
        // 20 queued jobs at 10 ms across 2 workers ≈ 105 ms wait.
        let wait = c.admit(20, Duration::from_millis(50)).unwrap_err();
        assert!(wait > Duration::from_millis(50));
        assert_eq!(c.shed(), 1);
        // The same depth with a generous budget is admitted.
        assert!(c.admit(20, Duration::from_secs(1)).is_ok());
        assert_eq!(c.admitted(), 1);
    }

    #[test]
    fn ewma_tracks_observed_service_times() {
        let c = controller(0, Duration::from_millis(1));
        for _ in 0..32 {
            c.observe_service_time(Duration::from_millis(9));
        }
        let est = c.service_time_estimate();
        assert!(
            est > Duration::from_millis(8) && est < Duration::from_millis(10),
            "estimate should converge near 9 ms, got {est:?}"
        );
        // A faster regime pulls the estimate back down.
        for _ in 0..32 {
            c.observe_service_time(Duration::from_micros(100));
        }
        assert!(c.service_time_estimate() < Duration::from_millis(1));
    }

    #[test]
    fn headroom_sheds_borderline_admits() {
        let c = AdmissionController::new(AdmissionConfig {
            burst_floor: 0,
            alpha: 0.5,
            initial_service_time: Duration::from_millis(10),
            headroom: 0.5,
        });
        // Estimated wait 20 ms fits a 30 ms budget outright but not the
        // 15 ms usable slice left after headroom.
        assert_eq!(c.estimated_wait(1), Duration::from_millis(20));
        assert!(c.admit(1, Duration::from_millis(30)).is_err());
        assert!(c.admit(1, Duration::from_millis(50)).is_ok());
    }

    #[test]
    fn more_workers_shrink_the_wait_estimate() {
        let c = controller(0, Duration::from_millis(10));
        c.set_workers(1);
        let one = c.estimated_wait(10);
        c.set_workers(10);
        let ten = c.estimated_wait(10);
        assert!(ten < one);
    }

    #[test]
    fn estimator_saturates_instead_of_overflowing() {
        let c = controller(0, Duration::from_secs(u64::MAX / 2));
        c.observe_service_time(Duration::from_secs(u64::MAX / 2));
        let wait = c.estimated_wait(u64::MAX);
        assert!(wait >= Duration::from_secs(1));
        assert!(c.admit(u64::MAX, Duration::from_secs(1)).is_err());
    }
}
