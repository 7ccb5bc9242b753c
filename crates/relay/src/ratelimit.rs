//! Token-bucket rate limiting: the relay-side DoS protection discussed in
//! the paper's availability analysis (§5: "DoS protection can also be
//! built into the relay service, protecting the peers themselves from such
//! attacks").

use parking_lot::Mutex;
use std::time::Instant;

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

/// A thread-safe token bucket.
#[derive(Debug)]
pub struct RateLimiter {
    capacity: f64,
    refill_per_sec: f64,
    bucket: Mutex<Bucket>,
}

impl RateLimiter {
    /// Creates a bucket holding at most `capacity` tokens, refilled at
    /// `refill_per_sec` tokens per second. Starts full.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero, or if `refill_per_sec` is not a
    /// finite non-negative number. A negative rate would silently drain
    /// the bucket below zero and a NaN rate poisons every refill
    /// computation, wedging the limiter permanently open or shut.
    pub fn new(capacity: u32, refill_per_sec: f64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        assert!(
            refill_per_sec.is_finite() && refill_per_sec >= 0.0,
            "refill_per_sec must be finite and non-negative, got {refill_per_sec}"
        );
        RateLimiter {
            capacity: capacity as f64,
            refill_per_sec,
            bucket: Mutex::new(Bucket {
                tokens: capacity as f64,
                last_refill: Instant::now(),
            }),
        }
    }

    /// Tries to take one token; `false` means the request should be shed.
    pub fn try_acquire(&self) -> bool {
        self.try_acquire_n(1)
    }

    /// Advances the bucket to `now`, clamping the count into
    /// `0.0..=capacity` so no arithmetic edge case can push it outside
    /// the valid range.
    fn refill(&self, bucket: &mut Bucket) {
        let now = Instant::now();
        let elapsed = now.duration_since(bucket.last_refill);
        bucket.tokens =
            (bucket.tokens + elapsed.as_secs_f64() * self.refill_per_sec).clamp(0.0, self.capacity);
        bucket.last_refill = now;
    }

    /// Tries to take `n` tokens atomically.
    pub fn try_acquire_n(&self, n: u32) -> bool {
        let mut bucket = self.bucket.lock();
        self.refill(&mut bucket);
        if bucket.tokens >= n as f64 {
            bucket.tokens -= n as f64;
            true
        } else {
            false
        }
    }

    /// Current token count (diagnostics).
    pub fn available(&self) -> f64 {
        let mut bucket = self.bucket.lock();
        self.refill(&mut bucket);
        bucket.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_up_to_capacity() {
        let rl = RateLimiter::new(5, 0.0);
        for _ in 0..5 {
            assert!(rl.try_acquire());
        }
        assert!(!rl.try_acquire());
    }

    #[test]
    fn refill_restores_tokens() {
        let rl = RateLimiter::new(2, 100.0); // 100 tokens/sec
        assert!(rl.try_acquire_n(2));
        assert!(!rl.try_acquire());
        std::thread::sleep(Duration::from_millis(30));
        assert!(rl.try_acquire());
    }

    #[test]
    fn never_exceeds_capacity() {
        let rl = RateLimiter::new(3, 1000.0);
        std::thread::sleep(Duration::from_millis(20));
        assert!(rl.available() <= 3.0);
    }

    #[test]
    fn acquire_n_atomicity() {
        let rl = RateLimiter::new(3, 0.0);
        assert!(!rl.try_acquire_n(4));
        assert!(rl.try_acquire_n(3));
        assert!(!rl.try_acquire());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        RateLimiter::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_refill_rejected() {
        RateLimiter::new(5, -1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_refill_rejected() {
        RateLimiter::new(5, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn infinite_refill_rejected() {
        RateLimiter::new(5, f64::INFINITY);
    }

    #[test]
    fn tokens_never_go_negative() {
        let rl = RateLimiter::new(3, 0.5);
        while rl.try_acquire() {}
        assert!(rl.available() >= 0.0);
        assert!(!rl.try_acquire_n(3));
        assert!(rl.available() >= 0.0);
    }

    #[test]
    fn concurrent_acquires_bounded() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Arc;
        let rl = Arc::new(RateLimiter::new(50, 0.0));
        let granted = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let rl = Arc::clone(&rl);
            let granted = Arc::clone(&granted);
            handles.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    if rl.try_acquire() {
                        granted.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(granted.load(Ordering::Relaxed), 50);
    }
}
