//! FIFO bandwidth servers — the atoms of the cluster simulator.

/// A resource that serves requests at a fixed rate, one at a time, in
/// arrival order.
///
/// A request for `amount` units arriving at time `start` begins service at
/// `max(start, avail)` and completes `amount / rate` later. Disks serve
/// bytes/s, NICs serve bytes/s, CPUs serve ops/s — the same abstraction
/// covers them all.
#[derive(Clone, Debug)]
pub struct Resource {
    rate: f64,
    overhead: f64,
    avail: f64,
    busy: f64,
    served: f64,
}

impl Resource {
    /// A server with the given rate (units/second). Rate must be positive
    /// and finite.
    pub fn new(rate: f64) -> Self {
        Self::with_overhead(rate, 0.0)
    }

    /// A server that additionally charges `overhead` seconds per request —
    /// a disk seek, an NFS RPC round trip, a per-message network cost.
    pub fn with_overhead(rate: f64, overhead: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "resource rate must be positive"
        );
        assert!(
            overhead >= 0.0 && overhead.is_finite(),
            "overhead must be non-negative"
        );
        Resource {
            rate,
            overhead,
            avail: 0.0,
            busy: 0.0,
            served: 0.0,
        }
    }

    /// Serve a request of `amount` units arriving at `start`; returns the
    /// completion time.
    pub fn request(&mut self, start: f64, amount: f64) -> f64 {
        debug_assert!(amount >= 0.0 && start >= 0.0);
        let begin = self.avail.max(start);
        let service = self.overhead + amount / self.rate;
        self.avail = begin + service;
        self.busy += service;
        self.served += amount;
        self.avail
    }

    /// Total busy time accumulated.
    pub fn busy_time(&self) -> f64 {
        self.busy
    }

    /// Total units served.
    pub fn served(&self) -> f64 {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_requests_queue() {
        let mut r = Resource::new(10.0);
        assert_eq!(r.request(0.0, 50.0), 5.0);
        // Arrives while busy: queues behind.
        assert_eq!(r.request(1.0, 10.0), 6.0);
        // Arrives after idle gap: starts at its own arrival.
        assert_eq!(r.request(10.0, 10.0), 11.0);
        assert_eq!(r.busy_time(), 7.0);
        assert_eq!(r.served(), 70.0);
    }

    #[test]
    fn zero_amount_is_instant_but_ordered() {
        let mut r = Resource::new(1.0);
        r.request(0.0, 5.0);
        // Zero work still cannot complete before the queue drains.
        assert_eq!(r.request(0.0, 0.0), 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Resource::new(0.0);
    }

    #[test]
    fn per_request_overhead_charged() {
        let mut r = Resource::with_overhead(100.0, 0.5);
        assert_eq!(r.request(0.0, 100.0), 1.5);
        assert_eq!(r.request(0.0, 0.0), 2.0); // overhead even for zero bytes
        assert_eq!(r.busy_time(), 2.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_overhead_rejected() {
        let _ = Resource::with_overhead(1.0, -0.1);
    }

    #[test]
    fn throughput_approaches_rate_under_saturation() {
        let mut r = Resource::new(100.0);
        let mut t = 0.0;
        for _ in 0..1000 {
            t = r.request(0.0, 5.0);
        }
        // 5000 units at rate 100 → 50 seconds.
        assert!((t - 50.0).abs() < 1e-9);
        assert!((r.busy_time() - t).abs() < 1e-9, "busy the whole time");
    }
}
