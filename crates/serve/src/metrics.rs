//! Server-level metrics: lock-free request counters plus a fixed
//! log-scaled latency histogram, aggregating the per-query work counters
//! ([`AnnStats`]) that every request already produces.
//!
//! The histogram trades precision for zero allocation: 64 power-of-two
//! microsecond buckets, so a reported quantile is exact to within 2× at
//! any magnitude. The serving benchmark measures precise client-side
//! latencies; this endpoint exists for live observability.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ann_core::stats::AnnStats;

/// Monotonic counters for everything the server has done since start.
pub struct Metrics {
    /// HTTP requests accepted (all routes).
    pub requests: AtomicU64,
    /// Requests answered 2xx.
    pub ok: AtomicU64,
    /// Requests answered 4xx (including 429s, counted separately too).
    pub client_errors: AtomicU64,
    /// Requests answered 5xx.
    pub server_errors: AtomicU64,
    /// Queries rejected by admission control (429).
    pub rejected: AtomicU64,
    /// Queries cancelled because the client disconnected mid-flight.
    pub cancelled: AtomicU64,
    /// Queries executed to a verdict (ok or typed error).
    pub queries: AtomicU64,
    /// Sum over queries of distance computations.
    pub distance_computations: AtomicU64,
    /// Sum over queries of R/S node expansions.
    pub nodes_expanded: AtomicU64,
    /// Sum over queries of logical page reads.
    pub logical_reads: AtomicU64,
    /// Sum over queries of physical page reads.
    pub physical_reads: AtomicU64,
    /// Latency histogram: bucket `i` counts queries with
    /// `latency_us in [2^i, 2^(i+1))` (bucket 0 also holds sub-µs), where
    /// latency runs from request fully read to response written — queue
    /// wait, traversal, encode and the socket write.
    buckets: [AtomicU64; 64],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            queries: AtomicU64::new(0),
            distance_computations: AtomicU64::new(0),
            nodes_expanded: AtomicU64::new(0),
            logical_reads: AtomicU64::new(0),
            physical_reads: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Metrics {
    /// A zeroed metrics block.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Classifies a response status into the ok / client / server
    /// counters (2xx/4xx/5xx).
    pub fn count_status(&self, status: u16) {
        match status {
            200..=299 => self.ok.fetch_add(1, Ordering::Relaxed),
            400..=499 => self.client_errors.fetch_add(1, Ordering::Relaxed),
            _ => self.server_errors.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Records what one answered query took, as its connection saw it.
    pub fn record_latency(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let bucket = (64 - us.leading_zeros() as usize).min(63);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one executed query's work counters.
    pub fn record_query(&self, stats: &AnnStats) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.distance_computations
            .fetch_add(stats.distance_computations, Ordering::Relaxed);
        self.nodes_expanded.fetch_add(
            stats.r_nodes_expanded + stats.s_nodes_expanded,
            Ordering::Relaxed,
        );
        self.logical_reads
            .fetch_add(stats.io.logical_reads, Ordering::Relaxed);
        self.physical_reads
            .fetch_add(stats.io.physical_reads, Ordering::Relaxed);
    }

    /// Approximate latency quantile in microseconds (upper bucket edge),
    /// or 0 when no queries have been recorded.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return 1u64 << i.min(62);
            }
        }
        1u64 << 62
    }

    /// Serializes the counters as a JSON object.
    pub fn to_json(&self) -> String {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        format!(
            "{{\"requests\":{},\"ok\":{},\"client_errors\":{},\"server_errors\":{},\
             \"rejected\":{},\"cancelled\":{},\"queries\":{},\
             \"distance_computations\":{},\"nodes_expanded\":{},\
             \"logical_reads\":{},\"physical_reads\":{},\
             \"latency_us\":{{\"p50\":{},\"p95\":{},\"p99\":{}}}}}",
            load(&self.requests),
            load(&self.ok),
            load(&self.client_errors),
            load(&self.server_errors),
            load(&self.rejected),
            load(&self.cancelled),
            load(&self.queries),
            load(&self.distance_computations),
            load(&self.nodes_expanded),
            load(&self.logical_reads),
            load(&self.physical_reads),
            self.latency_quantile_us(0.50),
            self.latency_quantile_us(0.95),
            self.latency_quantile_us(0.99),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_buckets() {
        let m = Metrics::new();
        assert_eq!(m.latency_quantile_us(0.5), 0);
        for _ in 0..99 {
            m.record_latency(Duration::from_micros(100));
        }
        m.record_latency(Duration::from_millis(100));
        let p50 = m.latency_quantile_us(0.50);
        // 100µs lands in the [64, 128) bucket; upper edge 128.
        assert_eq!(p50, 128);
        let p995 = m.latency_quantile_us(0.995);
        assert!(
            p995 > 100_000,
            "p99.5 {p995} should catch the 100ms outlier"
        );
    }

    #[test]
    fn json_shape() {
        let m = Metrics::new();
        m.requests.fetch_add(3, Ordering::Relaxed);
        m.count_status(200);
        m.count_status(404);
        m.count_status(503);
        let doc = ann_core::wire::JsonValue::parse(&m.to_json()).expect("valid json");
        assert_eq!(doc.get("requests").and_then(|v| v.as_u64()), Some(3));
        assert_eq!(doc.get("ok").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("client_errors").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(doc.get("server_errors").and_then(|v| v.as_u64()), Some(1));
    }
}
