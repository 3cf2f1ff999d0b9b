//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. A disabled tracer records nothing, so the
//! untraced runs pay only a branch per span.

use std::cell::RefCell;
use std::time::Instant;

/// A single-threaded span recorder: the name and duration of each span.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    spans: RefCell<Vec<(&'static str, f64)>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            spans: RefCell::default(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(name, f).0
    }

    /// Runs `f` inside a span and also returns its wall time in ms, which
    /// untraced runs measure too.
    pub fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let clock = Instant::now();
        let out = f();
        let ms = clock.elapsed().as_secs_f64() * 1e3;
        if self.on {
            self.spans.borrow_mut().push((name, ms));
        }
        (out, ms)
    }

    /// Durations (ms) of every span with this name, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|&(_, ms)| ms)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_their_durations() {
        let t = Tracer::new(true);
        let (v, ms) = t.timed("x", || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            5
        });
        assert_eq!(v, 5);
        assert!(ms >= 2.0);
        assert_eq!(t.time("y", || 1), 1);
        assert_eq!(t.durations_ms("x"), vec![ms]);
        assert_eq!(t.durations_ms("y").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.time("x", || 5), 5);
        assert!(t.durations_ms("x").is_empty());
    }
}
