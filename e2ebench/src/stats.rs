//! Order statistics, the reported metric record, and the decision rules
//! the benchmark reports by: the tail-percentile rule and the
//! serve ladder's stop rule.

/// A reported tail percentile needs at least this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// A ladder rung fails when its p95 due-time latency exceeds this.
pub const LADDER_P95_LIMIT_MS: f64 = 100.0;

/// A ladder rung's backlog counts as growing when the generator's median
/// send lateness over the last third of the rung (in due order) exceeds
/// that over its first third by more than this. The generator falls
/// behind only when the daemon stops reading its requests; slow answers
/// alone (a delayed ACK, a heavy request) leave it on time.
pub const BACKLOG_GROWTH_MS: f64 = 20.0;

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending slice, linearly
/// interpolated between order statistics (the "type 7" rule).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The `p`-quantile of `samples` if at least [`MIN_BEYOND`] samples lie
/// strictly above it; `None` when the sample is too small to state it.
pub fn tail(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let value = quantile(&s, p);
    let beyond = s.iter().filter(|&&x| x > value).count();
    (beyond >= MIN_BEYOND).then_some(value)
}

/// One reported number with the sample it summarises.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single reading).
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
    /// How the value was obtained, where the name alone does not say.
    pub note: String,
}

impl Metric {
    /// A single reading.
    pub fn one(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            n: 1,
            q1: value,
            q3: value,
            note: String::new(),
        }
    }

    /// The median of a sample, with its quartiles.
    pub fn median_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let s = sorted(samples);
        Metric {
            name: name.into(),
            unit,
            value: quantile(&s, 0.5),
            n: s.len(),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            note: String::new(),
        }
    }

    /// The p95 of a sample, flagged when fewer than [`MIN_BEYOND`]
    /// samples lie beyond it.
    pub fn p95_of(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let s = sorted(samples);
        let note = match tail(samples, 0.95) {
            Some(_) => "p95; at least 10 samples beyond".to_string(),
            None => {
                "p95; fewer than 10 samples beyond, read as an upper order statistic".to_string()
            }
        };
        Metric {
            name: name.into(),
            unit,
            value: quantile(&s, 0.95),
            n: s.len(),
            q1: quantile(&s, 0.25),
            q3: quantile(&s, 0.75),
            note,
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The verdict on one rung of the serve ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RungVerdict {
    /// p95 due-time latency, failed requests counted as infinitely late.
    pub p95_ms: f64,
    /// Whether the backlog grew across the rung.
    pub backlog_grew: bool,
    pub pass: bool,
}

/// Whether send lateness listed in due order keeps growing.
pub fn backlog_grows(late_ms: &[f64]) -> bool {
    let third = late_ms.len() / 3;
    if third == 0 {
        return false;
    }
    let first = median(&late_ms[..third]);
    let last = median(&late_ms[late_ms.len() - third..]);
    last - first > BACKLOG_GROWTH_MS
}

/// Judges one rung: it passes when its p95 due-time latency (failures
/// counting as infinitely late) is within [`LADDER_P95_LIMIT_MS`] and the
/// generator's lateness does not keep growing. `latencies_ms` holds the
/// correct answers, `late_ms` every sent request's send lateness in due
/// order; `failed` counts the requests that got no correct answer.
pub fn judge_rung(latencies_ms: &[f64], late_ms: &[f64], failed: usize) -> RungVerdict {
    let mut all = latencies_ms.to_vec();
    all.extend(std::iter::repeat_n(f64::INFINITY, failed));
    let p95_ms = if all.is_empty() {
        f64::INFINITY
    } else {
        quantile(&sorted(&all), 0.95)
    };
    let backlog_grew = backlog_grows(late_ms);
    RungVerdict {
        p95_ms,
        backlog_grew,
        pass: p95_ms <= LADDER_P95_LIMIT_MS && !backlog_grew,
    }
}

/// Events per second in each of `bins` equal slices of a span, from
/// `offsets_s` (seconds from the span's start). Events after the span
/// fall in no slice, so answers still in flight when it ends neither
/// count nor stretch the time.
pub fn binned_rates(offsets_s: &[f64], span_s: f64, bins: usize) -> Vec<f64> {
    let width = span_s / bins as f64;
    let mut counts = vec![0usize; bins];
    for &t in offsets_s {
        if (0.0..span_s).contains(&t) {
            counts[((t / width) as usize).min(bins - 1)] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / width).collect()
}

/// The ladder's stop rule: the index of the highest rung before the
/// first failing one, or `None` when the first rung already fails.
pub fn highest_passing(verdicts: &[RungVerdict]) -> Option<usize> {
    verdicts
        .iter()
        .take_while(|v| v.pass)
        .count()
        .checked_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!((quantile(&s, 0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 200 samples: exactly 10 lie above the interpolated p95.
        let big: Vec<f64> = (0..200).map(f64::from).collect();
        let p95 = tail(&big, 0.95).expect("200 samples carry a p95");
        assert_eq!(big.iter().filter(|&&x| x > p95).count(), 10);
        // 180 samples leave only 9 beyond: the rule refuses.
        let small: Vec<f64> = (0..180).map(f64::from).collect();
        assert_eq!(tail(&small, 0.95), None);
        assert_eq!(tail(&[], 0.5), None);
        // Ties at the percentile do not count as beyond it.
        let flat = vec![5.0; 500];
        assert_eq!(tail(&flat, 0.95), None);
    }

    #[test]
    fn p95_metric_flags_thin_tails() {
        let big: Vec<f64> = (0..400).map(f64::from).collect();
        assert!(Metric::p95_of("x", "ms", &big).note.contains("at least 10"));
        let small: Vec<f64> = (0..20).map(f64::from).collect();
        assert!(Metric::p95_of("x", "ms", &small)
            .note
            .contains("fewer than 10"));
    }

    /// A generator that keeps up: sent within a fraction of a millisecond.
    fn on_time(n: usize) -> Vec<f64> {
        vec![0.1; n]
    }

    #[test]
    fn steady_rung_passes() {
        let lat: Vec<f64> = (0..90).map(|i| 40.0 + (i % 7) as f64).collect();
        let v = judge_rung(&lat, &on_time(90), 0);
        assert!(v.pass && !v.backlog_grew);
        assert!(v.p95_ms <= 46.0);
    }

    #[test]
    fn slow_tail_fails_rung() {
        // One slow answer in nine: a fat tail, though the generator
        // keeps up.
        let lat: Vec<f64> = (0..90)
            .map(|i| if i % 9 == 4 { 150.0 } else { 40.0 })
            .collect();
        let v = judge_rung(&lat, &on_time(90), 0);
        assert!(!v.backlog_grew);
        assert!(v.p95_ms > LADDER_P95_LIMIT_MS && !v.pass);
    }

    #[test]
    fn growing_lateness_fails_rung_below_the_latency_limit() {
        // The generator falls further behind through the rung (the
        // daemon stopped reading), while the answers it did get stayed
        // within the latency limit.
        let lat = vec![30.0; 90];
        let late: Vec<f64> = (0..90).map(|i| 0.5 * i as f64).collect();
        let v = judge_rung(&lat, &late, 0);
        assert!(v.p95_ms <= LADDER_P95_LIMIT_MS);
        assert!(v.backlog_grew && !v.pass);
    }

    #[test]
    fn runs_of_slow_answers_are_not_a_backlog() {
        // The whole last third answers slowly (delayed ACKs come in
        // runs), but every request went out on time.
        let mut lat = vec![2.0; 36];
        for l in &mut lat[24..] {
            *l = 45.0;
        }
        assert!(!backlog_grows(&on_time(36)));
        assert!(judge_rung(&lat, &on_time(36), 0).pass);
    }

    #[test]
    fn failures_count_as_missing_the_limit() {
        let lat = vec![30.0; 90];
        assert!(judge_rung(&lat, &on_time(100), 0).pass);
        assert!(!judge_rung(&lat, &on_time(100), 10).pass);
    }

    #[test]
    fn rates_count_only_answers_inside_the_span() {
        // Two slices of half a second; the answers after the span are dropped.
        let rates = binned_rates(&[0.1, 0.2, 0.3, 0.6, 1.0, 1.2, 30.0], 1.0, 2);
        assert_eq!(rates, vec![6.0, 2.0]);
        assert_eq!(binned_rates(&[], 2.0, 4), vec![0.0; 4]);
    }

    #[test]
    fn ladder_stops_at_first_failing_rung() {
        let pass = RungVerdict {
            p95_ms: 50.0,
            backlog_grew: false,
            pass: true,
        };
        let fail = RungVerdict {
            p95_ms: 500.0,
            backlog_grew: true,
            pass: false,
        };
        assert_eq!(highest_passing(&[pass, pass, fail]), Some(1));
        // A later passing rung does not count once one has failed.
        assert_eq!(highest_passing(&[pass, fail, pass]), Some(0));
        assert_eq!(highest_passing(&[fail, pass]), None);
        assert_eq!(highest_passing(&[pass, pass, pass]), Some(2));
    }
}
