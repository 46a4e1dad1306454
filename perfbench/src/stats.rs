//! Sample statistics and the small pieces of arithmetic the benchmark's
//! numbers rest on: tail percentiles that refuse to report a tail the
//! sample cannot support, failure accounting, and per-step ibis time.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Arithmetic mean; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank `p`-quantile of `values` (`0 < p < 1`), or `None` unless
/// at least [`MIN_BEYOND`] samples lie strictly above the chosen rank, so
/// a reported tail always rests on ten or more observations.
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    let n = values.len();
    if n == 0 || !(0.0..1.0).contains(&p) {
        return None;
    }
    let rank = rank_of(p, n);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Median over consecutive windows of the `p`-quantile of each, with as
/// many windows as leave every one [`MIN_BEYOND`] samples beyond its
/// quantile; `None` when even one window cannot. A stall confined to one
/// window moves this far less than it moves the pooled quantile.
pub fn windowed_tail(values: &[f64], p: f64) -> Option<f64> {
    let need = samples_needed(p);
    let windows = values.len() / need;
    if windows == 0 {
        return None;
    }
    let size = values.len() / windows;
    let tails: Vec<f64> = values
        .chunks(size)
        .filter(|w| w.len() >= need)
        .filter_map(|w| tail_percentile(w, p))
        .collect();
    median(&tails)
}

/// The 1-based nearest rank of quantile `p` among `n` samples. The
/// epsilon keeps `p * n` that lands on an integer (0.99 × 1000) from
/// rounding up a rank because of binary floating point.
fn rank_of(p: f64, n: usize) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The smallest sample count for which [`tail_percentile`] reports `p`.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| n - rank_of(p, n) >= MIN_BEYOND)
        .expect("some sample count supports every p < 1")
}

/// Operations attempted and failed. Every kind of failure — an error, a
/// shed, a deadline miss, a wrong answer, a failed step — counts once
/// against the attempt it spoiled.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Attempted operations that failed in any way.
    pub failed: u64,
}

impl Tally {
    /// Records one attempt and whether it succeeded.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Records `n` attempts of which `failed` failed.
    pub fn record_many(&mut self, n: u64, failed: u64) {
        assert!(failed <= n, "cannot fail more operations than attempted");
        self.attempted += n;
        self.failed += failed;
    }

    /// Share of attempts that succeeded; `0.0` when nothing was attempted,
    /// so an empty run never reads as a perfect one.
    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            (self.attempted - self.failed) as f64 / self.attempted as f64
        }
    }
}

/// Ibis time per step, in seconds, from a run's step log.
///
/// `returns[i]` is when the simulation's `step()` for step `i` returned and
/// `sim[i]` how long that call spent inside the simulation, both measured
/// by the wrapper around the simulation; `end` is when the run returned.
/// Step `i`'s ibis time is the wall time from its `step()` return to the
/// next one, minus the next call's own simulation time; the last step
/// runs to `end` (it carries the store's finish). All times share one
/// origin.
pub fn ibis_step_times(returns: &[f64], sim: &[f64], end: f64) -> Vec<f64> {
    assert_eq!(returns.len(), sim.len(), "one simulation time per step");
    let n = returns.len();
    (0..n)
        .map(|i| {
            if i + 1 < n {
                returns[i + 1] - returns[i] - sim[i + 1]
            } else {
                end - returns[i]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), None, "999 leaves 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.90), Some(90.0));
        assert_eq!(tail_percentile(&v[..99], 0.90), None);
        assert_eq!(tail_percentile(&v, 0.50), Some(50.0));
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.90), 100);
    }

    #[test]
    fn tail_percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = tail_percentile(&v, 0.99);
        v.sort_by(f64::total_cmp);
        assert_eq!(a, tail_percentile(&v, 0.99));
        assert_eq!(a, Some(1979.0));
    }

    #[test]
    fn windowed_tail_ignores_a_stall_in_one_window() {
        // Three windows of 100 samples; the middle one holds a stall.
        let mut v: Vec<f64> = (0..300).map(|i| f64::from(i % 100)).collect();
        for x in &mut v[150..190] {
            *x = 1e6;
        }
        assert_eq!(windowed_tail(&v, 0.90), Some(89.0));
        assert_eq!(
            tail_percentile(&v, 0.90),
            Some(1e6),
            "the pooled p90 sees it"
        );
        assert_eq!(windowed_tail(&v[..99], 0.90), None);
        assert_eq!(
            windowed_tail(&v[..199], 0.90),
            Some(1e6),
            "one window of 199"
        );
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        t.record_many(6, 1);
        assert_eq!(
            t,
            Tally {
                attempted: 10,
                failed: 2
            }
        );
        assert!((t.ok_frac() - 0.8).abs() < 1e-12);
        assert_eq!(
            Tally::default().ok_frac(),
            0.0,
            "nothing attempted is not success"
        );
    }

    #[test]
    #[should_panic(expected = "cannot fail more")]
    fn more_failures_than_attempts_is_a_bug() {
        Tally::default().record_many(1, 2);
    }

    #[test]
    fn ibis_time_excludes_the_simulation() {
        // Steps return at 10, 25, 37; the simulation spent 10, 12 and 8
        // seconds inside those calls; the run returned at 40.
        let t = ibis_step_times(&[10.0, 25.0, 37.0], &[10.0, 12.0, 8.0], 40.0);
        assert_eq!(t, vec![3.0, 4.0, 3.0]);
    }

    #[test]
    fn ibis_time_is_all_wall_time_when_the_simulation_is_free() {
        let t = ibis_step_times(&[1.0, 2.0, 4.0], &[0.0, 0.0, 0.0], 7.0);
        assert_eq!(t, vec![1.0, 2.0, 3.0]);
        assert_eq!(t.iter().sum::<f64>(), 7.0 - 1.0);
    }
}
