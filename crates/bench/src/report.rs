//! Paper-style result tables.

/// A result series: one engine line of a figure.
pub struct Series {
    pub label: String,
    /// `(x, throughput txns/sec)` points — the per-point median when
    /// `runs > 1`.
    pub points: Vec<(f64, f64)>,
    /// Measured repetitions behind each point (discarded warmup runs not
    /// counted). `1` for single-shot figures.
    pub runs: usize,
    /// Per-point relative dispersion, `(max − min) / median` over the
    /// repetitions; empty for single-shot figures.
    pub spread: Vec<f64>,
}

impl Series {
    /// A single-shot series: one measurement per point, no dispersion data.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
            runs: 1,
            spread: Vec::new(),
        }
    }
}

/// Median of a non-empty sample (midpoint average for even counts).
pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Build one series by sweeping the x-axis: each point is the **median of
/// `runs` measurements after one discarded warmup run** — the warmup pays
/// the cold-cache/page-fault cost that makes first iterations land
/// systematically low — and the per-point `(max − min) / median`
/// dispersion rides along in the series.
///
/// `sample(x, run)` performs one measurement; `run` 0 is the discarded
/// warmup, `1..=runs` are kept. With `runs == 1` the figure stays
/// **single-shot** — one measurement per point, no warmup, no dispersion
/// data — exactly [`Series::new`] semantics.
pub fn sweep_series(
    label: impl Into<String>,
    xs: &[f64],
    runs: usize,
    mut sample: impl FnMut(f64, usize) -> f64,
) -> Series {
    assert!(runs >= 1, "a series point needs at least one measurement");
    let mut points = Vec::with_capacity(xs.len());
    let mut spread = Vec::with_capacity(xs.len());
    for &x in xs {
        let mut samples = Vec::with_capacity(runs);
        let first_run = if runs == 1 { 1 } else { 0 };
        for run in first_run..=runs {
            let y = sample(x, run);
            if run > 0 {
                samples.push(y);
            }
        }
        let med = median(&mut samples);
        let (lo, hi) = (samples[0], samples[samples.len() - 1]);
        points.push((x, med));
        spread.push(if med > 0.0 { (hi - lo) / med } else { 0.0 });
    }
    Series {
        label: label.into(),
        points,
        runs,
        spread: if runs == 1 { Vec::new() } else { spread },
    }
}

/// Print a figure's series as an aligned table plus machine-readable CSV.
pub fn print_figure(title: &str, x_label: &str, series: &[Series]) {
    println!();
    println!("=== {title} ===");
    // Aligned table.
    print!("{:>12}", x_label);
    for s in series {
        print!("{:>14}", s.label);
    }
    println!();
    let xs: Vec<f64> = series
        .first()
        .map(|s| s.points.iter().map(|p| p.0).collect())
        .unwrap_or_default();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>12.2}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => print!("{:>14}", fmt_tput(y)),
                None => print!("{:>14}", "-"),
            }
        }
        println!();
    }
    // CSV block (for plotting / EXPERIMENTS.md extraction).
    println!("--- csv: {title} ---");
    print!("{x_label}");
    for s in series {
        print!(",{}", s.label);
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, y)) => print!(",{y:.0}"),
                None => print!(","),
            }
        }
        println!();
    }
    println!("--- end csv ---");
}

/// Human throughput formatting (matches the paper's "M txns/sec" axes).
pub fn fmt_tput(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_samples() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn sweep_series_medians_after_one_warmup() {
        // Per x: runs 0 (warmup), 1, 2, 3 → samples 10(x+1)·{1,2,3} with
        // the warmup deliberately absurd so inclusion would be visible.
        let mut calls = Vec::new();
        let s = sweep_series("e", &[1.0, 2.0], 3, |x, run| {
            calls.push((x, run));
            if run == 0 {
                return 1e9;
            }
            10.0 * x * run as f64
        });
        assert_eq!(s.runs, 3);
        assert_eq!(s.points, vec![(1.0, 20.0), (2.0, 40.0)]);
        // (max − min) / median = (30 − 10) / 20 = 1.0 at x=1.
        assert_eq!(s.spread, vec![1.0, 1.0]);
        assert_eq!(calls.len(), 8, "one warmup + three kept runs per point");
        assert_eq!(calls[0], (1.0, 0));
    }

    #[test]
    fn sweep_series_single_shot_skips_warmup() {
        let mut calls = 0;
        let s = sweep_series("e", &[4.0], 1, |x, run| {
            calls += 1;
            assert_eq!(run, 1, "single-shot must not issue a warmup");
            x * 2.0
        });
        assert_eq!(calls, 1);
        assert_eq!(s.points, vec![(4.0, 8.0)]);
        assert_eq!(s.runs, 1);
        assert!(s.spread.is_empty());
    }

    #[test]
    fn tput_formatting() {
        assert_eq!(fmt_tput(1_500_000.0), "1.50M");
        assert_eq!(fmt_tput(12_345.0), "12.3k");
        assert_eq!(fmt_tput(42.0), "42");
    }

    #[test]
    fn print_figure_smoke() {
        print_figure(
            "Test",
            "threads",
            &[Series::new("X", vec![(1.0, 10.0), (2.0, 20.0)])],
        );
    }
}
