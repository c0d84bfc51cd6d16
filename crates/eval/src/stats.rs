//! Summary statistics and significance tests.
//!
//! The paper reports mean ± standard deviation over five runs and marks
//! improvements that are significant under a paired t-test at `p < 0.05`
//! against the runner-up. This module provides those tools, including a
//! regularised incomplete-beta implementation of the Student-t CDF so no
//! external statistics crate is needed. Nothing reports significance yet,
//! so the t-test half is compiled for this module's tests only.

use serde::{Deserialize, Serialize};

/// Mean and (sample) standard deviation of a set of runs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct MeanStd {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (ddof = 1); zero for fewer than two values.
    pub std: f64,
    /// Number of values.
    pub n: usize,
}

impl MeanStd {
    /// Computes mean and sample standard deviation of `values`.
    pub fn of(values: &[f64]) -> MeanStd {
        let n = values.len();
        if n == 0 {
            return MeanStd::default();
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let std = if n > 1 {
            (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64).sqrt()
        } else {
            0.0
        };
        MeanStd { mean, std, n }
    }

    /// Formats as the paper does, e.g. `"7.01 ±0.05"`.
    pub fn format(&self, decimals: usize) -> String {
        format!("{:.*} ±{:.*}", decimals, self.mean, decimals, self.std)
    }
}

/// Natural log of the gamma function (Lanczos approximation).
#[cfg(test)]
fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients (g = 7, n = 9).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return (std::f64::consts::PI / (std::f64::consts::PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + 7.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Continued-fraction evaluation of the incomplete beta function
/// (Numerical Recipes `betacf`).
#[cfg(test)]
fn betacf(a: f64, b: f64, x: f64) -> f64 {
    const MAX_ITER: usize = 200;
    const EPS: f64 = 3.0e-12;
    const FPMIN: f64 = 1.0e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..=MAX_ITER {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < EPS {
            break;
        }
    }
    h
}

/// Regularised incomplete beta function `I_x(a, b)`.
#[cfg(test)]
pub(crate) fn incomplete_beta(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let ln_front = ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln();
    let front = ln_front.exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * betacf(a, b, x) / a
    } else {
        1.0 - front * betacf(b, a, 1.0 - x) / b
    }
}

/// Two-sided p-value of a Student-t statistic with `df` degrees of freedom.
#[cfg(test)]
pub(crate) fn t_test_p_value(t: f64, df: f64) -> f64 {
    if df <= 0.0 {
        return 1.0;
    }
    let x = df / (df + t * t);
    incomplete_beta(df / 2.0, 0.5, x).clamp(0.0, 1.0)
}

/// Result of a paired t-test.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairedTTest {
    /// The t statistic (positive when `a` has the larger mean).
    pub t_statistic: f64,
    /// Degrees of freedom (`n - 1`).
    pub degrees_of_freedom: f64,
    /// Two-sided p-value.
    pub p_value: f64,
    /// Mean of the pairwise differences `a - b`.
    pub mean_difference: f64,
}

#[cfg(test)]
impl PairedTTest {
    /// Whether the difference is significant at the given level.
    pub(crate) fn significant(&self, alpha: f64) -> bool {
        self.p_value < alpha
    }
}

/// Paired t-test over two equally long series of paired observations
/// (e.g. per-seed MRR of two methods). Returns `None` for fewer than two
/// pairs or mismatched lengths.
#[cfg(test)]
pub(crate) fn paired_t_test(a: &[f64], b: &[f64]) -> Option<PairedTTest> {
    if a.len() != b.len() || a.len() < 2 {
        return None;
    }
    let diffs: Vec<f64> = a.iter().zip(b.iter()).map(|(x, y)| x - y).collect();
    let stats = MeanStd::of(&diffs);
    let n = diffs.len() as f64;
    let df = n - 1.0;
    let se = stats.std / n.sqrt();
    let t = if se == 0.0 {
        if stats.mean == 0.0 {
            0.0
        } else {
            f64::INFINITY * stats.mean.signum()
        }
    } else {
        stats.mean / se
    };
    let p = if t.is_infinite() { 0.0 } else { t_test_p_value(t, df) };
    Some(PairedTTest {
        t_statistic: t,
        degrees_of_freedom: df,
        p_value: p,
        mean_difference: stats.mean,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let s = MeanStd::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std - (32.0f64 / 7.0).sqrt()).abs() < 1e-9);
        assert_eq!(s.n, 8);
        assert_eq!(MeanStd::of(&[]).n, 0);
        assert_eq!(MeanStd::of(&[3.0]).std, 0.0);
        assert!(MeanStd::of(&[1.234, 1.234]).format(2).contains("1.23"));
    }

    #[test]
    fn ln_gamma_known_values() {
        // Gamma(5) = 24, Gamma(0.5) = sqrt(pi)
        assert!((ln_gamma(5.0) - 24.0f64.ln()).abs() < 1e-9);
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-9);
        assert!((ln_gamma(1.0)).abs() < 1e-9);
    }

    #[test]
    fn incomplete_beta_properties() {
        assert_eq!(incomplete_beta(2.0, 3.0, 0.0), 0.0);
        assert_eq!(incomplete_beta(2.0, 3.0, 1.0), 1.0);
        // Symmetric case: I_{0.5}(a, a) = 0.5
        assert!((incomplete_beta(4.0, 4.0, 0.5) - 0.5).abs() < 1e-9);
        // I_x(1,1) = x (uniform distribution CDF)
        for x in [0.1, 0.35, 0.8] {
            assert!((incomplete_beta(1.0, 1.0, x) - x).abs() < 1e-9);
        }
        // Monotone in x.
        assert!(incomplete_beta(2.0, 5.0, 0.3) < incomplete_beta(2.0, 5.0, 0.6));
    }

    #[test]
    fn t_test_p_values_match_known_quantiles() {
        // For df=4, t=2.776 is the 97.5% quantile -> two-sided p ≈ 0.05
        let p = t_test_p_value(2.776, 4.0);
        assert!((p - 0.05).abs() < 0.002, "p = {p}");
        // t=0 -> p=1
        assert!((t_test_p_value(0.0, 10.0) - 1.0).abs() < 1e-9);
        // huge t -> p ~ 0
        assert!(t_test_p_value(50.0, 10.0) < 1e-6);
        assert_eq!(t_test_p_value(1.0, 0.0), 1.0);
    }

    #[test]
    fn paired_t_test_detects_differences() {
        let a = [7.0, 7.2, 6.9, 7.1, 7.05];
        let b = [4.2, 4.4, 4.1, 4.3, 4.25];
        let t = paired_t_test(&a, &b).unwrap();
        assert!(t.significant(0.05));
        assert!(t.mean_difference > 2.5);
        assert!(t.t_statistic > 10.0);

        // Nearly identical series should not be significant.
        let c = [5.0, 5.1, 4.9, 5.05, 5.02];
        let d = [5.01, 5.08, 4.92, 5.06, 4.99];
        let t2 = paired_t_test(&c, &d).unwrap();
        assert!(!t2.significant(0.05));

        // Identical series: t = 0, p = 1.
        let t3 = paired_t_test(&c, &c).unwrap();
        assert_eq!(t3.t_statistic, 0.0);
        assert!((t3.p_value - 1.0).abs() < 1e-9);

        // Constant non-zero difference: infinite t, p = 0.
        let e = [1.0, 2.0, 3.0];
        let f: Vec<f64> = e.iter().map(|v| v + 1.0).collect();
        let t4 = paired_t_test(&f, &e).unwrap();
        assert!(t4.significant(0.05));

        assert!(paired_t_test(&[1.0], &[2.0]).is_none());
        assert!(paired_t_test(&[1.0, 2.0], &[2.0]).is_none());
    }
}
