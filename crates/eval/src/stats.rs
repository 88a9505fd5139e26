//! Sweep statistics (DESIGN.md inventory row 25). The paper's Fig. 2
//! argues clusterer choice barely matters by showing the per-δ F1 curves
//! of UMC, Exact Clustering and Kiraly are strongly *correlated* —
//! this module ships the Pearson coefficient that check runs on.

/// Pearson correlation coefficient of two equal-length samples.
///
/// Returns 0.0 when either sample is constant (zero variance) or shorter
/// than two points — the "no linear relationship measurable" convention,
/// which keeps sweep comparisons NaN-free when a clusterer flatlines.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "samples differ in length");
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let mean_x = xs.iter().sum::<f64>() / n as f64;
    let mean_y = ys.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return 0.0;
    }
    cov / (var_x * var_y).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_linear_relationships_score_plus_minus_one() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let up: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        let down: Vec<f64> = xs.iter().map(|x| -0.5 * x + 3.0).collect();
        assert!((pearson(&xs, &up) - 1.0).abs() < 1e-12);
        assert!((pearson(&xs, &down) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn hand_computed_fixture() {
        // xs = [1,2,3], ys = [1,3,2]: deviations (−1,0,1) and (−1,1,0)
        // give Σdxdy = 1, Σdx² = Σdy² = 2, so r = 1/√(2·2) = 0.5.
        let r = pearson(&[1.0, 2.0, 3.0], &[1.0, 3.0, 2.0]);
        assert!((r - 0.5).abs() < 1e-12, "{r}");
    }

    #[test]
    fn degenerate_samples_score_zero_not_nan() {
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0], &[2.0]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert!(pearson(&[1.0, 2.0], &[5.0, 5.0]).is_finite());
    }
}
