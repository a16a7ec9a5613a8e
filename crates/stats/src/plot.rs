//! Minimal terminal plotting for experiment output.
//!
//! The paper's Figure 4 is a line chart of cooperation level vs.
//! generation for four cases. [`ascii_chart`] renders the same picture in
//! a terminal so `ahn-exp fig4` can show the *shape* (who converges
//! where, how fast) without leaving the shell; the CSV export remains the
//! source of truth for real plotting.

/// One named series for [`ascii_chart`].
#[derive(Debug, Clone)]
pub struct PlotSeries<'a> {
    /// Legend label.
    pub label: &'a str,
    /// Y values, plotted against their index.
    pub values: &'a [f64],
    /// Character marking this series.
    pub marker: char,
}

/// Renders series as an ASCII chart of the given size. Y range is fixed
/// to `[0, 1]` (all our series are cooperation fractions). Markers
/// overwrite each other back-to-front, so order series by importance.
///
/// # Panics
/// Panics if `width` or `height` is zero.
pub fn ascii_chart(series: &[PlotSeries<'_>], width: usize, height: usize) -> String {
    assert!(width > 0 && height > 0, "empty chart area");
    let mut grid = vec![vec![' '; width]; height];
    let max_len = series.iter().map(|s| s.values.len()).max().unwrap_or(0);

    for s in series.iter().rev() {
        if s.values.is_empty() {
            continue;
        }
        // The column indexes a different row of `grid` each iteration, so
        // no single iterator replaces the range loop.
        #[allow(clippy::needless_range_loop)]
        for col in 0..width {
            // Map the column to an index in the series.
            let idx = if max_len <= 1 {
                0
            } else {
                col * (max_len - 1) / (width - 1).max(1)
            };
            let Some(&v) = s.values.get(idx) else {
                continue;
            };
            let v = v.clamp(0.0, 1.0);
            let row = ((1.0 - v) * (height - 1) as f64).round() as usize;
            grid[row][col] = s.marker;
        }
    }

    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let y = 1.0 - r as f64 / (height - 1).max(1) as f64;
        out.push_str(&format!("{:>5.0}% |", y * 100.0));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("       +{}\n", "-".repeat(width)));
    out.push_str(&format!(
        "        0{:>width$}\n",
        max_len.saturating_sub(1),
        width = width - 1
    ));
    let legend: Vec<String> = series
        .iter()
        .map(|s| format!("{} {}", s.marker, s.label))
        .collect();
    out.push_str(&format!("        {}\n", legend.join("   ")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chart_has_requested_dimensions() {
        let values = [0.0, 0.5, 1.0];
        let s = PlotSeries {
            label: "demo",
            values: &values,
            marker: '*',
        };
        let chart = ascii_chart(&[s], 30, 10);
        let lines: Vec<&str> = chart.lines().collect();
        // height rows + axis + x labels + legend.
        assert_eq!(lines.len(), 13);
        assert!(lines[0].starts_with("  100% |"));
        assert!(lines[9].starts_with("    0% |"));
        assert!(chart.contains("* demo"));
    }

    #[test]
    fn rising_series_touches_both_corners() {
        let values: Vec<f64> = (0..50).map(|i| i as f64 / 49.0).collect();
        let s = PlotSeries {
            label: "up",
            values: &values,
            marker: 'o',
        };
        let chart = ascii_chart(&[s], 40, 8);
        let lines: Vec<&str> = chart.lines().collect();
        // Top row has a marker near the right edge, bottom near the left.
        assert!(lines[0].trim_end().ends_with('o'));
        assert_eq!(lines[7].chars().nth(8), Some('o'), "{chart}");
    }

    #[test]
    fn multiple_series_share_the_grid() {
        let flat = [0.5; 10];
        let low = [0.1; 10];
        let chart = ascii_chart(
            &[
                PlotSeries {
                    label: "a",
                    values: &flat,
                    marker: 'a',
                },
                PlotSeries {
                    label: "b",
                    values: &low,
                    marker: 'b',
                },
            ],
            20,
            10,
        );
        assert!(chart.contains('a'));
        assert!(chart.contains('b'));
    }

    #[test]
    fn first_series_wins_collisions() {
        let v = [0.5; 5];
        let chart = ascii_chart(
            &[
                PlotSeries {
                    label: "front",
                    values: &v,
                    marker: 'F',
                },
                PlotSeries {
                    label: "back",
                    values: &v,
                    marker: 'B',
                },
            ],
            10,
            5,
        );
        assert!(chart.contains('F'));
        // The back marker is fully overwritten on the grid (it still
        // appears in the legend).
        let grid_part: String = chart.lines().take(5).collect();
        assert!(!grid_part.contains('B'));
    }

    #[test]
    fn empty_series_is_tolerated() {
        let chart = ascii_chart(
            &[PlotSeries {
                label: "none",
                values: &[],
                marker: 'x',
            }],
            10,
            4,
        );
        assert!(chart.contains("x none"));
    }

    #[test]
    #[should_panic(expected = "empty chart area")]
    fn zero_size_panics() {
        let _ = ascii_chart(&[], 0, 5);
    }
}
