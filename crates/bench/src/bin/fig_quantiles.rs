//! Regenerates the quantile sweep: rank error versus communication for
//! GK and q-digest quantile queries across all four aggregation schemes,
//! two loss shapes, and precision-gradient versus uniform per-level
//! budgets — `results/quantiles.csv`.

use td_bench::experiments::fig_quantiles;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    fig_quantiles::regenerate(Scale::from_env_or(Scale::smoke()))
}
