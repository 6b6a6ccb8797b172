//! Regenerates the correlated-failure sweep (`results/churn.csv`):
//! per-epoch Sum RMS, bytes/epoch, coverage, and epoch-plan
//! patch-vs-rebuild counters versus Gilbert–Elliott burst length and
//! node-churn rate, across all four schemes, at a fixed 20% average
//! loss. Respects `TD_SCALE=smoke|paper`; runs at smoke scale by
//! default so CI can emit the CSV on every push.

use td_bench::experiments::churn;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    churn::regenerate(Scale::from_env_or(Scale::smoke()))
}
