//! Regenerates Figure 9(d) (extension): **windowed** false negatives of
//! the frequent-items schemes under `Global(p)` — set-valued panes
//! merged over a sliding window, scored against the exact windowed
//! frequent set (`results/fig09d_false_negatives_windowed.csv`).

use td_bench::experiments::fig09d;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    fig09d::regenerate(Scale::from_env_or(Scale::smoke()))
}
