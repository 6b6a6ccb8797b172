//! Regenerates Figure 8: average and maximum per-sensor communication
//! load of the four tree frequent-items algorithms (eps = 0.1%, s = 1%,
//! no loss) on LabData and disjoint-uniform synthetic streams.

use td_bench::experiments::fig08;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    fig08::regenerate(Scale::from_env_or(Scale::paper()))
}
