//! Regenerates Figure 7: domination factors of our tree construction vs
//! TAG trees, by deployment density (a) and deployment width (b), plus
//! the LabData factor of §7.4.1.

use td_bench::experiments::fig07;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    fig07::regenerate(Scale::from_env_or(Scale::paper()))
}
