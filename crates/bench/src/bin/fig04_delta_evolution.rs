//! Regenerates Figure 4: the TD delta region under Regional(0.3, 0.05)
//! and Regional(0.8, 0.05), with ASCII scatter plots and localization
//! statistics (plus the TD-Coarse contrast discussed in §7.2).

use td_bench::experiments::fig04;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    fig04::regenerate(Scale::from_env_or(Scale::paper()))
}
