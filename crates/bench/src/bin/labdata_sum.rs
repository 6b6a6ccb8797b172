//! Regenerates §7.3's LabData numbers: RMS error of Sum for all four
//! schemes under the lab's distance-based loss.

use td_bench::experiments::labdata_sum;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    labdata_sum::regenerate(Scale::from_env_or(Scale::paper()))
}
