//! Regenerates Table 1 (quantified): the energy and error components
//! behind the paper's qualitative comparison, measured at Global(0.15)
//! and Global(0).

use td_bench::experiments::tab01;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    tab01::regenerate(Scale::from_env_or(Scale::paper()))
}
