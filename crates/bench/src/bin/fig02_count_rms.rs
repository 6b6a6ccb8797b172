//! Regenerates Figure 2: RMS error of a Count query under Global(p) for
//! p in 0..0.4, all four schemes.

use td_bench::experiments::fig02;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    fig02::regenerate(Scale::from_env_or(Scale::paper()))
}
