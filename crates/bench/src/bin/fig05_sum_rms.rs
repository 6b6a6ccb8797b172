//! Regenerates Figure 5: RMS error of Sum under (a) Global(p) and (b)
//! Regional(p, 0.05), p in 0..1, all four schemes.

use td_bench::experiments::fig05;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    fig05::regenerate(Scale::from_env_or(Scale::paper()))
}
