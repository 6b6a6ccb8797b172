//! Regenerates Figure 9: % false negatives of the frequent-items schemes
//! under Global(p) on LabData streams — (a) without and (b) with two
//! tree retransmissions.

use td_bench::experiments::fig09;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    fig09::regenerate(Scale::from_env_or(Scale::paper()))
}
