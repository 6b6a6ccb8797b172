//! Regenerates Figure 6: 400-epoch relative-error timeline while the
//! failure model steps Global(0) -> Regional(0.3,0) -> Global(0.3) ->
//! Global(0).

use td_bench::experiments::fig06;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    fig06::regenerate(Scale::from_env_or(Scale::paper()))
}
