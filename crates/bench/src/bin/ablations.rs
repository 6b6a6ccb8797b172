//! Ablation studies of the reproduction's design choices (see DESIGN.md):
//! adaptation signal fidelity, the §6.1.3 tree construction, and
//! oscillation damping.

use td_bench::experiments::ablation;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    ablation::regenerate(Scale::from_env_or(Scale::paper()))
}
