//! Regenerates the streaming-window sweep (`results/stream_windows.csv`):
//! windowed-Sum RMS and bytes/epoch versus window length and hop over a
//! drifting stream under 20% loss, across all four schemes. Respects
//! `TD_SCALE=smoke|paper`; runs at smoke scale by default.

use td_bench::experiments::stream_windows;
use td_bench::Scale;

fn main() -> std::io::Result<()> {
    stream_windows::regenerate(Scale::from_env_or(Scale::smoke()))
}
