//! Regenerates the streaming-window sweep (`results/stream_windows.csv`):
//! windowed-Sum RMS and bytes/epoch versus window length and hop over a
//! drifting stream under 20% loss, across all four schemes. Respects
//! `TD_SCALE=smoke|paper`; runs at smoke scale by default.

use td_bench::experiments::stream_windows;
use td_bench::Scale;

fn main() {
    let scale = Scale::from_env_or(Scale::smoke());
    let t0 = std::time::Instant::now();
    let rows = stream_windows::run(scale, 0x57E2EA);
    let table = stream_windows::table(&rows);
    table.print();
    match table.write_csv("stream_windows") {
        Some(path) => println!("wrote {}", path.display()),
        None => std::process::exit(1),
    }
    println!("done in {:.1}s", t0.elapsed().as_secs_f64());
}
