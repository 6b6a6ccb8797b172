//! Regenerates Table 2: the example 2-dominating tree Te vs the regular
//! binary tree T2.

fn main() -> std::io::Result<()> {
    td_bench::experiments::tab02::regenerate()
}
