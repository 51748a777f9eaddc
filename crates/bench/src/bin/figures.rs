//! Every evaluation figure of the paper, each run once, printed as the
//! Markdown the README's "Figures" section holds between its
//! `<!-- figures:begin -->` and `<!-- figures:end -->` markers. The
//! figures' independent runs share one worker pool on all cores.
//!
//! ```sh
//! cargo run --release -p macedon-bench --bin figures             # Quick scale, seconds
//! cargo run --release -p macedon-bench --bin figures -- --paper  # the paper's scale
//! ```

use macedon_bench::experiments::figures;
use macedon_bench::table::render;
use macedon_bench::Scale;

fn main() {
    let scale = if std::env::args().any(|a| a == "--paper") {
        Scale::Paper
    } else {
        Scale::Quick
    };
    print!("{}", render(&figures(scale, None)));
}
