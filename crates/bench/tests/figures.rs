//! Worker invariance of the figures' pool: the Quick figures render to
//! the same Markdown on one worker and on two. A few seconds optimised,
//! so it is ignored in the plain run:
//!
//! ```sh
//! cargo test --release -p macedon-bench --test figures -- --ignored
//! ```

use macedon_bench::experiments::figures;
use macedon_bench::table::render;
use macedon_bench::Scale;

#[test]
#[ignore = "renders every Quick figure twice; run with --release -- --ignored"]
fn figures_are_worker_invariant() {
    let one = render(&figures(Scale::Quick, Some(1)));
    let two = render(&figures(Scale::Quick, Some(2)));
    assert!(one.contains("**Figure 12"), "every figure rendered:\n{one}");
    assert_eq!(one, two, "1 and 2 workers render the same Markdown");
}
