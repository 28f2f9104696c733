//! The quick figure tables, byte for byte.
//!
//! Every experiment `all_experiments` names except `engine_scale` (its table reports
//! wall-clock seconds) runs at `Scale::Quick` through the library and is rendered the
//! way `pdq-experiments <names…> --quick` prints it: each table's markdown followed
//! by a blank line. The result must equal the committed `quick_tables.md`. A change
//! that moves a table on purpose regenerates the file from the repository root with
//!
//! ```text
//! cargo build --release -p pdq-experiments
//! bin=target/release/pdq-experiments
//! $bin $($bin list | awk '/^experiments:$/ { on = 1; next } on && !NF { exit } on { print $1 }' \
//!        | grep -vx engine_scale) --quick > crates/experiments/tests/quick_tables.md
//! ```
//!
//! and names every table that moved.

use pdq_experiments::{all_experiments, run_experiment, Scale};

const GOLDEN: &str = include_str!("quick_tables.md");

#[test]
fn quick_tables_match_the_committed_golden_file() {
    let mut out = String::new();
    for name in all_experiments() {
        if name == "engine_scale" {
            continue;
        }
        for table in run_experiment(name, Scale::Quick).expect("listed name runs") {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
    }
    // Name the first line that differs before comparing the whole text.
    for (i, (got, want)) in out.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} of quick_tables.md", i + 1);
    }
    assert_eq!(out.lines().count(), GOLDEN.lines().count(), "line count");
    assert!(out == GOLDEN, "trailing bytes differ");
}
