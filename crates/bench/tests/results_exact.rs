//! The committed paper CSVs are exact outputs, not snapshots.
//!
//! These tests regenerate the table2, table3 and ablations sections in
//! process, without writing files, and compare every CSV they own byte
//! for byte with the committed `results/*.csv`. They are cheap in a debug
//! build (Table 3 is the slowest, under a second).
//!
//! The alloc section (Table 4 and Figures 5/6) is exact too, but its 208
//! allocator runs take most of a minute in a debug build, so it is checked
//! only by CI's "Paper results are exact" step: a release `all_results`
//! run followed by `git diff --exit-code` over `results/`. The e2e and
//! encoding sections write no CSV.
//!
//! A cost-model change that moves one of these numbers must regenerate
//! the file (`cargo run -p cheriot-bench --release --bin all_results`) and
//! restate the delta in EXPERIMENTS.md in the same change.

use cheriot_bench::harness::{self, Section};

fn assert_exact(section: Section, committed: &[(&str, &str)]) {
    let names: Vec<&str> = section.tables.iter().map(|t| t.name.as_str()).collect();
    let expected: Vec<&str> = committed.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected, "section owns a different set of CSVs");
    for (table, (name, text)) in section.tables.iter().zip(committed) {
        assert_eq!(
            table.csv(),
            *text,
            "results/{name}.csv differs from its regenerated rows"
        );
    }
}

#[test]
fn table2_matches_committed_csv() {
    assert_exact(
        harness::table2(),
        &[(
            "table2_area_power",
            include_str!("../../../results/table2_area_power.csv"),
        )],
    );
}

#[test]
fn table3_matches_committed_csv() {
    assert_exact(
        harness::table3(),
        &[(
            "table3_coremark",
            include_str!("../../../results/table3_coremark.csv"),
        )],
    );
}

#[test]
fn ablations_match_committed_csv() {
    assert_exact(
        cheriot_bench::ablations::ablations(),
        &[("ablations", include_str!("../../../results/ablations.csv"))],
    );
}
