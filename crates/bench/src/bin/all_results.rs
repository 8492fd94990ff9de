//! Runs every section of the evaluation in one go, writing all CSVs into
//! `results/` — the one-command regeneration of EXPERIMENTS.md. Each CSV
//! has one writer, shared with its per-section binary.

fn main() {
    print!("{}", cheriot_bench::harness::run_all());
}
