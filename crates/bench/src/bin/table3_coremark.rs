//! Regenerates **Table 3**: CoreMark results for the two cores (RV32E
//! baseline, + capabilities, + load filter), written to
//! `results/table3_coremark.csv`, plus the fixed-compiler overheads and
//! code sizes.

fn main() {
    print!("{}", cheriot_bench::harness::table3().write());
}
