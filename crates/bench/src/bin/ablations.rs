//! Regenerates the **design-choice ablations** (DESIGN.md E9) as exact
//! simulated counts in `results/ablations.csv`.

fn main() {
    print!("{}", cheriot_bench::ablations::ablations().write());
}
