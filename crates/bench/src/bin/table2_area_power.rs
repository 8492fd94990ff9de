//! Regenerates **Table 2**: area, power and f_max of the Ibex variants,
//! written to `results/table2_area_power.csv`.

fn main() {
    print!("{}", cheriot_bench::harness::table2().write());
}
