//! Determinism of every workload, the re-drives against the product,
//! the metric registry against `BENCHMARK.json`, and the statistics.

use cheriot_benchmark::spans::Tracer;
use cheriot_benchmark::stats::{median, quartiles};
use cheriot_benchmark::{
    diff, farm, report, setup, traced, Measured, Sizes, Traced, Workload, END_TO_END, PER_LAYER,
};
use std::collections::BTreeSet;

fn repeats_digest(w: Workload) {
    let mut b = setup(w, 2, &Sizes::TINY);
    let first = b.unit().expect("first unit passes its checks");
    let second = b.unit().expect("second unit passes its checks");
    assert_eq!(first, second, "{} is not deterministic", w.name());
    assert!(first.items > 0.0);
}

#[test]
fn coremark_units_repeat_their_digest() {
    repeats_digest(Workload::Coremark);
}

#[test]
fn campaign_units_repeat_their_digest() {
    repeats_digest(Workload::Campaign);
}

#[test]
fn farm_units_repeat_their_digest() {
    repeats_digest(Workload::Farm);
}

#[test]
fn diff_fuzz_units_repeat_their_digest() {
    repeats_digest(Workload::DiffFuzz);
}

#[test]
fn farm_redrive_reproduces_run_farm() {
    let cfg = farm::config(1, &Sizes::TINY);
    assert_eq!(cfg.devices, 16);
    let (expected, _) = farm::run_checked(&cfg).expect("tiny farm passes");
    let one = farm::redrive(&cfg, &mut Tracer::new()).expect("re-drive runs");
    assert_eq!(one.outcome, expected);
    assert_eq!(one.outcome.digest(), expected.digest());
    let two = farm::redrive(
        &cheriot_farm::FarmConfig { workers: 2, ..cfg },
        &mut Tracer::new(),
    )
    .expect("two-worker re-drive runs");
    assert_eq!(two.outcome, expected);
}

#[test]
fn diff_redrive_matches_run_fuzz_totals() {
    let cfg = diff::config(1, 8);
    let expected = diff::run_checked(&cfg).expect("no divergence");
    let mut t = Tracer::new();
    let got = diff::redrive(&cfg, &mut t);
    assert_eq!(got.pairs, expected.pairs);
    assert_eq!(got.instructions, expected.instructions);
    assert_eq!(got.coverage.opcodes, expected.coverage.opcodes);
    assert_eq!(got.divergences, 0);
    assert_eq!(got.digest(), expected.digest());
    assert_eq!(t.count("diff.generate"), 8);
    assert_eq!(t.count("diff.pair.chained"), 16);
}

/// Names, units and directions exactly as `BENCHMARK.json` lists them.
fn benchmark_json() -> (BTreeSet<String>, BTreeSet<String>) {
    let text = include_str!("../../../BENCHMARK.json");
    let mut workloads = BTreeSet::new();
    let mut metrics = BTreeSet::new();
    for line in text.lines().map(str::trim) {
        let field = |key: &str| {
            let start = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
            Some(line[start..].split('"').next()?.to_string())
        };
        let Some(name) = field("name") else { continue };
        match (field("unit"), field("better")) {
            (Some(unit), Some(better)) => metrics.insert(format!("{name} {unit} {better}")),
            _ => workloads.insert(name),
        };
    }
    (workloads, metrics)
}

#[test]
fn benchmark_json_names_exactly_the_emitted_metrics() {
    let (workloads, listed) = benchmark_json();
    let names: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(workloads, names);
    let defined: BTreeSet<String> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|d| format!("{} {} {}", d.name, d.unit, d.better))
        .collect();
    assert_eq!(listed, defined);

    let e2e = report::e2e_result(
        &Measured::default(),
        &report::e2e_rows(&Measured::default()),
    );
    let layers = report::layer_result(&Traced::default());
    for d in END_TO_END {
        assert!(e2e.contains(&format!("\"{}\": {{\"value\": ", d.name)));
    }
    for d in PER_LAYER {
        assert!(layers.contains(&format!("\"{}\": {{\"value\": ", d.name)));
    }
    for line in [&e2e, &layers] {
        assert!(line.starts_with("{\"correct\": ") && line.ends_with("}}}"));
        assert!(!line.contains('\n'));
    }
}

#[test]
fn every_per_layer_metric_is_measured_by_some_workload() {
    let mut seen = BTreeSet::new();
    for w in Workload::ALL {
        let t = traced(w, 1, &Sizes::TINY, &mut Tracer::new())
            .unwrap_or_else(|e| panic!("{} traced run: {e}", w.name()));
        seen.extend(t.layers.keys().copied());
    }
    let all: BTreeSet<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(seen, all);
}

#[test]
fn median_and_quartiles_match_python_statistics() {
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(median(&ten), 5.5);
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.25, 3.75));
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    assert_eq!((median(&[]), quartiles(&[])), (0.0, (0.0, 0.0)));
}
