//! `cheriot-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! [--trace-out FILE]`
//!
//! With `--workload`, runs that workload in this process: untraced
//! (`--trace 0`, the default) it prints every end-to-end metric, traced
//! (`--trace 1`) every per-layer metric; either way the last line of
//! standard output is the JSON result. `--trace-out FILE` also writes
//! the traced run's spans as Chrome trace JSON.
//!
//! Without `--workload`, runs every workload untraced and then traced,
//! each in its own child process (`--trace-out FILE` becomes
//! `FILE.<workload>.json` per child), and exits nonzero if any failed.

use cheriot_benchmark::spans::Tracer;
use cheriot_benchmark::{measure, report, traced, Sizes, Workload, DEFAULT_SEED, PER_LAYER};
use std::path::PathBuf;
use std::process::{exit, Command};

const USAGE: &str = "usage: cheriot-benchmark [--workload coremark|campaign|farm|diff_fuzz] \
                     [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--trace-out" => a.trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2);
    });
    let ok = match args.workload {
        Some(w) if args.trace => run_traced(w, &args),
        Some(w) => run_measured(w, &args),
        None => run_all(&args),
    };
    if !ok {
        exit(1);
    }
}

fn run_measured(w: Workload, args: &Args) -> bool {
    let m = measure(w, args.seed, &Sizes::FULL, args.seconds);
    let rows = report::e2e_rows(&m);
    print!("{}", report::e2e_table(w, args.seed, &m, &rows));
    println!("{}", report::e2e_result(&m, &rows));
    m.failed == 0
}

fn run_traced(w: Workload, args: &Args) -> bool {
    let mut t = Tracer::new();
    let result = traced(w, args.seed, &Sizes::FULL, &mut t);
    if let Some(path) = &args.trace_out {
        if let Err(e) = t.write_chrome(path) {
            eprintln!("writing {}: {e}", path.display());
            return false;
        }
        eprintln!("wrote {} spans to {}", t.spans().len(), path.display());
    }
    match result {
        Ok(tr) => {
            print!("{}", report::layer_table(w, args.seed, &tr));
            println!("{}", report::layer_result(&tr));
            true
        }
        Err(e) => {
            eprintln!("{} traced run failed: {e}", w.name());
            let zeros: Vec<_> = PER_LAYER.iter().map(|d| (*d, 0.0)).collect();
            println!("{}", report::result_line(false, 1, 1, &zeros));
            false
        }
    }
}

/// Every workload untraced, then traced, one child process each.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate this executable: {e}");
        exit(2);
    });
    let mut ok = true;
    for trace in ["0", "1"] {
        for w in Workload::ALL {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()]);
            if let (Some(out), "1") = (&args.trace_out, trace) {
                let mut name = out.clone().into_os_string();
                name.push(format!(".{}.json", w.name()));
                cmd.arg("--trace-out").arg(name);
            }
            match cmd.status() {
                Ok(s) if s.success() => {}
                Ok(s) => {
                    eprintln!("{} (--trace {trace}) exited with {s}", w.name());
                    ok = false;
                }
                Err(e) => {
                    eprintln!("{} (--trace {trace}) did not start: {e}", w.name());
                    ok = false;
                }
            }
        }
    }
    ok
}
