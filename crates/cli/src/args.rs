//! Command-line flag parsing with contextual errors.
//!
//! Every failure names the offending flag and value — `cheriot-sim` never
//! answers malformed input with a bare usage dump (and never panics). The
//! parsers are plain functions over `&[String]` so they are directly unit
//! testable without spawning the binary.

use crate::runner::RunOptions;
use cheriot_core::CoreModel;
use cheriot_diff::{DiffConfig, Profile};
use cheriot_farm::FarmConfig;
use cheriot_fault::{CampaignConfig, FaultClass};
use std::path::PathBuf;

/// Parsed `cheriot-sim run` invocation.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Program path (assembly source, or machine code with `--binary`).
    pub path: String,
    /// Execution options.
    pub opts: RunOptions,
    /// Treat the input as little-endian machine code.
    pub binary: bool,
}

/// Parsed `cheriot-sim fault-campaign` invocation.
#[derive(Clone, Debug)]
pub struct CampaignArgs {
    /// Campaign-suite configuration.
    pub cfg: CampaignConfig,
    /// Write the JSON report here.
    pub json_out: Option<PathBuf>,
    /// Write the text report here (it always also goes to stdout).
    pub text_out: Option<PathBuf>,
}

/// Parsed `cheriot-sim farm` invocation.
#[derive(Clone, Debug)]
pub struct FarmArgs {
    /// Fleet configuration.
    pub cfg: FarmConfig,
    /// Write the JSON report here.
    pub json_out: Option<PathBuf>,
    /// Print the fleet-wide metrics summary after the report.
    pub metrics: bool,
}

/// Parsed `cheriot-sim diff-fuzz` invocation.
#[derive(Clone, Debug)]
pub struct DiffArgs {
    /// Differential-campaign configuration.
    pub cfg: DiffConfig,
    /// Write the JSON report here.
    pub json_out: Option<PathBuf>,
    /// Write one minimal-repro JSON per divergence into this directory.
    pub repro_dir: PathBuf,
}

/// Applies `flag` (taking its value from `it`) to `opts` if it is one of
/// the engine flags `run` and `farm` share: the core model and the
/// architecturally invisible dispatch and page-store switches. `Ok(false)`
/// leaves the flag to the subcommand.
fn engine_flag(
    opts: &mut RunOptions,
    flag: &str,
    it: &mut std::slice::Iter<String>,
) -> Result<bool, String> {
    match flag {
        "--core" => {
            opts.core = value(flag, it)?
                .parse()
                .map_err(|e| format!("flag `--core`: {e}"))?;
        }
        "--no-block-cache" => opts.block_cache = false,
        "--no-block-chain" => opts.block_chain = false,
        "--no-cow" => opts.cow = false,
        _ => return Ok(false),
    }
    Ok(true)
}

fn value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("flag `{flag}` expects a value"))
}

fn uint<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("flag `{flag}`: expected an unsigned integer, got `{v}`"))
}

/// Parses `run` arguments: `<prog> [flags...]`.
///
/// # Errors
///
/// A message naming the offending flag or value.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let Some((path, flags)) = args.split_first() else {
        return Err("`run` expects a program path as its first argument".into());
    };
    let mut opts = RunOptions::default();
    let mut binary = false;
    let mut it = flags.iter();
    while let Some(f) = it.next() {
        if engine_flag(&mut opts, f, &mut it)? {
            continue;
        }
        match f.as_str() {
            "--no-load-filter" => opts.load_filter = false,
            "--trace" => opts.trace_depth = uint(f, value(f, &mut it)?)?,
            "--max-cycles" => opts.max_cycles = uint(f, value(f, &mut it)?)?,
            "--watchdog" => opts.watchdog = Some(uint(f, value(f, &mut it)?)?),
            "--dump-regs" => opts.dump_regs = true,
            "--heap" => opts.heap = true,
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value(f, &mut it)?)),
            "--machine" => opts.machine = Some(PathBuf::from(value(f, &mut it)?)),
            "--metrics" => opts.metrics = true,
            "--binary" => binary = true,
            other => return Err(format!("unknown flag `{other}` for `run`")),
        }
    }
    Ok(RunArgs {
        path: path.clone(),
        opts,
        binary,
    })
}

/// Parses `fault-campaign` arguments.
///
/// # Errors
///
/// A message naming the offending flag or value (including unknown fault
/// kinds in `--kinds`).
pub fn parse_campaign_args(args: &[String]) -> Result<CampaignArgs, String> {
    let mut cfg = CampaignConfig::default();
    let mut json_out = None;
    let mut text_out = None;
    let mut it = args.iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--seed-base" => cfg.seed_base = uint(f, value(f, &mut it)?)?,
            "--count" => cfg.count = uint(f, value(f, &mut it)?)?,
            "--threads" => {
                cfg.threads = uint(f, value(f, &mut it)?)?;
                if cfg.threads == 0 {
                    return Err("flag `--threads`: must be at least 1".into());
                }
            }
            "--faults" => cfg.faults_per_run = uint(f, value(f, &mut it)?)?,
            "--cadence" => cfg.cadence = uint(f, value(f, &mut it)?)?,
            "--max-cycles" => cfg.max_cycles = uint(f, value(f, &mut it)?)?,
            "--kinds" => {
                let v = value(f, &mut it)?;
                let mut classes = Vec::new();
                for part in v.split(',').map(str::trim).filter(|p| !p.is_empty()) {
                    classes.push(
                        part.parse::<FaultClass>()
                            .map_err(|e| format!("flag `--kinds`: {e}"))?,
                    );
                }
                if classes.is_empty() {
                    return Err(
                        "flag `--kinds`: expected a comma-separated list of fault kinds".into(),
                    );
                }
                cfg.classes = classes;
            }
            "--json" => json_out = Some(PathBuf::from(value(f, &mut it)?)),
            "--out" => text_out = Some(PathBuf::from(value(f, &mut it)?)),
            other => return Err(format!("unknown flag `{other}` for `fault-campaign`")),
        }
    }
    if cfg.count == 0 {
        return Err("flag `--count`: must be at least 1".into());
    }
    Ok(CampaignArgs {
        cfg,
        json_out,
        text_out,
    })
}

/// Parses `farm` arguments.
///
/// # Errors
///
/// A message naming the offending flag or value.
pub fn parse_farm_args(args: &[String]) -> Result<FarmArgs, String> {
    let mut cfg = FarmConfig::default();
    let mut engine = RunOptions::default();
    let mut json_out = None;
    let mut metrics = false;
    let mut it = args.iter();
    while let Some(f) = it.next() {
        if engine_flag(&mut engine, f, &mut it)? {
            continue;
        }
        match f.as_str() {
            "--devices" => {
                cfg.devices = uint(f, value(f, &mut it)?)?;
                if cfg.devices == 0 {
                    return Err("flag `--devices`: must be at least 1".into());
                }
            }
            "--threads" => {
                cfg.workers = uint(f, value(f, &mut it)?)?;
                if cfg.workers == 0 {
                    return Err("flag `--threads`: must be at least 1".into());
                }
            }
            "--quantum" => {
                cfg.quantum = uint(f, value(f, &mut it)?)?;
                if cfg.quantum == 0 {
                    return Err("flag `--quantum`: must be at least 1".into());
                }
            }
            "--rounds" => cfg.rounds = uint(f, value(f, &mut it)?)?,
            "--settle-rounds" => cfg.settle_rounds = uint(f, value(f, &mut it)?)?,
            "--seed" => cfg.seed = uint(f, value(f, &mut it)?)?,
            "--topics" => cfg.topics = uint(f, value(f, &mut it)?)?,
            "--host-rate" => cfg.host_rate = uint(f, value(f, &mut it)?)?,
            "--sram" => cfg.sram_size = uint(f, value(f, &mut it)?)?,
            "--json" => json_out = Some(PathBuf::from(value(f, &mut it)?)),
            "--metrics" => metrics = true,
            other => return Err(format!("unknown flag `{other}` for `farm`")),
        }
    }
    if cfg.rounds == 0 {
        return Err("flag `--rounds`: must be at least 1".into());
    }
    cfg.core = CoreModel::of(engine.core);
    cfg.dispatch = (engine.block_cache, engine.block_cache && engine.block_chain);
    cfg.cow = engine.cow;
    Ok(FarmArgs {
        cfg,
        json_out,
        metrics,
    })
}

/// Parses `diff-fuzz` arguments.
///
/// # Errors
///
/// A message naming the offending flag or value.
pub fn parse_diff_args(args: &[String]) -> Result<DiffArgs, String> {
    let mut cfg = DiffConfig::default();
    let mut json_out = None;
    let mut repro_dir = PathBuf::from("results");
    let mut it = args.iter();
    while let Some(f) = it.next() {
        match f.as_str() {
            "--seed-base" => cfg.seed_base = uint(f, value(f, &mut it)?)?,
            "--count" => cfg.count = uint(f, value(f, &mut it)?)?,
            "--threads" => {
                cfg.threads = uint(f, value(f, &mut it)?)?;
                if cfg.threads == 0 {
                    return Err("flag `--threads`: must be at least 1".into());
                }
            }
            "--budget-cycles" => cfg.budget_cycles = uint(f, value(f, &mut it)?)?,
            "--binary-safe" => cfg.profile = Profile::binary_safe(),
            "--json" => json_out = Some(PathBuf::from(value(f, &mut it)?)),
            "--repro-dir" => repro_dir = PathBuf::from(value(f, &mut it)?),
            other => return Err(format!("unknown flag `{other}` for `diff-fuzz`")),
        }
    }
    if cfg.count == 0 {
        return Err("flag `--count`: must be at least 1".into());
    }
    Ok(DiffArgs {
        cfg,
        json_out,
        repro_dir,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_args_happy_path() {
        let a = parse_run_args(&v(&[
            "prog.s",
            "--core",
            "flute",
            "--watchdog",
            "5000",
            "--heap",
            "--max-cycles",
            "123",
        ]))
        .unwrap();
        assert_eq!(a.path, "prog.s");
        assert_eq!(a.opts.watchdog, Some(5000));
        assert_eq!(a.opts.max_cycles, 123);
        assert!(a.opts.heap);
        assert!(!a.binary);
    }

    #[test]
    fn machine_manifest_flag_takes_a_path() {
        let a = parse_run_args(&v(&["p.s", "--machine", "soc/iot.toml"])).unwrap();
        assert_eq!(a.opts.machine, Some(PathBuf::from("soc/iot.toml")));
        let a = parse_run_args(&v(&["p.s"])).unwrap();
        assert_eq!(a.opts.machine, None, "default platform without --machine");
        let e = parse_run_args(&v(&["p.s", "--machine"])).unwrap_err();
        assert!(
            e.contains("--machine") && e.contains("expects a value"),
            "{e}"
        );
    }

    #[test]
    fn block_cache_on_by_default_and_disableable() {
        let a = parse_run_args(&v(&["p.s"])).unwrap();
        assert!(a.opts.block_cache);
        let a = parse_run_args(&v(&["p.s", "--no-block-cache"])).unwrap();
        assert!(!a.opts.block_cache);
    }

    #[test]
    fn block_chain_on_by_default_and_composes_with_cache_flag() {
        let a = parse_run_args(&v(&["p.s"])).unwrap();
        assert!(a.opts.block_chain);
        let a = parse_run_args(&v(&["p.s", "--no-block-chain"])).unwrap();
        assert!(!a.opts.block_chain);
        assert!(a.opts.block_cache, "chain-off keeps the cache on");
        let a = parse_run_args(&v(&["p.s", "--no-block-cache", "--no-block-chain"])).unwrap();
        assert!(!a.opts.block_cache && !a.opts.block_chain);
    }

    #[test]
    fn run_errors_name_the_flag_and_value() {
        let e = parse_run_args(&v(&["p.s", "--max-cycles", "soon"])).unwrap_err();
        assert!(e.contains("--max-cycles") && e.contains("soon"), "{e}");
        let e = parse_run_args(&v(&["p.s", "--core", "arm"])).unwrap_err();
        assert!(e.contains("--core") && e.contains("arm"), "{e}");
        let e = parse_run_args(&v(&["p.s", "--watchdog"])).unwrap_err();
        assert!(
            e.contains("--watchdog") && e.contains("expects a value"),
            "{e}"
        );
        let e = parse_run_args(&v(&["p.s", "--frobnicate"])).unwrap_err();
        assert!(e.contains("--frobnicate"), "{e}");
        let e = parse_run_args(&[]).unwrap_err();
        assert!(e.contains("program path"), "{e}");
    }

    #[test]
    fn campaign_args_happy_path() {
        let a = parse_campaign_args(&v(&[
            "--seed-base",
            "7",
            "--count",
            "128",
            "--threads",
            "4",
            "--kinds",
            "tag,bounds,bitmap",
            "--json",
            "out.json",
        ]))
        .unwrap();
        assert_eq!(a.cfg.seed_base, 7);
        assert_eq!(a.cfg.count, 128);
        assert_eq!(a.cfg.threads, 4);
        assert_eq!(a.cfg.classes.len(), 3);
        assert_eq!(a.json_out, Some(PathBuf::from("out.json")));
    }

    #[test]
    fn cow_on_by_default_and_disableable_everywhere() {
        let a = parse_run_args(&v(&["p.s"])).unwrap();
        assert!(a.opts.cow, "run: CoW page store is the default");
        let a = parse_run_args(&v(&["p.s", "--no-cow"])).unwrap();
        assert!(!a.opts.cow);
        let a = parse_farm_args(&v(&["--devices", "4"])).unwrap();
        assert!(a.cfg.cow, "farm: CoW is the default");
        let a = parse_farm_args(&v(&["--devices", "4", "--no-cow"])).unwrap();
        assert!(!a.cfg.cow);
    }

    #[test]
    fn diff_args_happy_path() {
        let a = parse_diff_args(&v(&[
            "--seed-base",
            "9",
            "--count",
            "512",
            "--threads",
            "8",
            "--json",
            "diff.json",
        ]))
        .unwrap();
        assert_eq!(a.cfg.seed_base, 9);
        assert_eq!(a.cfg.count, 512);
        assert_eq!(a.cfg.threads, 8);
        assert_eq!(a.cfg.profile, Profile::full(), "full profile by default");
        assert_eq!(a.json_out, Some(PathBuf::from("diff.json")));
        assert_eq!(a.repro_dir, PathBuf::from("results"));
    }

    #[test]
    fn diff_args_profile_and_repro_dir() {
        let a = parse_diff_args(&v(&[
            "--binary-safe",
            "--repro-dir",
            "out/repros",
            "--budget-cycles",
            "90000",
        ]))
        .unwrap();
        assert_eq!(a.cfg.profile, Profile::binary_safe());
        assert_eq!(a.repro_dir, PathBuf::from("out/repros"));
        assert_eq!(a.cfg.budget_cycles, 90_000);
    }

    #[test]
    fn diff_errors_name_the_flag_and_value() {
        let e = parse_diff_args(&v(&["--count", "many"])).unwrap_err();
        assert!(e.contains("--count") && e.contains("many"), "{e}");
        let e = parse_diff_args(&v(&["--count", "0"])).unwrap_err();
        assert!(e.contains("--count"), "{e}");
        let e = parse_diff_args(&v(&["--threads", "0"])).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        let e = parse_diff_args(&v(&["--frobnicate"])).unwrap_err();
        assert!(e.contains("--frobnicate") && e.contains("diff-fuzz"), "{e}");
    }

    #[test]
    fn farm_args_happy_path() {
        let a = parse_farm_args(&v(&[
            "--devices",
            "1000",
            "--threads",
            "8",
            "--rounds",
            "200",
            "--quantum",
            "15000",
            "--seed",
            "42",
            "--topics",
            "16",
            "--json",
            "farm.json",
            "--metrics",
        ]))
        .unwrap();
        assert_eq!(a.cfg.devices, 1000);
        assert_eq!(a.cfg.workers, 8);
        assert_eq!(a.cfg.rounds, 200);
        assert_eq!(a.cfg.quantum, 15_000);
        assert_eq!(a.cfg.seed, 42);
        assert_eq!(a.cfg.topics, 16);
        assert_eq!(a.json_out, Some(PathBuf::from("farm.json")));
        assert!(a.metrics);
        assert_eq!(a.cfg.dispatch, (true, true), "chained dispatch by default");
    }

    #[test]
    fn farm_dispatch_flags_compose() {
        let a = parse_farm_args(&v(&["--no-block-chain"])).unwrap();
        assert_eq!(a.cfg.dispatch, (true, false));
        let a = parse_farm_args(&v(&["--no-block-cache"])).unwrap();
        assert_eq!(a.cfg.dispatch, (false, false));
    }

    #[test]
    fn farm_errors_name_the_flag_and_value() {
        let e = parse_farm_args(&v(&["--devices", "0"])).unwrap_err();
        assert!(e.contains("--devices"), "{e}");
        let e = parse_farm_args(&v(&["--threads", "0"])).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        let e = parse_farm_args(&v(&["--rounds", "0"])).unwrap_err();
        assert!(e.contains("--rounds"), "{e}");
        let e = parse_farm_args(&v(&["--core", "arm"])).unwrap_err();
        assert!(e.contains("--core") && e.contains("arm"), "{e}");
        let e = parse_farm_args(&v(&["--quantum"])).unwrap_err();
        assert!(
            e.contains("--quantum") && e.contains("expects a value"),
            "{e}"
        );
        let e = parse_farm_args(&v(&["--frobnicate"])).unwrap_err();
        assert!(e.contains("--frobnicate") && e.contains("farm"), "{e}");
    }

    #[test]
    fn campaign_errors_name_the_flag_and_value() {
        let e = parse_campaign_args(&v(&["--kinds", "tag,wibble"])).unwrap_err();
        assert!(e.contains("--kinds") && e.contains("wibble"), "{e}");
        let e = parse_campaign_args(&v(&["--count", "0"])).unwrap_err();
        assert!(e.contains("--count"), "{e}");
        let e = parse_campaign_args(&v(&["--threads", "0"])).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        let e = parse_campaign_args(&v(&["--seed-base", "x"])).unwrap_err();
        assert!(e.contains("--seed-base") && e.contains("`x`"), "{e}");
        // The per-seed-reboot engine and its no-CoW variant are gone.
        for flag in ["--no-snapshot", "--no-cow"] {
            let e = parse_campaign_args(&v(&["--count", "2", flag])).unwrap_err();
            assert!(e.contains(flag) && e.contains("fault-campaign"), "{e}");
        }
    }
}
