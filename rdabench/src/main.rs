//! A seeded, single-client benchmark of the ranked-access serving stack.
//!
//! ```text
//! cargo run --release --manifest-path rdabench/Cargo.toml -- \
//!     --workload read_pages --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client thread drives an `rda_serve::Server` with one worker over
//! an `rda_core::Engine` cold-opened from a snapshot store, checks every
//! answer against the benchmark's own oracle, and prints the fixed
//! counts and then, as its last line, one JSON object: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run with
//! replays (`--trace 1`). See `README.md` beside this crate.

mod clock;
mod data;
mod oracle;
mod request;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    // Sharding would change which build path every prepare takes; the
    // benchmark measures the default path only.
    if std::env::var_os("RDA_FORCE_SHARDS").is_some() {
        eprintln!("refusing to run: RDA_FORCE_SHARDS is set");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "{e}\nusage: rdabench --workload <{}> --seed <n> [--seconds <s>] [--trace 0|1]",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::by_name(&args.workload) else {
        eprintln!(
            "unknown workload {:?}; one of {:?}",
            args.workload,
            workload::NAMES
        );
        return ExitCode::from(2);
    };
    let opt = run::Options {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: 1.0,
        setups: 3,
        scratch: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scratch"),
    };
    let out = run::run(&w, &opt);
    let counts: Vec<String> = out.counts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!(
        "counts over the first {} rounds: {}",
        w.count_rounds,
        counts.join(" ")
    );
    println!(
        "{}",
        stats::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(name: &str, seed: u64) -> run::Outcome {
        let mut w = workload::by_name(name).unwrap();
        w.count_rounds = 4;
        w.page_ops = w.page_ops.min(40);
        let opt = run::Options {
            seed,
            seconds: 0.01,
            trace: true,
            scale: 0.02,
            setups: 1,
            scratch: PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("scratch/test"),
        };
        run::run(&w, &opt)
    }

    /// Every workload runs clean at a tiny scale, and two runs with one
    /// seed produce identical counts.
    #[test]
    fn workloads_are_correct_and_counts_repeat() {
        for name in workload::NAMES {
            let a = tiny(name, 11);
            assert!(a.correct, "{name}");
            assert_eq!(a.failed, 0, "{name}");
            let b = tiny(name, 11);
            assert_eq!(a.counts, b.counts, "{name}");
        }
    }
}
