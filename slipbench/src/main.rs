//! `slipbench --workload <paper16|scale256|checked_corpus> [--seed N]
//! [--seconds S] [--trace 0|1]`
//!
//! Prints a human summary, then one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). The traced pass's spans go to `out/spans-<workload>.json`
//! in this package's directory.

use std::process::ExitCode;

use slipbench::runset::{Kind, Size};
use slipstream::gen::corpus::CORPUS_SEED;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = CORPUS_SEED;
    let mut seconds = 36.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = parse_seed(&value).ok_or_else(|| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("slipbench: {e}");
            eprintln!(
                "usage: slipbench --workload <paper16|scale256|checked_corpus> [--seed N] \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let report = slipbench::measure(args.kind, Size::FULL, args.seed, args.seconds, args.trace);

    println!(
        "workload {} seed {:#x} passes {} trace {}",
        report.kind.name(),
        report.seed,
        report.passes,
        u8::from(args.trace)
    );
    for m in &report.metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let t = &report.tally;
    println!(
        "runs {} runs_failed {} fail_frac {} ratio",
        t.attempted,
        t.failed,
        t.fail_frac()
    );
    println!("sim_digest {:#018x}", report.digest);
    for f in &t.failures {
        eprintln!("FAILED {f}");
    }
    if let Some(spans) = &report.spans {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}.json", report.kind.name()));
        if let Err(e) =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json()))
        {
            eprintln!("slipbench: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("spans {}", path.display());
    }
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
