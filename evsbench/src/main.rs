//! The EVS benchmark: one command, three workloads.
//!
//! ```text
//! evsbench --workload <ring|clients|udp-kill> --seed <n> --seconds <s> --trace <0|1>
//! evsbench --workload <name> --conformance
//! ```
//!
//! Run it through `run.sh`, which builds this package and the
//! `udp_cluster` example first. The last line of standard output is the
//! result: `{"correct", "attempted", "failed", "metrics"}` with every
//! end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). `--conformance` instead makes one short run of the
//! workload and passes its trace through the full specification checker.
//! `BENCHMARK.json` and `METRICS.md` describe the workloads and metrics.
//! `BENCHMARK.json` names `ring` and `udp-kill`; `clients` runs on its own
//! too, but its wall-clock figures drift with the host too far to gate,
//! so `ring`'s traced run also runs one `clients` cycle and reports its
//! broker and simulator per-layer figures.

mod check;
mod clients;
mod gen;
mod obs;
mod report;
mod ring;
mod spans;
mod stats;
mod sys;
mod udpkill;

use std::path::PathBuf;

/// Where traced runs write their span files (relative to the working
/// directory, the repository checkout).
pub const OUT_DIR: &str = ".bench_out";

/// Command-line arguments.
#[derive(Debug, PartialEq, Eq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    conformance: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let number = |flag: &str, default: u64| -> Result<u64, String> {
        value(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{flag} wants a whole number, got {v:?}"))
        })
    };
    let workload = value("--workload").ok_or("missing --workload <name>")?;
    let trace = match number("--trace", 0)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace wants 0 or 1, got {t}")),
    };
    Ok(Args {
        workload: workload.to_string(),
        seed: number("--seed", 1)?,
        seconds: number("--seconds", 10)?.clamp(1, 600),
        trace,
        conformance: args.iter().any(|a| a == "--conformance"),
    })
}

/// Writes a traced run's spans to `.bench_out/spans-<workload>.tsv`.
pub fn write_span_file(workload: &str, tsv: &str) {
    let dir = PathBuf::from(OUT_DIR);
    let path = dir.join(format!("spans-{workload}.tsv"));
    let header = "log\tname\tstart_ns\tend_ns\tparent\tid\n";
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, format!("{header}{tsv}")));
    match written {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("evsbench: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "evsbench workload={} seed={} seconds={} trace={} nproc={} kernel_batched={}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        sys::nproc(),
        evs::net::kernel_batched(),
    );
    let outcome = match args.workload.as_str() {
        "ring" => {
            let plan = if args.conformance {
                ring::Plan::conformance()
            } else {
                ring::Plan::for_seconds(args.seconds)
            };
            let ring = ring::run(args.seed, plan, args.trace, args.conformance);
            if args.trace && !args.conformance {
                ring.and_then(|mut out| {
                    let broker = clients::run(args.seed, clients::Plan::layers(), true)?;
                    out.absorb(&broker, &["broker.", "sim."]);
                    Ok(out)
                })
            } else {
                ring
            }
        }
        "clients" => {
            let plan = if args.conformance {
                clients::Plan::conformance()
            } else {
                clients::Plan::for_seconds(args.seconds)
            };
            clients::run(args.seed, plan, args.trace)
        }
        "udp-kill" => {
            let plan = if args.conformance {
                udpkill::Plan::conformance()
            } else {
                udpkill::Plan::for_seconds(args.seconds)
            };
            udpkill::run(args.seed, plan, args.trace, args.conformance)
        }
        other => Err(format!(
            "unknown workload {other:?}; use ring, clients or udp-kill"
        )),
    };
    let line = outcome.and_then(|o| o.result_line(args.trace));
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("evsbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_arguments_parse() {
        let a = parse_args(&argv("--workload ring --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(
            a,
            Args {
                workload: "ring".into(),
                seed: 7,
                seconds: 12,
                trace: true,
                conformance: false,
            }
        );
        assert!(parse_args(&argv("--seed 7")).is_err());
        assert!(parse_args(&argv("--workload ring --trace 2")).is_err());
        assert!(parse_args(&argv("--workload ring --seed x")).is_err());
        assert!(
            parse_args(&argv("--workload udp-kill --conformance"))
                .unwrap()
                .conformance
        );
    }
}
