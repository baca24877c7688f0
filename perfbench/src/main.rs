//! `perfbench --workload NAME|all --seed N --seconds S --trace 0|1`
//!
//! Prints progress lines, then one JSON result line per workload:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

use perfbench::workload::Bench;
use perfbench::{host, measure, Opts};

const USAGE: &str = "usage: perfbench [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]";

fn parse() -> Result<(Vec<Bench>, Opts), String> {
    let mut benches = Bench::ALL.to_vec();
    let mut opts = Opts {
        bench: Bench::ALL[0],
        seed: 1,
        seconds: 30.0,
        traced: false,
        short: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                benches = if value == "all" {
                    Bench::ALL.to_vec()
                } else {
                    vec![Bench::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
                }
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                opts.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok((benches, opts))
}

fn main() {
    let (benches, opts) = parse().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    for (k, v) in host::identity() {
        println!("host {k}: {v}");
    }
    for bench in benches {
        let opts = Opts { bench, ..opts };
        println!(
            "== {} seed {} ({}, {} s)",
            bench.name(),
            opts.seed,
            if opts.traced { "traced" } else { "plain" },
            opts.seconds
        );
        let report = measure(opts);
        for (name, value, unit) in &report.metrics {
            println!("{name} = {value} {unit}");
        }
        println!("{}", report.to_json().render());
    }
}
