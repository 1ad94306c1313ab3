//! The repository benchmark: one named workload from a seed.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the run record and a table of every metric with its unit and
//! sample count, then, as the last line, one JSON object: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics of a traced run of the
//! same workload and seed (`--trace 1`). Every run checks its outputs
//! against a golden twin. See README.md for the workloads and metrics.

mod campaign;
mod faults;
mod kernels;
mod report;
mod serving;
mod stats;
mod trace;
mod twin;
mod workloads;

use report::{json_num, json_str, Metric, Outcome};

/// End-to-end metrics of the serving workloads printed on the last line
/// of an untraced run (the `end_to_end` list of BENCHMARK.json).
const END_TO_END: &[&str] = &[
    "decode_tok_per_s",
    "ttft_p50_ms",
    "itl_p99_ms",
    "slo_attainment_pct",
    "setup_s",
    "peak_rss_mib",
];

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
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "chat_open" => workloads::run(&workloads::CHAT_OPEN, args.seed, args.seconds, args.trace),
        "long_context" => workloads::run(
            &workloads::LONG_CONTEXT,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "shared_spec_faults" => workloads::run(
            &workloads::SHARED_SPEC_FAULTS,
            args.seed,
            args.seconds,
            args.trace,
        ),
        "table1_campaign" => campaign::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    print_record(&args, &outcome);
    print_table("end-to-end", &outcome.e2e);
    if args.trace {
        print_table("per-layer (traced run)", &outcome.layer);
    }
    let shown = if args.trace {
        &outcome.layer
    } else {
        &outcome.e2e
    };
    let gated = !args.trace && args.workload != "table1_campaign";
    let mut fields = Vec::new();
    for m in shown {
        if gated && !END_TO_END.contains(&m.name) {
            continue;
        }
        let Some(v) = m.value else {
            eprintln!(
                "perfbench: {} has too few samples ({}) for its percentile",
                m.name,
                m.samples.unwrap_or(0)
            );
            std::process::exit(3);
        };
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(m.name),
            json_num(v),
            json_str(m.unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
}

fn print_record(args: &Args, o: &Outcome) {
    let mut entries = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        ("host_threads", rayon::current_num_threads().to_string()),
        ("commit", json_str(&report::commit())),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("attempted", o.attempted.to_string()),
        ("failed", o.failed.to_string()),
        ("correct", o.correct.to_string()),
    ];
    for (k, v) in &o.notes {
        entries.push((k, json_str(v)));
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"record\": {{{}}}}}", body.join(", "));
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}:");
    for m in metrics {
        let value = m.value.map_or("n/a".to_string(), |v| {
            if v == 0.0 || v.abs() >= 0.01 {
                format!("{v:.4}")
            } else {
                format!("{v:.4e}")
            }
        });
        let samples = m.samples.map_or(String::new(), |n| format!("  (n={n})"));
        println!("  {:<30} {:>14} {:<6}{samples}", m.name, value, m.unit);
    }
}
