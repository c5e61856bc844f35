//! Command-line entry point; see the crate docs and `README.md`.

use std::io::Write as _;
use std::process::ExitCode;

use perfbench::run::{run, Args};
use perfbench::{Ctx, Workload};

const USAGE: &str = "usage: perfbench --workload <node_cycle|fleet|paper_sweep> --seed <n> \
                     --seconds <s> --trace <0|1>";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, false);
    let (mut child, mut tiny, mut tamper, mut spawned_at, mut pass) =
        (false, false, false, None, 0);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_default();
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s >= 0.0),
            "--trace" => trace = value() == "1",
            "--child" => child = true,
            "--tiny" => tiny = true,
            "--tamper" => tamper = true,
            "--spawned-at-ns" => spawned_at = value().parse::<u128>().ok(),
            "--pass" => pass = value().parse::<u64>().unwrap_or(0),
            _ => {
                eprintln!("unknown argument {flag:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    if child {
        let mut ctx = Ctx::new(workload, seed, tiny, trace);
        ctx.tamper = tamper;
        ctx.pass = pass;
        if let Some(t) = spawned_at {
            ctx.spawned_at_ns = t;
        }
        let mut rep = workload.run_pass(&ctx);
        rep.set("rss_mb", perfbench::machine::peak_rss_mb());
        let mut stdout = std::io::stdout().lock();
        return match stdout
            .write_all(rep.render().as_bytes())
            .and_then(|()| stdout.flush())
        {
            Ok(()) => ExitCode::SUCCESS,
            Err(_) => ExitCode::FAILURE,
        };
    }

    let Some(seconds) = seconds else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let outcome = run(&Args {
        workload,
        seed,
        seconds,
        trace,
        tiny,
        tamper,
    });
    print!("{}", outcome.stdout);
    let _ = std::io::stdout().flush();
    ExitCode::from(outcome.code as u8)
}
