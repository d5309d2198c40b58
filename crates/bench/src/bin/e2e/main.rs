//! `e2e` — the repo benchmark. See README.md beside this package's
//! manifest for what it measures and why; `BENCHMARK.json` at the repo
//! root is the contract the numbers are checked against.
//!
//! ```text
//! e2e [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!     [--scale X] [--out FILE]
//! e2e check-repeat A.json B.json [--benchmark BENCHMARK.json]
//! e2e pass ...                         one pass in this process (internal)
//! ```

mod alloc;
mod compare;
mod engine;
mod inputs;
mod json;
mod pass;
mod probe;
mod run;
mod spec;
mod stitch;
#[cfg(test)]
mod tests;
mod trace;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

use std::process::ExitCode;

/// `--name value` pairs after the subcommand, plus bare arguments.
pub struct Args {
    options: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            options: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    args.options.push((name.to_string(), value.clone()));
                }
                None => args.positional.push(arg.clone()),
            }
        }
        Ok(args)
    }

    pub fn get(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name}: cannot read `{text}`")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        match self
            .options
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((name, _)) => Err(format!("unknown option --{name}")),
            None => Ok(()),
        }
    }
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    let (command, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("pass" | "check-repeat")) => (c, &raw[1..]),
        _ => ("run", raw),
    };
    let args = Args::parse(rest)?;
    match command {
        "pass" => {
            args.reject_unknown(&[
                "workload", "seed", "seconds", "scale", "traced", "tracer", "facade", "out-dir",
            ])?;
            run::child_pass(&args)
        }
        "check-repeat" => {
            args.reject_unknown(&["benchmark"])?;
            let [a, b] = args.positional.as_slice() else {
                return Err("check-repeat takes two result files".into());
            };
            compare::check_repeat(a, b, args.get("benchmark"))
        }
        _ => {
            args.reject_unknown(&["workload", "seed", "seconds", "trace", "scale", "out"])?;
            if !args.positional.is_empty() {
                return Err(format!("unexpected argument `{}`", args.positional[0]));
            }
            run::run(&args)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}
