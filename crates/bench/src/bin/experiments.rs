//! CLI entry point: regenerate any table or figure of the paper.
//!
//! ```text
//! experiments <id> [--scale F] [--list]
//! experiments all  [--scale F]
//! ```
//!
//! `id` is one of `fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//! fig13 table1 table2 model-convergence ablation`. `--scale` multiplies
//! query counts (default 1.0; use 0.1 for a quick pass, 2.0+ for tighter
//! statistics).

use latest_bench::experiments::{run_by_name, Scale, ALL_EXPERIMENTS};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::default();
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                let v = args
                    .get(i)
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or_else(|| die("--scale needs a positive number"));
                if v <= 0.0 {
                    die("--scale needs a positive number");
                }
                scale = Scale(v);
            }
            "--list" => {
                for name in ALL_EXPERIMENTS {
                    println!("{name}");
                }
                return;
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => targets.push(other.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    if targets.iter().any(|t| t == "all") {
        targets = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for (n, target) in targets.iter().enumerate() {
        match run_by_name(target, scale) {
            Some(output) => {
                if n > 0 {
                    println!();
                }
                print!("{output}");
            }
            None => die(&format!(
                "unknown experiment '{target}'; use --list to see ids"
            )),
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: experiments <id>... [--scale F]\n       experiments all [--scale F]\n       experiments --list"
    );
}

// CLI usage-error path of a leaf binary: nothing above main holds state
// that a unwinding teardown would need, so a direct exit is correct here
// (the workspace-wide deny targets library code).
#[allow(clippy::exit)]
fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
