//! The `gather-check` command-line model checker.
//!
//! ```text
//! gather-check --spec FILE.json [--cex-dir DIR]      check one instance
//! gather-check --matrix FILE.json [--cex-dir DIR]    check a pinned matrix
//! gather-check --replay FILE.json                    replay a counterexample
//! gather-check --diagram FILE.json --out FILE.dot    emit a state diagram
//! ```
//!
//! Exit codes: `0` — everything verified (or replay reproduced its
//! violation); `1` — a violation or a truncated (unproven) run; `2` — usage
//! or I/O error. With `--cex-dir`, every violation's minimal counterexample
//! is written there as JSON for artifact upload and later `--replay`.

#![forbid(unsafe_code)]

use gather_check::{
    run_check, state_diagram, with_robots, CheckMatrix, CheckReport, CheckSpec, Counterexample,
    GatherMachine, RobotJob, Verdict,
};
use gather_core::BuiltinRobot;
use gather_graph::{NodeId, PortGraph};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(cmd) => match execute(cmd) {
            Ok(clean) => {
                if clean {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::from(1)
                }
            }
            Err(msg) => {
                eprintln!("gather-check: {msg}");
                ExitCode::from(2)
            }
        },
        Err(msg) => {
            eprintln!("gather-check: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  gather-check --spec FILE.json [--cex-dir DIR]
  gather-check --matrix FILE.json [--cex-dir DIR]
  gather-check --replay FILE.json
  gather-check --diagram FILE.json --out FILE.dot";

enum Cmd {
    Spec {
        path: PathBuf,
        cex_dir: Option<PathBuf>,
    },
    Matrix {
        path: PathBuf,
        cex_dir: Option<PathBuf>,
    },
    Replay {
        path: PathBuf,
    },
    Diagram {
        path: PathBuf,
        out: PathBuf,
    },
}

fn parse(args: &[String]) -> Result<Cmd, String> {
    let mut mode: Option<(&str, PathBuf)> = None;
    let mut cex_dir = None;
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--spec" | "--matrix" | "--replay" | "--diagram" => {
                let path = it
                    .next()
                    .ok_or_else(|| format!("{arg} needs a file argument"))?;
                if let Some((prev, _)) = &mode {
                    return Err(format!("{arg} conflicts with --{prev}"));
                }
                mode = Some((&arg[2..], PathBuf::from(path)));
            }
            "--cex-dir" => {
                cex_dir = Some(PathBuf::from(
                    it.next().ok_or("--cex-dir needs a directory argument")?,
                ));
            }
            "--out" => {
                out = Some(PathBuf::from(
                    it.next().ok_or("--out needs a file argument")?,
                ));
            }
            "--help" | "-h" => return Err("help requested".to_string()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match mode {
        Some(("spec", path)) => Ok(Cmd::Spec { path, cex_dir }),
        Some(("matrix", path)) => Ok(Cmd::Matrix { path, cex_dir }),
        Some(("replay", path)) => Ok(Cmd::Replay { path }),
        Some(("diagram", path)) => Ok(Cmd::Diagram {
            path,
            out: out.ok_or("--diagram needs --out FILE.dot")?,
        }),
        _ => Err("one of --spec/--matrix/--replay/--diagram is required".to_string()),
    }
}

/// Runs the command; `Ok(true)` means a fully clean outcome.
fn execute(cmd: Cmd) -> Result<bool, String> {
    match cmd {
        Cmd::Spec { path, cex_dir } => {
            let spec: CheckSpec = read_json(&path)?;
            let report = run_check(&spec).map_err(|e| e.to_string())?;
            Ok(handle_report(&report, 0, cex_dir.as_deref())?)
        }
        Cmd::Matrix { path, cex_dir } => {
            let matrix: CheckMatrix = read_json(&path)?;
            if matrix.checks.is_empty() {
                return Err("matrix contains no checks".to_string());
            }
            let mut clean = true;
            for (i, spec) in matrix.checks.iter().enumerate() {
                let report = run_check(spec).map_err(|e| format!("check #{i}: {e}"))?;
                clean &= handle_report(&report, i, cex_dir.as_deref())?;
            }
            if clean {
                println!(
                    "matrix: all {} checks matched their pinned verdicts",
                    matrix.checks.len()
                );
            }
            Ok(clean)
        }
        Cmd::Replay { path } => {
            let cex: Counterexample = read_json(&path)?;
            match cex.verify() {
                Ok(()) => {
                    println!(
                        "replay: reproduced `{}` in {} rounds",
                        cex.violation,
                        cex.activations.len()
                    );
                    Ok(true)
                }
                Err(e) => {
                    eprintln!("replay: {e}");
                    Ok(false)
                }
            }
        }
        Cmd::Diagram { path, out } => {
            let spec: CheckSpec = read_json(&path)?;
            let dot = diagram_for(&spec)?;
            std::fs::write(&out, dot).map_err(|e| format!("writing {}: {e}", out.display()))?;
            println!("diagram: wrote {}", out.display());
            Ok(true)
        }
    }
}

fn handle_report(
    report: &CheckReport,
    index: usize,
    cex_dir: Option<&Path>,
) -> Result<bool, String> {
    let spec = &report.spec;
    let head = format!(
        "[{index}] {} on {:?}(n={}) k={} seed={} {:?}",
        spec.algorithm.name,
        spec.graph.family,
        spec.graph.n,
        spec.placement.k,
        spec.seed,
        spec.scheduler,
    );
    // A spec may pin a non-Verified verdict (crash-fault entries whose
    // detection provably breaks); any drift from the pinned verdict is a
    // failure, including "unexpectedly verified".
    let expected = spec.expect.unwrap_or(Verdict::Verified);
    let matched = report.verdict == expected;
    match report.verdict {
        Verdict::Verified => {
            let note = if matched {
                "verified"
            } else {
                "VERIFIED (expected violated!)"
            };
            println!(
                "{head}: {note} ({} states, {} transitions, depth {}, bound {})",
                report.states, report.transitions, report.depth, report.round_bound
            );
        }
        Verdict::Truncated => {
            eprintln!(
                "{head}: TRUNCATED at {} states — nothing proven; raise max_states",
                report.states
            );
        }
        Verdict::Violated => {
            let cex = report
                .counterexample
                .as_ref()
                .expect("violated reports carry a counterexample");
            let note = if matched {
                "violated (as pinned)"
            } else {
                "VIOLATED"
            };
            let line = format!(
                "{head}: {note} — {} (trace length {})",
                cex.violation,
                cex.activations.len()
            );
            if matched {
                // An expected violation is only clean if its counterexample
                // actually replays to the recorded violation.
                println!("{line}");
                if let Err(e) = cex.verify() {
                    eprintln!("{head}: pinned counterexample does not replay: {e}");
                    return Ok(false);
                }
            } else {
                eprintln!("{line}");
            }
            if let Some(dir) = cex_dir {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                let file = dir.join(format!(
                    "counterexample_{index}_{}.json",
                    spec.algorithm.name
                ));
                std::fs::write(&file, cex.to_json_pretty())
                    .map_err(|e| format!("writing {}: {e}", file.display()))?;
                if !matched {
                    eprintln!("{head}: counterexample written to {}", file.display());
                }
            }
        }
    }
    Ok(matched)
}

/// Builds the projected state diagram for a spec.
fn diagram_for(spec: &CheckSpec) -> Result<String, String> {
    let scenario = spec.scenario();
    let graph = spec
        .graph
        .build(scenario.graph_seed())
        .map_err(|e| e.to_string())?;
    let placement = spec
        .placement
        .build(&graph, scenario.placement_seed())
        .map_err(|e| e.to_string())?;
    if !spec.faults.is_empty() {
        return Err("state diagrams of faulty specs are not supported; drop `faults`".to_string());
    }
    let name = format!(
        "{}_{:?}{}",
        spec.algorithm.name.replace('-', "_"),
        spec.graph.family,
        graph.n()
    );
    let job = Draw {
        graph: &graph,
        spec,
        name,
    };
    with_robots(
        &spec.algorithm.name,
        &graph,
        &placement,
        &spec.algorithm.config,
        job,
    )
    .map_err(|e| e.to_string())
}

/// Explores one concrete robot type and renders its state diagram as DOT.
struct Draw<'a> {
    graph: &'a PortGraph,
    spec: &'a CheckSpec,
    name: String,
}

impl RobotJob for Draw<'_> {
    type Output = String;

    fn run<R: BuiltinRobot>(self, robots: Vec<(R, NodeId)>) -> String {
        let machine = GatherMachine::new(self.graph, robots, self.spec.scheduler);
        let d = state_diagram(
            &machine,
            self.spec.limits(),
            gather_check::project_sim_state,
            |s| s.all_terminated(),
        );
        d.to_dot(&self.name)
    }
}

fn read_json<T: serde::Deserialize>(path: &Path) -> Result<T, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))
}
