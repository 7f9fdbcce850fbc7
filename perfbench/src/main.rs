//! `suv-perfbench`: the repository benchmark.
//!
//! ```text
//! suv-perfbench --workload stamp-fig|oltp-json|stamp-checked|all
//!               [--seed N] [--seconds S] [--trace 0|1] [--steady N]
//! ```
//!
//! `--trace 0` runs the workload's cell list serially on one host thread,
//! pass after pass, until `--seconds` have gone by, checks every cell,
//! and prints the end-to-end metrics. `--trace 1` runs the separate
//! traced pass ([`layers`]) and prints the per-layer metrics. Either way
//! the last line of standard output is the result object. `--steady N`
//! runs the same command N times as child processes with seeds `N`,
//! `N+1`, ... and prints each metric's median, quartiles and range.
//! See `perfbench/README.md` for the workloads and metrics.

mod calib;
mod cells;
mod layers;
mod replay;
mod report;
mod spans;

use cells::{run_cell, run_oracles, Cell, Kind, Payload, DEFAULT_SEED};
use report::{median, quartiles, Outcome};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use suv::prelude::*;
use suv_bench::geomean;

const USAGE: &str = "usage: suv-perfbench --workload stamp-fig|oltp-json|stamp-checked|all \
                     [--seed N] [--seconds S] [--trace 0|1] [--steady N]";

/// Passes every end-to-end run makes at least, whatever `--seconds` says.
const MIN_PASSES: usize = 2;

/// The paper's all-app geomean speedups: SUV-TM over LogTM-SE and over
/// FasTM (Fig. 6), and DynTM+SUV over DynTM (Fig. 9).
const PAPER_FIG6_SUV_VS_LOGTM: f64 = 1.56;
const PAPER_FIG6_SUV_VS_FASTM: f64 = 1.09;
const PAPER_FIG9_DYNTM_SUV_VS_DYNTM: f64 = 1.098;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
        steady: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let num = |s: &String| s.parse::<u64>().map_err(|e| format!("{flag} {s}: {e}"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = num(value()?)?,
            "--seconds" => a.seconds = num(value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--steady" => {
                let n = num(value()?)?;
                if n < 2 {
                    return Err("--steady needs at least 2 runs".into());
                }
                a.steady = Some(n as usize);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.workload != "all" && Kind::parse(&a.workload).is_none() {
        return Err(format!("unknown workload `{}`", a.workload));
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("suv-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.steady {
        return steady(&args, n);
    }
    if args.workload == "all" {
        return all(&args);
    }
    let kind = Kind::parse(&args.workload).expect("validated");
    let out = if args.trace {
        let spans = PathBuf::from(format!("perfbench/out/spans-{}.json", kind.name()));
        layers::traced_pass(kind, args.seed, &spans)
    } else {
        end_to_end(kind, args.seed, Duration::from_secs(args.seconds))
    };
    print!("{}", out.print(kind.name()));
    ExitCode::SUCCESS
}

/// Host times of one cell across passes, in seconds at the reference
/// speed ([`calib`]), and the unscaled timed region.
#[derive(Default)]
struct Samples {
    first: Option<Payload>,
    wall: Vec<f64>,
    setup: Vec<f64>,
    timed: Vec<f64>,
    raw_timed: Vec<f64>,
}

/// Run a cell as its workload runs it, oracles included; returns the
/// payload and the (wall, setup, timed) host times.
fn measure(cell: &Cell) -> Result<(Payload, [Duration; 3]), String> {
    let run = run_cell(cell, cell.as_configured(), None)?;
    let mut wall = run.wall();
    if cell.check == CheckLevel::Full {
        wall += run_oracles(&run.result)?.time();
    }
    Ok((run.payload(), [wall, run.setup_time(), run.timed()]))
}

/// The end-to-end runs: whole passes over the cell list while another
/// pass still fits in `budget` (at least [`MIN_PASSES`]), with a
/// calibration kernel sample after every cell. Once the passes are done,
/// every cell's host times are scaled to the reference speed by the
/// kernel samples taken around it ([`calib::Kernel::factor`]). Each
/// metric is built from per-cell medians across passes, so one disturbed
/// pass moves it little.
fn end_to_end(kind: Kind, seed: u64, budget: Duration) -> Outcome {
    let cells = kind.cells(seed);
    let mut samples: Vec<Samples> = cells.iter().map(|_| Samples::default()).collect();
    let mut out = Outcome::default();
    let rss_before = report::rss_mb("VmRSS");
    let mut kernel = calib::Kernel::new();
    let kernel_mb = report::rss_mb("VmRSS").and_then(|after| Ok(after - rss_before?));
    // (cell index, host interval, wall, setup, timed) of every checked run.
    let mut runs = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    let mut last_pass = Duration::ZERO;
    kernel.sample();
    while passes < MIN_PASSES || start.elapsed() + last_pass <= budget {
        let pass_start = Instant::now();
        for (i, (cell, s)) in cells.iter().zip(&mut samples).enumerate() {
            out.attempted += 1;
            let from = Instant::now();
            let measured = measure(cell);
            let to = Instant::now();
            kernel.sample();
            let checked = measured.and_then(|(p, times)| match s.first {
                Some(first) if first != p => {
                    Err(format!("rep diverged from the first: {p:?} vs {first:?}"))
                }
                _ => Ok((p, times)),
            });
            match checked {
                Ok((p, times)) => {
                    s.first = Some(p);
                    runs.push((i, (from, to), times));
                }
                Err(e) => {
                    out.failed += 1;
                    eprintln!("FAILED {}: {e}", cell.label());
                }
            }
        }
        passes += 1;
        last_pass = pass_start.elapsed();
    }
    for (i, (from, to), [wall, setup, timed]) in runs {
        let f = kernel.factor(from, to);
        let s = &mut samples[i];
        s.wall.push(wall.as_secs_f64() * f);
        s.setup.push(setup.as_secs_f64() * f);
        s.timed.push(timed.as_secs_f64() * f);
        s.raw_timed.push(timed.as_secs_f64());
    }
    let sum = |f: fn(&Samples) -> &Vec<f64>| -> f64 {
        samples.iter().filter(|s| s.first.is_some()).map(|s| median(f(s))).sum()
    };
    let cycles: u64 = samples.iter().filter_map(|s| s.first).map(|p| p.cycles).sum();
    // The kernel's pages stay resident from its set-up on, so the
    // simulator's own peak is the high-water mark less the kernel.
    let peak = report::rss_mb("VmHWM").and_then(|hwm| Ok(hwm - kernel_mb?)).unwrap_or_else(|e| {
        eprintln!("{e}");
        out.failed += 1;
        f64::NAN
    });
    println!(
        "{}: {passes} passes over {} cells in {:.1} s",
        kind.name(),
        cells.len(),
        start.elapsed().as_secs_f64()
    );
    let digest = report::digest(
        samples.iter().flat_map(|s| s.first.map_or([0; 3], |p| [p.cycles, p.commits, p.aborts])),
    );
    println!("payload digest: {digest:016x}");
    println!(
        "unscaled: {:.4} Mcyc/s; calibration kernel median {:.3} ms (reference {:.3} ms)",
        cycles as f64 / 1e6 / sum(|s| &s.raw_timed),
        kernel.median().as_secs_f64() * 1e3,
        calib::REFERENCE.as_secs_f64() * 1e3
    );
    out.push("wall_s", sum(|s| &s.wall), "s");
    out.push("mcyc_per_s", cycles as f64 / 1e6 / sum(|s| &s.timed), "Mcyc/s");
    out.push("setup_s", sum(|s| &s.setup), "s");
    out.push("peak_rss_mb", peak, "MB");

    // The fidelity errors are a property of the model, computed from the
    // Fig. 6 / Fig. 9 matrix: stamp-fig has it already; the others run
    // it once, after their own measurements.
    let fig_cells;
    let fig: Vec<(&Cell, Option<Payload>)> = if kind == Kind::StampFig {
        cells.iter().zip(samples.iter().map(|s| s.first)).collect()
    } else {
        fig_cells = Kind::StampFig.cells(seed);
        fig_cells
            .iter()
            .map(|c| {
                out.attempted += 1;
                let p = run_cell(c, c.as_configured(), None).map(|r| r.payload());
                if let Err(e) = &p {
                    out.failed += 1;
                    eprintln!("FAILED {}: {e}", c.label());
                }
                (c, p.ok())
            })
            .collect()
    };
    for (name, v) in paper_errors(&fig) {
        out.push(name, v, "ratio");
    }
    out
}

/// |live all-app geomean speedup / paper - 1| for the three headline
/// ratios; NaN when a cell is missing.
fn paper_errors(fig: &[(&Cell, Option<Payload>)]) -> [(&'static str, f64); 3] {
    let cycles = |app: &str, scheme: SchemeKind| {
        fig.iter()
            .find(|(c, _)| c.app == app && c.scheme == scheme)
            .and_then(|(_, p)| *p)
            .map_or(f64::NAN, |p| p.cycles as f64)
    };
    let speedup = |base: SchemeKind, new: SchemeKind| {
        let xs: Vec<f64> =
            suv::stamp::WORKLOAD_NAMES.iter().map(|a| cycles(a, base) / cycles(a, new)).collect();
        geomean(&xs)
    };
    let err = |live: f64, paper: f64| (live / paper - 1.0).abs();
    let suv_logtm = speedup(SchemeKind::LogTmSe, SchemeKind::SuvTm);
    let suv_fastm = speedup(SchemeKind::FasTm, SchemeKind::SuvTm);
    let dyn_suv = speedup(SchemeKind::DynTm, SchemeKind::DynTmSuv);
    println!(
        "fidelity: SUV-TM/LogTM-SE {suv_logtm:.4}x (paper {PAPER_FIG6_SUV_VS_LOGTM}), \
         SUV-TM/FasTM {suv_fastm:.4}x (paper {PAPER_FIG6_SUV_VS_FASTM}), \
         DynTM+SUV/DynTM {dyn_suv:.4}x (paper {PAPER_FIG9_DYNTM_SUV_VS_DYNTM})"
    );
    [
        ("paper_err.fig6_suv_vs_logtm", err(suv_logtm, PAPER_FIG6_SUV_VS_LOGTM)),
        ("paper_err.fig6_suv_vs_fastm", err(suv_fastm, PAPER_FIG6_SUV_VS_FASTM)),
        ("paper_err.fig9_dyntm_suv_vs_dyntm", err(dyn_suv, PAPER_FIG9_DYNTM_SUV_VS_DYNTM)),
    ]
}

/// Run this benchmark as a child process and return its stdout.
fn child(workload: &str, seed: u64, a: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &a.seconds.to_string(), "--trace", if a.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run child: {e}"))?;
    if !out.status.success() {
        return Err(format!("child exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// Read a run's printed metric lines (`workload name value unit`) and
/// its failed-cell count back from its stdout.
fn read_run(workload: &str, stdout: &str) -> (Vec<(String, f64, String)>, Option<u64>) {
    let mut metrics = Vec::new();
    let mut failed = None;
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words[..] {
            [w, name, value, unit] if w == workload => {
                if let Ok(v) = value.parse() {
                    metrics.push((name.to_string(), v, unit.to_string()));
                }
            }
            ["cells:", _, "attempted,", n, "failed"] => failed = n.parse().ok(),
            _ => {}
        }
    }
    (metrics, failed)
}

/// `--workload all`: each workload in its own child process, so peak RSS
/// stays per workload.
fn all(a: &Args) -> ExitCode {
    let mut ok = true;
    for k in Kind::ALL {
        match child(k.name(), a.seed, a) {
            Ok(stdout) => {
                print!("{stdout}");
                ok &= read_run(k.name(), &stdout).1 == Some(0);
            }
            Err(e) => {
                eprintln!("{}: {e}", k.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--steady N`: the steadiness check. Runs the command N times with
/// seeds `seed..seed+N`, one child at a time, and prints per metric the
/// median, quartiles, range and quartile spread as a share of the median.
fn steady(a: &Args, n: usize) -> ExitCode {
    let workloads: Vec<&str> = if a.workload == "all" {
        Kind::ALL.iter().map(|k| k.name()).collect()
    } else {
        vec![a.workload.as_str()]
    };
    let mut ok = true;
    for w in workloads {
        let mut names: Vec<(String, String)> = Vec::new();
        let mut values: Vec<Vec<f64>> = Vec::new();
        let mut failed = 0;
        for seed in a.seed..a.seed + n as u64 {
            let (metrics, f) = match child(w, seed, a) {
                Ok(stdout) => read_run(w, &stdout),
                Err(e) => {
                    eprintln!("{w} seed {seed}: {e}");
                    (Vec::new(), None)
                }
            };
            ok &= f == Some(0);
            failed += f.unwrap_or_default();
            for (name, v, unit) in metrics {
                let i = names.iter().position(|(x, _)| *x == name).unwrap_or_else(|| {
                    names.push((name, unit));
                    values.push(Vec::new());
                    names.len() - 1
                });
                values[i].push(v);
            }
        }
        println!("{w}: {n} runs, {failed} failed cells");
        println!(
            "  {:<36} {:>14} {:>14} {:>14} {:>14} {:>14} {:>8}",
            "metric", "median", "q1", "q3", "min", "max", "spread"
        );
        for ((name, unit), xs) in names.iter().zip(&values) {
            let (q1, q3) = quartiles(xs);
            let med = median(xs);
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let spread = if med == 0.0 { 0.0 } else { (q3 - q1) / med };
            println!(
                "  {name:<36} {med:>14.6} {q1:>14.6} {q3:>14.6} {min:>14.6} {max:>14.6} \
                 {spread:>8.4} {unit}"
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn printed_metric_lines_read_back_exactly() {
        let mut o = Outcome { attempted: 3, failed: 1, metrics: Vec::new() };
        o.push("wall_s", 2.4326329405000005, "s");
        o.push("paper_err.fig6_suv_vs_logtm", 0.1776559122533492, "ratio");
        let stdout = o.print("oltp-json");
        let (metrics, failed) = read_run("oltp-json", &stdout);
        assert_eq!(failed, Some(1));
        assert_eq!(
            metrics,
            vec![
                ("wall_s".to_string(), 2.4326329405000005, "s".to_string()),
                (
                    "paper_err.fig6_suv_vs_logtm".to_string(),
                    0.1776559122533492,
                    "ratio".to_string()
                ),
            ]
        );
    }
}
