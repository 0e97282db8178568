//! `compare A.json B.json`: is B a regression of A?
//!
//! Per workload and end-to-end metric it prints both values, the change and
//! the bound, and a verdict: `regressed` when B is worse than A by more
//! than the bound, `unresolved` when either run's own noise (median
//! repetition versus floor) is wider than the bound so the comparison
//! cannot tell, `ok` otherwise. Exact counts and model digests must be
//! identical; the first that differs is reported. `--model-only` leaves the
//! host-time metrics out and fails on a model difference instead, for
//! comparing two runs of one commit.

use std::process::ExitCode;

use crate::metrics::{Better, EndToEndDef, END_TO_END, SETUP_SLACK_MICRO};
use crate::report::{decimal, Document, EndToEnd, WorkloadResult};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regressed,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "regressed",
        }
    }
}

/// How much worse `b` is than `a`, in ppm of `a` (0 when not worse).
fn worsening_ppm(def: &EndToEndDef, a: u64, b: u64) -> u64 {
    let worse = match def.better {
        Better::Higher => a.saturating_sub(b),
        Better::Lower => b.saturating_sub(a),
    };
    if worse == 0 {
        0
    } else if a == 0 {
        u64::MAX
    } else {
        u64::try_from(u128::from(worse) * 1_000_000 / u128::from(a)).unwrap_or(u64::MAX)
    }
}

/// The verdict on one metric of one workload.
pub fn verdict(def: &EndToEndDef, a: &EndToEnd, b: &EndToEnd) -> Verdict {
    let worse_ppm = worsening_ppm(def, a.floor, b.floor);
    let within_slack =
        def.name == "setup_s" && b.floor.saturating_sub(a.floor) <= SETUP_SLACK_MICRO;
    if worse_ppm > def.bound_ppm && !within_slack {
        Verdict::Regressed
    } else if def.bound_ppm > 0 && a.spread_ppm().max(b.spread_ppm()) > def.bound_ppm {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The first exact figure on which the two runs of a workload differ.
fn first_model_difference(a: &WorkloadResult, b: &WorkloadResult) -> Option<String> {
    if a.events != b.events {
        return Some(format!("events: {} vs {}", a.events, b.events));
    }
    for (x, y) in a.counts.iter().zip(&b.counts) {
        if x != y {
            return Some(format!(
                "{}: {} vs {} ({})",
                x.name,
                decimal(x.micro),
                decimal(y.micro),
                y.name
            ));
        }
    }
    if a.counts.len() != b.counts.len() {
        return Some(format!(
            "{} exact counts vs {}",
            a.counts.len(),
            b.counts.len()
        ));
    }
    (a.model_digest != b.model_digest).then(|| {
        format!(
            "model_digest: {:#018x} vs {:#018x}",
            a.model_digest, b.model_digest
        )
    })
}

/// Prints the comparison; returns how many metrics regressed and how many
/// workloads differ in their exact figures. With `model_only` the host-time
/// metrics are left out (smoke-size runs are too short to judge speed by).
pub fn compare(a: &Document, b: &Document, model_only: bool) -> (usize, usize) {
    let mut regressed = 0;
    let mut model_changes = 0;
    for wa in &a.workloads {
        let Some(wb) = b.workloads.iter().find(|w| w.name == wa.name) else {
            println!("== {}: missing from B", wa.name);
            regressed += 1;
            continue;
        };
        println!("== {}", wa.name);
        if !model_only {
            println!(
                "   {:<26} {:>20} {:>20} {:>9} {:>7}  verdict",
                "metric", "A", "B", "change", "bound"
            );
        }
        for def in END_TO_END.iter().filter(|_| !model_only) {
            let (ea, eb) = (wa.metric(def.name), wb.metric(def.name));
            let v = verdict(def, ea, eb);
            regressed += usize::from(v == Verdict::Regressed);
            let change = (eb.floor as f64 - ea.floor as f64) / (ea.floor.max(1) as f64) * 100.0;
            println!(
                "   {:<26} {:>20} {:>20} {:>+8.2}% {:>6.1}%  {}",
                def.name,
                decimal(ea.floor),
                decimal(eb.floor),
                change,
                def.bound_ppm as f64 / 1e4,
                v.as_str()
            );
        }
        match first_model_difference(wa, wb) {
            Some(diff) => {
                model_changes += 1;
                println!("   model: DIFFERS, first at {diff}");
            }
            None => println!(
                "   model: {} exact counts and model_digest identical",
                wa.counts.len()
            ),
        }
    }
    (regressed, model_changes)
}

pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let (model_only, files) = match argv {
        [flag, files @ ..] if flag == "--model-only" => (true, files),
        files => (false, files),
    };
    let [a, b] = files else {
        return Err("usage: compare [--model-only] A.json B.json".into());
    };
    let (a, b) = (Document::read(a)?, Document::read(b)?);
    if (a.seed, a.smoke) != (b.seed, b.smoke) {
        println!(
            "note: A ran seed {:#x} smoke={}, B ran seed {:#x} smoke={}",
            a.seed, a.smoke, b.seed, b.smoke
        );
    }
    let (regressed, model_changes) = compare(&a, &b, model_only);
    println!();
    println!("{regressed} regressed, {model_changes} workloads with a changed model");
    let failed = regressed > 0 || (model_only && model_changes > 0);
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const EVENTS_PER_S: &str = "events_per_s";
    const BATCH_P50: &str = "batch_p50_ns_per_event";
    const SETUP_S: &str = "setup_s";
    const FAILED_PPM: &str = "failed_ppm";

    fn verdict(name: &str, a: &EndToEnd, b: &EndToEnd) -> Verdict {
        let def = END_TO_END
            .iter()
            .find(|d| d.name == name)
            .expect("declared metric");
        super::verdict(def, a, b)
    }

    fn e(floor: u64, median: u64) -> EndToEnd {
        EndToEnd {
            name: String::new(),
            floor,
            median,
        }
    }

    #[test]
    fn a_fifteen_percent_slowdown_is_flagged_and_five_is_not() {
        let a = e(1_000_000, 1_020_000);
        assert_eq!(
            verdict(EVENTS_PER_S, &a, &e(870_000, 880_000)),
            Verdict::Regressed
        );
        assert_eq!(verdict(EVENTS_PER_S, &a, &e(950_000, 960_000)), Verdict::Ok);
        assert_eq!(
            verdict(EVENTS_PER_S, &a, &e(1_500_000, 1_500_000)),
            Verdict::Ok
        );
        // Lower-is-better metrics worsen upwards.
        assert_eq!(
            verdict(BATCH_P50, &a, &e(1_150_000, 1_150_000)),
            Verdict::Regressed
        );
        assert_eq!(verdict(BATCH_P50, &a, &e(500_000, 500_000)), Verdict::Ok);
    }

    #[test]
    fn noise_wider_than_the_bound_is_unresolved() {
        let noisy = e(1_000_000, 1_200_000);
        assert_eq!(
            verdict(EVENTS_PER_S, &noisy, &e(990_000, 1_000_000)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(EVENTS_PER_S, &noisy, &e(800_000, 800_000)),
            Verdict::Regressed
        );
    }

    #[test]
    fn setup_has_absolute_slack_and_failures_have_none() {
        // 20 ms -> 60 ms is +200 % but within 50 ms.
        assert_eq!(
            verdict(SETUP_S, &e(20_000, 20_000), &e(60_000, 60_000)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(SETUP_S, &e(1_000_000, 1_000_000), &e(1_300_000, 1_300_000)),
            Verdict::Regressed
        );
        assert_eq!(verdict(FAILED_PPM, &e(0, 0), &e(1, 1)), Verdict::Regressed);
        assert_eq!(verdict(FAILED_PPM, &e(0, 0), &e(0, 0)), Verdict::Ok);
    }
}
