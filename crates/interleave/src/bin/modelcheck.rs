//! CI entry point: explore every model replica, both variants.
//!
//! * Fixed variants must come back clean with the bounded schedule
//!   space exhausted.
//! * Pre-fix variants must still be caught — a checker that stops
//!   finding the old bugs is broken, not lucky.
//! * A seeded random soak runs on top; the seed comes from
//!   `INTERLEAVE_SEED` (CI passes a pinned seed and a randomized one)
//!   and is echoed so any failure replays exactly.

use interleave::models::{admission_ewma, breaker_probe, certcache_epoch, stats_snapshot, Variant};
use interleave::sched::{explore, Config, Sim};

type Scenario = Box<dyn Fn(&mut Sim)>;

fn scenarios(variant: Variant) -> Vec<(&'static str, Scenario)> {
    vec![
        ("admission-ewma", Box::new(admission_ewma(variant))),
        ("breaker-probe", Box::new(breaker_probe(variant))),
        ("stats-snapshot", Box::new(stats_snapshot(variant))),
        ("certcache-epoch", Box::new(certcache_epoch(variant))),
    ]
}

fn main() {
    let seed = std::env::var("INTERLEAVE_SEED")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0xC0FFEE);
    println!("interleave: seed {seed} (replay with INTERLEAVE_SEED={seed})");
    let mut failed = false;

    println!("— fixed variants: exhaustive exploration must be clean —");
    for (name, scenario) in scenarios(Variant::Fixed) {
        let report = explore(Config::exhaustive(), &scenario);
        let ok = report.violation.is_none() && report.complete;
        println!(
            "  {} {name:<18} {}",
            if ok { "PASS" } else { "FAIL" },
            report.summary()
        );
        failed |= !ok;
    }

    println!("— pre-fix variants: the seeded bugs must still be caught —");
    for (name, scenario) in scenarios(Variant::PreFix) {
        let report = explore(Config::exhaustive(), &scenario);
        let ok = report.violation.is_some();
        println!(
            "  {} {name:<18} {}",
            if ok { "PASS" } else { "FAIL" },
            report.summary()
        );
        failed |= !ok;
    }

    println!("— random soak on fixed variants (seed {seed}) —");
    for (name, scenario) in scenarios(Variant::Fixed) {
        let report = explore(Config::random(seed, 512), &scenario);
        let ok = report.violation.is_none();
        println!(
            "  {} {name:<18} {}",
            if ok { "PASS" } else { "FAIL" },
            report.summary()
        );
        failed |= !ok;
    }

    if failed {
        println!("interleave: FAILED");
        std::process::exit(1);
    }
    println!("interleave: all models verified");
}
