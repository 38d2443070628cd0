//! The §IX footnote, reproduced: "all synthesis results have been formally
//! verified to be speed independent". Runs every benchmark through every
//! architecture, then through the three independent verifiers — over one
//! [`Engine`] session per benchmark, so the reachability graph behind the
//! nine verifier calls is built once per STG, not once per (arch, verifier).

use si_core::{Architecture, Engine, MinimizeStages, SynthesisOptions};
use si_verify::EngineVerify;

fn main() {
    let header = format!(
        "{:<16} {:<10} | {:>6} | {:>10} {:>11} {:>9}",
        "benchmark", "arch", "area", "functional", "conformance", "sim-walk"
    );
    println!("{header}");
    si_bench::rule(&header);
    let mut failures = 0usize;
    for stg in si_bench::small_set() {
        // The historical functional-verification cap (verify_circuit's
        // 4M); conformance products on the small set are far below it, so
        // one cap serves both oracles without narrowing either.
        let engine = Engine::new(&stg).cap(4_000_000);
        for (label, arch) in [
            ("complex", Architecture::ComplexGate),
            ("excitation", Architecture::ExcitationFunction),
            ("per-region", Architecture::PerRegion),
        ] {
            let syn = match engine.synthesize_with(&SynthesisOptions {
                architecture: arch,
                stages: MinimizeStages::full(),
                ..Default::default()
            }) {
                Ok(s) => s,
                Err(e) => {
                    println!("{:<16} {:<10} | synthesis failed: {e}", stg.name(), label);
                    failures += 1;
                    continue;
                }
            };
            // A cap overflow is "never checked", not "checked and failed"
            // — report it distinctly instead of conflating it with a
            // genuine verification failure.
            let functional = match engine.verify(&syn.circuit) {
                Ok(r) => r.is_ok(),
                Err(e) => {
                    println!(
                        "{:<16} {:<10} | verification inconclusive: {e}",
                        stg.name(),
                        label
                    );
                    failures += 1;
                    continue;
                }
            };
            let conform = engine.check_conformance(&syn.circuit).is_ok();
            let walks = engine.random_walks(&syn.circuit, 4, 2000, 2024);
            let sim = walks.is_ok_and(|w| w.is_clean());
            if !(functional && conform && sim) {
                failures += 1;
            }
            let mark = |ok: bool| if ok { "OK" } else { "FAIL" };
            println!(
                "{:<16} {:<10} | {:>6} | {:>10} {:>11} {:>9}",
                stg.name(),
                label,
                syn.literal_area,
                mark(functional),
                mark(conform),
                mark(sim)
            );
        }
    }
    println!("\n{} failure(s).", failures);
    std::process::exit(if failures == 0 { 0 } else { 1 });
}
