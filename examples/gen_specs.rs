//! Writes a generator spec to a file — the bridge between the
//! programmatic benchmark families and the `sisyn` CLI, used by the CI
//! smoke steps to materialize specs on demand: STG families as `.g`
//! (e.g. a `clatch` whose 2^(n+1) state space is far too large to verify
//! within a tiny `--timeout`) and CFSM protocol families as `.proto`
//! for `sisyn deadlock`.
//!
//! Run with:
//! `cargo run --release --example gen_specs -- clatch 20 /tmp/clatch20.g`
//! `cargo run --release --example gen_specs -- dining 3 /tmp/dining3.proto`

use sisyn::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let (family, n, out) = match (args.next(), args.next(), args.next()) {
        (Some(f), Some(n), Some(o)) => (f, n.parse::<usize>()?, o),
        _ => {
            eprintln!(
                "usage: gen_specs <clatch|muller|sequencer|selector|burst|philosophers|\
                 vme_chain|vme_burst|ring|pipeline|fork_join|dining> N OUT"
            );
            std::process::exit(2);
        }
    };
    // CFSM protocol families emit canonical `.proto` text.
    let proto = match family.as_str() {
        "ring" => Some(sisyn::proto::ring(n)),
        "pipeline" => Some(sisyn::proto::pipeline(n)),
        "fork_join" => Some(sisyn::proto::fork_join(n)),
        "dining" => Some(sisyn::proto::dining(n)),
        _ => None,
    };
    if let Some(sys) = proto {
        std::fs::write(&out, write_proto(&sys))?;
        eprintln!(
            "wrote {} ({} modules, {} channels) to {out}",
            sys.name(),
            sys.modules().len(),
            sys.channels().len()
        );
        return Ok(());
    }
    let stg = match family.as_str() {
        "clatch" => sisyn::stg::generators::clatch(n),
        "muller" => sisyn::stg::generators::muller_pipeline(n),
        "sequencer" => sisyn::stg::generators::sequencer(n),
        "selector" => sisyn::stg::generators::selector(n),
        "burst" => sisyn::stg::generators::burst(n),
        "philosophers" => sisyn::stg::generators::philosophers(n),
        "vme_chain" => sisyn::stg::generators::vme_chain(n),
        "vme_burst" => sisyn::stg::generators::vme_burst(n),
        other => {
            eprintln!(
                "unknown family {other:?} (expected clatch, muller, sequencer, \
                 selector, burst, philosophers, vme_chain, vme_burst, \
                 ring, pipeline, fork_join or dining)"
            );
            std::process::exit(2);
        }
    };
    std::fs::write(&out, write_g(&stg))?;
    eprintln!(
        "wrote {} ({} signals) to {out}",
        stg.name(),
        stg.signal_count()
    );
    Ok(())
}
