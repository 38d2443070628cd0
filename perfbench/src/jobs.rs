//! The seeded job lists of the three workloads.
//!
//! A workload is a *deck*: a fixed multiset of jobs, one per (operation,
//! family, size) over the workload's size ranges. The seed draws the
//! order of every pass, and for `serve_session` also which textual
//! permutation and which one-component edit each request carries. Every
//! seed therefore runs the same composition and the same total work, and
//! two seeds differ in order and text. The program under test only ever
//! sees the generated text.

use sisyn::prelude::*;
use sisyn::stg::generators as stg_gen;

/// SplitMix64: small and fully specified, so a seed names the same job
/// list on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The specification families the workloads draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Family {
    Clatch,
    Muller,
    Philosophers,
    Burst,
    Sequencer,
    Selector,
    VmeChain,
    VmeBurst,
    Ring,
    Dining,
    ForkJoin,
    Pipeline,
    /// Fixed member `n` of the §IX benchmark set
    /// (`sisyn::stg::benchmarks::synthesizable_suite`, first ten).
    Suite,
    /// `n` independent four-phase handshake components `a_i`/`x_i` in
    /// one specification, built like `examples/specs/pipeline_pair.g`;
    /// bit `i` of the variant reverses who leads component `i`.
    Pair,
}

/// One specification: a family member plus, for [`Family::Pair`], which
/// components are reversed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpecId {
    pub family: Family,
    pub n: usize,
    pub variant: u32,
}

impl SpecId {
    pub const fn new(family: Family, n: usize) -> Self {
        SpecId {
            family,
            n,
            variant: 0,
        }
    }

    /// Whether the spec is a CFSM protocol (`.proto`) rather than an STG.
    pub fn is_proto(self) -> bool {
        matches!(
            self.family,
            Family::Ring | Family::Dining | Family::ForkJoin | Family::Pipeline
        )
    }

    /// The STG of an STG spec.
    pub fn stg(self) -> Stg {
        let n = self.n;
        match self.family {
            Family::Clatch => stg_gen::clatch(n),
            Family::Muller => stg_gen::muller_pipeline(n),
            Family::Philosophers => stg_gen::philosophers(n),
            Family::Burst => stg_gen::burst(n),
            Family::Sequencer => stg_gen::sequencer(n),
            Family::Selector => stg_gen::selector(n),
            Family::VmeChain => stg_gen::vme_chain(n),
            Family::VmeBurst => stg_gen::vme_burst(n),
            Family::Suite => sisyn::stg::benchmarks::synthesizable_suite().swap_remove(n),
            Family::Pair => parse_g(&pair_text(n, self.variant)).expect("pair specs parse"),
            Family::Ring | Family::Dining | Family::ForkJoin | Family::Pipeline => {
                panic!("{self:?} is a protocol, not an STG")
            }
        }
    }

    /// The text the program under test receives.
    pub fn text(self) -> String {
        let n = self.n;
        match self.family {
            Family::Ring => write_proto(&sisyn::proto::ring(n)),
            Family::Dining => write_proto(&sisyn::proto::dining(n)),
            Family::ForkJoin => write_proto(&sisyn::proto::fork_join(n)),
            Family::Pipeline => write_proto(&sisyn::proto::pipeline(n)),
            Family::Pair => pair_text(n, self.variant),
            _ => write_g(&self.stg()),
        }
    }
}

/// `n` handshake components; component `i` is `a_i+ x_i+ a_i- x_i-`, or
/// `x_i+ a_i+ x_i- a_i-` when bit `i` of `reversed` is set.
fn pair_text(n: usize, reversed: u32) -> String {
    let names = |p: &str| {
        (0..n)
            .map(|i| format!("{p}{i}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut out = format!(
        ".model pairs_{n}\n.inputs {}\n.outputs {}\n.graph\n",
        names("a"),
        names("x")
    );
    let mut marking = Vec::new();
    for i in 0..n {
        let (lead, follow) = if reversed >> i & 1 == 1 {
            (format!("x{i}"), format!("a{i}"))
        } else {
            (format!("a{i}"), format!("x{i}"))
        };
        out.push_str(&format!(
            "{lead}+ {follow}+\n{follow}+ {lead}-\n{lead}- {follow}-\n{follow}- {lead}+\n"
        ));
        marking.push(format!("<{follow}-,{lead}+>"));
    }
    out.push_str(&format!(".marking {{ {} }}\n.end\n", marking.join(" ")));
    out
}

/// What a job asks the program to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Op {
    Check,
    CheckSymbolic,
    Synth,
    Verify,
    Resolve,
    Deadlock,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Check => "check",
            Op::CheckSymbolic => "check-symbolic",
            Op::Synth => "synth",
            Op::Verify => "verify",
            Op::Resolve => "resolve",
            Op::Deadlock => "deadlock",
        }
    }

    /// The `sisyn` arguments of the job; the spec comes on stdin.
    pub fn cli_args(self) -> &'static [&'static str] {
        match self {
            Op::Check => &["check", "-"],
            Op::CheckSymbolic => &["check", "--backend", "symbolic", "-"],
            Op::Synth => &["synth", "--json", "-"],
            Op::Verify => &["verify", "--json", "-"],
            Op::Resolve => &["resolve", "--json", "-"],
            Op::Deadlock => &["deadlock", "--json", "-"],
        }
    }

    /// The request line `sisyn serve` receives for `spec`.
    pub fn request(self, spec: &str) -> String {
        let op = match self {
            Op::CheckSymbolic => "check\", \"backend\": \"symbolic",
            Op::Deadlock => panic!("the server has no deadlock op"),
            other => other.name(),
        };
        format!(
            "{{\"op\": \"{op}\", \"spec\": {}}}",
            sisyn::serve::json::escape(spec)
        )
    }
}

/// How a job relates to the jobs before it in its pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    /// A CLI job, or the first arrival of a serve (op, spec) pair.
    Cold,
    /// A serve request repeating an earlier one byte for byte.
    Repeat,
    /// A serve request whose text permutes an earlier one's.
    Permuted,
    /// A serve request whose spec reverses one component of an earlier
    /// multi-component spec.
    Edit,
}

impl Class {
    /// Whether the server should answer from its response cache.
    pub fn is_hit(self) -> bool {
        matches!(self, Class::Repeat | Class::Permuted)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Job {
    pub op: Op,
    pub spec: SpecId,
    pub class: Class,
    /// The spec text sent: the family text, or a permutation of it.
    pub text: String,
}

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ExplicitVerify,
    StructuralFlow,
    ServeSession,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ExplicitVerify,
        Workload::StructuralFlow,
        Workload::ServeSession,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExplicitVerify => "explicit_verify",
            Workload::StructuralFlow => "structural_flow",
            Workload::ServeSession => "serve_session",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The rows of the deck: (op, family, first size, last size, step).
    /// The explicit and serve rows take every size of their range; the
    /// structural rows step through theirs, so one pass stays near ten
    /// seconds on a 2-vCPU machine. The serve rows leave out the
    /// sub-millisecond cold jobs (check and synth on the smallest specs),
    /// so requests that miss the cache form one latency population.
    pub fn composition(self) -> &'static [(Op, Family, usize, usize, usize)] {
        use Family::*;
        match self {
            Workload::ExplicitVerify => &[
                (Op::Verify, Clatch, 10, 14, 1),
                (Op::Verify, Muller, 9, 12, 1),
                (Op::Verify, Philosophers, 5, 7, 1),
                (Op::Verify, Burst, 5, 8, 1),
                (Op::Check, Clatch, 10, 14, 1),
                (Op::Check, Muller, 9, 12, 1),
                (Op::Check, Philosophers, 5, 7, 1),
                (Op::Check, Burst, 5, 8, 1),
                (Op::Deadlock, Ring, 10, 13, 1),
                (Op::Deadlock, Dining, 8, 12, 1),
                (Op::Deadlock, ForkJoin, 7, 9, 1),
                (Op::Deadlock, Pipeline, 5, 8, 1),
            ],
            Workload::StructuralFlow => &[
                (Op::Synth, Clatch, 20, 40, 5),
                (Op::Synth, Muller, 12, 18, 2),
                (Op::Synth, Sequencer, 10, 30, 5),
                (Op::Synth, Selector, 8, 20, 4),
                (Op::Synth, Burst, 8, 12, 2),
                (Op::Synth, Philosophers, 7, 10, 1),
                (Op::Resolve, VmeChain, 2, 16, 2),
                (Op::Resolve, VmeBurst, 1, 4, 1),
                (Op::CheckSymbolic, Clatch, 14, 24, 2),
                (Op::CheckSymbolic, Burst, 8, 12, 2),
                (Op::CheckSymbolic, VmeBurst, 2, 6, 1),
            ],
            Workload::ServeSession => &[
                (Op::Verify, Suite, 0, 9, 1),
                (Op::Verify, Clatch, 3, 3, 1),
                (Op::Verify, Burst, 3, 3, 1),
                (Op::Verify, Sequencer, 3, 3, 1),
                (Op::Verify, Selector, 3, 3, 1),
                (Op::Verify, Muller, 3, 3, 1),
                (Op::Check, Clatch, 10, 10, 1),
                (Op::Check, Muller, 9, 9, 1),
                (Op::Check, Philosophers, 5, 5, 1),
                (Op::Check, Burst, 5, 5, 1),
                (Op::Synth, Clatch, 10, 10, 1),
                (Op::Synth, Muller, 9, 9, 1),
                (Op::Synth, Philosophers, 5, 5, 1),
                (Op::Synth, Burst, 5, 5, 1),
                (Op::Verify, Clatch, 10, 10, 1),
                (Op::Verify, Muller, 9, 9, 1),
                (Op::Verify, Philosophers, 5, 5, 1),
                (Op::Verify, Burst, 5, 5, 1),
                (Op::Resolve, VmeChain, 1, 4, 1),
                (Op::Verify, Pair, 2, 4, 1),
            ],
        }
    }

    /// The deck's (op, spec) pairs, in composition order.
    pub fn deck(self) -> Vec<(Op, SpecId)> {
        self.composition()
            .iter()
            .flat_map(|&(op, family, lo, hi, step)| {
                (lo..=hi)
                    .step_by(step)
                    .map(move |n| (op, SpecId::new(family, n)))
            })
            .collect()
    }

    /// One pass of the workload: the deck in a seeded order (and, for
    /// `serve_session`, with its repeats, permutations and edits).
    pub fn pass(self, rng: &mut Rng) -> Vec<Job> {
        match self {
            Workload::ServeSession => serve_pass(rng),
            _ => {
                let mut jobs: Vec<Job> = self
                    .deck()
                    .into_iter()
                    .map(|(op, spec)| Job {
                        op,
                        spec,
                        class: Class::Cold,
                        text: spec.text(),
                    })
                    .collect();
                rng.shuffle(&mut jobs);
                jobs
            }
        }
    }

    /// The first `passes` passes drawn from `seed`.
    #[cfg(test)]
    pub fn jobs(self, seed: u64, passes: usize) -> Vec<Vec<Job>> {
        let mut rng = Rng::new(seed);
        (0..passes).map(|_| self.pass(&mut rng)).collect()
    }
}

/// How often each (op, spec) pair of the serve deck returns after its
/// cold arrival, and how many one-component edits follow each job over a
/// multi-component spec. No measured client traffic exists to draw these
/// from, so they follow the request sequences the repository's own serve
/// checks send: the CI serve smoke sends a spec cold, once more verbatim
/// and once edited; `permuted_spec_hits_the_same_response` in
/// `crates/serve/src/service.rs` sends one permutation. The shares they
/// give weight `jobs_per_s` and `peak_rss_mb` of `serve_session`; each
/// percentile covers a single class and does not depend on them.
const SERVE_REPEATS: usize = 1;
const SERVE_PERMUTATIONS: usize = 1;
const SERVE_EDITS: usize = 1;

/// One serve session: every (op, spec) pair arrives cold first, then
/// returns as exact repeats and textual permutations, and jobs over
/// multi-component specs are followed by one-component edits. Followers
/// are scheduled uniformly after their cold arrival.
fn serve_pass(rng: &mut Rng) -> Vec<Job> {
    let mut events: Vec<(f64, Job)> = Vec::new();
    for (op, spec) in Workload::ServeSession.deck() {
        let text = spec.text();
        let at = rng.unit();
        let after = |rng: &mut Rng| at + (1.0 - at) * rng.unit();
        let job = |class, spec: SpecId, text: String| Job {
            op,
            spec,
            class,
            text,
        };
        events.push((at, job(Class::Cold, spec, text.clone())));
        for _ in 0..SERVE_REPEATS {
            events.push((after(rng), job(Class::Repeat, spec, text.clone())));
        }
        for _ in 0..SERVE_PERMUTATIONS {
            let permuted = permute_g(&text, rng);
            events.push((after(rng), job(Class::Permuted, spec, permuted)));
        }
        if spec.family == Family::Pair {
            let mut components: Vec<usize> = (0..spec.n).collect();
            rng.shuffle(&mut components);
            for &c in components.iter().take(SERVE_EDITS) {
                let edited = SpecId {
                    variant: spec.variant ^ 1 << c,
                    ..spec
                };
                events.push((after(rng), job(Class::Edit, edited, edited.text())));
            }
        }
    }
    // A stable sort: a follower drawn at its cold arrival's key stays
    // behind it.
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    events.into_iter().map(|(_, job)| job).collect()
}

/// A textual permutation of a `.g` spec that denotes the same STG:
/// signal declarations, graph lines and marking tokens reordered. It is
/// never the input text itself.
pub fn permute_g(text: &str, rng: &mut Rng) -> String {
    loop {
        let mut out = Vec::new();
        let mut graph: Vec<&str> = Vec::new();
        let mut in_graph = false;
        for line in text.lines() {
            let mut words: Vec<&str> = line.split_whitespace().collect();
            match words.first().copied() {
                Some(".graph") => {
                    in_graph = true;
                    out.push(line.to_string());
                }
                Some(".inputs" | ".outputs" | ".internal") => {
                    rng.shuffle(&mut words[1..]);
                    out.push(words.join(" "));
                }
                Some(".marking") => {
                    in_graph = false;
                    rng.shuffle(&mut graph);
                    out.extend(graph.drain(..).map(String::from));
                    let last = words.len() - 1;
                    rng.shuffle(&mut words[2..last]);
                    out.push(words.join(" "));
                }
                _ if in_graph => graph.push(line),
                _ => out.push(line.to_string()),
            }
        }
        let mut permuted = out.join("\n");
        permuted.push('\n');
        if permuted != text {
            return permuted;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Jobs per (op, family, size, class). Which component an edit
    /// reverses is part of the draw.
    fn composition(jobs: &[Vec<Job>]) -> BTreeMap<(Op, Family, usize, Class), usize> {
        let mut counts = BTreeMap::new();
        for job in jobs.iter().flatten() {
            let key = (job.op, job.spec.family, job.spec.n, job.class);
            *counts.entry(key).or_default() += 1;
        }
        counts
    }

    #[test]
    fn a_seed_names_one_job_list() {
        for w in Workload::ALL {
            assert_eq!(w.jobs(7, 2), w.jobs(7, 2), "{}", w.name());
        }
    }

    #[test]
    fn another_seed_draws_the_same_composition_in_another_order() {
        for w in Workload::ALL {
            let (a, b) = (w.jobs(7, 2), w.jobs(8, 2));
            assert_ne!(a, b, "{}", w.name());
            assert_eq!(composition(&a), composition(&b), "{}", w.name());
            for job in b.iter().flatten() {
                let row = w.composition().iter().find(|&&(op, family, lo, hi, _)| {
                    op == job.op && family == job.spec.family && (lo..=hi).contains(&job.spec.n)
                });
                assert!(row.is_some(), "{}: {job:?} is outside the ranges", w.name());
            }
        }
    }

    #[test]
    fn permutations_canonicalize_to_their_original() {
        let pass = Workload::ServeSession.pass(&mut Rng::new(3));
        let permuted: Vec<&Job> = pass.iter().filter(|j| j.class == Class::Permuted).collect();
        assert!(!permuted.is_empty());
        for job in permuted {
            let original = job.spec.text();
            assert_ne!(job.text, original);
            let canonical = |text: &str| sisyn::stg::canonical_g(&parse_g(text).unwrap());
            assert_eq!(canonical(&job.text), canonical(&original), "{job:?}");
        }
    }

    #[test]
    fn every_edit_reuses_a_cover_and_followers_follow() {
        use sisyn::serve::{ArtifactStore, Service};
        let pass = Workload::ServeSession.pass(&mut Rng::new(5));
        let service = Service::new(std::sync::Arc::new(ArtifactStore::in_memory(64 << 20)));
        let mut seen = std::collections::HashSet::new();
        for job in &pass {
            let response = service.execute(&job.op.request(&job.text));
            assert_eq!(response.cache_hit, job.class.is_hit(), "{job:?}");
            if job.class == Class::Edit {
                assert!(response.covers_reused >= 1, "{job:?}");
                let base = SpecId {
                    variant: 0,
                    ..job.spec
                };
                assert!(
                    seen.contains(&(job.op, base)),
                    "edit before its base: {job:?}"
                );
            }
            if job.class.is_hit() {
                assert!(
                    seen.contains(&(job.op, job.spec)),
                    "hit before cold: {job:?}"
                );
            }
            seen.insert((job.op, job.spec));
        }
    }

    /// The request shares of a serve pass are the ones `BENCHMARK.json`
    /// states for the workload.
    #[test]
    fn serve_shares_match_the_benchmark_file() {
        let pass = Workload::ServeSession.pass(&mut Rng::new(1));
        let count = |f: fn(Class) -> bool| pass.iter().filter(|j| f(j.class)).count();
        let cold = count(|c| c == Class::Cold);
        let edit = count(|c| c == Class::Edit);
        let hit = count(Class::is_hit);
        assert_eq!(cold + edit + hit, pass.len());
        let stated = format!("{cold} cold, {edit} edit and {hit} hit requests");
        let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(file).expect("BENCHMARK.json beside perfbench/");
        assert!(
            text.contains(&stated),
            "BENCHMARK.json should say {stated:?}"
        );
    }
}
