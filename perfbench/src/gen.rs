//! Seeded workload generation. Everything the benchmark feeds the system —
//! kernel inputs, submission lines — is a pure function of the workload and
//! the seed.
//!
//! Sizes are log-uniform but stratified: the `count` sizes of one kind sit
//! at the midpoints of `count` equal slices of the log range, and the array
//! and matrix families rotate over those strata. The seed chooses the
//! values, matrices, ranks and job seeds, and the kernel call order; the
//! served streams' line order and repeats follow a fixed seed (see
//! [`served_mix`]). Two seeds thus differ in their inputs while the amount
//! and shape of the work per pass stays the same.

use runner::job::{FaultCfg, JobKind, JobSpec};
use spatial_core::rng::Rng;
use workloads::arrays::ArrayKind;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BareKernels,
    MeteredKernels,
    ServedMix,
    ServedJournaledTcp,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BareKernels,
        Workload::MeteredKernels,
        Workload::ServedMix,
        Workload::ServedJournaledTcp,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BareKernels => "bare-kernels",
            Workload::MeteredKernels => "metered-kernels",
            Workload::ServedMix => "served-mix",
            Workload::ServedJournaledTcp => "served-journaled-tcp",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    fn salt(self) -> u64 {
        match self {
            Workload::BareKernels => 0xB4E0,
            Workload::MeteredKernels => 0x3E7E,
            Workload::ServedMix => 0x5E3F,
            Workload::ServedJournaledTcp => 0x7C9A,
        }
    }
}

/// The array families the kernel and served inputs are drawn from.
pub const ARRAYS: [ArrayKind; 4] =
    [ArrayKind::Uniform, ArrayKind::Sorted, ArrayKind::DuplicateHeavy, ArrayKind::Zigzag];

/// A kernel primitive call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Prim {
    Scan,
    Select,
    TopK,
    Sort,
    Spmv,
}

impl Prim {
    pub fn label(self) -> &'static str {
        match self {
            Prim::Scan => "scan",
            Prim::Select => "select",
            Prim::TopK => "topk",
            Prim::Sort => "sort",
            Prim::Spmv => "spmv",
        }
    }

    /// The served job kind running the same primitive.
    pub fn of_kind(kind: JobKind) -> Option<Prim> {
        Some(match kind {
            JobKind::Scan => Prim::Scan,
            JobKind::Select => Prim::Select,
            JobKind::TopK => Prim::TopK,
            JobKind::Sort => Prim::Sort,
            JobKind::Spmv => Prim::Spmv,
            _ => return None,
        })
    }

    fn kind(self) -> JobKind {
        match self {
            Prim::Scan => JobKind::Scan,
            Prim::Select => JobKind::Select,
            Prim::TopK => JobKind::TopK,
            Prim::Sort => JobKind::Sort,
            Prim::Spmv => JobKind::Spmv,
        }
    }
}

/// Sparse matrix families for the spmv calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatrixKind {
    /// `workloads::matrices::random_uniform` — the matrix served spmv uses.
    RandomUniform,
    ZipfRows,
    Banded,
}

const MATRICES: [MatrixKind; 3] =
    [MatrixKind::RandomUniform, MatrixKind::ZipfRows, MatrixKind::Banded];

/// One kernel call: which primitive, on what input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelJob {
    pub id: u64,
    pub prim: Prim,
    pub n: usize,
    /// Rank for select, count for top-k (1-based).
    pub k: u64,
    pub array: ArrayKind,
    pub matrix: MatrixKind,
    pub seed: u64,
}

/// `count` log-uniform sizes over `[2^lo, 2^hi]`, one per stratum: at each
/// stratum's centre, or, given a `jitter` generator, at a point drawn
/// uniformly within it.
fn log_sizes(count: usize, lo: f64, hi: f64, mut jitter: Option<&mut Rng>) -> Vec<usize> {
    (0..count)
        .map(|i| {
            let at = jitter.as_deref_mut().map_or(0.5, Rng::gen_f64);
            2f64.powf(lo + (hi - lo) * (i as f64 + at) / count as f64).round() as usize
        })
        .collect()
}

/// How many calls of each primitive one pass makes, over which log2 range.
/// Scans are cheap and their cost does not depend on the data; their share
/// is kept low enough that the latency median falls among the denser band
/// of medium jobs instead of at the edge of the fast scans' cluster, where
/// a few jobs crossing it made the median jump between runs.
#[derive(Clone, Copy)]
struct Mix {
    prim: Prim,
    count: usize,
    lo: f64,
    hi: f64,
}

const BARE_MIX: [Mix; 5] = [
    Mix { prim: Prim::Scan, count: 16, lo: 10.0, hi: 16.0 },
    Mix { prim: Prim::Select, count: 12, lo: 10.0, hi: 16.0 },
    Mix { prim: Prim::TopK, count: 12, lo: 10.0, hi: 16.0 },
    Mix { prim: Prim::Sort, count: 8, lo: 10.0, hi: 14.0 },
    Mix { prim: Prim::Spmv, count: 8, lo: 8.0, hi: 11.0 },
];

/// Metered sizes are smaller: the materializing replay the meter forces is
/// 10–100x slower than the bare path. A metered spmv at 2^7 rows already
/// takes about 1.5 s, so spmv stays at 2^5–2^6 rows here.
///
/// Metered select and top-k latencies fall into two bands an order of
/// magnitude apart (about 6–25 ms and 60–150 ms); which band a call lands
/// in depends on its data and rank as well as its size, so the share in
/// each band changes from seed to seed. The counts put the latency median
/// in the middle of the upper band and the p90 inside the sorts, so
/// neither sits at the edge of a band.
const METERED_MIX: [Mix; 5] = [
    Mix { prim: Prim::Scan, count: 2, lo: 8.0, hi: 12.0 },
    Mix { prim: Prim::Select, count: 9, lo: 8.0, hi: 12.0 },
    Mix { prim: Prim::TopK, count: 9, lo: 8.0, hi: 12.0 },
    Mix { prim: Prim::Sort, count: 4, lo: 8.0, hi: 10.0 },
    Mix { prim: Prim::Spmv, count: 2, lo: 5.0, hi: 6.0 },
];

/// Caps every size at this in the tiny passes the tests run.
const TINY_N: usize = 64;

/// A job seed the in-tree JSON reader carries exactly (its numbers are
/// f64, so seeds stay below 2^53).
fn job_seed(rng: &mut Rng) -> u64 {
    rng.next_u64() >> 11
}

fn rank_for(prim: Prim, n: usize, rng: &mut Rng) -> u64 {
    match prim {
        Prim::Select => rng.gen_range(1..=n as u64),
        Prim::TopK => rng.gen_range(1..=(n as u64).min(64)),
        _ => 1,
    }
}

/// Fixes the size jitter of every pass, whatever the run's seed.
const JITTER_SEED: u64 = 0x51AE;

/// One pass of a kernel workload, in call order. With `jitter = Some(pass)`,
/// each size is drawn within its stratum instead of at its centre. A run
/// jitters its later passes: every pass then has the same sizes to within a
/// stratum, but the pooled latencies have no gaps between strata, so a
/// percentile does not jump from one stratum's job to the next's between
/// runs. The draws depend on the pass number only, so every run measures
/// the same sizes and two seeds differ only in values, ranks and job seeds.
pub fn kernel_jobs(w: Workload, seed: u64, tiny: bool, jitter: Option<u64>) -> Vec<KernelJob> {
    let mix: &[Mix] = match w {
        Workload::BareKernels => &BARE_MIX,
        Workload::MeteredKernels => &METERED_MIX,
        _ => panic!("{} is not a kernel workload", w.name()),
    };
    let mut rng = Rng::seed_from_u64(seed ^ w.salt());
    let mut jitter = jitter.map(|pass| Rng::stream(JITTER_SEED ^ w.salt(), pass));
    let mut jobs = Vec::new();
    for m in mix {
        for (i, n) in log_sizes(m.count, m.lo, m.hi, jitter.as_mut()).into_iter().enumerate() {
            // The paper's scan runs on power-of-four lengths (the padding-free
            // `scan_any` gathers block totals on one PE, which the metered
            // residency check would flag), so scan sizes snap to the nearest
            // power of four in log space.
            let n = if m.prim == Prim::Scan {
                1 << (2 * ((n as f64).log2() / 2.0).round() as u32)
            } else {
                n
            };
            let n = if tiny { n.min(TINY_N) } else { n };
            jobs.push(KernelJob {
                id: 0,
                prim: m.prim,
                n,
                k: rank_for(m.prim, n, &mut rng),
                array: ARRAYS[i % ARRAYS.len()],
                matrix: MATRICES[i % MATRICES.len()],
                seed: job_seed(&mut rng),
            });
        }
    }
    rng.shuffle(&mut jobs);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = i as u64;
    }
    jobs
}

/// Tenants of the served-mix stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tenant {
    /// No policy.
    Open,
    /// An energy budget sized to run out partway through the pass.
    Capped,
    /// A sliding-window rate limit.
    Bursty,
}

impl Tenant {
    pub fn name(self) -> &'static str {
        match self {
            Tenant::Open => "open",
            Tenant::Capped => "capped",
            Tenant::Bursty => "bursty",
        }
    }
}

/// The bursty tenant's limit: at most `BURST` admitted jobs in any
/// `WINDOW` consecutive stream sequence numbers.
pub const BURST: u64 = 2;
pub const WINDOW: u64 = 8;

/// One consuming input line of a served stream.
#[derive(Clone, Debug, PartialEq)]
pub enum Line {
    /// `{"op": "tenant", ...}` registration; the capped tenant's budget is
    /// filled in by the planner, which must run the tenant's jobs to size it.
    TenantOp(Tenant),
    /// `{"op": "stats"}`.
    Stats,
    /// A job submission. `repeat_of` names the earlier line it copies.
    Job { spec: JobSpec, tenant: Tenant, repeat_of: Option<usize> },
}

/// The generated stream of one served pass.
#[derive(Clone, Debug, PartialEq)]
pub struct Stream {
    pub lines: Vec<Line>,
}

fn spec(prim: Prim, n: usize, array: ArrayKind, rng: &mut Rng) -> JobSpec {
    let mut s = JobSpec::new(String::new(), prim.kind());
    s.n = n as u64;
    s.k = rank_for(prim, n, rng);
    s.seed = job_seed(rng);
    s.array = array;
    s
}

/// Submissions of each kind in one served-mix pass.
const SERVED_MIX: [Mix; 5] = [
    Mix { prim: Prim::Scan, count: 14, lo: 8.0, hi: 14.0 },
    Mix { prim: Prim::Select, count: 12, lo: 8.0, hi: 14.0 },
    Mix { prim: Prim::TopK, count: 12, lo: 8.0, hi: 14.0 },
    Mix { prim: Prim::Sort, count: 4, lo: 6.0, hi: 10.0 },
    Mix { prim: Prim::Spmv, count: 2, lo: 6.0, hi: 10.0 },
];
/// Flaky scans (about 5% of the submissions) of the open tenant, the
/// capped tenant's scans, the bursty tenant's selections (half select,
/// half top-k), and the number of exact repeats (about 15%). The capped and
/// bursty tenants get small jobs of their own, so which of them a seed
/// refuses moves little work.
const FLAKY: usize = 4;
const CAPPED: usize = 6;
const BURSTY: usize = 8;
const MIX_REPEATS: usize = 11;
/// Per-message corruption probability of a flaky scan (the fault plan's
/// resolution is 1/1000) and its retry allowance, which makes exhausting
/// recovery (a degraded outcome) vanishingly unlikely.
const FLAKY_P: f64 = 0.001;
const FLAKY_RETRIES: u32 = 40;
/// Fixes the served-mix job order (see [`served_mix`]).
const MIX_ORDER_SEED: u64 = 0x0DE5;

/// One served-mix pass: three tenant registrations, then the jobs.
pub fn served_mix(seed: u64, tiny: bool) -> Stream {
    let mut rng = Rng::seed_from_u64(seed ^ Workload::ServedMix.salt());
    let cap = |n: usize| if tiny { n.min(TINY_N) } else { n };
    let mut jobs: Vec<(JobSpec, Tenant)> = Vec::new();
    let mut add = |rng: &mut Rng, m: Mix, tenant: Tenant, flaky: bool| {
        for (i, n) in log_sizes(m.count, m.lo, m.hi, None).into_iter().enumerate() {
            let mut s = spec(m.prim, cap(n), ARRAYS[i % ARRAYS.len()], rng);
            if flaky {
                s.faults = FaultCfg { flaky: FLAKY_P, ..FaultCfg::default() };
                s.retries = FLAKY_RETRIES;
            }
            jobs.push((s, tenant));
        }
    };
    for m in SERVED_MIX {
        add(&mut rng, m, Tenant::Open, false);
    }
    add(&mut rng, Mix { prim: Prim::Scan, count: FLAKY, lo: 7.0, hi: 8.0 }, Tenant::Open, true);
    // The capped tenant runs scans only: their cost does not depend on an
    // attempt's re-salted randomness, so the planner can predict exactly
    // where the budget runs out.
    add(
        &mut rng,
        Mix { prim: Prim::Scan, count: CAPPED, lo: 8.0, hi: 12.0 },
        Tenant::Capped,
        false,
    );
    for prim in [Prim::Select, Prim::TopK] {
        add(&mut rng, Mix { prim, count: BURSTY / 2, lo: 8.0, hi: 10.0 }, Tenant::Bursty, false);
    }
    // The order of job classes is the same for every seed: with in-order
    // emission, a job that follows a slow one waits for it, so a seeded
    // order would make the latency percentiles depend on how many fast jobs
    // happen to trail slow ones. The seed picks the inputs. The bursty
    // tenant submits in two back-to-back bursts, so its rate limit sheds.
    let mut order = Rng::seed_from_u64(MIX_ORDER_SEED);
    let mut bursty = jobs.split_off(jobs.len() - BURSTY);
    order.shuffle(&mut jobs);
    order.shuffle(&mut bursty);
    for (k, at) in order.sample_indices(jobs.len() / 2, 2).into_iter().enumerate() {
        let at = at + k * jobs.len() / 2;
        let burst: Vec<_> = bursty.drain(..BURSTY / 2).collect();
        jobs.splice(at..at, burst);
    }

    let mut lines = vec![
        Line::TenantOp(Tenant::Open),
        Line::TenantOp(Tenant::Capped),
        Line::TenantOp(Tenant::Bursty),
    ];
    let mut repeat_at = order.sample_indices(jobs.len() - 4, MIX_REPEATS);
    repeat_at.iter_mut().for_each(|p| *p += 4);
    // Repeats re-ask the common small queries: scans and selections.
    let repeatable = |s: &JobSpec, t: Tenant| {
        t == Tenant::Open
            && !s.faults.any()
            && matches!(s.kind, JobKind::Scan | JobKind::Select | JobKind::TopK)
    };
    for (i, (s, tenant)) in jobs.into_iter().enumerate() {
        if repeat_at.contains(&i) {
            push_repeat(&mut lines, &mut order, usize::MAX, repeatable);
        }
        push_job(&mut lines, s, tenant);
    }
    Stream { lines }
}

fn push_job(lines: &mut Vec<Line>, mut spec: JobSpec, tenant: Tenant) {
    spec.id = format!("j{}", lines.len());
    lines.push(Line::Job { spec, tenant, repeat_of: None });
}

/// Appends an exact copy of an earlier original job line that is at least
/// two lines back — with two submissions outstanding, its result has then
/// been read, so it is in the cache — and at most `window` lines back.
fn push_repeat(
    lines: &mut Vec<Line>,
    rng: &mut Rng,
    window: usize,
    eligible: impl Fn(&JobSpec, Tenant) -> bool,
) -> bool {
    let end = lines.len().saturating_sub(1);
    let start = end.saturating_sub(window);
    let sources: Vec<usize> = (start..end)
        .filter(|&i| matches!(&lines[i], Line::Job { spec, tenant, repeat_of: None } if eligible(spec, *tenant)))
        .collect();
    if sources.is_empty() {
        return false;
    }
    let src = sources[rng.gen_range(0..sources.len())];
    let Line::Job { spec, tenant, .. } = &lines[src] else { unreachable!() };
    let line = Line::Job { spec: spec.clone(), tenant: *tenant, repeat_of: Some(src) };
    lines.push(line);
    true
}

/// Submissions of each kind in one journaled-TCP pass: small jobs only.
const TCP_MIX: [Mix; 4] = [
    Mix { prim: Prim::Scan, count: 72, lo: 6.0, hi: 12.0 },
    Mix { prim: Prim::Select, count: 36, lo: 4.0, hi: 8.0 },
    Mix { prim: Prim::TopK, count: 36, lo: 4.0, hi: 8.0 },
    Mix { prim: Prim::Sort, count: 36, lo: 4.0, hi: 6.0 },
];
/// Exact repeats among the pass's 300 job lines. Cache hits answer about
/// ten times faster than the fastest executions, so at exactly half the
/// median would sit on that cliff; 40% puts it inside the executed jobs.
const TCP_REPEATS: usize = 120;
/// A stats verb after every this many lines.
const STATS_EVERY: usize = 50;
/// How far back a repeat may reach.
const REPEAT_WINDOW: usize = 64;
/// Fixes the journaled-TCP line order (see [`served_mix`] for why).
const TCP_ORDER_SEED: u64 = 0x7C90;

/// One journaled-TCP pass (the `hello` handshake is not part of it): 40%
/// of the job lines are exact repeats of recent ones.
pub fn served_tcp(seed: u64, tiny: bool) -> Stream {
    let mut rng = Rng::seed_from_u64(seed ^ Workload::ServedJournaledTcp.salt());
    let mut originals = Vec::new();
    for m in &TCP_MIX {
        for (i, n) in log_sizes(m.count, m.lo, m.hi, None).into_iter().enumerate() {
            let n = if tiny { n.min(TINY_N) } else { n };
            originals.push(spec(m.prim, n, ARRAYS[i % ARRAYS.len()], &mut rng));
        }
    }
    let mut order = Rng::seed_from_u64(TCP_ORDER_SEED);
    order.shuffle(&mut originals);
    let mut is_repeat = vec![false; originals.len()];
    is_repeat.extend(vec![true; TCP_REPEATS]);
    order.shuffle(&mut is_repeat);
    let mut originals = originals.into_iter();
    let mut lines = Vec::new();
    for repeat in is_repeat {
        if (lines.len() + 1) % (STATS_EVERY + 1) == 0 {
            lines.push(Line::Stats);
        }
        if !(repeat && push_repeat(&mut lines, &mut order, REPEAT_WINDOW, |_, _| true)) {
            match originals.next() {
                Some(s) => push_job(&mut lines, s, Tenant::Open),
                None => {
                    push_repeat(&mut lines, &mut order, REPEAT_WINDOW, |_, _| true);
                }
            }
        }
    }
    Stream { lines }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        for tiny in [false, true] {
            for w in [Workload::BareKernels, Workload::MeteredKernels] {
                for jitter in [None, Some(3)] {
                    assert_eq!(kernel_jobs(w, 5, tiny, jitter), kernel_jobs(w, 5, tiny, jitter));
                    assert_ne!(kernel_jobs(w, 5, tiny, jitter), kernel_jobs(w, 6, tiny, jitter));
                }
            }
            assert_eq!(served_mix(5, tiny), served_mix(5, tiny));
            assert_ne!(served_mix(5, tiny), served_mix(6, tiny));
            assert_eq!(served_tcp(5, tiny), served_tcp(5, tiny));
            assert_ne!(served_tcp(5, tiny), served_tcp(6, tiny));
        }
    }

    #[test]
    fn kernel_sizes_stay_in_their_ranges() {
        for jitter in [None, Some(1), Some(2)] {
            kernel_sizes_stay_in_their_ranges_with(jitter);
        }
    }

    #[test]
    fn kernel_sizes_depend_on_the_pass_not_the_seed() {
        let sizes = |seed: u64, jitter: Option<u64>| {
            let mut s: Vec<(Prim, usize)> =
                kernel_jobs(Workload::MeteredKernels, seed, false, jitter)
                    .iter()
                    .map(|j| (j.prim, j.n))
                    .collect();
            s.sort();
            s
        };
        assert_eq!(sizes(1, None), sizes(2, None));
        assert_eq!(sizes(1, Some(1)), sizes(2, Some(1)));
        assert_ne!(sizes(1, Some(1)), sizes(1, Some(2)));
    }

    fn kernel_sizes_stay_in_their_ranges_with(jitter: Option<u64>) {
        let jobs = kernel_jobs(Workload::BareKernels, 1, false, jitter);
        let range = |p: Prim| {
            let ns: Vec<usize> = jobs.iter().filter(|j| j.prim == p).map(|j| j.n).collect();
            (*ns.iter().min().unwrap(), *ns.iter().max().unwrap())
        };
        let (lo, hi) = range(Prim::Scan);
        assert!(lo >= 1 << 10 && hi <= 1 << 16);
        assert!(range(Prim::Sort).1 <= 1 << 14);
        assert!(range(Prim::Spmv).1 <= 1 << 11);
        let metered = kernel_jobs(Workload::MeteredKernels, 1, false, jitter);
        assert!(metered.iter().all(|j| j.n <= 1 << 12));
        assert!(metered.iter().filter(|j| j.prim == Prim::Sort).all(|j| j.n <= 1 << 10));
    }

    #[test]
    fn repeats_copy_an_earlier_line_at_least_two_back() {
        for stream in [served_mix(3, false), served_tcp(3, false)] {
            let mut repeats = 0;
            for (i, l) in stream.lines.iter().enumerate() {
                if let Line::Job { spec, repeat_of: Some(src), .. } = l {
                    repeats += 1;
                    assert!(*src + 2 <= i, "line {i} repeats line {src}");
                    let Line::Job { spec: orig, repeat_of: None, tenant } = &stream.lines[*src]
                    else {
                        panic!("line {i} must repeat an original job line");
                    };
                    assert_eq!((spec, *tenant), (orig, Tenant::Open));
                }
            }
            assert!(repeats > 0);
        }
        let tcp = served_tcp(3, false);
        let jobs = tcp.lines.iter().filter(|l| matches!(l, Line::Job { .. })).count();
        let reps =
            tcp.lines.iter().filter(|l| matches!(l, Line::Job { repeat_of: Some(_), .. })).count();
        assert_eq!(jobs, 300);
        assert!((110..=130).contains(&reps), "{reps} repeats of {jobs}");
        assert!(tcp.lines.contains(&Line::Stats));
    }
}
