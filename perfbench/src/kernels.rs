//! The kernel workloads: primitive calls on fresh bare or memory-metered
//! machines, each output checked against a sequential host oracle.

use std::time::Instant;

use spatial_core::model::{Cost, Machine};
use spatial_core::spmv::Coo;
use spatial_core::{collectives, selection, sorting, spmv, topk};
use workloads::matrices;

use crate::gen::{KernelJob, MatrixKind, Prim};
use crate::trace::Tracer;

/// Non-zeros per row (on average, for the Zipf family) of spmv matrices;
/// the banded family uses a half-bandwidth of 2 for the same density.
const NNZ_PER_ROW: usize = 4;

/// A kernel job with its generated input and the oracle's answer.
pub struct Prepared {
    pub job: KernelJob,
    pub data: Vec<i64>,
    pub matrix: Option<Coo<i64>>,
    pub expect: Vec<i64>,
}

impl Prepared {
    /// Elements the call processes: array length, or non-zeros for spmv.
    pub fn elems(&self) -> usize {
        self.matrix.as_ref().map_or(self.data.len(), Coo::nnz)
    }

    /// Elements the generators produced: the array plus any non-zeros.
    pub fn generated(&self) -> usize {
        self.data.len() + self.matrix.as_ref().map_or(0, Coo::nnz)
    }
}

/// Generates one job's input (spanned as `workloads.gen`) and its expected
/// output.
pub fn prepare(job: &KernelJob, tr: &mut Tracer) -> Prepared {
    let n = job.n;
    let open = tr.begin("workloads.gen", job.id);
    let data = job.array.generate(n, job.seed);
    let matrix = (job.prim == Prim::Spmv).then(|| {
        let seed = job.seed ^ 0x5EED;
        match job.matrix {
            MatrixKind::RandomUniform => matrices::random_uniform(n, NNZ_PER_ROW, seed),
            MatrixKind::ZipfRows => matrices::zipf_rows(n, NNZ_PER_ROW, seed),
            MatrixKind::Banded => matrices::banded(n, NNZ_PER_ROW / 2, seed),
        }
    });
    tr.end(open);
    let expect = oracle(job, &data, matrix.as_ref());
    Prepared { job: job.clone(), data, matrix, expect }
}

/// The sequential host answer: a sorted copy, prefix sums, the k-th
/// element, the (sorted) top-k, or the dense matrix–vector product.
pub fn oracle(job: &KernelJob, data: &[i64], matrix: Option<&Coo<i64>>) -> Vec<i64> {
    let sorted = || {
        let mut s = data.to_vec();
        s.sort_unstable();
        s
    };
    match job.prim {
        Prim::Scan => data
            .iter()
            .scan(0i64, |acc, &x| {
                *acc = acc.wrapping_add(x);
                Some(*acc)
            })
            .collect(),
        Prim::Sort => sorted(),
        Prim::Select => vec![sorted()[job.k as usize - 1]],
        Prim::TopK => sorted().split_off(data.len() - job.k as usize),
        Prim::Spmv => matrix.expect("spmv jobs carry a matrix").multiply_dense(data),
    }
}

/// Span names of the primitive calls, by primitive.
pub fn prim_span(p: Prim) -> &'static str {
    match p {
        Prim::Scan => "collectives.scan",
        Prim::Select => "selection.select_rank",
        Prim::TopK => "core.top_k",
        Prim::Sort => "sorting.sort_z",
        Prim::Spmv => "spmv.spmv",
    }
}

/// Runs the job's primitive on `m` (placement included) and returns its
/// output, top-k sorted. The placement and the primitive are spanned
/// separately under the caller's span.
pub fn call(m: &mut Machine, p: &Prepared, tr: &mut Tracer) -> Vec<i64> {
    let job = &p.job;
    let id = job.id;
    let place = |m: &mut Machine, tr: &mut Tracer| {
        let data = p.data.clone();
        tr.span("collectives.place_z", id, || collectives::place_z(m, 0, data))
    };
    let name = prim_span(job.prim);
    match job.prim {
        Prim::Scan => {
            let items = place(m, tr);
            let out = tr.span(name, id, || {
                collectives::scan(m, 0, items, &|a: &i64, b: &i64| a.wrapping_add(*b))
            });
            collectives::read_values(out)
        }
        Prim::Select => {
            let items = place(m, tr);
            let (t, _) = tr.span(name, id, || selection::select_rank(m, 0, items, job.k, job.seed));
            vec![t.into_value()]
        }
        Prim::TopK => {
            let items = place(m, tr);
            let out = tr.span(name, id, || topk::top_k(m, 0, items, job.k, job.seed));
            let mut v = collectives::read_values(out);
            v.sort_unstable();
            v
        }
        Prim::Sort => {
            let items = place(m, tr);
            collectives::read_values(tr.span(name, id, || sorting::sort_z(m, 0, items)))
        }
        Prim::Spmv => {
            let a = p.matrix.as_ref().expect("spmv jobs carry a matrix");
            tr.span(name, id, || spmv::spmv(m, a, &p.data)).y
        }
    }
}

/// The paper's per-PE residency bound for scan (Lemma IV.3): at most two
/// summation-tree values plus one carry in flight.
pub const SCAN_PEAK_WORDS: u32 = 3;

/// One executed kernel call.
pub struct Outcome {
    pub latency_s: f64,
    pub cost: Cost,
    /// `MemMeter::peak` of a metered machine.
    pub peak_words: Option<u32>,
    /// Why the output failed its check, if it did.
    pub error: Option<String>,
}

/// Runs `p` on a fresh machine — memory-metered when `metered` — timing the
/// call from placement to the primitive's return, then checks the output.
pub fn run(p: &Prepared, metered: bool, tr: &mut Tracer) -> Outcome {
    let mut m = Machine::new();
    if metered {
        m.enable_memory_meter();
    }
    let open = tr.begin("perfbench.kernel_job", p.job.id);
    let start = Instant::now();
    let out = call(&mut m, p, tr);
    let latency_s = start.elapsed().as_secs_f64();
    tr.end(open);
    let peak_words = m.memory().map(|mm| mm.peak());
    let job = &p.job;
    let mut error = (out != p.expect).then(|| {
        format!(
            "{} n={} seed={}: output differs from the host oracle",
            job.prim.label(),
            job.n,
            job.seed
        )
    });
    if let (Prim::Scan, Some(peak)) = (job.prim, peak_words) {
        if peak > SCAN_PEAK_WORDS {
            error = Some(format!(
                "scan n={}: peak residency {peak} words/PE > {SCAN_PEAK_WORDS}",
                job.n
            ));
        }
    }
    Outcome { latency_s, cost: m.report(), peak_words, error }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{kernel_jobs, Workload};

    #[test]
    fn tiny_kernel_passes_check_out_on_both_machines() {
        for w in [Workload::BareKernels, Workload::MeteredKernels] {
            let mut tr = Tracer::new(false);
            for job in kernel_jobs(w, 11, true, None) {
                let p = prepare(&job, &mut tr);
                let bare = run(&p, false, &mut tr);
                let metered = run(&p, true, &mut tr);
                assert_eq!(bare.error, None);
                assert_eq!(metered.error, None);
                assert_eq!(bare.cost, metered.cost, "the meter must not change the model cost");
                assert!(metered.peak_words.is_some() && bare.peak_words.is_none());
            }
        }
    }

    #[test]
    fn a_wrong_output_is_reported() {
        let mut tr = Tracer::new(false);
        let job = kernel_jobs(Workload::BareKernels, 2, true, None).remove(0);
        let mut p = prepare(&job, &mut tr);
        p.expect.push(1);
        assert!(run(&p, false, &mut tr).error.is_some());
    }
}
