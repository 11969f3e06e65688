//! Workload orchestration: set-up, one measured pass, and the end-to-end
//! run that repeats passes for the requested time.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use spatial_core::model::Cost;
use spatial_core::rng::Rng;

use crate::gen::{self, Workload};
use crate::kernels::{self, Prepared};
use crate::served::{self, PassRun, PipeSession, Plan, TcpSession};
use crate::stats;
use crate::trace::Tracer;

/// Set-up is repeated this many times per run and its median reported.
pub const SETUPS: usize = 21;
/// Samples needed so that at least ten lie beyond the nearest-rank p90.
pub const MIN_SAMPLES: usize = 100;

/// Where runs leave their span files and transient journals.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A workload's generated and checked-ahead inputs.
pub enum Inputs {
    Kernels { jobs: Vec<Prepared>, metered: bool },
    Mix(Plan),
    Tcp(Plan),
}

/// Generates `w`'s inputs and their expected outputs. `jitter` names the
/// pass whose kernel sizes are drawn within their strata (see
/// [`gen::kernel_jobs`]); served streams ignore it.
pub fn prepare(w: Workload, seed: u64, tiny: bool, jitter: Option<u64>, tr: &mut Tracer) -> Inputs {
    match w {
        Workload::BareKernels | Workload::MeteredKernels => Inputs::Kernels {
            jobs: gen::kernel_jobs(w, seed, tiny, jitter)
                .iter()
                .map(|j| kernels::prepare(j, tr))
                .collect(),
            metered: w == Workload::MeteredKernels,
        },
        Workload::ServedMix => Inputs::Mix(served::plan(&gen::served_mix(seed, tiny), true)),
        Workload::ServedJournaledTcp => {
            Inputs::Tcp(served::plan(&gen::served_tcp(seed, tiny), false))
        }
    }
}

/// One timed set-up: input generation and planning, then the serving
/// endpoint started (serve over pipes; listener bind, journal open and the
/// `hello` round trip over TCP). The endpoint is torn down untimed.
pub fn timed_setup(w: Workload, seed: u64, tiny: bool) -> Result<(Inputs, f64), String> {
    let start = Instant::now();
    let inputs = prepare(w, seed, tiny, None, &mut Tracer::new(false));
    match &inputs {
        Inputs::Kernels { .. } => Ok((inputs, start.elapsed().as_secs_f64())),
        Inputs::Mix(_) => {
            let session = PipeSession::open();
            let t = start.elapsed().as_secs_f64();
            session.close()?;
            Ok((inputs, t))
        }
        Inputs::Tcp(_) => {
            let session = TcpSession::open(served::journal_dir(&out_dir(), usize::MAX))?;
            let t = start.elapsed().as_secs_f64();
            session.close(&Plan { texts: Vec::new(), expect: Vec::new() }, &[])?;
            Ok((inputs, t))
        }
    }
}

/// One pass over a workload's inputs.
#[derive(Default)]
pub struct Pass {
    /// Host time the measured calls took: the sum of kernel call times, or
    /// a served stream's first-write-to-last-read time.
    pub wall_s: f64,
    pub latencies_s: Vec<f64>,
    pub model: Cost,
    pub failures: Vec<String>,
    /// The served stream's observations.
    pub served: Option<PassRun>,
    /// TCP only: the `hello` round trip.
    pub rtt_s: Option<f64>,
}

/// Runs one pass. Served passes get a fresh endpoint (and a fresh journal),
/// so every pass sees the same cold cache and tenant ledgers.
pub fn pass(inputs: &Inputs, index: usize, tr: &mut Tracer) -> Result<Pass, String> {
    let mut p = Pass::default();
    match inputs {
        Inputs::Kernels { jobs, metered } => {
            for job in jobs {
                let o = kernels::run(job, *metered, tr);
                p.wall_s += o.latency_s;
                p.latencies_s.push(o.latency_s);
                served::add_cost(&mut p.model, o.cost);
                p.failures.extend(o.error);
            }
        }
        Inputs::Mix(plan) => {
            let mut session = PipeSession::open();
            let run =
                served::drive(&mut session, plan, false, tr).map_err(|e| format!("pipe: {e}"));
            let summary = session.close()?;
            let run = run?;
            if summary.lines != plan.texts.len() as u64 || summary.errors != 0 {
                p.failures.push(format!(
                    "serve consumed {} lines with {} errors; the stream has {} lines",
                    summary.lines,
                    summary.errors,
                    plan.texts.len()
                ));
            }
            p.take_run(run);
        }
        Inputs::Tcp(plan) => {
            let mut session = TcpSession::open(served::journal_dir(&out_dir(), index))?;
            p.rtt_s = Some(session.rtt_s);
            let run =
                served::drive(&mut session, plan, true, tr).map_err(|e| format!("socket: {e}"))?;
            if let Err(e) = session.close(plan, &run.received) {
                p.failures.push(e);
            }
            p.take_run(run);
        }
    }
    Ok(p)
}

impl Pass {
    fn take_run(&mut self, run: PassRun) {
        self.wall_s = run.wall_s;
        self.latencies_s = run.latencies.iter().map(|&(_, s)| s).collect();
        self.model = run.model;
        self.failures.extend(run.failures.iter().cloned());
        self.served = Some(run);
    }
}

/// A metric as printed.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// The result line's content.
pub struct Report {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

/// The end-to-end run: repeated set-ups (`setup_s` is their median) and an
/// untimed warm-up pass, then passes
/// while another one is expected to end within `seconds`, and until there
/// are enough latency samples. The `model_*` metrics are the first measured
/// pass's totals, which must repeat the warm-up's exactly.
pub fn end_to_end(w: Workload, seed: u64, seconds: f64, tiny: bool) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let (i, t) = timed_setup(w, seed, tiny)?;
        setups.push(t);
        inputs = Some(i);
    }
    let mut inputs = inputs.expect("at least one set-up");
    let setup_s = stats::median(&setups).expect("set-ups ran");
    let mut tr = Tracer::new(false);
    // The warm-up pass runs the first measured pass's inputs, so its model
    // totals must repeat exactly. It is not part of `setup_s`: it is one
    // sample of the measured pass, and would make the set-up time a noisy
    // copy of the pass time.
    let warm_up = pass(&inputs, usize::MAX, &mut tr)?;
    let (mut latencies, mut wall_s, mut failures) = (Vec::new(), 0.0, warm_up.failures);
    let mut first_model: Option<Cost> = None;
    let started = Instant::now();
    let mut passes = 0u32;
    // Another pass only if it is expected to end within `seconds`, so a run
    // lasts about `seconds` whatever the pass length.
    let deadline = Duration::from_secs_f64(seconds);
    let fits = |passes: u32| started.elapsed() * (passes + 1) / passes.max(1) <= deadline;
    while passes < 1 || fits(passes) || latencies.len() < MIN_SAMPLES {
        // Later passes draw fresh inputs (and jittered kernel sizes) from
        // seeds derived from the run's, so the latency percentiles rest on
        // many distinct jobs rather than one job list replayed.
        if passes >= 1 {
            let derived = Rng::stream(seed, u64::from(passes)).next_u64();
            inputs = prepare(w, derived, tiny, Some(u64::from(passes)), &mut Tracer::new(false));
        }
        let p = pass(&inputs, passes as usize, &mut tr)?;
        passes += 1;
        wall_s += p.wall_s;
        latencies.extend(p.latencies_s);
        failures.extend(p.failures);
        if passes == 1 {
            // Model costs are exact: a repeat that differs is a bug, not
            // noise.
            if p.model != warm_up.model {
                failures.push(format!(
                    "pass model cost {:?} differs from the warm-up's {:?}",
                    p.model, warm_up.model
                ));
            }
            first_model = Some(p.model);
        }
    }
    let model = first_model.expect("at least one pass");
    let attempted = latencies.len() as u64;
    let ms: Vec<f64> = latencies.iter().map(|s| s * 1e3).collect();
    let (p50, _) = stats::percentile(&ms, 50.0, 0)?;
    let (p90, beyond) = stats::percentile(&ms, 90.0, 10)?;
    let q = stats::quartiles(&ms).unwrap_or([p50; 3]);
    eprintln!(
        "perfbench: {} seed {seed}: {passes} passes, {attempted} latency samples ({beyond} beyond p90), \
         latency quartiles {:.3}/{:.3}/{:.3} ms",
        w.name(),
        q[0],
        q[1],
        q[2]
    );
    let failed = failures.len().min(attempted as usize) as f64;
    Ok(Report {
        attempted,
        metrics: vec![
            metric("jobs_per_s", attempted as f64 / wall_s, "1/s"),
            metric("latency_p50_ms", p50, "ms"),
            metric("latency_p90_ms", p90, "ms"),
            metric("setup_s", setup_s, "s"),
            metric("peak_rss_mib", stats::peak_rss_mib()?, "MiB"),
            metric("ok_frac", (attempted as f64 - failed) / attempted as f64, "ratio"),
            metric("model_energy", model.energy as f64, "hops"),
            metric("model_depth", model.depth as f64, "msgs"),
            metric("model_distance", model.distance as f64, "hops"),
            metric("model_messages", model.messages as f64, "msgs"),
        ],
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_end_to_end_run_of_each_workload_passes_its_checks() {
        for w in Workload::ALL {
            let r = end_to_end(w, 9, 0.0, true).unwrap();
            assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
            assert!(r.attempted as usize >= MIN_SAMPLES);
            let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(names.len(), 10);
            assert!(r.metrics.iter().all(|m| m.value > 0.0 && m.value.is_finite()), "{}", w.name());
        }
    }
}
