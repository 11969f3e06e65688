//! The traced run: per-layer metrics from spans around the benchmark's own
//! calls into each layer.
//!
//! Every per-layer metric has a home workload — the one whose mechanism it
//! explains (README.md maps them) — and a traced run of any workload
//! measures all of them on their homes, from the same seed, so each traced
//! run prints the full per-layer set. The tracing overhead is measured on
//! the traced workload itself: the spans a traced pass records, times the
//! cost of recording one.

use std::collections::BTreeMap;
use std::time::Instant;

use runner::job::{execute, host_oracle, JobSpec, Outcome};
use runner::journal::RecordKind;
use runner::json::Json;
use runner::{
    BatchReport, CacheKey, DrrScheduler, Journal, RateLimit, ResultCache, ServeConfig, Submission,
    TenantConfig,
};
use spatial_core::model::{zorder, CancelToken, Machine};
use spatial_core::sorting::{allpairs_rank, merge_adjacent, rank_split, scratch_for};
use spatial_core::sortnet;

use crate::bench::{self, metric, Inputs, Metric, Report};
use crate::gen::{Prim, Tenant, Workload};
use crate::kernels::{self, Prepared};
use crate::served::{self, Expect, Plan};
use crate::stats;
use crate::trace::{self, by_name, Layer, Tracer};

/// Collects metrics and the failures of the checks made along the way.
struct Sink {
    metrics: Vec<Metric>,
    failures: Vec<String>,
    attempted: u64,
}

impl Sink {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }
}

fn layer<'a>(layers: &'a BTreeMap<&'static str, Layer>, name: &str) -> &'a Layer {
    static EMPTY: Layer = Layer { count: 0, self_ns: 0, each_ns: Vec::new() };
    layers.get(name).unwrap_or(&EMPTY)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run of `w`: tracing overhead on `w`, then every home probe.
/// All spans are written to `out/spans-<workload>-<seed>.json`.
pub fn traced(w: Workload, seed: u64) -> Result<Report, String> {
    let mut sink = Sink { metrics: Vec::new(), failures: Vec::new(), attempted: 0 };
    let mut all = Tracer::new(true);

    // Tracing overhead: the spans one traced pass of `w` records, times what
    // recording a span costs. The traced pass's wall time is also compared
    // with the untraced passes around it; that difference is printed, and
    // called unresolved when the two untraced passes differ by more.
    let inputs = bench::prepare(w, seed, false, None, &mut Tracer::new(false));
    let before = bench::pass(&inputs, 0, &mut Tracer::new(false))?;
    let mut tr = Tracer::new(true);
    let traced = bench::pass(&inputs, 1, &mut tr)?;
    let after = bench::pass(&inputs, 2, &mut Tracer::new(false))?;
    for p in [before.failures, traced.failures, after.failures] {
        sink.failures.extend(p);
    }
    let (spans, span_ns) = (tr.spans().len(), trace::span_cost_ns());
    all.absorb(tr);
    let overhead_ms = spans as f64 * span_ns / 1e6;
    let diff_ms = (traced.wall_s - (before.wall_s + after.wall_s) / 2.0) * 1e3;
    let noise_ms = (before.wall_s - after.wall_s).abs() * 1e3;
    eprintln!(
        "perfbench: tracing overhead on {}: {spans} spans x {span_ns:.1} ns = {overhead_ms:.4} ms \
         per pass; traced minus untraced wall time {diff_ms:.3} ms, {} (the untraced passes \
         differ by {noise_ms:.3} ms)",
        w.name(),
        if diff_ms.abs() > noise_ms { "resolved" } else { "unresolved" }
    );
    sink.put("perfbench.trace_overhead_ms", overhead_ms, "ms");

    all.absorb(bare_kernels(seed, &mut sink));
    all.absorb(metered_kernels(seed, &mut sink));
    all.absorb(served_mix(seed, &mut sink)?);
    all.absorb(served_tcp(seed, &mut sink)?);

    print_self_times(&all);
    let out = bench::out_dir();
    std::fs::create_dir_all(&out).map_err(|e| format!("creating {}: {e}", out.display()))?;
    let path = out.join(format!("spans-{}-{seed}.json", w.name()));
    std::fs::write(&path, all.to_json()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("perfbench: {} spans written to {}", all.spans().len(), path.display());
    Ok(Report { attempted: sink.attempted.max(1), failures: sink.failures, metrics: sink.metrics })
}

fn print_self_times(tr: &Tracer) {
    eprintln!("perfbench: self time by span name");
    for (name, l) in by_name(tr.spans()) {
        eprintln!("  {name:<34} {:>7} spans {:>12.3} ms self", l.count, l.self_ns as f64 / 1e6);
    }
}

/// `bare-kernels` home: ns per element of each primitive and of input
/// generation, model messages per host second, and the sort phase split.
fn bare_kernels(seed: u64, sink: &mut Sink) -> Tracer {
    let mut tr = Tracer::new(true);
    let jobs: Vec<Prepared> = crate::gen::kernel_jobs(Workload::BareKernels, seed, false, None)
        .iter()
        .map(|j| kernels::prepare(j, &mut tr))
        .collect();
    let mut messages = 0u64;
    for p in &jobs {
        let o = kernels::run(p, false, &mut tr);
        sink.attempted += 1;
        messages += o.cost.messages;
        sink.failures.extend(o.error);
    }
    for p in jobs.iter().filter(|p| p.job.prim == Prim::Sort) {
        sort_phases(p, &mut tr);
    }
    let layers = by_name(tr.spans());
    let elems = |f: &dyn Fn(&Prepared) -> bool| {
        jobs.iter().filter(|p| f(p)).map(Prepared::elems).sum::<usize>()
    };
    let per = |name: &str, n: usize| ratio(layer(&layers, name).self_ns as f64, n as f64);
    let job_ns: u64 =
        tr.spans().iter().filter(|s| s.name == "perfbench.kernel_job").map(|s| s.dur_ns()).sum();
    sink.put("spatial-model.msgs_per_s", ratio(messages as f64, job_ns as f64 / 1e9), "msgs/s");
    sink.put(
        "collectives.place_z.ns_per_elem",
        per("collectives.place_z", elems(&|p| p.job.prim != Prim::Spmv)),
        "ns",
    );
    for prim in [Prim::Scan, Prim::Sort, Prim::Select, Prim::TopK, Prim::Spmv] {
        let name = kernels::prim_span(prim);
        let per_what = if prim == Prim::Spmv { "ns_per_nnz" } else { "ns_per_elem" };
        sink.put(&format!("{name}.{per_what}"), per(name, elems(&|p| p.job.prim == prim)), "ns");
    }
    for name in [
        "sorting.rank_split",
        "sorting.merge_adjacent",
        "sorting.allpairs_rank",
        "sortnet.run_on_coords",
    ] {
        let n: u64 = tr.spans().iter().filter(|s| s.name == name).map(|s| s.job).sum();
        sink.put(&format!("{name}.ns_per_elem"), per(name, n as usize), "ns");
    }
    let generated: usize = jobs.iter().map(Prepared::generated).sum();
    sink.put("workloads.gen_ns_per_elem", per("workloads.gen", generated), "ns");
    tr
}

/// Calls the sort's public pieces on inputs of the size and layout
/// `sort_z` hands them at the top of its recursion, each on a fresh bare
/// machine. Spans carry the number of elements the call processes as
/// their job id.
fn sort_phases(p: &Prepared, tr: &mut Tracer) {
    let padded = zorder::next_power_of_four(p.data.len() as u64) as usize;
    // Distinct keys, padded with +∞ sentinels, as sort_z's keyed inputs.
    let keyed: Vec<(i64, u64)> =
        (0..padded).map(|i| (p.data.get(i).copied().unwrap_or(i64::MAX), i as u64)).collect();
    let sorted_run = |lo: usize, hi: usize| {
        let mut s = keyed[lo..hi].to_vec();
        s.sort_unstable();
        s
    };
    let place = |m: &mut Machine, lo: usize, vals: Vec<(i64, u64)>| {
        m.place_batch(vals, |i| zorder::coord_of((lo + i) as u64))
    };
    let (q, half) = (padded / 4, padded / 2);

    // Base case: odd-even transposition networks on 16-element blocks.
    let mut m = Machine::new();
    let net = sortnet::odd_even_transposition(16.min(padded));
    let items = place(&mut m, 0, keyed.clone());
    let mut items = items.into_iter();
    for _ in 0..padded / net.width() {
        let block: Vec<_> = items.by_ref().take(net.width()).collect();
        tr.span("sortnet.run_on_coords", net.width() as u64, || {
            sortnet::run_on_coords(&mut m, &net, block)
        });
    }

    // Top-level merges: quadrant pairs, then the halves.
    let mut m = Machine::new();
    let quads: Vec<_> =
        (0..4).map(|i| place(&mut m, i * q, sorted_run(i * q, (i + 1) * q))).collect();
    let [a, b, c, d]: [_; 4] = quads.try_into().expect("four quadrants");
    let top = tr.span("sorting.merge_adjacent", half as u64, || merge_adjacent(&mut m, a, b, 0));
    let bot = tr
        .span("sorting.merge_adjacent", half as u64, || merge_adjacent(&mut m, c, d, half as u64));
    tr.span("sorting.merge_adjacent", padded as u64, || merge_adjacent(&mut m, top, bot, 0));

    // The final merge's quartile rank splits of its two sorted halves.
    let mut m = Machine::new();
    let a = place(&mut m, 0, sorted_run(0, half));
    let b = place(&mut m, half, sorted_run(half, padded));
    for k in [q, half, 3 * q] {
        tr.span("sorting.rank_split", padded as u64, || {
            rank_split(&mut m, &a, 0, &b, half as u64, k as u64)
        });
    }

    // The sample such a split ranks with All-Pairs: every ⌊√n⌋-th element
    // of each half, tagged with its side, on a scratch square at the data.
    let stride = ((padded as f64).sqrt() as usize).max(1);
    let mut m = Machine::new();
    let (sa, sb) = (sorted_run(0, half), sorted_run(half, padded));
    let mut sample = Vec::new();
    for (side, lo, run) in [(0u8, 0usize, &sa), (1, half, &sb)] {
        for i in (0..run.len()).step_by(stride) {
            sample.push(m.place(zorder::coord_of((lo + i) as u64), (run[i], side)));
        }
    }
    let bm = zorder::next_power_of_four(sample.len() as u64);
    let scratch = scratch_for(0, bm * bm);
    let len = sample.len() as u64;
    tr.span("sorting.allpairs_rank", len, || allpairs_rank(&mut m, sample, scratch));
}

/// `metered-kernels` home: metered over bare host time and the meter's
/// peak residency for scan, sort and select.
fn metered_kernels(seed: u64, sink: &mut Sink) -> Tracer {
    let mut tr = Tracer::new(true);
    let mut times: BTreeMap<Prim, (f64, f64, u32)> = BTreeMap::new();
    for job in crate::gen::kernel_jobs(Workload::MeteredKernels, seed, false, None) {
        if !matches!(job.prim, Prim::Scan | Prim::Sort | Prim::Select) {
            continue;
        }
        let p = kernels::prepare(&job, &mut Tracer::new(false));
        let open = tr.begin("spatial-model.metered_run", job.id);
        let metered = kernels::run(&p, true, &mut tr);
        tr.end(open);
        let open = tr.begin("spatial-model.unmetered_run", job.id);
        let bare = kernels::run(&p, false, &mut tr);
        tr.end(open);
        sink.attempted += 2;
        sink.failures.extend(metered.error);
        sink.failures.extend(bare.error);
        let e = times.entry(job.prim).or_default();
        e.0 += metered.latency_s;
        e.1 += bare.latency_s;
        e.2 = e.2.max(metered.peak_words.unwrap_or(0));
    }
    for (prim, (metered, bare, peak)) in times {
        sink.put(
            &format!("spatial-model.meter_slowdown.{}", prim.label()),
            ratio(metered, bare),
            "ratio",
        );
        sink.put(
            &format!("spatial-model.peak_words_per_pe.{}", prim.label()),
            f64::from(peak),
            "words",
        );
    }
    tr
}

/// `served-mix` home: the armed-machine slowdown per kind, the runner's
/// job/tenant layers from a replay, and queueing wait from a traced pass.
fn served_mix(seed: u64, sink: &mut Sink) -> Result<Tracer, String> {
    let mut tr = Tracer::new(true);
    let inputs = bench::prepare(Workload::ServedMix, seed, false, None, &mut Tracer::new(false));
    let Inputs::Mix(plan) = &inputs else { unreachable!("served-mix plans a pipe stream") };
    let pass = bench::pass(&inputs, 0, &mut tr)?;
    sink.failures.extend(pass.failures);
    let run = pass.served.expect("served passes report their stream");
    sink.attempted += run.jobs;

    // Host time of each job's primitive on a bare machine, on one with only
    // a cancel token set, and on one armed as `runner::job` arms a first
    // attempt (fault plan, token, and guard). Flaky jobs retry, and the
    // capped tenant's guard limit is its ledger at run time, so both are
    // left out.
    let mut times: BTreeMap<Prim, [f64; 3]> = BTreeMap::new();
    for (i, e) in plan.expect.iter().enumerate() {
        let Expect::Job { spec, tenant, hit: false, .. } = e else { continue };
        if spec.faults.any() || *tenant == Tenant::Capped {
            continue;
        }
        let Some(prim) = Prim::of_kind(spec.kind) else { continue };
        let mut timed = |name: &'static str, arm: &dyn Fn(&mut Machine)| {
            let mut m = Machine::new();
            arm(&mut m);
            let data = served::job_input(spec);
            let t = Instant::now();
            let out = tr.span(name, i as u64, || served::job_primitive(&mut m, spec, data));
            (t.elapsed().as_secs_f64(), out.map_err(|e| e.to_string()), m.report())
        };
        let runs = [
            timed("spatial-model.bare", &|_| {}),
            timed("spatial-model.token", &|m| m.set_cancel_token(CancelToken::new())),
            timed("spatial-model.armed", &|m| served::arm(m, spec, &CancelToken::new())),
        ];
        if runs.iter().any(|r| r.1.is_err() || (&r.1, r.2) != (&runs[0].1, runs[0].2)) {
            sink.failures.push(format!("job {}: armed and bare machines disagree", spec.id));
        }
        let e = times.entry(prim).or_default();
        for (t, r) in e.iter_mut().zip(&runs) {
            *t += r.0;
        }
    }
    for prim in [Prim::Scan, Prim::Sort, Prim::Select, Prim::TopK, Prim::Spmv] {
        let [bare, token, armed] = times.get(&prim).copied().unwrap_or_default();
        for (what, t) in [("armed", armed), ("token", token)] {
            let name = format!("spatial-model.{what}_slowdown.{}", prim.label());
            sink.put(&name, ratio(t, bare), "ratio");
        }
    }

    let replay = replay(plan, &run.received, true, &mut tr, sink)?;
    let layers = by_name(tr.spans());
    let exec = layer(&layers, "runner.job.execute");
    let mut exec_ms: Vec<f64> = exec.each_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    exec_ms.sort_by(f64::total_cmp);
    sink.put("runner.tenant.admit_us", layer(&layers, "runner.tenant.admit").mean_ns() / 1e3, "us");
    sink.put(
        "runner.tenant.refused_frac",
        ratio(replay.refused as f64, replay.admits as f64),
        "ratio",
    );
    sink.put("runner.job.execute_ms", stats::median(&exec_ms).unwrap_or(0.0), "ms");
    sink.put("runner.job.execute_share", ratio(exec.self_ns as f64 / 1e9, replay.wall_s), "ratio");
    sink.put("runner.job.oracle_ms", layer(&layers, "runner.job.oracle").mean_ns() / 1e6, "ms");
    sink.put(
        "runner.job.attempts_per_job",
        ratio(replay.attempts as f64, exec.count as f64),
        "count",
    );

    // Wait: a line's served latency minus its job's execute span.
    let exec_of: BTreeMap<u64, u64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "runner.job.execute")
        .map(|s| (s.job, s.dur_ns()))
        .collect();
    let waits: Vec<f64> = run
        .latencies
        .iter()
        .filter_map(|&(i, lat)| exec_of.get(&(i as u64)).map(|&ns| (lat - ns as f64 / 1e9) * 1e3))
        .collect();
    sink.put("runner.serve.wait_ms", stats::median(&waits).unwrap_or(0.0), "ms");
    Ok(tr)
}

/// `served-journaled-tcp` home: parse, cache, formatting and journal
/// layers from a replay; `hello` round trip and cache-hit latency from a
/// traced pass.
fn served_tcp(seed: u64, sink: &mut Sink) -> Result<Tracer, String> {
    let mut tr = Tracer::new(true);
    let inputs =
        bench::prepare(Workload::ServedJournaledTcp, seed, false, None, &mut Tracer::new(false));
    let Inputs::Tcp(plan) = &inputs else {
        unreachable!("served-journaled-tcp plans a socket stream")
    };
    let pass = bench::pass(&inputs, 0, &mut tr)?;
    sink.failures.extend(pass.failures);
    let run = pass.served.expect("served passes report their stream");
    sink.attempted += run.jobs;
    sink.put("runner.net.rtt_us", pass.rtt_s.unwrap_or(0.0) * 1e6, "us");
    let hits: Vec<f64> = run
        .latencies
        .iter()
        .filter(|&&(i, _)| matches!(plan.expect[i], Expect::Job { hit: true, .. }))
        .map(|&(_, s)| s * 1e6)
        .collect();
    sink.put("runner.serve.hit_latency_us", stats::median(&hits).unwrap_or(0.0), "us");

    let replay = replay(plan, &run.received, false, &mut tr, sink)?;
    let layers = by_name(tr.spans());
    sink.put("runner.json.parse_us", layer(&layers, "runner.json.parse").mean_ns() / 1e3, "us");
    sink.put("runner.cache.lookup_us", layer(&layers, "runner.cache.lookup").mean_ns() / 1e3, "us");
    sink.put("runner.cache.hit_frac", ratio(replay.hits as f64, replay.lookups as f64), "ratio");
    sink.put(
        "runner.report.format_us",
        layer(&layers, "runner.report.format").mean_ns() / 1e3,
        "us",
    );
    sink.put(
        "runner.journal.append_us",
        layer(&layers, "runner.journal.append").mean_ns() / 1e3,
        "us",
    );
    sink.put("runner.journal.bytes_per_line", replay.journal_bytes_per_record, "bytes");
    sink.put("runner.journal.open_ms", replay.journal_open_s * 1e3, "ms");
    Ok(tr)
}

/// What a replay counted.
#[derive(Default)]
struct Replay {
    wall_s: f64,
    admits: u64,
    refused: u64,
    lookups: u64,
    hits: u64,
    attempts: u64,
    journal_bytes_per_record: f64,
    journal_open_s: f64,
}

/// Replays a served stream through the runner's public layer functions
/// in order, one span per layer call under one `runner.replay` span per
/// line: parse, tenant admission, cache lookup, execution (and the host
/// oracle every execution pays), result formatting and journal appends.
/// Checks each executed job against the plan.
fn replay(
    plan: &Plan,
    received: &[String],
    tenants: bool,
    tr: &mut Tracer,
    sink: &mut Sink,
) -> Result<Replay, String> {
    let dir = bench::out_dir().join(format!("replay-journal-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    let (mut journal, _) = Journal::open(&dir).map_err(|e| format!("journal: {e}"))?;
    let backoff = ServeConfig::default().backoff;
    let mut sched = DrrScheduler::new(ServeConfig::default().quantum);
    let mut cache = ResultCache::new();
    let mut r = Replay::default();
    let started = Instant::now();
    for (seq, (text, expect)) in plan.texts.iter().zip(&plan.expect).enumerate() {
        let seq64 = seq as u64;
        let root = tr.begin("runner.replay", seq64);
        let parsed = tr.span("runner.json.parse", seq64, || {
            let v = Json::parse(text).map_err(|e| e.to_string())?;
            match expect {
                Expect::Job { .. } => JobSpec::from_json(&v, seq).map(|s| (v, Some(s))),
                _ => Ok((v, None)),
            }
        });
        let (v, spec) = parsed.map_err(|e| format!("replay line {seq}: {e}"))?;
        if let (Expect::Ctl, Some(t)) = (expect, v.get("tenant").and_then(Json::as_str)) {
            sched.register(t, tenant_config(&v));
        }
        if let (Some(spec), Expect::Job { tenant, outcome, checksum, .. }) = (spec, expect) {
            let name = if tenants { tenant.name() } else { "default" };
            r.admits += 1;
            let admitted = tr.span("runner.tenant.admit", seq64, || {
                sched.admit(name, seq64).ok()?;
                sched.enqueue(Submission {
                    seq: seq64,
                    tenant: name.to_string(),
                    spec: spec.clone(),
                });
                sched.next()
            });
            let result = match admitted {
                None => {
                    r.refused += 1;
                    Err(Outcome::Shed)
                }
                Some(_) if sched.over_budget(name) => {
                    sched.complete(name, 0);
                    Err(Outcome::OverBudget)
                }
                Some(sub) => {
                    let effective = match (sub.spec.budget, sched.remaining_budget(name)) {
                        (Some(b), Some(rem)) => Some(b.min(rem)),
                        (b, rem) => b.or(rem),
                    };
                    let key = CacheKey::of(&sub.spec, effective);
                    r.lookups += 1;
                    let hit =
                        tr.span("runner.cache.lookup", seq64, || cache.lookup(&key, &sub.spec.id));
                    let result = match hit {
                        Some(h) => {
                            r.hits += 1;
                            h
                        }
                        None => {
                            let mut run_spec = sub.spec.clone();
                            run_spec.budget = effective;
                            let token = CancelToken::new();
                            let res = tr.span("runner.job.execute", seq64, || {
                                execute(&run_spec, &token, &backoff)
                            });
                            tr.span("runner.job.oracle", seq64, || host_oracle(&run_spec));
                            r.attempts += u64::from(res.attempts);
                            tr.span("runner.cache.lookup", seq64, || cache.insert(key, &res));
                            res
                        }
                    };
                    sched.complete(name, result.cost.map_or(0, |c| c.energy));
                    Ok(result)
                }
            };
            let got =
                result.as_ref().map_or_else(|o| (*o, None), |res| (res.outcome, res.checksum));
            if got != (*outcome, *checksum) {
                sink.failures.push(format!(
                    "replayed line {seq}: {} instead of the planned {}",
                    got.0.label(),
                    outcome.label()
                ));
            }
            if let Ok(res) = result {
                let report = BatchReport {
                    name: "replay".into(),
                    workers: 1,
                    profile: None,
                    jobs: vec![res],
                    wall_ms: 0,
                };
                tr.span("runner.report.format", seq64, || report.to_json(false));
            }
        }
        let out = received.get(seq).map_or("", String::as_str);
        tr.span("runner.journal.append", seq64, || {
            journal
                .append(RecordKind::Input, seq64, text)
                .and_then(|()| journal.append(RecordKind::Output, seq64, out))
        })
        .map_err(|e| format!("journal append: {e}"))?;
        tr.end(root);
    }
    r.wall_s = started.elapsed().as_secs_f64();
    drop(journal);
    let bytes = std::fs::metadata(dir.join(runner::journal::WAL_FILE)).map_or(0, |m| m.len());
    r.journal_bytes_per_record = ratio(bytes as f64, 2.0 * plan.texts.len() as f64);
    let t = Instant::now();
    let (_, rec) = tr
        .span("runner.journal.open", 0, || Journal::open(&dir))
        .map_err(|e| format!("journal reopen: {e}"))?;
    r.journal_open_s = t.elapsed().as_secs_f64();
    if rec.inputs.len() != plan.texts.len() || rec.outputs.len() != plan.texts.len() {
        sink.failures.push("the replay journal did not recover every record".into());
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {}: {e}", dir.display()))?;
    Ok(r)
}

fn tenant_config(v: &Json) -> TenantConfig {
    let rate = v.get("rate").and_then(|r| {
        Some(RateLimit { burst: r.get("burst")?.as_u64()?, window: r.get("window")?.as_u64()? })
    });
    TenantConfig { budget: v.get("budget").and_then(Json::as_u64), rate, ..TenantConfig::default() }
}
