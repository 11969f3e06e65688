//! The served workloads: a planned submission stream driven in a closed
//! loop (two lines outstanding) through `runner::serve` over in-memory
//! pipes, or through `runner::spawn_listener` over loopback TCP with a
//! journal. Every result line is checked against the outcome the stream
//! planned for it.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Instant;

use runner::job::{host_oracle, JobKind, JobSpec, Outcome};
use runner::json::Json;
use runner::{spawn_listener, Journal, NetConfig, NetHandle, ServeConfig, ServeSummary};
use spatial_core::model::{CancelToken, Cost, Machine, ModelGuard, SpatialError};
use spatial_core::recovery::checksum_i64;
use spatial_core::{collectives, selection, sorting, spmv, topk};

use crate::gen::{Line, Stream, Tenant, BURST, WINDOW};
use crate::trace::Tracer;

/// Submissions kept outstanding by the closed-loop client.
pub const OUTSTANDING: usize = 2;
/// Serve workers.
const WORKERS: usize = 2;

/// What one line's result must be.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// A control acknowledgement with `"ok": true`.
    Ctl,
    /// A stats line aggregating exactly this many jobs.
    Stats { jobs: u64 },
    Job {
        spec: JobSpec,
        tenant: Tenant,
        outcome: Outcome,
        /// `checksum_i64(host_oracle(spec))` for outcomes with output.
        checksum: Option<u64>,
        /// Exact model energy, where the planner computed it.
        energy: Option<u64>,
        /// Whether the line repeats an earlier one and so hits the cache.
        hit: bool,
    },
}

/// A rendered stream and its expected results.
pub struct Plan {
    pub texts: Vec<String>,
    pub expect: Vec<Expect>,
}

impl Plan {
    pub fn jobs(&self) -> usize {
        self.expect.iter().filter(|e| matches!(e, Expect::Job { .. })).count()
    }
}

/// A served job's input, generated as `runner::job` generates it.
pub fn job_input(spec: &JobSpec) -> Vec<i64> {
    let n = spec.n as usize;
    if spec.kind == JobKind::Spmv {
        spec.array.generate(n, spec.seed ^ 0x5EED)
    } else {
        spec.array.generate(n, spec.seed)
    }
}

/// Arms `m` as `runner::job` arms the machine of a job's first attempt:
/// the compiled fault plan (enabled even when it is empty), the cancel
/// token, and a guard when the spec carries an energy budget.
pub fn arm(m: &mut Machine, spec: &JobSpec, token: &CancelToken) {
    m.enable_faults(spec.faults.compile(spec.seed, spec.extent()).for_attempt(0));
    m.set_cancel_token(token.clone());
    if let Some(b) = spec.budget {
        m.enable_guard(ModelGuard::new().max_energy(b));
    }
}

/// A served job's primitive on `m`, called as `runner::job` calls it on a
/// first attempt; returns the output.
pub fn job_primitive(
    m: &mut Machine,
    spec: &JobSpec,
    data: Vec<i64>,
) -> Result<Vec<i64>, SpatialError> {
    let salt = spec.seed;
    if spec.kind == JobKind::Spmv {
        let mat = workloads::matrices::random_uniform(spec.n as usize, 4, spec.seed);
        return Ok(spmv::try_spmv(m, &mat, &data)?.y);
    }
    let items = collectives::place_z(m, 0, data);
    Ok(match spec.kind {
        JobKind::Scan => collectives::read_values(collectives::try_scan_any(
            m,
            0,
            items,
            &|a: &i64, b: &i64| a.wrapping_add(*b),
        )?),
        JobKind::Sort => collectives::read_values(sorting::try_sort_z(m, 0, items)?),
        JobKind::Select => {
            vec![selection::try_select_rank(m, 0, items, spec.k, salt)?.0.into_value()]
        }
        JobKind::TopK => m
            .guarded(|m| topk::top_k(m, 0, items, spec.k, salt))?
            .into_iter()
            .map(|t| t.into_value())
            .collect(),
        k => panic!("no primitive for {}", k.label()),
    })
}

/// Model energy of a served job's first attempt, run on a fresh machine.
fn job_energy(spec: &JobSpec) -> u64 {
    let mut m = Machine::new();
    if let Err(e) = job_primitive(&mut m, spec, job_input(spec)) {
        panic!("planning job {}: {e}", spec.id);
    }
    m.report().energy
}

fn job_text(spec: &JobSpec, tenant: Option<Tenant>) -> String {
    let mut s = format!(
        "{{\"id\": \"{}\", \"kind\": \"{}\", \"n\": {}, \"k\": {}, \"seed\": {}, \"array\": \"{}\"",
        spec.id,
        spec.kind.label(),
        spec.n,
        spec.k,
        spec.seed,
        spec.array.label()
    );
    if spec.faults.any() {
        s.push_str(&format!(
            ", \"faults\": {{\"flaky\": {}}}, \"retries\": {}",
            spec.faults.flaky, spec.retries
        ));
    }
    if let Some(t) = tenant {
        s.push_str(&format!(", \"tenant\": \"{}\"", t.name()));
    }
    s.push('}');
    s
}

/// Renders `stream` and plans every line's result. With `tenants` off the
/// job lines carry no tenant field (the TCP stream uses the default
/// tenant). The capped tenant's budget covers its first half of jobs and
/// half of the next, so that job degrades and the rest are refused.
pub fn plan(stream: &Stream, tenants: bool) -> Plan {
    let capped: Vec<&JobSpec> = stream
        .lines
        .iter()
        .filter_map(|l| match l {
            Line::Job { spec, tenant: Tenant::Capped, .. } => Some(spec),
            _ => None,
        })
        .collect();
    let cross = capped.len() / 2;
    let energies: Vec<u64> = capped.iter().take(cross + 1).map(|s| job_energy(s)).collect();
    let budget = energies[..cross].iter().sum::<u64>() + energies.get(cross).map_or(0, |e| e / 2);

    let mut texts = Vec::with_capacity(stream.lines.len());
    let mut expect = Vec::with_capacity(stream.lines.len());
    let mut bursty_admitted: VecDeque<u64> = VecDeque::new();
    let mut capped_seen = 0usize;
    let mut jobs = 0u64;
    for (seq, line) in stream.lines.iter().enumerate() {
        let seq = seq as u64;
        match line {
            Line::TenantOp(t) => {
                texts.push(match t {
                    Tenant::Open => "{\"op\": \"tenant\", \"tenant\": \"open\"}".to_string(),
                    Tenant::Capped => {
                        format!(
                            "{{\"op\": \"tenant\", \"tenant\": \"capped\", \"budget\": {budget}}}"
                        )
                    }
                    Tenant::Bursty => format!(
                        "{{\"op\": \"tenant\", \"tenant\": \"bursty\", \
                         \"rate\": {{\"burst\": {BURST}, \"window\": {WINDOW}}}}}"
                    ),
                });
                expect.push(Expect::Ctl);
            }
            Line::Stats => {
                texts.push("{\"op\": \"stats\"}".to_string());
                expect.push(Expect::Stats { jobs });
            }
            Line::Job { spec, tenant, repeat_of } => {
                jobs += 1;
                texts.push(job_text(spec, tenants.then_some(*tenant)));
                let (outcome, energy) = match tenant {
                    Tenant::Open => (Outcome::Ok, None),
                    Tenant::Bursty => {
                        // The sliding window over global sequence numbers.
                        while bursty_admitted.front().is_some_and(|&s| s + WINDOW <= seq) {
                            bursty_admitted.pop_front();
                        }
                        if bursty_admitted.len() as u64 >= BURST {
                            (Outcome::Shed, None)
                        } else {
                            bursty_admitted.push_back(seq);
                            (Outcome::Ok, None)
                        }
                    }
                    Tenant::Capped => {
                        capped_seen += 1;
                        match (capped_seen - 1).cmp(&cross) {
                            std::cmp::Ordering::Less => {
                                (Outcome::Ok, Some(energies[capped_seen - 1]))
                            }
                            std::cmp::Ordering::Equal => (Outcome::Degraded, None),
                            std::cmp::Ordering::Greater => (Outcome::OverBudget, None),
                        }
                    }
                };
                let checksum = matches!(outcome, Outcome::Ok | Outcome::Degraded)
                    .then(|| checksum_i64(&host_oracle(spec)));
                expect.push(Expect::Job {
                    spec: spec.clone(),
                    tenant: *tenant,
                    outcome,
                    checksum,
                    energy,
                    hit: repeat_of.is_some(),
                });
            }
        }
    }
    Plan { texts, expect }
}

/// Checks one result line; returns the model cost a job line carries.
pub fn check_line(
    out: &str,
    seq: u64,
    expect: &Expect,
    canonical: bool,
) -> Result<Option<Cost>, String> {
    let v = Json::parse(out).map_err(|e| format!("line {seq}: unparseable result {out:?}: {e}"))?;
    let str_of = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("");
    let fail = |what: String| Err(format!("line {seq}: {what} in {out}"));
    if v.get("seq").and_then(Json::as_u64) != Some(seq) {
        return fail("wrong sequence number".into());
    }
    match expect {
        Expect::Ctl => {
            if str_of("schema") != "spatial-serve-ctl/v1"
                || v.get("ok").and_then(Json::as_bool) != Some(true)
            {
                return fail("expected a successful control acknowledgement".into());
            }
            Ok(None)
        }
        Expect::Stats { jobs } => {
            if str_of("schema") != "spatial-serve-stats/v1"
                || v.get("jobs").and_then(Json::as_u64) != Some(*jobs)
            {
                return fail(format!("expected a stats line over {jobs} jobs"));
            }
            Ok(None)
        }
        Expect::Job { spec, outcome, checksum, energy, hit, .. } => {
            if str_of("schema") != "spatial-batch-report/v1" || str_of("id") != spec.id {
                return fail(format!("expected the result of job {}", spec.id));
            }
            if str_of("outcome") != outcome.label() {
                return fail(format!("planned outcome {}", outcome.label()));
            }
            let want = checksum.map(|c| format!("0x{c:016x}"));
            if v.get("checksum").and_then(Json::as_str).map(str::to_string) != want {
                return fail(format!("expected checksum {want:?}"));
            }
            if !canonical && v.get("cached").and_then(Json::as_bool) != Some(*hit) {
                return fail(format!("expected cached = {hit}"));
            }
            let cost = match v.get("cost") {
                Some(c) if !c.is_null() => {
                    let f = |k: &str| {
                        c.get(k).and_then(Json::as_u64).ok_or(format!("line {seq}: cost.{k}"))
                    };
                    Some(Cost {
                        energy: f("energy")?,
                        depth: f("depth")?,
                        distance: f("distance")?,
                        messages: f("messages")?,
                    })
                }
                _ => None,
            };
            if cost.is_some() != checksum.is_some() {
                return fail(
                    "a cost must come with exactly the outcomes that produce output".into(),
                );
            }
            if let (Some(e), Some(c)) = (energy, cost) {
                if c.energy != *e {
                    return fail(format!("planned energy {e}"));
                }
            }
            Ok(cost)
        }
    }
}

/// Adds `c` to `total` field by field (depth and distance too: the
/// benchmark sums them over jobs).
pub fn add_cost(total: &mut Cost, c: Cost) {
    total.energy += c.energy;
    total.depth += c.depth;
    total.distance += c.distance;
    total.messages += c.messages;
}

/// A line-oriented client connection to a serving endpoint.
pub trait Conn {
    fn send(&mut self, line: &str) -> io::Result<()>;
    /// The next result line; `None` at end of stream.
    fn recv(&mut self) -> io::Result<Option<String>>;
}

/// What one closed-loop pass observed.
#[derive(Default)]
pub struct PassRun {
    /// `(line index, write-to-read seconds)` for every job line.
    pub latencies: Vec<(usize, f64)>,
    /// From the first write to the last read.
    pub wall_s: f64,
    /// Summed cost of the job lines that carry one.
    pub model: Cost,
    pub jobs: u64,
    pub failures: Vec<String>,
    /// Every result line, in order.
    pub received: Vec<String>,
}

/// Drives `plan` through `conn` keeping [`OUTSTANDING`] lines in flight,
/// then checks each result: one line per consuming line, in input order.
pub fn drive(
    conn: &mut dyn Conn,
    plan: &Plan,
    canonical: bool,
    tr: &mut Tracer,
) -> io::Result<PassRun> {
    let mut run = PassRun::default();
    let mut sent: VecDeque<(usize, Instant)> = VecDeque::new();
    let mut next = 0usize;
    let start = Instant::now();
    while next < plan.texts.len() && sent.len() < OUTSTANDING {
        sent.push_back((next, Instant::now()));
        conn.send(&plan.texts[next])?;
        next += 1;
    }
    while let Some((i, t0)) = sent.pop_front() {
        let Some(out) = conn.recv()? else {
            run.failures.push(format!("stream ended before the result of line {i}"));
            break;
        };
        let t1 = Instant::now();
        if next < plan.texts.len() {
            sent.push_back((next, Instant::now()));
            conn.send(&plan.texts[next])?;
            next += 1;
        }
        tr.record("perfbench.request", i as u64, t0, t1);
        if matches!(plan.expect[i], Expect::Job { .. }) {
            run.jobs += 1;
            run.latencies.push((i, (t1 - t0).as_secs_f64()));
        }
        match check_line(&out, i as u64, &plan.expect[i], canonical) {
            Ok(Some(c)) => add_cost(&mut run.model, c),
            Ok(None) => {}
            Err(e) => run.failures.push(e),
        }
        run.received.push(out);
    }
    run.wall_s = start.elapsed().as_secs_f64();
    Ok(run)
}

/// The read end of an in-memory pipe: blocks for the next chunk; EOF once
/// the sender is dropped.
struct PipeReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for PipeReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        while self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => (self.buf, self.pos) = (chunk, 0),
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// The write end of an in-memory pipe.
struct PipeWriter {
    tx: Sender<Vec<u8>>,
}

impl Write for PipeWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx.send(buf.to_vec()).map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))?;
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// An in-process `runner::serve` instance fed through in-memory pipes
/// (default non-canonical mode, no journal).
pub struct PipeSession {
    input: Option<Sender<Vec<u8>>>,
    output: PipeReader,
    partial: Vec<u8>,
    server: JoinHandle<io::Result<ServeSummary>>,
}

impl PipeSession {
    pub fn open() -> PipeSession {
        let (in_tx, in_rx) = channel();
        let (out_tx, out_rx) = channel();
        let cfg = ServeConfig { workers: WORKERS, ..ServeConfig::default() };
        let reader = BufReader::new(PipeReader { rx: in_rx, buf: Vec::new(), pos: 0 });
        let server =
            std::thread::spawn(move || runner::serve(reader, PipeWriter { tx: out_tx }, &cfg));
        let output = PipeReader { rx: out_rx, buf: Vec::new(), pos: 0 };
        PipeSession { input: Some(in_tx), output, partial: Vec::new(), server }
    }

    /// Ends the input and waits for serve to drain and return.
    pub fn close(mut self) -> Result<ServeSummary, String> {
        self.input = None;
        let summary = self.server.join().map_err(|_| "serve panicked".to_string())?;
        summary.map_err(|e| format!("serve failed: {e}"))
    }
}

impl Conn for PipeSession {
    fn send(&mut self, line: &str) -> io::Result<()> {
        let tx = self.input.as_ref().ok_or(io::ErrorKind::BrokenPipe)?;
        tx.send(format!("{line}\n").into_bytes())
            .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))
    }

    fn recv(&mut self) -> io::Result<Option<String>> {
        self.partial.clear();
        let mut byte = [0u8; 1];
        loop {
            if self.output.read(&mut byte)? == 0 {
                return Ok(None);
            }
            if byte[0] == b'\n' {
                return String::from_utf8(std::mem::take(&mut self.partial))
                    .map(Some)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            self.partial.push(byte[0]);
        }
    }
}

/// A journaled, canonical serve listener on loopback with one client
/// connection past its `hello` handshake.
pub struct TcpSession {
    handle: NetHandle,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    dir: PathBuf,
    /// The `hello` round trip.
    pub rtt_s: f64,
}

/// Journal directory of one TCP pass (removed again when the pass closes).
pub fn journal_dir(out: &Path, pass: usize) -> PathBuf {
    out.join(format!("journal-{}-{pass}", std::process::id()))
}

impl TcpSession {
    pub fn open(dir: PathBuf) -> Result<TcpSession, String> {
        let err = |what: &str, e: io::Error| format!("{what}: {e}");
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| err("clearing the journal directory", e))?;
        }
        let cfg = ServeConfig {
            workers: WORKERS,
            canonical: true,
            journal: Some(dir.clone()),
            ..ServeConfig::default()
        };
        // A 1 ms accept poll instead of the default 25 ms: the client connects
        // right after binding, and a poll-phase-dependent 0–25 ms wait for
        // the first accept would swamp the set-up time being measured.
        let net = NetConfig { accept_poll_ms: 1, ..NetConfig::default() };
        let handle = spawn_listener("127.0.0.1:0", cfg, net).map_err(|e| err("bind", e))?;
        let writer = TcpStream::connect(handle.addr()).map_err(|e| err("connect", e))?;
        writer.set_nodelay(true).map_err(|e| err("nodelay", e))?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| err("socket clone", e))?);
        let mut s = TcpSession { handle, writer, reader, dir, rtt_s: 0.0 };
        let t0 = Instant::now();
        s.send("{\"op\": \"hello\"}").map_err(|e| err("hello", e))?;
        let ack = s.recv().map_err(|e| err("hello ack", e))?.unwrap_or_default();
        s.rtt_s = t0.elapsed().as_secs_f64();
        let ok = Json::parse(&ack).ok().and_then(|v| {
            (v.get("schema")?.as_str()? == "spatial-serve-hello/v1")
                .then(|| v.get("ok")?.as_bool())?
        });
        if ok != Some(true) {
            return Err(format!("hello rejected: {ack:?}"));
        }
        Ok(s)
    }

    /// Closes the connection, stops the listener, and checks that the
    /// journal recovers exactly the stream's inputs and the received
    /// outputs. Removes the journal directory.
    pub fn close(mut self, plan: &Plan, received: &[String]) -> Result<(), String> {
        let _ = self.writer.shutdown(Shutdown::Write);
        // Drain to EOF: the session has then finished and snapshotted.
        if let Ok(Some(extra)) = self.recv() {
            return Err(format!("unexpected line after the last result: {extra}"));
        }
        let summary = self.handle.stop().map_err(|e| format!("listener: {e}"))?;
        if summary.jobs != plan.jobs() as u64 {
            return Err(format!(
                "listener served {} jobs, the stream has {}",
                summary.jobs,
                plan.jobs()
            ));
        }
        let (_, rec) = Journal::open(&self.dir).map_err(|e| format!("journal reopen: {e}"))?;
        let result = check_recovered(&rec.inputs, &rec.outputs, plan, received);
        std::fs::remove_dir_all(&self.dir).map_err(|e| format!("removing the journal: {e}"))?;
        result
    }
}

fn check_recovered(
    inputs: &[String],
    outputs: &[String],
    plan: &Plan,
    received: &[String],
) -> Result<(), String> {
    if inputs != plan.texts.as_slice() {
        return Err(format!(
            "journal recovered {} inputs, not the {} sent",
            inputs.len(),
            plan.texts.len()
        ));
    }
    if outputs != received {
        return Err(format!(
            "journal recovered {} outputs, not the {} received",
            outputs.len(),
            received.len()
        ));
    }
    Ok(())
}

impl Conn for TcpSession {
    fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(format!("{line}\n").as_bytes())
    }

    fn recv(&mut self) -> io::Result<Option<String>> {
        let mut s = String::new();
        loop {
            s.clear();
            if self.reader.read_line(&mut s)? == 0 {
                return Ok(None);
            }
            // Heartbeat pings are transport noise, not results.
            if !s.contains("\"spatial-serve-ping/v1\"") {
                return Ok(Some(s.trim_end_matches(['\n', '\r']).to_string()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{served_mix, served_tcp};

    fn totals(plan: &Plan, run: &PassRun) {
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert_eq!(run.received.len(), plan.texts.len());
        assert_eq!(run.jobs, plan.jobs() as u64);
    }

    #[test]
    fn tiny_served_mix_pass_meets_its_plan() {
        let plan = plan(&served_mix(4, true), true);
        let outcomes: Vec<Outcome> = plan
            .expect
            .iter()
            .filter_map(|e| match e {
                Expect::Job { outcome, .. } => Some(*outcome),
                _ => None,
            })
            .collect();
        for o in [Outcome::Ok, Outcome::Degraded, Outcome::OverBudget, Outcome::Shed] {
            assert!(outcomes.contains(&o), "the stream plans no {} line", o.label());
        }
        let mut tr = Tracer::new(false);
        let mut first = None;
        for _ in 0..2 {
            let mut s = PipeSession::open();
            let run = drive(&mut s, &plan, false, &mut tr).unwrap();
            let summary = s.close().unwrap();
            totals(&plan, &run);
            assert_eq!(summary.errors, 0);
            // A fresh serve per pass gives identical model totals.
            assert_eq!(*first.get_or_insert(run.model), run.model);
        }
    }

    #[test]
    fn tiny_tcp_pass_meets_its_plan_and_recovers_from_its_journal() {
        let plan = plan(&served_tcp(4, true), false);
        let dir = crate::bench::out_dir().join(format!("test-journal-{}", std::process::id()));
        let mut s = TcpSession::open(dir.clone()).unwrap();
        assert!(s.rtt_s > 0.0);
        let run = drive(&mut s, &plan, true, &mut Tracer::new(false)).unwrap();
        totals(&plan, &run);
        s.close(&plan, &run.received).unwrap();
        assert!(!dir.exists());
    }

    #[test]
    fn a_wrong_result_line_is_reported() {
        let plan = plan(&served_tcp(4, true), false);
        let (i, e) =
            plan.expect.iter().enumerate().find(|(_, e)| matches!(e, Expect::Job { .. })).unwrap();
        let Expect::Job { spec, .. } = e else { unreachable!() };
        let line = format!(
            "{{\"schema\": \"spatial-batch-report/v1\", \"seq\": {i}, \"id\": \"{}\", \"outcome\": \"ok\", \
             \"checksum\": \"0x0000000000000001\", \"cost\": {{\"energy\": 1, \"depth\": 1, \"distance\": 1, \"messages\": 1}}}}",
            spec.id
        );
        let err = check_line(&line, i as u64, e, true).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
        assert!(check_line(&line, i as u64 + 1, e, true).unwrap_err().contains("sequence"));
        assert!(check_recovered(&[], &[], &plan, &[]).is_err());
    }
}
