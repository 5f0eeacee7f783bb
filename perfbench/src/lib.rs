//! Host-clock benchmark of the CheCL reproduction.
//!
//! Three closed-loop workloads (one client, one process, one thread)
//! drive the stack from outside through its public entry points and
//! measure host wall-clock time; every result is checked bit-exact
//! against a native run, and a digest folded from the virtual clock
//! proves the model unchanged. A separate traced run records spans
//! around each layer call and reads the counters the layers expose.
//! See `README.md` for the metrics and what each should move.

pub mod app;
pub mod cpr;
pub mod fleetrun;
pub mod replay;
pub mod stats;
pub mod trace;

use stats::{median, quantile, ratio, Acc, MIB};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::Tracer;

/// The seed whose virtual-clock digests are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// Least set-ups per untraced run, and least time they take together;
/// `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 2.0;

/// Untimed warm-up before an untraced pass: ops from the start of the
/// schedule for about this long (at least one op, at most one block).
const WARMUP_SECS: f64 = 1.0;

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CprCycle,
    AppRun,
    Fleet,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::CprCycle, Kind::AppRun, Kind::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            Kind::CprCycle => "cpr_cycle",
            Kind::AppRun => "app_run",
            Kind::Fleet => "fleet",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Virtual-clock digest of the first block at [`DEFAULT_SEED`].
    pub fn pinned_digest(self) -> u64 {
        match self {
            Kind::CprCycle => 0x33eb_e6ac_d83f_3413,
            Kind::AppRun => 0x16fd_7950_0c1b_1abd,
            Kind::Fleet => 0xc5f8_043e_af74_4753,
        }
    }

    /// Build the workload's inputs from `seed`.
    pub fn setup(self, seed: u64) -> Result<Box<dyn Workload>, String> {
        Ok(match self {
            Kind::CprCycle => Box::new(cpr::CprCycle::setup(seed)?),
            Kind::AppRun => Box::new(app::AppRun::setup(seed)?),
            Kind::Fleet => Box::new(fleetrun::Fleet::setup(seed)?),
        })
    }
}

/// Checksums of `script` run natively to completion under `vendor`.
pub fn native_checksums(
    script: &workloads::Script,
    vendor: cldriver::VendorConfig,
) -> clspec::error::ClResult<Vec<u64>> {
    let mut cluster = osproc::Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let mut s = workloads::NativeSession::launch(&mut cluster, node, vendor, script.clone());
    s.run(&mut cluster, workloads::StopCondition::Completion)?;
    Ok(s.program.checksums)
}

/// What one op (a cycle, a run or a fleet) produced.
pub struct OpOutcome {
    /// Completed units: 1 per good cycle or run, 1 per good fleet job.
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Virtual-clock fold of the op's results.
    pub digest: u64,
}

impl OpOutcome {
    /// Outcome of a one-unit op; an error counts as one failure.
    pub fn session(r: Result<u64, String>) -> OpOutcome {
        match r {
            Ok(digest) => OpOutcome {
                units: 1,
                attempted: 1,
                failed: 0,
                digest,
            },
            Err(e) => {
                eprintln!("perfbench: failed op: {e}");
                OpOutcome {
                    units: 0,
                    attempted: 1,
                    failed: 1,
                    digest: 0,
                }
            }
        }
    }
}

/// A workload: an endless seeded schedule of ops, measured in blocks.
pub trait Workload {
    /// Ops per block. A pass always measures whole blocks.
    fn block_len(&self) -> usize;

    /// Units an op attempts (what a panicking op loses).
    fn units_per_op(&self) -> u64 {
        1
    }

    /// Run op `i` of the schedule.
    fn op(&mut self, i: usize, tr: &mut Tracer, acc: &mut Acc) -> OpOutcome;

    /// Reference work a traced pass runs right after op `i`, outside
    /// the op's timing: the native run of the same script, or the
    /// audit-off fleet. Running it beside the op keeps drift in machine
    /// load out of the difference between the two.
    fn reference(&mut self, _i: usize, _tr: &mut Tracer, _acc: &mut Acc) {}
}

/// When a pass stops.
#[derive(Clone, Copy)]
pub enum Stop {
    /// At the first block boundary after this many seconds.
    Seconds(f64),
    /// After this many blocks.
    Blocks(usize),
    /// At the first op boundary after this many seconds, and at most
    /// one block: an untimed warm-up.
    Warm(f64),
}

/// What one pass measured.
#[derive(Default)]
pub struct Pass {
    /// Host wall time of each op, in ms.
    pub op_ms: Vec<f64>,
    pub units: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Fold of the first block's op digests, if the pass ran it.
    pub digest: Option<u64>,
    pub blocks: usize,
    /// Obs ledger events the ops emitted (traced passes only).
    pub obs_events: u64,
}

impl Pass {
    pub fn wall_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }

    /// Append a later pass over the same workload.
    fn extend(&mut self, later: Pass) {
        self.op_ms.extend(later.op_ms);
        self.units += later.units;
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.digest = self.digest.or(later.digest);
        self.blocks += later.blocks;
        self.obs_events += later.obs_events;
    }
}

/// Run ops of `w` from block `first` until `stop`, tracing if `tr` is
/// on.
pub fn run_pass(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    acc: &mut Acc,
    first: usize,
    stop: Stop,
) -> Pass {
    let block = w.block_len().max(1);
    let start = Instant::now();
    let mut digest = simcore::Fnv64::new();
    let mut p = Pass::default();
    for i in first * block.. {
        let boundary = i % block == 0;
        let elapsed = start.elapsed().as_secs_f64();
        let done = match stop {
            Stop::Seconds(s) => boundary && p.blocks > 0 && elapsed >= s,
            Stop::Blocks(n) => boundary && p.blocks >= n,
            Stop::Warm(s) => !p.op_ms.is_empty() && (boundary || elapsed >= s),
        };
        if done {
            break;
        }
        if boundary {
            p.blocks += 1;
        }
        tr.set_op(i as u32);
        if tr.is_on() {
            simcore::obs::start_recording();
        }
        let t = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| w.op(i, tr, acc)));
        p.op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let out = out.unwrap_or_else(|_| {
            tr.close_all();
            let n = w.units_per_op();
            OpOutcome {
                units: 0,
                attempted: n,
                failed: n,
                digest: 0,
            }
        });
        if tr.is_on() {
            p.obs_events += simcore::obs::event_count() as u64;
            let _ = catch_unwind(AssertUnwindSafe(|| w.reference(i, tr, acc)));
            tr.close_all();
        }
        p.units += out.units;
        p.attempted += out.attempted;
        p.failed += out.failed;
        if i < block {
            digest.update_u64(out.digest);
        }
    }
    if tr.is_on() {
        simcore::obs::stop_recording();
    }
    if first == 0 {
        p.digest = Some(digest.finish());
    }
    p
}

/// Virtual-clock digest of the first block of `kind` at `seed`.
pub fn digest(kind: Kind, seed: u64) -> Result<u64, String> {
    let mut w = kind.setup(seed)?;
    let p = run_pass(
        w.as_mut(),
        &mut Tracer::new(false),
        &mut Acc::default(),
        0,
        Stop::Blocks(1),
    );
    p.digest
        .ok_or_else(|| "the first block did not run".to_string())
}

/// End-to-end metrics: `(name, unit)`, reported by untraced runs.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, reported by traced runs.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("workloads.launch_ms", "ms"),
    ("workloads.run_ms", "ms"),
    ("checl.kill_ms", "ms"),
    ("checl.snapshot_ms.sequential", "ms"),
    ("checl.snapshot_ms.pipelined", "ms"),
    ("checl.snapshot_ms.incremental", "ms"),
    ("checl.snapshot_ms.dedup", "ms"),
    ("checl.snapshot_ms.live", "ms"),
    ("checl.live_drain_ms", "ms"),
    ("checl.restore_ms.same_vendor", "ms"),
    ("checl.restore_ms.cross_vendor", "ms"),
    ("ckpt_ms_p50", "ms"),
    ("ckpt_ms_p90", "ms"),
    ("restart_ms_p50", "ms"),
    ("restart_ms_p90", "ms"),
    ("native.run_ms", "ms"),
    ("checl.forward_overhead_ms", "ms"),
    ("checl.forwarded_calls", "count/op"),
    ("checl.ipc_mib", "MiB/op"),
    ("checl.handle_translations", "count/op"),
    ("clkernels.launches", "count/op"),
    ("blcr.dump_mib", "MiB"),
    ("blcr.dedup.chunks_total", "count"),
    ("blcr.dedup.hit_frac", "frac"),
    ("blcr.dedup.region_clean_frac", "frac"),
    ("blcr.dedup.stored_per_raw", "frac"),
    ("osproc.fs.mib_written", "MiB/op"),
    ("osproc.fs.mib_read", "MiB/op"),
    ("osproc.fs.writes", "count/op"),
    ("osproc.fs.reads", "count/op"),
    ("osproc.memimage.encode_mib_per_s", "MiB/s"),
    ("osproc.memimage.decode_mib_per_s", "MiB/s"),
    ("blcr.stream.parse_mib_per_s", "MiB/s"),
    ("blcr.cdc.mib_per_s", "MiB/s"),
    ("blcr.compress.mib_per_s", "MiB/s"),
    ("simcore.fnv.mib_per_s", "MiB/s"),
    ("clspec.sig.parse_mib_per_s", "MiB/s"),
    ("fleet.sched_events", "count/op"),
    ("fleet.sched_ops_per_event", "count"),
    ("fleet.preemptions", "count/op"),
    ("fleet.migrations_cold", "count/op"),
    ("fleet.migrations_live", "count/op"),
    ("fleet.generations", "count/op"),
    ("fleet.gang_jobs", "count/op"),
    ("fleet.audit_s", "s"),
    ("simcore.obs.events", "count/op"),
    ("trace.overhead_frac", "frac"),
    ("trace.op_ms_p50", "ms"),
    ("failed_frac", "frac"),
];

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The workload whose pass measured it.
    pub source: Kind,
}

/// Everything one invocation produced.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// Run `kind` for `seconds`, untraced (end-to-end metrics) or traced
/// (per-layer metrics).
pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    if traced {
        run_traced(kind, seed, seconds)
    } else {
        run_untraced(kind, seed, seconds)
    }
}

fn digest_check(kind: Kind, seed: u64, digest: Option<u64>, notes: &mut Vec<String>) -> bool {
    let Some(digest) = digest else {
        notes.push("no virtual-clock digest: the first block did not run".into());
        return false;
    };
    notes.push(format!("virtual-clock digest (first block): {digest:016x}"));
    if seed != DEFAULT_SEED {
        return true;
    }
    let pinned = kind.pinned_digest();
    let ok = digest == pinned;
    if !ok {
        notes.push(format!(
            "DIGEST MISMATCH: pinned {pinned:016x} for seed {DEFAULT_SEED}; the model changed"
        ));
    }
    ok
}

fn run_untraced(kind: Kind, seed: u64, seconds: f64) -> Result<Report, String> {
    // Set up at least three times and for at least two seconds, so
    // that a set-up of a few milliseconds still reports a steady median.
    let mut setups = Vec::new();
    let mut w = None;
    while setups.len() < SETUP_REPS || setups.iter().sum::<f64>() < SETUP_MIN_SECS {
        let t = Instant::now();
        let built = kind.setup(seed)?;
        setups.push(t.elapsed().as_secs_f64());
        w = Some(built);
    }
    let mut w = w.ok_or("no set-up ran")?;
    let mut tr = Tracer::new(false);
    let mut acc = Acc::default();
    // Fill the caches and the allocator's heap before timing. The
    // warm-up's outcomes still count, so a failure there is not lost.
    let warm = run_pass(w.as_mut(), &mut tr, &mut acc, 0, Stop::Warm(WARMUP_SECS));
    let p = run_pass(w.as_mut(), &mut tr, &mut acc, 0, Stop::Seconds(seconds));
    let (attempted, failed) = (p.attempted + warm.attempted, p.failed + warm.failed);
    let mut notes = vec![format!(
        "{}: {} ops in {} blocks, {:.2} s measured after {} warm-up ops; {} set-ups, median {:.4} s",
        kind.name(),
        p.op_ms.len(),
        p.blocks,
        p.wall_s(),
        warm.op_ms.len(),
        setups.len(),
        median(&setups)
    )];
    let digest_ok = digest_check(kind, seed, p.digest, &mut notes);
    let values = [
        median(&setups),
        ratio(p.units as f64, p.wall_s()),
        quantile(&p.op_ms, 0.5),
        quantile(&p.op_ms, 0.9),
        stats::peak_rss_mib(),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name,
            unit,
            value,
            source: kind,
        })
        .collect();
    notes.push(format!(
        "failed_frac {} ({failed} of {attempted} attempted)",
        ratio(failed as f64, attempted as f64),
    ));
    Ok(Report {
        correct: failed == 0 && digest_ok,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// A traced pass of one workload and the per-layer metrics it yields.
struct Traced {
    kind: Kind,
    untraced: Option<Pass>,
    pass: Pass,
    metrics: BTreeMap<&'static str, f64>,
    tracer: Tracer,
    replay: Vec<replay::Figure>,
}

impl Traced {
    fn attempted(&self) -> u64 {
        self.pass.attempted + self.untraced.as_ref().map_or(0, |p| p.attempted)
    }

    fn failed(&self) -> u64 {
        self.pass.failed + self.untraced.as_ref().map_or(0, |p| p.failed)
    }
}

/// Set up `kind` and trace its first block. With `untraced_seconds`,
/// keep going block by block until the untraced copies have run that
/// long: each block runs once untraced and once traced, the two in
/// alternating order, so both passes see the same warm-up and the
/// same drift in machine load. Then run the reference work and derive
/// the layer metrics.
fn traced_pass(kind: Kind, seed: u64, untraced_seconds: Option<f64>) -> Result<Traced, String> {
    let mut w = kind.setup(seed)?;
    let mut tr = Tracer::new(true);
    let mut acc = Acc::default();
    let mut untraced_acc = Acc::default();
    let mut untraced = None;
    let pass = match untraced_seconds {
        None => run_pass(w.as_mut(), &mut tr, &mut acc, 0, Stop::Blocks(1)),
        Some(secs) => {
            let (mut traced, mut plain) = (Pass::default(), Pass::default());
            let mut off = Tracer::new(false);
            let mut b = 0;
            while b == 0 || plain.wall_s() < secs {
                let traced_first = b % 2 == 1;
                for on in [traced_first, !traced_first] {
                    if on {
                        traced.extend(run_pass(w.as_mut(), &mut tr, &mut acc, b, Stop::Blocks(1)));
                    } else {
                        let p =
                            run_pass(w.as_mut(), &mut off, &mut untraced_acc, b, Stop::Blocks(1));
                        plain.extend(p);
                    }
                }
                b += 1;
            }
            untraced = Some(plain);
            traced
        }
    };
    let samples = if untraced.is_some() {
        &untraced_acc
    } else {
        &acc
    };
    let replay = if kind == Kind::CprCycle {
        replay::replay(&acc)
    } else {
        Vec::new()
    };
    let metrics = layer_metrics(kind, untraced.as_ref(), &pass, &acc, samples, &tr, &replay);
    Ok(Traced {
        kind,
        untraced,
        pass,
        metrics,
        tracer: tr,
        replay,
    })
}

fn layer_metrics(
    kind: Kind,
    untraced: Option<&Pass>,
    p: &Pass,
    acc: &Acc,
    samples: &Acc,
    tr: &Tracer,
    figures: &[replay::Figure],
) -> BTreeMap<&'static str, f64> {
    let st = tr.self_times();
    let ops = p.op_ms.len().max(1) as f64;
    let self_ms = |name: &str| st.get(name).map_or(0.0, |s| s.ms());
    let per_call = |name: &str| st.get(name).map_or(0.0, |s| ratio(s.ms(), s.calls as f64));
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    if kind != Kind::Fleet {
        m.insert("workloads.launch_ms", self_ms("workloads.launch") / ops);
        m.insert("workloads.run_ms", self_ms("workloads.run") / ops);
        m.insert("checl.kill_ms", self_ms("checl.kill") / ops);
        m.insert(
            "checl.forwarded_calls",
            acc.count("checl.forwarded_calls") / ops,
        );
        m.insert("checl.ipc_mib", acc.count("checl.ipc_bytes") / MIB / ops);
        m.insert(
            "checl.handle_translations",
            acc.count("checl.handle_translations") / ops,
        );
        m.insert("clkernels.launches", acc.count("clkernels.launches") / ops);
    }
    match kind {
        Kind::CprCycle => {
            for (span, metric) in cpr::SNAPSHOT_SPANS.into_iter().zip(cpr::SNAPSHOT_METRICS) {
                m.insert(metric, per_call(span));
            }
            m.insert("checl.live_drain_ms", per_call("checl.live_drain"));
            m.insert(
                "checl.restore_ms.same_vendor",
                per_call("checl.restore.same_vendor"),
            );
            m.insert(
                "checl.restore_ms.cross_vendor",
                per_call("checl.restore.cross_vendor"),
            );
            m.insert("ckpt_ms_p50", quantile(samples.samples("ckpt"), 0.5));
            m.insert("ckpt_ms_p90", quantile(samples.samples("ckpt"), 0.9));
            m.insert("restart_ms_p50", quantile(samples.samples("restart"), 0.5));
            m.insert("restart_ms_p90", quantile(samples.samples("restart"), 0.9));
            m.insert(
                "blcr.dump_mib",
                ratio(acc.count("blcr.dump_bytes"), acc.count("blcr.dumps")) / MIB,
            );
            let chunks = acc.count("blcr.dedup.chunks_total");
            m.insert(
                "blcr.dedup.chunks_total",
                ratio(chunks, acc.count("blcr.dedup.dumps")),
            );
            m.insert(
                "blcr.dedup.hit_frac",
                ratio(acc.count("blcr.dedup.chunks_deduped"), chunks),
            );
            m.insert(
                "blcr.dedup.region_clean_frac",
                ratio(acc.count("blcr.dedup.chunks_region_clean"), chunks),
            );
            m.insert(
                "blcr.dedup.stored_per_raw",
                ratio(
                    acc.count("blcr.dedup.stored_bytes"),
                    acc.count("blcr.dedup.raw_bytes"),
                ),
            );
            m.insert(
                "osproc.fs.mib_written",
                acc.count("osproc.fs.bytes_written") / MIB / ops,
            );
            m.insert(
                "osproc.fs.mib_read",
                acc.count("osproc.fs.bytes_read") / MIB / ops,
            );
            m.insert("osproc.fs.writes", acc.count("osproc.fs.writes") / ops);
            m.insert("osproc.fs.reads", acc.count("osproc.fs.reads") / ops);
            for f in figures {
                m.insert(f.metric, f.mib_per_s);
            }
        }
        Kind::AppRun => {
            let native = (self_ms("native.launch") + self_ms("native.run")) / ops;
            let checl = (self_ms("workloads.launch") + self_ms("workloads.run")) / ops;
            m.insert("native.run_ms", native);
            m.insert("checl.forward_overhead_ms", checl - native);
        }
        Kind::Fleet => {
            for name in [
                "fleet.sched_events",
                "fleet.preemptions",
                "fleet.migrations_cold",
                "fleet.migrations_live",
                "fleet.generations",
                "fleet.gang_jobs",
            ] {
                m.insert(name, acc.count(name) / ops);
            }
            m.insert(
                "fleet.sched_ops_per_event",
                ratio(
                    acc.count("fleet.sched_ops"),
                    acc.count("fleet.sched_events"),
                ),
            );
            m.insert("fleet.audit_s", acc.count("fleet.audit_s"));
        }
    }
    m.insert("simcore.obs.events", p.obs_events as f64 / ops);
    m.insert("trace.op_ms_p50", median(&p.op_ms));
    m.insert("failed_frac", ratio(p.failed as f64, p.attempted as f64));
    if let Some(u) = untraced {
        m.insert("trace.overhead_frac", p.wall_s() / u.wall_s() - 1.0);
    }
    m
}

fn run_traced(kind: Kind, seed: u64, seconds: f64) -> Result<Report, String> {
    let main = traced_pass(kind, seed, Some(seconds / 2.0))?;
    let untraced = main.untraced.as_ref().ok_or("untraced pass missing")?;
    let traced = &main.pass;
    let mut notes = Vec::new();
    let same_model = traced.digest == untraced.digest;
    if !same_model {
        notes.push("DIGEST MISMATCH between the traced and the untraced pass".into());
    }
    notes.push(format!(
        "{}: untraced {} ops in {:.2} s, traced {} ops in {:.2} s",
        kind.name(),
        untraced.op_ms.len(),
        untraced.wall_s(),
        traced.op_ms.len(),
        traced.wall_s()
    ));
    // The self times of an op's spans sum to its root span; the roots
    // must cover the op times the pass measured around each call.
    let span_ms: f64 = main
        .tracer
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name.starts_with("op."))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .sum();
    notes.push(format!(
        "span self times sum to {span_ms:.1} ms = {:.4} of the traced op time; \
         op_ms p50 untraced {:.3}, traced {:.3}, ratio {:.4}; trace.overhead_frac {:.4}",
        span_ms / (traced.wall_s() * 1e3),
        median(&untraced.op_ms),
        median(&traced.op_ms),
        median(&traced.op_ms) / median(&untraced.op_ms),
        traced.wall_s() / untraced.wall_s() - 1.0
    ));
    attribution(&main, &mut notes);
    write_spans(kind, seed, &main.tracer, &mut notes);

    // Layer metrics the named workload never exercises come from a
    // one-block traced pass of the workload that does.
    let mut passes = vec![main];
    for home in Kind::ALL {
        if home != kind {
            passes.push(traced_pass(home, seed, None)?);
        }
    }
    let mut correct = same_model;
    for t in &passes {
        notes.push(format!("{} pass:", t.kind.name()));
        correct &= digest_check(t.kind, seed, t.pass.digest, &mut notes);
    }
    for f in passes.iter().flat_map(|t| &t.replay) {
        notes.push(format!(
            "{:<36} {:>10.1} MiB/s  (computed from input size: {} bytes x {} calls)",
            f.metric, f.mib_per_s, f.bytes, f.calls
        ));
    }
    let mut metrics = Vec::new();
    for (name, unit) in PER_LAYER {
        let found = passes
            .iter()
            .find_map(|t| t.metrics.get(name).map(|&v| (v, t.kind)));
        let (value, source) = found.ok_or_else(|| format!("no pass measured {name}"))?;
        metrics.push(Metric {
            name,
            unit,
            value,
            source,
        });
    }
    let attempted = passes.iter().map(Traced::attempted).sum();
    let failed = passes.iter().map(Traced::failed).sum();
    Ok(Report {
        correct: correct && failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// The per-layer table: self time per span name, per op and as a
/// share of all op time.
fn attribution(t: &Traced, notes: &mut Vec<String>) {
    let st = t.tracer.self_times();
    let ops = st
        .iter()
        .filter(|(n, _)| n.starts_with("op."))
        .map(|(_, s)| s.calls)
        .sum::<u64>()
        .max(1) as f64;
    let op_total: f64 = {
        let spans = t.tracer.spans();
        spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name.starts_with("op."))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum()
    };
    notes.push(format!(
        "{:<32} {:>8} {:>12} {:>10} {:>8}",
        "span (self time)", "calls", "total ms", "ms/op", "share"
    ));
    for (name, s) in &st {
        notes.push(format!(
            "{:<32} {:>8} {:>12.2} {:>10.3} {:>7.1}%",
            name,
            s.calls,
            s.ms(),
            s.ms() / ops,
            100.0 * ratio(s.ms(), op_total)
        ));
    }
}

fn write_spans(kind: Kind, seed: u64, tr: &Tracer, notes: &mut Vec<String>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", kind.name()));
    let written = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tr.to_jsonl()));
    notes.push(match written {
        Ok(()) => format!("spans: {} ({} spans)", path.display(), tr.spans().len()),
        Err(e) => format!("spans not written to {}: {e}", path.display()),
    });
}
