//! `cpr_cycle`: checkpoint, kill, restart on the second node, finish.
//!
//! Each cycle draws a catalog app at scale 0.1 and a point of the
//! `CprPolicy` lattice, runs the app to a third of its kernels and
//! checkpoints generation 1, runs to two thirds and checkpoints
//! generation 2, kills the session, restarts generation 2 on the second
//! node — under Crimson for half of the draws, which exercises
//! migration and recompilation — and runs the app to completion. The
//! final checksums must equal a native run of the same script.

use crate::stats::{block_seed, shuffle, Acc};
use crate::trace::Tracer;
use crate::{native_checksums, OpOutcome, Workload};
use checl::{CheclConfig, CprPolicy, RestoreTarget};
use osproc::{Cluster, FsId};
use simcore::{Fnv64, SimDuration, SplitMix64};
use std::time::Instant;
use workloads::{all_workloads, CheclSession, Op, Script, StopCondition, WorkloadCfg};

/// Problem scale of every drawn app.
pub const SCALE: f64 = 0.1;

/// The policy lattice points a cycle draws from, with the label used
/// in span and metric names.
pub const POLICIES: [&str; 5] = ["sequential", "pipelined", "incremental", "dedup", "live"];

fn policy(label: &str) -> CprPolicy {
    match label {
        "sequential" => CprPolicy::sequential(),
        "pipelined" => CprPolicy::pipelined(),
        "incremental" => CprPolicy::pipelined().incremental(true),
        "dedup" => CprPolicy::pipelined().dedup(true),
        _ => CprPolicy::pipelined().live(true),
    }
}

/// Blocks per round: every (policy, vendor) pair once per app.
const ROUND: usize = 10;

/// Span and per-layer metric of the snapshot call, per policy.
pub const SNAPSHOT_SPANS: [&str; 5] = [
    "checl.snapshot.sequential",
    "checl.snapshot.pipelined",
    "checl.snapshot.incremental",
    "checl.snapshot.dedup",
    "checl.snapshot.live",
];
pub const SNAPSHOT_METRICS: [&str; 5] = [
    "checl.snapshot_ms.sequential",
    "checl.snapshot_ms.pipelined",
    "checl.snapshot_ms.incremental",
    "checl.snapshot_ms.dedup",
    "checl.snapshot_ms.live",
];

struct App {
    name: &'static str,
    script: Script,
    launches: u64,
    reference: Vec<u64>,
    crimson: bool,
}

/// One cycle of the schedule.
#[derive(Clone, Copy)]
struct Draw {
    app: usize,
    policy: usize,
    cross_vendor: bool,
}

pub struct CprCycle {
    seed: u64,
    apps: Vec<App>,
    block: Option<(usize, Vec<Draw>)>,
}

fn cfg() -> WorkloadCfg {
    WorkloadCfg {
        device_mem: simcore::calib::tesla_c1060_memory(),
        scale: SCALE,
        ..WorkloadCfg::default()
    }
}

impl CprCycle {
    /// Build the scripts and their native references: every catalog
    /// app with at least three kernel launches, each run natively under
    /// Nimbus (the reference) and under Crimson (which decides whether
    /// the app may restart there).
    pub fn setup(seed: u64) -> Result<CprCycle, String> {
        let cfg = cfg();
        let mut apps = Vec::new();
        for w in all_workloads() {
            let script = w.script(&cfg);
            let launches = script.kernel_launches() as u64;
            if launches < 3 {
                continue;
            }
            let reference = native_checksums(&script, cldriver::vendor::nimbus())
                .map_err(|e| format!("{} fails natively: {e}", w.name))?;
            let crimson = native_checksums(&script, cldriver::vendor::crimson())
                .is_ok_and(|c| c == reference);
            apps.push(App {
                name: w.name,
                script,
                launches,
                reference,
                crimson,
            });
        }
        let mut w = CprCycle {
            seed,
            apps,
            block: None,
        };
        w.draw(0);
        Ok(w)
    }

    /// Cycle `i` of the schedule.
    fn draw(&mut self, i: usize) -> Draw {
        let n = self.apps.len();
        let b = i / n;
        if self.block.as_ref().map(|(blk, _)| *blk) != Some(b) {
            self.block = Some((b, self.deal(b)));
        }
        self.block.as_ref().map_or(
            Draw {
                app: 0,
                policy: 0,
                cross_vendor: false,
            },
            |(_, d)| d[i % n],
        )
    }

    /// The draws of block `b`. A block visits every app once, in a
    /// seeded order. Blocks come in rounds of ten: the seed gives each
    /// app a policy offset and a vendor offset per round, so within a
    /// round every app meets each (policy, vendor) pair exactly once,
    /// and every block deals the five policies and the vendor switch
    /// evenly. Runs of different seeds thus measure the same mix.
    fn deal(&self, b: usize) -> Vec<Draw> {
        let n = self.apps.len();
        let (round, k) = (b / ROUND, b % ROUND);
        let mut rng = SplitMix64::new(block_seed(!self.seed, round));
        let mut policy_off: Vec<usize> = (0..n).map(|j| j % POLICIES.len()).collect();
        shuffle(&mut policy_off, &mut rng);
        let mut vendor_off: Vec<usize> = (0..n).map(|j| j % 2).collect();
        shuffle(&mut vendor_off, &mut rng);
        let mut order: Vec<usize> = (0..n).collect();
        shuffle(&mut order, &mut SplitMix64::new(block_seed(self.seed, b)));
        order
            .into_iter()
            .map(|app| Draw {
                app,
                policy: (policy_off[app] + k) % POLICIES.len(),
                cross_vendor: self.apps[app].crimson && (vendor_off[app] + k).is_multiple_of(2),
            })
            .collect()
    }

    fn cycle(&mut self, i: usize, tr: &mut Tracer, acc: &mut Acc) -> Result<u64, String> {
        let d = self.draw(i);
        let app = &self.apps[d.app];
        let label = POLICIES[d.policy];
        let pol = policy(label);
        let mut digest = Fnv64::new();
        let mut cluster = Cluster::with_standard_nodes(2);
        let nodes = cluster.node_ids();

        tr.enter("workloads.launch");
        let mut s = CheclSession::launch(
            &mut cluster,
            nodes[0],
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
            app.script.clone(),
        );
        tr.exit();
        if tr.is_on() {
            for op in &app.script.ops {
                if let Op::CreateProgram { name, .. } = op {
                    acc.sources.insert(name.clone());
                }
            }
        }

        let k1 = (app.launches / 3).max(1);
        let k2 = (2 * app.launches / 3).max(k1 + 1);
        let mut path = String::new();
        for (gen, stop) in [(1, k1), (2, k2)] {
            run(&mut s, &mut cluster, StopCondition::AfterKernel(stop), tr)?;
            let target = format!("/nfs/perfbench/g{gen}.ckpt");
            let (committed, virt, size) =
                snapshot(&mut s, &mut cluster, &target, d.policy, &pol, tr, acc)?;
            digest.update_u64(virt.as_nanos());
            digest.update_u64(size);
            path = committed;
        }
        acc.add_checl_stats(s.lib.stats());
        if tr.is_on() {
            // Keep the largest dump per policy for the layer replay.
            let kept = acc.dumps.get(label).map_or(0, Vec::len);
            if let Some(bytes) = cluster.peek_file_on(nodes[0], &path) {
                if bytes.len() > kept {
                    acc.dumps.insert(label, bytes.to_vec());
                }
            }
        }
        tr.enter("checl.kill");
        s.kill(&mut cluster);
        tr.exit();

        let (vendor, span) = if d.cross_vendor {
            (cldriver::vendor::crimson(), "checl.restore.cross_vendor")
        } else {
            (cldriver::vendor::nimbus(), "checl.restore.same_vendor")
        };
        let t = Instant::now();
        tr.enter(span);
        let restored = CheclSession::restart_pipelined(
            &mut cluster,
            nodes[1],
            &path,
            vendor,
            RestoreTarget::default(),
        );
        tr.exit();
        acc.sample("restart", t.elapsed().as_secs_f64() * 1e3);
        let mut r = restored.map_err(|e| format!("{}: restart failed: {e}", app.name))?;
        run(&mut r, &mut cluster, StopCondition::Completion, tr)?;
        acc.add_checl_stats(r.lib.stats());
        // The restored counter resumes from the cut, so it counts the
        // whole cycle's launches.
        acc.add("clkernels.launches", r.program.kernels_launched as f64);
        let bit_exact = r.program.checksums == app.reference;
        digest.update_u64(r.elapsed(&cluster).as_nanos());
        for c in &r.program.checksums {
            digest.update_u64(*c);
        }
        tr.enter("checl.kill");
        r.kill(&mut cluster);
        tr.exit();
        add_fs_stats(&cluster, acc);
        if !bit_exact {
            return Err(format!(
                "{} ({label}): restored run is not bit-exact",
                app.name
            ));
        }
        Ok(digest.finish())
    }
}

fn run(
    s: &mut CheclSession,
    cluster: &mut Cluster,
    stop: StopCondition,
    tr: &mut Tracer,
) -> Result<(), String> {
    tr.enter("workloads.run");
    let r = s.run(cluster, stop);
    tr.exit();
    r.map(|_| ()).map_err(|e| format!("run failed: {e}"))
}

/// Commit one generation under `pol`: the snapshot call, plus the
/// drain for a live policy. Returns the committed path, the dump's
/// virtual-clock cost and its file size.
fn snapshot(
    s: &mut CheclSession,
    cluster: &mut Cluster,
    path: &str,
    idx: usize,
    pol: &CprPolicy,
    tr: &mut Tracer,
    acc: &mut Acc,
) -> Result<(String, SimDuration, u64), String> {
    let t = Instant::now();
    tr.enter(SNAPSHOT_SPANS[idx]);
    let out = s.checkpoint_with_policy(cluster, path, pol);
    tr.exit();
    let out = out.map_err(|e| format!("snapshot failed: {e}"))?;
    let committed = if pol.live {
        tr.enter("checl.live_drain");
        let drained = s.complete_live_drain(cluster);
        tr.exit();
        let drained = drained
            .map_err(|e| format!("live drain failed: {e}"))?
            .ok_or("live snapshot parked no drain")?;
        (
            drained.path,
            drained.stall.total() + drained.drain_wall,
            drained.file_size.as_u64(),
        )
    } else {
        (out.path, out.report.total(), out.report.file_size.as_u64())
    };
    acc.sample("ckpt", t.elapsed().as_secs_f64() * 1e3);
    acc.add("blcr.dumps", 1.0);
    acc.add("blcr.dump_bytes", committed.2 as f64);
    if let Some(dd) = out.report.dedup {
        acc.add("blcr.dedup.dumps", 1.0);
        acc.add("blcr.dedup.chunks_total", dd.chunks_total as f64);
        acc.add("blcr.dedup.chunks_deduped", dd.chunks_deduped as f64);
        acc.add(
            "blcr.dedup.chunks_region_clean",
            dd.chunks_region_clean as f64,
        );
        acc.add("blcr.dedup.raw_bytes", dd.raw_bytes as f64);
        acc.add("blcr.dedup.stored_bytes", dd.stored_bytes as f64);
    }
    Ok(committed)
}

/// Add the I/O counters of every filesystem mounted in `cluster`.
pub fn add_fs_stats(cluster: &Cluster, acc: &mut Acc) {
    let mut seen: Vec<FsId> = Vec::new();
    for node in cluster.node_ids() {
        for &fs in cluster.node(node).mounts.values() {
            if seen.contains(&fs) {
                continue;
            }
            seen.push(fs);
            let st = cluster.fs(fs).stats();
            acc.add("osproc.fs.bytes_written", st.bytes_written as f64);
            acc.add("osproc.fs.bytes_read", st.bytes_read as f64);
            acc.add("osproc.fs.writes", st.writes as f64);
            acc.add("osproc.fs.reads", st.reads as f64);
        }
    }
}

impl Workload for CprCycle {
    fn block_len(&self) -> usize {
        self.apps.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer, acc: &mut Acc) -> OpOutcome {
        tr.enter("op.cycle");
        let r = self.cycle(i, tr, acc);
        tr.exit();
        OpOutcome::session(r)
    }
}
