//! `app_run`: full CheCL executions, no checkpoint.
//!
//! Each run launches one of the kernel-heavy and API-chatty catalog
//! apps at scale 0.25 under CheCL, runs it to completion, checks its
//! checksums against a native run of the same script made once in
//! set-up, and kills the session. Kernels, the forward path and the
//! driver do nearly all the work; the snapshot and restore layers do
//! none.

use crate::stats::{block_seed, shuffle, Acc};
use crate::trace::Tracer;
use crate::{native_checksums, OpOutcome, Workload};
use checl::CheclConfig;
use osproc::Cluster;
use simcore::{Fnv64, SplitMix64};
use workloads::{
    workload_by_name, CheclSession, NativeSession, Script, StopCondition, WorkloadCfg,
};

/// Problem scale of every app.
pub const SCALE: f64 = 0.25;

/// The kernel-heavy and API-chatty apps a block runs. oclVectorAdd is
/// left out: at this scale one run takes about 25 times as long as the
/// mean of the others and would dominate every block.
pub const APPS: [&str; 14] = [
    "oclHistogram",
    "oclQuasirandomGenerator",
    "oclRadixSort",
    "oclReduction",
    "oclBlackScholes",
    "oclSortingNetworks",
    "Sort",
    "Triad",
    "Reduction",
    "Stencil2D",
    "QueueDelay",
    "Scan",
    "S3D",
    "MD",
];

struct App {
    name: &'static str,
    script: Script,
    reference: Vec<u64>,
}

pub struct AppRun {
    seed: u64,
    apps: Vec<App>,
    block: Option<(usize, Vec<usize>)>,
}

impl AppRun {
    /// Build the scripts and run each once natively for its reference
    /// checksums.
    pub fn setup(seed: u64) -> Result<AppRun, String> {
        let cfg = WorkloadCfg {
            device_mem: simcore::calib::tesla_c1060_memory(),
            scale: SCALE,
            ..WorkloadCfg::default()
        };
        let mut apps = Vec::new();
        for name in APPS {
            let w =
                workload_by_name(name).ok_or_else(|| format!("{name} is not in the catalog"))?;
            let script = w.script(&cfg);
            let reference = native_checksums(&script, cldriver::vendor::nimbus())
                .map_err(|e| format!("{name} fails natively: {e}"))?;
            apps.push(App {
                name,
                script,
                reference,
            });
        }
        let mut w = AppRun {
            seed,
            apps,
            block: None,
        };
        w.draw(0);
        Ok(w)
    }

    /// Run `i` of the schedule: each block runs every app once, in a
    /// seeded order.
    fn draw(&mut self, i: usize) -> usize {
        let n = self.apps.len();
        let b = i / n;
        if self.block.as_ref().map(|(blk, _)| *blk) != Some(b) {
            let mut rng = SplitMix64::new(block_seed(self.seed, b));
            let mut order: Vec<usize> = (0..n).collect();
            shuffle(&mut order, &mut rng);
            self.block = Some((b, order));
        }
        self.block.as_ref().map_or(0, |(_, order)| order[i % n])
    }

    fn run(&mut self, i: usize, tr: &mut Tracer, acc: &mut Acc) -> Result<u64, String> {
        let idx = self.draw(i);
        let app = &self.apps[idx];
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        tr.enter("workloads.launch");
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            CheclConfig::default(),
            app.script.clone(),
        );
        tr.exit();
        tr.enter("workloads.run");
        let status = s.run(&mut cluster, StopCondition::Completion);
        tr.exit();
        status.map_err(|e| format!("{}: run failed: {e}", app.name))?;
        acc.add_checl_stats(s.lib.stats());
        acc.add("clkernels.launches", s.program.kernels_launched as f64);
        let bit_exact = s.program.checksums == app.reference;
        let mut digest = Fnv64::new();
        digest.update_u64(s.elapsed(&cluster).as_nanos());
        for c in &s.program.checksums {
            digest.update_u64(*c);
        }
        tr.enter("checl.kill");
        s.kill(&mut cluster);
        tr.exit();
        if !bit_exact {
            return Err(format!(
                "{}: checksums differ from the native run",
                app.name
            ));
        }
        Ok(digest.finish())
    }
}

impl Workload for AppRun {
    fn block_len(&self) -> usize {
        self.apps.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer, acc: &mut Acc) -> OpOutcome {
        tr.enter("op.run");
        let r = self.run(i, tr, acc);
        tr.exit();
        OpOutcome::session(r)
    }

    /// Run the same script natively as its own root span, so the
    /// forward path's cost is the CheCL run minus this one.
    fn reference(&mut self, i: usize, tr: &mut Tracer, _acc: &mut Acc) {
        let idx = self.draw(i);
        let app = &self.apps[idx];
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        tr.enter("native.launch");
        let mut s = NativeSession::launch(
            &mut cluster,
            node,
            cldriver::vendor::nimbus(),
            app.script.clone(),
        );
        tr.exit();
        tr.enter("native.run");
        let _ = s.run(&mut cluster, StopCondition::Completion);
        tr.exit();
    }
}
