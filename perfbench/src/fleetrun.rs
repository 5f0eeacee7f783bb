//! `fleet`: the multi-tenant scheduler.
//!
//! Each op is one `run_fleet` of `default_job_mix` on the default 4×4
//! `FleetConfig` with the bit-exact audit on. A fleet of 100 jobs
//! arriving 1.5 ms apart on average is loaded enough that preemption,
//! cold migration and live migration all fire, and small enough that a
//! run measures well over ten fleets.
//!
//! A block is a fixed pool of job mixes, in an order drawn from the
//! seed. A run's peak memory is set by its heaviest fleet and its
//! throughput by the mix of fleets: with fleets drawn freely per seed,
//! both spread by a quarter across seeds. Whole blocks measure the same
//! mixes whatever the seed.

use crate::stats::{block_seed, shuffle, Acc};
use crate::trace::Tracer;
use crate::{native_checksums, OpOutcome, Workload};
use fleet::{default_job_mix, run_fleet, FleetConfig, FleetReport, JobSpec};
use simcore::{Fnv64, SimDuration, SplitMix64};
use std::collections::BTreeSet;
use std::time::Instant;
use workloads::{workload_by_name, WorkloadCfg};

/// Jobs offered per fleet.
pub const JOBS: usize = 100;
/// Mean arrival gap.
pub const GAP: SimDuration = SimDuration::from_micros(1_500);
/// Job mixes in the pool, which is one block.
const POOL: usize = 5;
/// Seed of the pool's mixes (the fleet harness's base seed).
const POOL_SEED: u64 = 20110811;

pub struct Fleet {
    cfg: FleetConfig,
    pool: Vec<Vec<JobSpec>>,
    order: Vec<usize>,
}

impl Fleet {
    /// Build the pool's job mixes, run every distinct (app, scale)
    /// spec once natively — so a spec that cannot run fails set-up, not
    /// a fleet — and order the pool by `seed`.
    pub fn setup(seed: u64) -> Result<Fleet, String> {
        let pool: Vec<Vec<JobSpec>> = (0..POOL)
            .map(|i| default_job_mix(JOBS, block_seed(POOL_SEED, i), GAP))
            .collect();
        let distinct: BTreeSet<(&str, u32)> = pool
            .iter()
            .flatten()
            .map(|s| (s.workload, s.scale_milli))
            .collect();
        for (name, scale_milli) in distinct {
            let cfg = WorkloadCfg {
                device_mem: simcore::calib::tesla_c1060_memory(),
                scale: scale_milli as f64 / 1000.0,
                ..WorkloadCfg::default()
            };
            let script = workload_by_name(name)
                .ok_or_else(|| format!("unknown workload {name}"))?
                .script(&cfg);
            native_checksums(&script, cldriver::vendor::nimbus())
                .map_err(|e| format!("{name} at scale {scale_milli}/1000 fails natively: {e}"))?;
        }
        let mut order: Vec<usize> = (0..POOL).collect();
        shuffle(&mut order, &mut SplitMix64::new(block_seed(seed, 0)));
        Ok(Fleet {
            cfg: FleetConfig::default(),
            pool,
            order,
        })
    }

    /// The job mix of fleet `i`.
    fn specs(&self, i: usize) -> Vec<JobSpec> {
        self.pool[self.order[i % POOL]].clone()
    }

    /// Offered jobs, jobs that completed bit-exact, and the rest —
    /// rejected, stranded, diverged or unverified — as failed.
    fn account(report: &FleetReport, acc: &mut Acc) -> (u64, u64, u64) {
        let offered = report.jobs as u64;
        let good = report.bit_exact_ok.min(report.completed as u64);
        acc.add("fleet.sched_events", report.sched_events as f64);
        acc.add("fleet.sched_ops", report.sched_ops as f64);
        acc.add("fleet.preemptions", report.preemptions as f64);
        acc.add("fleet.migrations_cold", report.migrations_cold as f64);
        acc.add("fleet.migrations_live", report.migrations_live as f64);
        acc.add("fleet.generations", report.generations as f64);
        let gangs = report.outcomes.iter().filter(|o| o.ranks > 1).count();
        acc.add("fleet.gang_jobs", gangs as f64);
        (offered, good, offered.saturating_sub(good))
    }

    fn digest(report: &FleetReport) -> u64 {
        let mut h = Fnv64::new();
        for v in [
            report.jobs as u64,
            report.completed as u64,
            report.rejected as u64,
            report.makespan.as_nanos(),
            report.p50_latency.as_nanos(),
            report.p99_latency.as_nanos(),
            report.preemptions,
            report.migrations_cold,
            report.migrations_live,
            report.generations,
            report.sched_events,
            report.sched_ops,
            report.bit_exact_ok,
            report.slo_attained,
            report.slo_missed,
        ] {
            h.update_u64(v);
        }
        for o in &report.outcomes {
            h.update_u64(o.latency.as_nanos());
            h.update_u64(o.node as u64);
        }
        h.finish()
    }
}

impl Workload for Fleet {
    fn block_len(&self) -> usize {
        POOL
    }

    fn units_per_op(&self) -> u64 {
        JOBS as u64
    }

    fn op(&mut self, i: usize, tr: &mut Tracer, acc: &mut Acc) -> OpOutcome {
        let specs = self.specs(i);
        tr.enter("op.fleet");
        tr.enter("fleet.run_fleet");
        let report = run_fleet(&self.cfg, specs);
        tr.exit();
        tr.exit();
        let (attempted, units, failed) = Fleet::account(&report, acc);
        OpOutcome {
            units,
            attempted,
            failed,
            digest: Fleet::digest(&report),
        }
    }

    /// After fleet 0, time its mix with the audit off and on, back to
    /// back; the difference is the audit's host cost.
    fn reference(&mut self, i: usize, _tr: &mut Tracer, acc: &mut Acc) {
        if i != 0 {
            return;
        }
        let wall = |audit: bool| {
            let cfg = FleetConfig {
                check_bit_exact: audit,
                ..self.cfg.clone()
            };
            let specs = self.specs(0);
            let t = Instant::now();
            std::hint::black_box(run_fleet(&cfg, specs));
            t.elapsed().as_secs_f64()
        };
        let off = wall(false);
        let on = wall(true);
        acc.add("fleet.audit_s", on - off);
    }
}
