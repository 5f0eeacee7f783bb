//! Ablation (§IV-D future work): incremental checkpointing.
//!
//! An iterative BlackScholes run is checkpointed every few kernels,
//! full vs incremental. Its price/strike/expiry inputs are bound
//! through pointer-to-const parameters, so after the first checkpoint
//! the incremental variant only re-saves the written call/put buffers,
//! shrinking both the preprocessing phase and the written file — "as a
//! result of reducing the data written to a checkpoint file, the
//! checkpoint time will be significantly shortened".

use checl::{CheclConfig, CprPolicy};
use checl_bench::{eval_targets, Cell, FigureWriter, TraceSession, HARNESS_SCALE};
use osproc::Cluster;
use workloads::{workload_by_name, CheclSession, StopCondition};

fn main() {
    let trace = TraceSession::from_args();
    let target = &eval_targets()[0];
    // BlackScholes: three const inputs, two written outputs.
    let w = workload_by_name("oclBlackScholes").unwrap();

    let mut fig = FigureWriter::new("ablation_incremental");
    fig.section(
        "Ablation: full vs incremental checkpointing (BlackScholes)",
        &[
            "mode",
            "ckpt#",
            "preproc[s]",
            "write[s]",
            "total[s]",
            "file[MB]",
        ],
    );

    for incremental in [false, true] {
        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let mut s = CheclSession::launch(
            &mut cluster,
            node,
            (target.vendor)(),
            CheclConfig::default(),
            w.script(&target.cfg(HARNESS_SCALE * 8.0)),
        );
        for i in 0..4u64 {
            s.run(&mut cluster, StopCondition::AfterKernel(2 * (i + 1)))
                .unwrap();
            s.persist_program(&mut cluster);
            let path = format!("/local/inc-{incremental}-{i}.ckpt");
            let policy = CprPolicy::sequential().incremental(incremental);
            let report = checl::snapshot(&mut s.lib, &mut cluster, s.pid, &path, &policy)
                .unwrap()
                .report;
            fig.row(vec![
                if incremental { "incremental" } else { "full" }.into(),
                i.into(),
                Cell::secs(report.preprocess),
                Cell::secs(report.write),
                Cell::secs(report.total()),
                Cell::mib(report.file_size),
            ]);
        }
    }
    fig.note(
        "expectation: incremental checkpoints after the first skip the three \
         const input buffers (s, x, t); only the call/put outputs are re-saved, \
         so later files shrink by the input volume",
    );
    fig.finish().unwrap();
    trace.finish().unwrap();
}
