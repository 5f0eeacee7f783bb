//! Content-addressed dedup checkpoint tests: the chunk-store data path
//! must restore bit-exactly at every policy lattice point, cost near
//! zero bytes for unchanged buffers across generations, survive a
//! mid-dump abort without damaging earlier generations, and never leave
//! an incremental reference pointing at a GC-pruned base.

use checl::runtime::ChecLib;
use checl::{boot_checl, CheclConfig, CprPolicy, RecoveryPolicy, RestoreTarget};
use cldriver::vendor::nimbus;
use clspec::types::{DeviceType, MemFlags, NDRange, QueueProps};
use clspec::{Kernel, Mem, Ocl};
use osproc::{Cluster, FaultPlan};
use simcore::fnv1a64;

struct App {
    queue: clspec::CommandQueue,
    a: Mem,
    b: Mem,
    c: Mem,
    kernel: Kernel,
    n: u32,
}

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn build_app(lib: &mut ChecLib, now: &mut simcore::SimTime, n: u32) -> App {
    let mut ocl = Ocl::new(lib, now);
    let platforms = ocl.get_platform_ids().unwrap();
    let devices = ocl.get_device_ids(platforms[0], DeviceType::All).unwrap();
    let ctx = ocl.create_context(&[devices[0]]).unwrap();
    let queue = ocl
        .create_command_queue(ctx, devices[0], QueueProps::default())
        .unwrap();
    let av: Vec<f32> = (0..n).map(|i| i as f32).collect();
    let bv: Vec<f32> = (0..n).map(|i| 10.0 * i as f32).collect();
    let a = ocl
        .create_buffer(
            ctx,
            MemFlags::READ_ONLY | MemFlags::COPY_HOST_PTR,
            (n * 4) as u64,
            Some(f32s(&av)),
        )
        .unwrap();
    let b = ocl
        .create_buffer(
            ctx,
            MemFlags::READ_ONLY | MemFlags::COPY_HOST_PTR,
            (n * 4) as u64,
            Some(f32s(&bv)),
        )
        .unwrap();
    let c = ocl
        .create_buffer(ctx, MemFlags::READ_WRITE, (n * 4) as u64, None)
        .unwrap();
    let src = clkernels::program_source("vector_add").unwrap().source;
    let prog = ocl.create_program_with_source(ctx, &src).unwrap();
    ocl.build_program(prog, "").unwrap();
    let kernel = ocl.create_kernel(prog, "vec_add").unwrap();
    ocl.set_arg_mem(kernel, 0, a).unwrap();
    ocl.set_arg_mem(kernel, 1, b).unwrap();
    ocl.set_arg_mem(kernel, 2, c).unwrap();
    ocl.set_arg_scalar(kernel, 3, n).unwrap();
    App {
        queue,
        a,
        b,
        c,
        kernel,
        n,
    }
}

fn run_kernel_and_read(lib: &mut ChecLib, now: &mut simcore::SimTime, app: &App) -> Vec<u8> {
    let mut ocl = Ocl::new(lib, now);
    ocl.enqueue_nd_range(app.queue, app.kernel, NDRange::d1(app.n as u64), None, &[])
        .unwrap();
    ocl.finish(app.queue).unwrap();
    let (data, _) = ocl
        .enqueue_read_buffer(app.queue, app.c, true, 0, (app.n * 4) as u64, &[])
        .unwrap();
    data
}

/// Read every live buffer's device contents — the state a checkpoint
/// must preserve.
fn device_state_checksum(lib: &mut ChecLib, now: &mut simcore::SimTime, app: &App) -> u64 {
    let mut ocl = Ocl::new(lib, now);
    let mut acc: u64 = 0;
    for m in [app.a, app.b, app.c] {
        let (data, _) = ocl
            .enqueue_read_buffer(app.queue, m, true, 0, (app.n * 4) as u64, &[])
            .unwrap();
        acc ^= fnv1a64(&data);
    }
    acc
}

#[test]
fn dedup_snapshot_restores_bit_exactly() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 14);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    let golden = device_state_checksum(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    let policy = CprPolicy::pipelined().dedup(true);
    let outcome = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/dd.ckpt",
        &policy,
    )
    .unwrap();
    let stats = outcome.report.dedup.expect("dedup policy reports stats");
    assert!(stats.chunks_total > 0, "payload must have been chunked");
    assert!(stats.stored_bytes > 0, "first generation stores novel data");
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);
    drop(booted);

    let (mut lib2, pid2, _) = checl::restore(
        &mut cluster,
        node,
        "/local/dd.ckpt",
        nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    let mut now2 = cluster.process(pid2).clock;
    let after = device_state_checksum(&mut lib2, &mut now2, &app);
    assert_eq!(after, golden, "dedup'd snapshot must restore bit-exactly");
}

#[test]
fn unchanged_buffers_cost_near_zero_bytes_across_generations() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 14);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    let policy = CprPolicy::pipelined().dedup(true);
    let gen0 = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/g0.ckpt",
        &policy,
    )
    .unwrap();
    let s0 = gen0.report.dedup.unwrap();
    assert!(s0.stored_bytes > 0);

    // Nothing touched the buffers: the second generation must dedup
    // every chunk, and dirty-region tracking must prove every chunk
    // clean without rescanning.
    let gen1 = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/g1.ckpt",
        &policy,
    )
    .unwrap();
    let s1 = gen1.report.dedup.unwrap();
    assert_eq!(s1.stored_bytes, 0, "no novel bytes in an unchanged run");
    assert_eq!(s1.chunks_deduped, s1.chunks_total);
    assert_eq!(
        s1.chunks_region_clean, s1.chunks_total,
        "region tracking must prove every chunk clean"
    );
    assert_eq!(s1.compress_ns, 0, "clean chunks skip the hashing pass");

    // A partial write re-dirties only the touched chunks.
    let mut now = cluster.process(app_pid).clock;
    {
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        ocl.enqueue_write_buffer(app.queue, app.a, true, 0, vec![0xA5u8; 512], &[])
            .unwrap();
        ocl.finish(app.queue).unwrap();
    }
    cluster.process_mut(app_pid).clock = now;
    let gen2 = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/g2.ckpt",
        &policy,
    )
    .unwrap();
    let s2 = gen2.report.dedup.unwrap();
    assert!(
        s2.chunks_region_clean > 0,
        "untouched buffers stay region-clean"
    );
    assert!(
        s2.chunks_region_clean < s2.chunks_total,
        "the patched chunk must be rescanned"
    );
    assert!(
        s2.stored_bytes < s0.stored_bytes / 4,
        "a 512-byte patch must not re-store the working set \
         (gen2 stored {} vs gen0 {})",
        s2.stored_bytes,
        s0.stored_bytes
    );
}

#[test]
fn dedup_restores_bit_exactly_across_policy_lattice() {
    // Every lattice point that can carry dedup: {sequential-format
    // streamed-via-dedup | pipelined} × {full | incremental} ×
    // {raw | recovery-hardened}. Each must restore the same device
    // state the baseline preserves.
    simcore::qcheck::qcheck("dedup_policy_lattice_roundtrip", 10, |g| {
        let pipelined = g.bool();
        let incremental = g.bool();
        let recovery = g.bool();
        let n = 1u32 << g.range(10, 13);

        let mut cluster = Cluster::with_standard_nodes(1);
        let node = cluster.node_ids()[0];
        let app_pid = cluster.spawn(node);
        let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
        let mut now = cluster.process(app_pid).clock;
        let app = build_app(&mut booted.lib, &mut now, n);
        let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
        let golden = device_state_checksum(&mut booted.lib, &mut now, &app);
        cluster.process_mut(app_pid).clock = now;

        let mut policy = if pipelined {
            CprPolicy::pipelined()
        } else {
            CprPolicy::sequential()
        }
        .dedup(true)
        .incremental(incremental);
        if recovery {
            policy = policy.with_recovery(RecoveryPolicy::default());
        }
        // Two generations so incremental/dedup interactions are live.
        checl::snapshot(
            &mut booted.lib,
            &mut cluster,
            app_pid,
            "/local/lat0.ckpt",
            &policy,
        )
        .unwrap();
        let outcome = checl::snapshot(
            &mut booted.lib,
            &mut cluster,
            app_pid,
            "/local/lat1.ckpt",
            &policy,
        )
        .unwrap();
        checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
        cluster.kill(app_pid);
        drop(booted);

        let (mut lib2, pid2, _) = checl::restore(
            &mut cluster,
            node,
            &outcome.path,
            nimbus(),
            RestoreTarget::default(),
        )
        .unwrap();
        let mut now2 = cluster.process(pid2).clock;
        let after = device_state_checksum(&mut lib2, &mut now2, &app);
        assert_eq!(
            after,
            golden,
            "policy {} must restore bit-exactly",
            policy.label()
        );
    });
}

#[test]
fn mid_dump_abort_leaves_previous_generation_intact() {
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 13);
    let _ = run_kernel_and_read(&mut booted.lib, &mut now, &app);
    let golden = device_state_checksum(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    let policy = CprPolicy::pipelined().dedup(true);
    checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/keep.ckpt",
        &policy,
    )
    .unwrap();

    // Mutate a buffer so the next generation has novel chunks to write,
    // then make every write fail mid-dump.
    let mut now = cluster.process(app_pid).clock;
    {
        let mut ocl = Ocl::new(&mut booted.lib, &mut now);
        ocl.enqueue_write_buffer(app.queue, app.a, true, 0, vec![0x5Au8; 4096], &[])
            .unwrap();
        ocl.finish(app.queue).unwrap();
    }
    cluster.process_mut(app_pid).clock = now;
    cluster.install_faults(FaultPlan::new(11).fail_next_writes(u32::MAX));
    let doomed = checl::snapshot(
        &mut booted.lib,
        &mut cluster,
        app_pid,
        "/local/doomed.ckpt",
        &policy,
    );
    assert!(
        doomed.is_err(),
        "a dump under total write failure must fail"
    );
    cluster.install_faults(FaultPlan::new(11)); // lift the fault

    // The aborted attempt must not have damaged the committed
    // generation or the chunks it references in the shared store.
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);
    drop(booted);
    let (mut lib2, pid2, _) = checl::restore(
        &mut cluster,
        node,
        "/local/keep.ckpt",
        nimbus(),
        RestoreTarget::default(),
    )
    .unwrap();
    let mut now2 = cluster.process(pid2).clock;
    let after = device_state_checksum(&mut lib2, &mut now2, &app);
    assert_eq!(
        after, golden,
        "previous generation must survive a mid-dump abort"
    );
}

#[test]
fn gc_pruned_base_is_redirtied_not_chased() {
    // The satellite regression: an incremental checkpoint skips a clean
    // buffer because `saved_in` names an earlier generation; when keep-k
    // GC prunes that generation the reference is dead. With the fix,
    // draining `DumpVault::take_retired_paths` into
    // `checl::invalidate_saves` re-dirties the buffer, the next
    // checkpoint re-saves it, and the newest generation stays
    // self-sufficient.
    let mut cluster = Cluster::with_standard_nodes(1);
    let node = cluster.node_ids()[0];
    let app_pid = cluster.spawn(node);
    let mut booted = boot_checl(&mut cluster, app_pid, nimbus(), CheclConfig::default());
    let mut now = cluster.process(app_pid).clock;
    let app = build_app(&mut booted.lib, &mut now, 1 << 12);
    let golden = device_state_checksum(&mut booted.lib, &mut now, &app);
    cluster.process_mut(app_pid).clock = now;

    let policy = CprPolicy::sequential().incremental(true);
    let mut vault = blcr::DumpVault::new("/local/inc", "/nfs/inc", 2);
    // Generation 0 saves everything; generations 1.. skip the clean
    // buffers and reference generation 0. The drain below is the fix
    // under test: without it, the newest generation still references
    // the pruned generation 0 and the restore dies with MissingBase.
    for _ in 0..4 {
        let stage = vault.stage_path();
        let outcome =
            checl::snapshot(&mut booted.lib, &mut cluster, app_pid, &stage, &policy).unwrap();
        vault
            .commit_at(&mut cluster, app_pid, &outcome.path)
            .unwrap();
        for retired in vault.take_retired_paths() {
            checl::invalidate_saves(&mut booted.lib, &retired);
        }
    }
    checl::boot::kill_proxy(&mut cluster, &mut booted.lib);
    cluster.kill(app_pid);
    drop(booted);

    let newest = vault.restore_chain().into_iter().next().unwrap();
    let (mut lib2, pid2, _) = checl::restore(
        &mut cluster,
        node,
        &newest,
        nimbus(),
        RestoreTarget::default(),
    )
    .expect("the newest generation must not chase a pruned base");
    let mut now2 = cluster.process(pid2).clock;
    let after = device_state_checksum(&mut lib2, &mut now2, &app);
    assert_eq!(after, golden, "restore must reproduce the device state");
}
