//! Kernel launches lend device buffers to the engine. These tests pin
//! the copy semantics that lending must keep: every input sees the
//! buffer's pre-launch bytes, the last binding of an aliased `cl_mem`
//! decides what device memory holds afterwards, and a failed launch
//! leaves every buffer present and byte-identical.

use cldriver::vendor::nimbus;
use cldriver::Driver;
use clspec::error::ClError;
use clspec::types::{ArgValue, DeviceType, MemFlags, NDRange, QueueProps};
use clspec::{CommandQueue, Context, Kernel, Mem, Ocl};
use simcore::SimTime;

/// Lanes per test buffer; launches use fewer so the tail must survive.
const LANES: usize = 24;
/// Work items per launch.
const N: u32 = 17;

fn f32s(vals: &[f32]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn lanes(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// A seeded buffer of `LANES` floats plus one odd trailing byte.
fn pattern(seed: u32) -> Vec<u8> {
    let vals: Vec<f32> = (0..LANES as u32)
        .map(|i| 0.5 + ((i * 7 + seed * 13) % 31) as f32 * 0.25)
        .collect();
    let mut bytes = f32s(&vals);
    bytes.push(0xa5 ^ seed as u8);
    bytes
}

struct Rig {
    drv: Driver,
    now: SimTime,
    ctx: Context,
    q: CommandQueue,
}

impl Rig {
    fn new() -> Rig {
        let mut drv = Driver::new(nimbus());
        let mut now = SimTime::ZERO;
        let (ctx, q) = {
            let mut ocl = Ocl::new(&mut drv, &mut now);
            let platforms = ocl.get_platform_ids().unwrap();
            let dev = ocl.get_device_ids(platforms[0], DeviceType::Gpu).unwrap()[0];
            let ctx = ocl.create_context(&[dev]).unwrap();
            let q = ocl
                .create_command_queue(ctx, dev, QueueProps::default())
                .unwrap();
            (ctx, q)
        };
        Rig { drv, now, ctx, q }
    }

    fn ocl(&mut self) -> Ocl<'_> {
        Ocl::new(&mut self.drv, &mut self.now)
    }

    fn buffer(&mut self, bytes: Vec<u8>) -> Mem {
        let (ctx, len) = (self.ctx, bytes.len() as u64);
        self.ocl()
            .create_buffer(
                ctx,
                MemFlags::READ_WRITE | MemFlags::COPY_HOST_PTR,
                len,
                Some(bytes),
            )
            .unwrap()
    }

    fn read(&mut self, m: Mem, len: usize) -> Vec<u8> {
        let q = self.q;
        self.ocl()
            .enqueue_read_buffer(q, m, true, 0, len as u64, &[])
            .unwrap()
            .0
    }

    fn kernel(&mut self, program: &str, name: &str) -> Kernel {
        let ctx = self.ctx;
        let src = clkernels::program_source(program).unwrap().source;
        let mut ocl = self.ocl();
        let prog = ocl.create_program_with_source(ctx, &src).unwrap();
        ocl.build_program(prog, "").unwrap();
        ocl.create_kernel(prog, name).unwrap()
    }

    fn launch(&mut self, k: Kernel, items: u64) -> Result<(), ClError> {
        let q = self.q;
        let mut ocl = self.ocl();
        ocl.enqueue_nd_range(q, k, NDRange::d1(items), None, &[])?;
        ocl.finish(q)
    }
}

/// `lanes[..N]` replaced by `f(i)`, the rest (and the odd byte) kept.
fn with_head(bytes: &[u8], f: impl Fn(usize) -> f32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for i in 0..N as usize {
        out[4 * i..4 * i + 4].copy_from_slice(&f(i).to_le_bytes());
    }
    out
}

#[test]
fn vec_add_with_both_inputs_aliased() {
    let mut rig = Rig::new();
    let (a0, c0) = (pattern(1), pattern(2));
    let (a, c) = (rig.buffer(a0.clone()), rig.buffer(c0.clone()));
    let k = rig.kernel("vector_add", "vec_add");
    let mut ocl = rig.ocl();
    ocl.set_arg_mem(k, 0, a).unwrap();
    ocl.set_arg_mem(k, 1, a).unwrap();
    ocl.set_arg_mem(k, 2, c).unwrap();
    ocl.set_arg_scalar(k, 3, N).unwrap();
    rig.launch(k, N as u64).unwrap();
    let av = lanes(&a0);
    assert_eq!(rig.read(a, a0.len()), a0, "inputs are never written");
    assert_eq!(rig.read(c, c0.len()), with_head(&c0, |i| av[i] + av[i]));
}

#[test]
fn vec_add_with_output_aliasing_an_input_takes_the_result() {
    let mut rig = Rig::new();
    let (a0, b0) = (pattern(3), pattern(4));
    let (a, b) = (rig.buffer(a0.clone()), rig.buffer(b0.clone()));
    let k = rig.kernel("vector_add", "vec_add");
    let mut ocl = rig.ocl();
    ocl.set_arg_mem(k, 0, a).unwrap();
    ocl.set_arg_mem(k, 1, b).unwrap();
    ocl.set_arg_mem(k, 2, a).unwrap();
    ocl.set_arg_scalar(k, 3, N).unwrap();
    rig.launch(k, N as u64).unwrap();
    let (av, bv) = (lanes(&a0), lanes(&b0));
    // The output is the last binding of `a`, so its bytes win.
    assert_eq!(rig.read(a, a0.len()), with_head(&a0, |i| av[i] + bv[i]));
    assert_eq!(rig.read(b, b0.len()), b0);
}

#[test]
fn triad_with_output_bound_again_as_a_later_input_keeps_pre_launch_bytes() {
    let mut rig = Rig::new();
    let (a0, b0) = (pattern(5), pattern(6));
    let (a, b) = (rig.buffer(a0.clone()), rig.buffer(b0.clone()));
    let k = rig.kernel("triad", "triad");
    let mut ocl = rig.ocl();
    ocl.set_arg_mem(k, 0, a).unwrap();
    ocl.set_arg_mem(k, 1, b).unwrap();
    ocl.set_arg_mem(k, 2, a).unwrap();
    ocl.set_arg_scalar(k, 3, 0.75f32).unwrap();
    ocl.set_arg_scalar(k, 4, N).unwrap();
    rig.launch(k, N as u64).unwrap();
    // The later input binding of `a` is what device memory keeps: the
    // kernel's output to the earlier binding is discarded.
    assert_eq!(rig.read(a, a0.len()), a0);
    assert_eq!(rig.read(b, b0.len()), b0);

    // Bound as output and as the last input, triad computes from the
    // pre-launch bytes of `a` and the result is again discarded.
    let c0 = pattern(7);
    let c = rig.buffer(c0.clone());
    let mut ocl = rig.ocl();
    ocl.set_arg_mem(k, 0, c).unwrap();
    ocl.set_arg_mem(k, 1, c).unwrap();
    ocl.set_arg_mem(k, 2, a).unwrap();
    rig.launch(k, N as u64).unwrap();
    assert_eq!(rig.read(c, c0.len()), c0);
    assert_eq!(rig.read(a, a0.len()), a0);
}

#[test]
fn triad_with_output_aliasing_the_last_input_takes_the_result() {
    let mut rig = Rig::new();
    let (a0, b0) = (pattern(8), pattern(9));
    let (a, b) = (rig.buffer(a0.clone()), rig.buffer(b0.clone()));
    let k = rig.kernel("triad", "triad");
    let mut ocl = rig.ocl();
    // Output `b` first, then `a` twice as both inputs.
    ocl.set_arg_mem(k, 0, b).unwrap();
    ocl.set_arg_mem(k, 1, a).unwrap();
    ocl.set_arg_mem(k, 2, a).unwrap();
    ocl.set_arg_scalar(k, 3, 0.5f32).unwrap();
    ocl.set_arg_scalar(k, 4, N).unwrap();
    rig.launch(k, N as u64).unwrap();
    let av = lanes(&a0);
    assert_eq!(
        rig.read(b, b0.len()),
        with_head(&b0, |i| av[i] + 0.5 * av[i])
    );
    assert_eq!(rig.read(a, a0.len()), a0);
}

/// Launch `k` expecting `err`, then check every buffer is still there
/// with exactly its original bytes.
fn assert_failed_launch_moves_nothing(
    rig: &mut Rig,
    k: Kernel,
    items: u64,
    err: ClError,
    bufs: &[(Mem, Vec<u8>)],
) {
    assert_eq!(rig.launch(k, items).unwrap_err(), err);
    for (i, (m, bytes)) in bufs.iter().enumerate() {
        assert_eq!(
            &rig.read(*m, bytes.len()),
            bytes,
            "buffer {i} after {err:?}"
        );
    }
}

#[test]
fn failed_launches_leave_every_buffer_in_place() {
    let mut rig = Rig::new();
    let bufs: Vec<(Mem, Vec<u8>)> = (0..3)
        .map(|s| {
            let bytes = pattern(20 + s);
            (rig.buffer(bytes.clone()), bytes)
        })
        .collect();
    let (a, b, c) = (bufs[0].0, bufs[1].0, bufs[2].0);

    // InvalidKernelArgs: every buffer bound, the count left unset.
    let k = rig.kernel("vector_add", "vec_add");
    let mut ocl = rig.ocl();
    ocl.set_arg_mem(k, 0, a).unwrap();
    ocl.set_arg_mem(k, 1, b).unwrap();
    ocl.set_arg_mem(k, 2, c).unwrap();
    assert_failed_launch_moves_nothing(&mut rig, k, N as u64, ClError::InvalidKernelArgs, &bufs);

    // InvalidArgSize: the engine rejects `n` past the end of the
    // buffers after every buffer has been handed to it.
    let too_many = LANES as u32 + 1;
    rig.ocl().set_arg_scalar(k, 3, too_many).unwrap();
    assert_failed_launch_moves_nothing(
        &mut rig,
        k,
        too_many as u64,
        ClError::InvalidArgSize,
        &bufs,
    );

    // InvalidArgValue at resolution: a 4-byte scalar where the output
    // buffer belongs, after two buffers were already resolved.
    let mut ocl = rig.ocl();
    ocl.set_arg_scalar(k, 3, N).unwrap();
    ocl.set_kernel_arg(k, 2, ArgValue::scalar(1u32)).unwrap();
    assert_failed_launch_moves_nothing(&mut rig, k, N as u64, ClError::InvalidArgValue, &bufs);

    // InvalidArgValue from the engine: the FFT rejects a
    // non-power-of-two length with both buffers already lent.
    let fft = rig.kernel("fft", "fft_radix2");
    let mut ocl = rig.ocl();
    ocl.set_arg_mem(fft, 0, a).unwrap();
    ocl.set_arg_mem(fft, 1, b).unwrap();
    ocl.set_arg_scalar(fft, 2, 12u32).unwrap();
    assert_failed_launch_moves_nothing(&mut rig, fft, 12, ClError::InvalidArgValue, &bufs);

    // The same buffers still launch cleanly afterwards.
    rig.ocl().set_arg_mem(k, 2, c).unwrap();
    rig.launch(k, N as u64).unwrap();
    let (av, bv) = (lanes(&bufs[0].1), lanes(&bufs[1].1));
    assert_eq!(
        rig.read(c, bufs[2].1.len()),
        with_head(&bufs[2].1, |i| av[i] + bv[i])
    );
}
