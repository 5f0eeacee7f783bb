//! Byte-level pins for every kernel in the engine's registry.
//!
//! Each case runs one kernel on seeded inputs whose buffers are longer
//! than the launch needs: a few spare lanes of raw random bytes past the
//! used range and one trailing byte that does not fill a lane. The test
//! hashes every buffer argument afterwards (FNV-1a 64) and compares it
//! with a pinned value, so any change to what a kernel writes, reads or
//! leaves alone (including the bytes past `n`) fails here.

use clkernels::corpus::all_program_names;
use clkernels::{execute, program_source, ArgData};
use simcore::checksum::Fnv64;

/// Lanes of raw random bytes after every buffer's used range.
const SPARE_LANES: usize = 3;

/// xorshift64* — deterministic and dependency-free.
struct Rng(u64);

impl Rng {
    fn next_u32(&mut self) -> u32 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 32) as u32
    }

    /// A float in `[lo, hi)`, finite and well away from NaN-producing
    /// domains so the pins depend on arithmetic order only.
    fn unit(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (self.next_u32() >> 8) as f32 / 16_777_216.0 * (hi - lo)
    }

    /// Spare lanes plus one odd trailing byte, all raw random bits.
    fn tail(&mut self, out: &mut Vec<u8>) {
        for _ in 0..SPARE_LANES {
            out.extend_from_slice(&self.next_u32().to_le_bytes());
        }
        out.push(self.next_u32() as u8);
    }

    /// A buffer of `lanes` floats in `[lo, hi)` followed by the tail.
    fn f32_buf_in(&mut self, lanes: usize, lo: f32, hi: f32) -> ArgData {
        let mut out = Vec::with_capacity(lanes * 4 + SPARE_LANES * 4 + 1);
        for _ in 0..lanes {
            out.extend_from_slice(&self.unit(lo, hi).to_le_bytes());
        }
        self.tail(&mut out);
        ArgData::Buffer(out)
    }

    /// A buffer of `lanes` floats in `[0.25, 2)` followed by the tail.
    fn f32_buf(&mut self, lanes: usize) -> ArgData {
        self.f32_buf_in(lanes, 0.25, 2.0)
    }

    /// A buffer of `lanes` random `u32`s followed by the tail.
    fn u32_buf(&mut self, lanes: usize) -> ArgData {
        let mut out = Vec::with_capacity(lanes * 4 + SPARE_LANES * 4 + 1);
        for _ in 0..lanes {
            out.extend_from_slice(&self.next_u32().to_le_bytes());
        }
        self.tail(&mut out);
        ArgData::Buffer(out)
    }

    /// `lanes` of NaN and -inf followed by the tail: an output buffer
    /// whose stale contents poison any result computed from them.
    fn poison_buf(&mut self, lanes: usize) -> ArgData {
        let mut out = Vec::with_capacity(lanes * 4 + SPARE_LANES * 4 + 1);
        for i in 0..lanes {
            let v = if i % 2 == 0 {
                f32::NAN
            } else {
                f32::NEG_INFINITY
            };
            out.extend_from_slice(&v.to_le_bytes());
        }
        self.tail(&mut out);
        ArgData::Buffer(out)
    }
}

fn u(v: u32) -> ArgData {
    ArgData::Scalar(v.to_le_bytes().to_vec())
}

fn f(v: f32) -> ArgData {
    ArgData::Scalar(v.to_le_bytes().to_vec())
}

/// `(label, kernel name, args)` for every case, from one seeded stream.
fn cases() -> Vec<(&'static str, String, Vec<ArgData>)> {
    let mut r = Rng(0x9e37_79b9_7f4a_7c15);
    let mut out: Vec<(&'static str, String, Vec<ArgData>)> = Vec::new();
    let mut add = |label: &'static str, name: &str, args: Vec<ArgData>| {
        out.push((label, name.to_string(), args));
    };
    add(
        "vec_add",
        "vec_add",
        vec![r.f32_buf(37), r.f32_buf(37), r.f32_buf(37), u(29)],
    );
    add(
        "triad",
        "triad",
        vec![r.f32_buf(37), r.f32_buf(37), r.f32_buf(37), f(0.75), u(29)],
    );
    add(
        "copy_buf",
        "copy_buf",
        vec![r.f32_buf(37), r.f32_buf(37), u(29)],
    );
    add("null_kernel", "null_kernel", vec![r.f32_buf(5)]);
    add("max_flops", "max_flops", vec![r.f32_buf(37), u(29), u(50)]);
    add(
        "reduce_sum",
        "reduce_sum",
        vec![r.f32_buf(37), r.f32_buf(1), ArgData::Local(64), u(29)],
    );
    add(
        "scan_exclusive",
        "scan_exclusive",
        vec![r.f32_buf(37), r.f32_buf(37), ArgData::Local(64), u(29)],
    );
    add(
        "bitonic_sort/early",
        "bitonic_sort",
        vec![r.u32_buf(37), u(29), u(0), u(0)],
    );
    add(
        "bitonic_sort/late",
        "bitonic_sort",
        vec![r.u32_buf(37), u(29), u(4), u(2)],
    );
    add("radix_sort", "radix_sort", vec![r.u32_buf(50), u(41)]);
    add(
        "transpose",
        "transpose",
        vec![r.f32_buf(35), r.f32_buf(35), u(5), u(7)],
    );
    add(
        "matmul",
        "matmul",
        vec![
            r.f32_buf(15),
            r.f32_buf(20),
            r.f32_buf(12),
            u(3),
            u(4),
            u(5),
        ],
    );
    add(
        "sgemm",
        "sgemm",
        vec![
            r.f32_buf(15),
            r.f32_buf(20),
            r.f32_buf(12),
            u(3),
            u(4),
            u(5),
            f(1.5),
            f(0.5),
        ],
    );
    add(
        "matvec",
        "matvec",
        vec![r.f32_buf(30), r.f32_buf(5), r.f32_buf(6), u(6), u(5)],
    );
    add(
        "black_scholes",
        "black_scholes",
        vec![
            r.f32_buf(13),
            r.f32_buf(13),
            r.f32_buf(13),
            r.f32_buf(13),
            r.f32_buf(13),
            f(0.05),
            f(0.3),
            u(11),
        ],
    );
    add(
        "dot_product",
        "dot_product",
        vec![r.f32_buf(36), r.f32_buf(36), r.f32_buf(9), u(8)],
    );
    for (label, name) in [("conv_rows", "conv_rows"), ("conv_cols", "conv_cols")] {
        add(
            label,
            name,
            vec![r.f32_buf(35), r.f32_buf(35), r.f32_buf(5), u(7), u(5), u(2)],
        );
    }
    // 12x10 is not a whole number of 8x8 blocks: the partial blocks'
    // output lanes are zeroed.
    add(
        "dct8x8",
        "dct8x8",
        vec![r.f32_buf(120), r.f32_buf(120), u(12), u(10)],
    );
    add(
        "dxt_compress",
        "dxt_compress",
        vec![r.f32_buf(45), r.f32_buf(4), u(9), u(5)],
    );
    add(
        "histogram64",
        "histogram64",
        vec![
            r.f32_buf_in(100, -0.5, 1.5),
            r.u32_buf(64),
            ArgData::Local(256),
            u(90),
        ],
    );
    add(
        "mersenne_twister",
        "mersenne_twister",
        vec![r.u32_buf(5), r.f32_buf(30), u(5), u(6)],
    );
    add("quasirandom", "quasirandom", vec![r.f32_buf(37), u(29)]);
    add(
        "fdtd3d",
        "fdtd3d",
        vec![r.f32_buf(60), r.f32_buf(60), u(3), u(4), u(5)],
    );
    add(
        "stencil2d",
        "stencil2d",
        vec![r.f32_buf(30), r.f32_buf(30), u(6), u(5)],
    );
    add(
        "md_forces",
        "md_forces",
        vec![r.f32_buf(60), r.f32_buf(60), u(19), f(1.2)],
    );
    add(
        "fft_radix2",
        "fft_radix2",
        vec![r.f32_buf(16), r.f32_buf(16), u(16)],
    );
    add(
        "cp_potential",
        "cp_potential",
        vec![r.f32_buf(16), r.f32_buf(15), u(4), u(5), u(3)],
    );
    add(
        "mri_fhd",
        "mri_fhd",
        vec![
            r.f32_buf(7),
            r.f32_buf(7),
            r.f32_buf(7),
            r.f32_buf(7),
            r.f32_buf(7),
            r.f32_buf(6),
            r.f32_buf(6),
            r.f32_buf(6),
            r.f32_buf(6),
            r.f32_buf(6),
            u(7),
            u(6),
        ],
    );
    add(
        "mri_q",
        "mri_q",
        vec![
            r.f32_buf(7),
            r.f32_buf(7),
            r.f32_buf(7),
            r.f32_buf(7),
            r.f32_buf(6),
            r.f32_buf(6),
            r.f32_buf(6),
            r.f32_buf(6),
            r.f32_buf(6),
            u(7),
            u(6),
        ],
    );
    add(
        "sampler_scale",
        "sampler_scale",
        vec![r.f32_buf(37), ArgData::Scalar(vec![7; 8]), u(29)],
    );
    add(
        "consume",
        "consume",
        vec![ArgData::Scalar(vec![3; 16]), r.f32_buf(4)],
    );
    add(
        "image_scale",
        "image_scale",
        vec![
            r.f32_buf(35),
            ArgData::Scalar(vec![7; 8]),
            r.f32_buf(35),
            u(5),
            u(6),
        ],
    );
    for (label, name) in [
        ("rate_0", "rate_0"),
        ("rate_13", "rate_13"),
        ("rate_26", "rate_26"),
    ] {
        add(label, name, vec![r.f32_buf(37), r.f32_buf(37), u(29)]);
    }
    // matmul overwrites c without reading it, unlike sgemm.
    add(
        "matmul/stale_output",
        "matmul",
        vec![
            r.f32_buf(15),
            r.f32_buf(20),
            r.poison_buf(12),
            u(3),
            u(4),
            u(5),
        ],
    );
    out
}

/// FNV-1a 64 over every buffer argument, each prefixed by its length.
fn digest(args: &[ArgData]) -> u64 {
    let mut h = Fnv64::new();
    for a in args {
        if let ArgData::Buffer(b) = a {
            h.update(&(b.len() as u64).to_le_bytes());
            h.update(b);
        }
    }
    h.finish()
}

/// Digests of every case's buffers after its launch, pinned from the
/// implementation that decoded whole buffers into fresh vectors.
const PINNED: &[(&str, u64)] = &[
    ("vec_add", 0xea418ccef21cf0c6),
    ("triad", 0x1c43819aaad1916a),
    ("copy_buf", 0x544ef2c86eaca064),
    ("null_kernel", 0x38b3e8d5b9830565),
    ("max_flops", 0x54f4ae0bc2140af2),
    ("reduce_sum", 0x383f864f20736953),
    ("scan_exclusive", 0x2fafb4393e1b095d),
    ("bitonic_sort/early", 0x08a0affcb2df7168),
    ("bitonic_sort/late", 0x5bd3f1a41f571502),
    ("radix_sort", 0xe192a314abf0bb7a),
    ("transpose", 0xd066daacde32ac72),
    ("matmul", 0xbf3b39a780f4bef6),
    ("sgemm", 0xfe7985de7c32204c),
    ("matvec", 0x2dc7ea53e269fadf),
    ("black_scholes", 0x0c266855a6db40e2),
    ("dot_product", 0x44d700f9cbaae025),
    ("conv_rows", 0x6c2344bb8857f50e),
    ("conv_cols", 0xa3ec56bc53f41c1b),
    ("dct8x8", 0xcd7710ee3f3d5c73),
    ("dxt_compress", 0xbfe84c4da1dd46bf),
    ("histogram64", 0x15ee80fb46821ff7),
    ("mersenne_twister", 0x482a9f3b313f784c),
    ("quasirandom", 0xd71abb530e39cc3f),
    ("fdtd3d", 0x46d77f5234b69bfe),
    ("stencil2d", 0x5792343965e3c35b),
    ("md_forces", 0x0c7fc776141715f2),
    ("fft_radix2", 0x1b8b857dc9e6ba84),
    ("cp_potential", 0x99d074667b2970c5),
    ("mri_fhd", 0x2cb6e2825ed817b4),
    ("mri_q", 0x5bc3ae653851a233),
    ("sampler_scale", 0xe2b4e39b55fdc527),
    ("consume", 0x8e3a5a22f2984f0d),
    ("image_scale", 0x442492275828be78),
    ("rate_0", 0x1887606962ee5d36),
    ("rate_13", 0x8e6f585dc82bd317),
    ("rate_26", 0xf218f91918b3fba1),
    ("matmul/stale_output", 0x2f2fec0311373b22),
];

#[test]
fn every_kernel_writes_pinned_bytes() {
    let mut got = Vec::new();
    for (label, name, mut args) in cases() {
        execute(&name, [1, 1, 1], &mut args)
            .unwrap_or_else(|e| panic!("{label}: launch failed: {e}"));
        got.push((label, digest(&args)));
    }
    let report: String = got
        .iter()
        .map(|(l, d)| format!("    (\"{l}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "case list changed:\n{report}");
    for ((label, d), (pl, pd)) in got.iter().zip(PINNED) {
        assert_eq!(label, pl, "case order changed:\n{report}");
        assert_eq!(d, pd, "{label}: output bytes changed:\n{report}");
    }
}

#[test]
fn digest_cases_cover_every_corpus_kernel() {
    let covered: Vec<String> = cases().into_iter().map(|(_, name, _)| name).collect();
    for program in all_program_names() {
        let src = program_source(&program).unwrap().source;
        for decl in src.split("__kernel void").skip(1) {
            let name = decl.trim_start().split('(').next().unwrap().trim();
            let pinned = covered.iter().any(|c| c == name)
                || (name.starts_with("rate_") && covered.iter().any(|c| c.starts_with("rate_")));
            assert!(
                pinned,
                "kernel `{name}` of program `{program}` has no digest case"
            );
        }
    }
}
