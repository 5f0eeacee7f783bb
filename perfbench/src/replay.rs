//! Layer replay: time single public functions of `osproc`, `blcr`,
//! `simcore` and `clspec` on the exact bytes a traced `cpr_cycle` pass
//! produced — one committed dump per policy, the process image inside
//! the sequential dump, and the sources of the programs its apps built.
//!
//! Every throughput is computed from the input size: bytes handed to
//! the function per call, times calls, over host time.

use crate::stats::{Acc, MIB};
use osproc::MemImage;
use simcore::Codec;
use std::hint::black_box;
use std::time::Instant;

/// Least host time and calls per figure.
const MIN_SECS: f64 = 0.1;
const MIN_CALLS: u32 = 3;

/// One replay figure.
pub struct Figure {
    pub metric: &'static str,
    /// Bytes handed to the function per call.
    pub bytes: u64,
    pub calls: u32,
    pub mib_per_s: f64,
}

fn time(metric: &'static str, bytes: u64, mut f: impl FnMut()) -> Figure {
    let t = Instant::now();
    let mut calls = 0u32;
    while calls < MIN_CALLS || t.elapsed().as_secs_f64() < MIN_SECS {
        f();
        calls += 1;
    }
    let secs = t.elapsed().as_secs_f64();
    Figure {
        metric,
        bytes,
        calls,
        mib_per_s: bytes as f64 * calls as f64 / MIB / secs,
    }
}

/// Replay every function on what `acc` captured. Figures whose input
/// is missing (no dump of the needed kind) are left out.
pub fn replay(acc: &Acc) -> Vec<Figure> {
    let mut out = Vec::new();
    let dumps: Vec<&Vec<u8>> = acc.dumps.values().collect();
    let streams: Vec<&Vec<u8>> = dumps
        .iter()
        .copied()
        .filter(|d| blcr::stream::is_stream_file(d))
        .collect();

    // The process image: the host memory inside the sequential dump.
    let image: Option<MemImage> = acc
        .dumps
        .get("sequential")
        .and_then(|d| blcr::sniff_dump(d).ok())
        .map(|d| d.into_image());
    if let Some(image) = &image {
        let encoded = image.to_bytes();
        let n = encoded.len() as u64;
        out.push(time("osproc.memimage.encode_mib_per_s", n, || {
            black_box(image.to_bytes());
        }));
        out.push(time("osproc.memimage.decode_mib_per_s", n, || {
            black_box(MemImage::from_bytes(&encoded).ok());
        }));
        let segments: Vec<&[u8]> = image
            .segment_names()
            .into_iter()
            .filter_map(|name| image.get(name))
            .collect();
        let seg_bytes: u64 = segments.iter().map(|s| s.len() as u64).sum();
        out.push(time("blcr.cdc.mib_per_s", seg_bytes, || {
            for s in &segments {
                black_box(blcr::cdc_chunks(s));
            }
        }));
        let chunks: Vec<&[u8]> = segments
            .iter()
            .flat_map(|s| {
                blcr::cdc_chunks(s)
                    .into_iter()
                    .map(move |(off, len)| &s[off as usize..(off + len) as usize])
            })
            .collect();
        out.push(time("blcr.compress.mib_per_s", seg_bytes, || {
            for c in &chunks {
                black_box(blcr::chunkstore::compress(c));
            }
        }));
    }
    if !streams.is_empty() {
        let n: u64 = streams.iter().map(|s| s.len() as u64).sum();
        out.push(time("blcr.stream.parse_mib_per_s", n, || {
            for s in &streams {
                black_box(blcr::stream::parse_stream(s).ok());
            }
        }));
    }
    if !dumps.is_empty() {
        let n: u64 = dumps.iter().map(|d| d.len() as u64).sum();
        out.push(time("simcore.fnv.mib_per_s", n, || {
            for d in &dumps {
                black_box(simcore::fnv1a64(d));
            }
        }));
    }
    let sources: Vec<String> = acc
        .sources
        .iter()
        .filter_map(|name| clkernels::program_source(name))
        .map(|p| p.source)
        .collect();
    if !sources.is_empty() {
        let n: u64 = sources.iter().map(|s| s.len() as u64).sum();
        out.push(time("clspec.sig.parse_mib_per_s", n, || {
            for s in &sources {
                black_box(clspec::sig::parse_kernel_sigs(s).ok());
            }
        }));
    }
    out
}
