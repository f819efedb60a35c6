//! Dimension 5: trace packet and end-to-end round-trips.
//!
//! Two layered oracles over `ripple-trace`:
//!
//! * **packet level** — any well-formed packet sequence pushed through
//!   [`PacketWriter`] must decode back to exactly the same sequence.
//!   Random addresses near and far from the previous IP exercise every
//!   compression length of the stateful TIP/FUP encoding;
//! * **trace level** — executing a randomized application, recording the
//!   block trace to bytes with [`record_trace`], and reconstructing it
//!   with [`reconstruct_trace`] must reproduce the block sequence exactly,
//!   on the fresh layout and on a layout relinked after a random
//!   injection plan.
//!
//! Under the decoder sits the address-to-block lookup
//! [`Layout::loc_of_addr`], a binary search over the layout's stored
//! address order. It must agree with the linear scan
//! [`reference::loc_of_addr`] on block starts, mid-block bytes,
//! injected-prefix bytes, function-alignment padding, the segment end and
//! bytes below the base address, both on a fresh [`Layout::new`] and on a
//! layout relinked by [`rewrite`].

use rand::{Rng, SeedableRng, StdRng};
use ripple_program::{
    rewrite, Addr, BlockId, CodeLoc, Injection, InjectionPlan, Layout, LayoutConfig, Program,
};
use ripple_trace::{decode_packets, reconstruct_trace, record_trace, Packet, PacketWriter};
use ripple_workloads::{execute, generate, AppSpec, InputConfig};

use crate::reference;
use crate::shrink::{min_failing_prefix, shrink_list};

const LONG_TNT_BITS: u8 = ripple_trace::LONG_TNT_BITS;

fn gen_packets(seed: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = rng.gen_range(1usize..=40);
    let mut last_addr = 0u64;
    (0..len)
        .map(|_| {
            let roll = rng.gen_range(0u32..100);
            if roll < 10 {
                Packet::Psb
            } else if roll < 15 {
                Packet::End
            } else if roll < 55 {
                let count = rng.gen_range(1u8..=LONG_TNT_BITS);
                // Pre-masked: the writer only stores `count` bits, so the
                // round trip is exact equality only for canonical packets.
                let bits = if count == 64 {
                    rng.next_u64()
                } else {
                    rng.next_u64() & ((1u64 << count) - 1)
                };
                Packet::Tnt { bits, count }
            } else {
                // Mix far jumps (full-width IP payloads) with short hops
                // (maximally compressed payloads).
                let addr = if rng.gen_bool(0.5) {
                    rng.next_u64()
                } else {
                    let delta = rng.gen_range(0u64..=0xffff);
                    last_addr.wrapping_add(delta)
                };
                last_addr = addr;
                if roll < 85 {
                    Packet::Tip {
                        addr: Addr::new(addr),
                    }
                } else {
                    Packet::Fup {
                        addr: Addr::new(addr),
                    }
                }
            }
        })
        .collect()
}

fn packet_violation(packets: &[Packet]) -> Option<String> {
    let mut writer = PacketWriter::new();
    for &p in packets {
        writer.write(p);
    }
    let bytes = writer.into_bytes();
    let decoded = match decode_packets(&bytes) {
        Ok(d) => d,
        Err(e) => return Some(format!("decode failed on writer output: {e}")),
    };
    if decoded != packets {
        let idx = decoded
            .iter()
            .zip(packets.iter())
            .position(|(a, b)| a != b)
            .unwrap_or(decoded.len().min(packets.len()));
        return Some(format!(
            "round trip diverges at packet {idx}: wrote {} packets, decoded {}",
            packets.len(),
            decoded.len()
        ));
    }
    None
}

fn trace_violation(program: &Program, layout: &Layout, blocks: &[BlockId]) -> Option<String> {
    let bytes = record_trace(program, layout, blocks.iter().copied());
    match reconstruct_trace(program, layout, &bytes) {
        Ok(rebuilt) => {
            if rebuilt.blocks() != blocks {
                let idx = rebuilt
                    .blocks()
                    .iter()
                    .zip(blocks.iter())
                    .position(|(a, b)| a != b)
                    .unwrap_or(rebuilt.len().min(blocks.len()));
                Some(format!(
                    "reconstructed trace diverges at block {idx}: recorded {} blocks, rebuilt {} ({} trace bytes)",
                    blocks.len(),
                    rebuilt.len(),
                    bytes.len()
                ))
            } else {
                None
            }
        }
        Err(e) => Some(format!("reconstruction failed: {e}")),
    }
}

/// Checks one packet-level and one trace-level round trip; shrinks the
/// packet list / the block prefix on failure.
pub fn check(seed: u64) -> Result<(), (String, String)> {
    let packets = gen_packets(seed);
    if let Some(message) = packet_violation(&packets) {
        let minimal = shrink_list(&packets, |p| packet_violation(p).is_some());
        let final_message = packet_violation(&minimal).expect("shrunk case still fails");
        let repro = format!(
            "packet list shrunk {} -> {}:\n  {:?}\n  {}",
            packets.len(),
            minimal.len(),
            minimal,
            final_message,
        );
        return Err((message, repro));
    }

    let mut rng = StdRng::seed_from_u64(seed ^ 0x007a_ce0f_u64.rotate_left(17));
    let spec = AppSpec::randomized(rng.next_u64());
    let app = generate(&spec);
    let layout = Layout::new(&app.program, &LayoutConfig::default());
    let budget = rng.gen_range(500u64..=2000);
    let trace = execute(
        &app.program,
        &app.model,
        InputConfig::training(rng.next_u64()),
        budget,
    );
    let label = format!("app {} (spec seed {:#x})", spec.name, spec.seed);

    // Relink after a random plan.
    let n = app.program.num_blocks() as u32;
    let mut plan = InjectionPlan::new();
    for _ in 0..rng.gen_range(1u32..=12) {
        plan.push(Injection {
            cue: BlockId::new(rng.gen_range(0..n)),
            victim: CodeLoc::new(BlockId::new(rng.gen_range(0..n)), 0),
        });
    }
    let relinked = rewrite(&app.program, &layout, &plan);

    let relinked_label = format!("{label}, relinked after {} injections", plan.len());
    for (program, layout, label) in [
        (&app.program, &layout, &label),
        (&relinked.program, &relinked.layout, &relinked_label),
    ] {
        if let Some(message) = lookup_violation(program, layout, &mut rng) {
            return Err((message.clone(), format!("{label}:\n  {message}")));
        }
    }
    if trace.is_empty() {
        return Ok(());
    }
    check_trace(&app.program, &layout, trace.blocks(), &label)?;
    check_trace(
        &relinked.program,
        &relinked.layout,
        trace.blocks(),
        &relinked_label,
    )
}

/// The trace-level round trip; shrinks the block prefix on failure.
fn check_trace(
    program: &Program,
    layout: &Layout,
    blocks: &[BlockId],
    label: &str,
) -> Result<(), (String, String)> {
    let Some(message) = trace_violation(program, layout, blocks) else {
        return Ok(());
    };
    // Prefixes of a recorded walk are themselves recordable walks.
    let len = min_failing_prefix(blocks.len(), |n| {
        trace_violation(program, layout, &blocks[..n]).is_some()
    });
    let final_message =
        trace_violation(program, layout, &blocks[..len]).expect("shrunk case still fails");
    let repro = format!(
        "{label}, trace shrunk {} -> {len} blocks:\n  {:?}\n  {}",
        blocks.len(),
        &blocks[..len],
        final_message,
    );
    Err((message, repro))
}

/// The first address on which [`Layout::loc_of_addr`] disagrees with the
/// linear-scan reference. Probes every block's start, a random byte of
/// its body and of its injected prefix, a random padding byte between
/// each pair of adjacent functions, the segment end, and bytes below the
/// base address.
fn lookup_violation(program: &Program, layout: &Layout, rng: &mut StdRng) -> Option<String> {
    let base = layout.config().base_addr.get();
    let mut probes = vec![
        0,
        base.saturating_sub(rng.gen_range(1u64..=4096)),
        base.saturating_sub(1),
        layout.end().get(),
        layout.end().get() + 1,
    ];
    for b in (0..program.num_blocks() as u32).map(BlockId::new) {
        let start = layout.block_addr(b).get();
        let prefix = layout.addr_of(CodeLoc::new(b, 0)).get() - start;
        probes.push(start);
        probes.push(rng.gen_range(start..layout.block_end(b).get()));
        if prefix > 0 {
            probes.push(rng.gen_range(start..start + prefix));
        }
    }
    for pair in program.functions().windows(2) {
        let (Some(&last), Some(&next)) = (pair[0].blocks().last(), pair[1].blocks().first()) else {
            continue;
        };
        let (gap_lo, gap_hi) = (layout.block_end(last).get(), layout.block_addr(next).get());
        if gap_lo < gap_hi {
            probes.push(rng.gen_range(gap_lo..gap_hi));
        }
    }
    probes.into_iter().map(Addr::new).find_map(|addr| {
        let got = layout.loc_of_addr(addr);
        let want = reference::loc_of_addr(program, layout, addr);
        (got != want)
            .then(|| format!("loc_of_addr({addr:?}) = {got:?}, linear scan finds {want:?}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_hold_on_many_seeds() {
        for seed in 0..48 {
            if let Err((msg, repro)) = check(seed) {
                panic!("seed {seed}: {msg}\n{repro}");
            }
        }
    }

    #[test]
    fn packet_generator_emits_canonical_tnt() {
        for seed in 0..32 {
            for p in gen_packets(seed) {
                if let Packet::Tnt { bits, count } = p {
                    assert!((1..=LONG_TNT_BITS).contains(&count));
                    assert_eq!(bits & !((1u64 << count) - 1), 0);
                }
            }
        }
    }
}
