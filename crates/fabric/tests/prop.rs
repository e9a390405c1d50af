//! Property-based tests of the fabric's conservation and isolation
//! invariants, on the in-tree `optimus-testkit` harness (replay failures
//! with `OPTIMUS_PROP_SEED=<printed seed>`).

use optimus_cci::packet::{AccelId, Tag, UpPacket};
use optimus_fabric::auditor::{AuditVerdict, Auditor, OutboundReq};
use optimus_fabric::mux_tree::{MuxTree, TreeConfig};
use optimus_mem::addr::{Gva, Iova};
use optimus_testkit::gens;
use optimus_testkit::runner::check;
use optimus_testkit::{prop_assert, prop_assert_eq};

/// The multiplexer tree neither drops nor duplicates nor reorders any
/// accelerator's packets, for arbitrary injection schedules.
#[test]
fn mux_tree_conserves_packets() {
    let gen = gens::zip2(
        gens::usize_in(2..9),
        gens::vec_of(
            gens::zip2(gens::usize_in(0..8), gens::u64_in(1..5)),
            1..200,
        ),
    );
    check(
        "mux_tree_conserves_packets",
        &gen,
        |(leaves, schedule): &(usize, Vec<(usize, u64)>)| {
            let leaves = *leaves;
            let mut tree = MuxTree::new(TreeConfig { leaves, arity: 2 });
            let mut injected: Vec<Vec<u32>> = vec![Vec::new(); leaves];
            let mut seq = 0u32;
            let mut now = 0u64;
            let mut received: Vec<Vec<u32>> = vec![Vec::new(); leaves];
            for &(accel, gap) in schedule {
                let a = accel % leaves;
                now += gap;
                if tree.can_accept(a) {
                    tree.inject(
                        a,
                        UpPacket::DmaRead {
                            iova: Iova::new(0),
                            src: AccelId(a as u8),
                            tag: Tag(seq),
                        },
                        now,
                    );
                    injected[a].push(seq);
                    seq += 1;
                }
                tree.step(now);
                while let Some(p) = tree.pop_root(now) {
                    if let UpPacket::DmaRead { src, tag, .. } = p {
                        received[src.0 as usize].push(tag.0);
                    }
                }
            }
            // Drain completely.
            for _ in 0..10_000u64 {
                now += 1;
                tree.step(now);
                while let Some(p) = tree.pop_root(now) {
                    if let UpPacket::DmaRead { src, tag, .. } = p {
                        received[src.0 as usize].push(tag.0);
                    }
                }
            }
            // Per-accelerator: exact same tags, in FIFO order.
            for a in 0..leaves {
                prop_assert_eq!(&received[a], &injected[a], "accel {}", a);
            }
            Ok(())
        },
    );
}

/// Auditor translation is exact for any offset/GVA pair, and DMA verdicts
/// accept exactly the matching accelerator ID.
#[test]
fn auditor_translation_and_identity() {
    let gen = gens::zip4(
        gens::u64_any(),
        gens::u64_any(),
        gens::u8_in(0..8),
        gens::u8_in(0..8),
    );
    check(
        "auditor_translation_and_identity",
        &gen,
        |&(offset, gva, id, probe)| {
            let mut a = Auditor::new(AccelId(id), 0x11000 + id as u64 * 0x1000, 0x1000);
            a.set_offset(offset);
            let pkt = a.translate(OutboundReq {
                gva: Gva::new(gva),
                write: None,
                tag: Tag(1),
            });
            match pkt {
                Ok(UpPacket::DmaRead { iova, src, .. }) => {
                    prop_assert_eq!(iova.raw(), gva.wrapping_add(offset));
                    prop_assert_eq!(src, AccelId(id));
                }
                other => prop_assert!(false, "unexpected {:?}", other),
            }
            let down = optimus_cci::packet::DownPacket::DmaAck {
                dst: AccelId(probe),
                tag: Tag(0),
            };
            let verdict = a.audit(&down);
            if probe == id {
                let delivered = matches!(verdict, AuditVerdict::DeliverDma { .. });
                prop_assert!(delivered);
            } else {
                prop_assert_eq!(verdict, AuditVerdict::NotMine);
            }
            Ok(())
        },
    );
}

/// MMIO range checks: the auditor forwards exactly its own 4 KB page.
#[test]
fn auditor_mmio_window() {
    let gen = gens::zip2(gens::u8_in(0..8), gens::u64_in(0..0x20000));
    check("auditor_mmio_window", &gen, |&(id, addr)| {
        let base = 0x11000 + id as u64 * 0x1000;
        let mut a = Auditor::new(AccelId(id), base, 0x1000);
        let verdict = a.audit(&optimus_cci::packet::DownPacket::MmioWrite { addr, value: 1 });
        let inside = addr >= base && addr < base + 0x1000;
        match verdict {
            AuditVerdict::DeliverMmio { offset, .. } => {
                prop_assert!(inside);
                prop_assert_eq!(offset, addr - base);
            }
            AuditVerdict::NotMine => prop_assert!(!inside),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
        Ok(())
    });
}
