//! Every kind's bounded catalogue job, run through `Optimus`, matches its
//! `optimus_algo` oracle, and the oracle can fail: one flipped bit makes
//! `check` refuse, and no output region's oracle equals that buffer's
//! initial contents, so a kernel that wrote nothing would fail too.
//!
//! ci.sh runs this suite a second time with `OPTIMUS_NO_FASTFWD=1`, so
//! every kind's `next_event` hint is checked against an oracle both
//! fast-forwarded and stepped per cycle.

use optimus::hypervisor::{Optimus, OptimusConfig};
use optimus_accel::registry::AccelKind;
use optimus_bench::catalog::{self, Fill, Spec, Value};

/// A small bounded job of `kind`.
fn small(kind: AccelKind) -> catalog::Program {
    let units = match kind {
        AccelKind::Sssp => 1024,
        AccelKind::Btc => 20_000,
        AccelKind::Mb | AccelKind::Wild => 2000,
        AccelKind::Ll => 500,
        _ => 1024,
    };
    catalog::program(kind, &Spec { working_set: 1 << 20, ..Spec::bounded(units, 0x0c47) })
}

#[test]
fn every_kind_matches_its_oracle_and_a_flipped_bit_is_refused() {
    for kind in AccelKind::ALL.into_iter().chain([AccelKind::Wild, AccelKind::HcDma]) {
        let job = small(kind);
        let oracle = catalog::oracle(&job).expect("a bounded job has an oracle");
        for (buf, want) in &oracle.regions {
            let mut initial = match &job.buffers[*buf].fill {
                Fill::Bytes(bytes) => bytes.clone(),
                _ => Vec::new(),
            };
            initial.resize(want.len(), 0);
            assert_ne!(&initial, want, "{kind:?}: buffer {buf}'s oracle is its initial contents");
        }
        let mut hv = Optimus::new(OptimusConfig::new(vec![kind]));
        let vm = hv.create_vm("oracle");
        let va = hv.create_vaccel(vm, 0);
        let placed = catalog::apply(&job, &mut hv.guest(va));
        assert!(hv.run_until_done(va, 200_000_000), "{kind:?}: job never ended");
        let mut g = hv.guest(va);
        assert_eq!(catalog::check(&oracle, &placed, &mut g), Ok(()), "{kind:?}");
        let mut wrong = oracle.clone();
        match (wrong.regions.first_mut(), wrong.regs.first_mut()) {
            (Some((_, bytes)), _) => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 1;
            }
            (None, Some((_, Value::Imm(v) | Value::At(_, v)))) => *v ^= 1 << 6,
            (None, None) => panic!("{kind:?}: the oracle checks nothing"),
        }
        assert!(catalog::check(&wrong, &placed, &mut g).is_err(), "{kind:?}: a flipped bit passed");
    }
}
