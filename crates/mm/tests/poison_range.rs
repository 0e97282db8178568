//! A strike on a frame no zone owns is refused with a typed action, the way
//! Linux answers `-ENXIO`, and nothing moves: no counter, no trace event,
//! no clock. Such a frame arrives from a caller, from a poison policy
//! installed with `set_poison_policy`, or from a restored snapshot's policy.

use contig_buddy::MachineConfig;
use contig_mm::{FailureAction, System, SystemConfig};
use contig_trace::TraceSession;
use contig_types::{Pfn, PoisonMode, PoisonPolicy};

#[test]
fn a_frame_no_zone_owns_is_refused_before_anything_moves() {
    let mut sys = System::new(SystemConfig::new(MachineConfig::single_node_mib(4)));
    let session = TraceSession::ring(1 << 10);
    sys.set_tracer(session.tracer());
    let outside = Pfn::new(1 << 40);

    let out = sys.memory_failure(outside);
    assert_eq!(out.action, FailureAction::NoSuchFrame);
    assert!(out.victims.is_empty());

    sys.set_poison_policy(PoisonPolicy::new(PoisonMode::Address { pfn: outside, n: 1 }));
    let out = sys.poison_tick().expect("the policy fires on its first tick");
    assert_eq!(out.action, FailureAction::NoSuchFrame);

    assert_eq!(sys.poison_stats().strikes, 0);
    assert_eq!(sys.machine().poisoned_frames(), 0);
    assert_eq!(sys.now_ns(), 0);
    assert!(session.records().is_empty(), "{:?}", session.records());
    assert!(sys.audit().is_clean(), "{}", sys.audit());
}
