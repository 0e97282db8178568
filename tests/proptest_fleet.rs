//! Property tests for the multi-tenant fleet layer: seeded interleavings of
//! tenant traffic, ballooning, KSM scans, and controller ticks must never
//! leave a host frame mapped by two tenants without an exact sharing-registry
//! record, and breaking a merge on write must land the writer on a fresh
//! private frame while the other sharers keep their content.

use std::collections::BTreeMap;

use contig::check::json::{self, Wire};
use contig::check::digest_fleet;
use contig::fleet::{GUEST_VMA_BASE, HOST_VMA_BASE};
use contig::prelude::*;
use contig_types::splitmix64;
use proptest::prelude::*;

/// A one-host fleet sized so tenant writes never exhaust the host: 4 × 2 MiB
/// guests (512 frames each) on a 16 MiB host (4096 frames) leave the ladder
/// reachable through explicit balloon/KSM calls without forcing OOM paths.
fn small_fleet(seed: u64) -> Fleet {
    let mut fleet = Fleet::new(FleetConfig { seed, ..FleetConfig::new(1, 16, 2) });
    for _ in 0..4 {
        fleet.admit().expect("one 16 MiB host admits four 2 MiB tenants");
    }
    fleet
}

/// Host frame of workload page `page` of `id`, if the page is currently
/// guest-mapped and host-backed: guest VA → guest frame → host VA → pfn.
fn host_frame_of(fleet: &Fleet, id: TenantId, page: u64) -> Option<u64> {
    let t = fleet.tenant(id)?;
    let gva = VirtAddr::new(GUEST_VMA_BASE + page * 4096);
    let gtr = t.guest().aspace(t.guest_pid()).page_table().translate(gva).ok()?;
    let gframe = gtr.frame_for(gva).raw();
    let hva = VirtAddr::new(HOST_VMA_BASE + gframe * 4096);
    let host = fleet.hosts()[t.host_idx()].system();
    let htr = host.aspace(t.host_pid()).page_table().translate(hva).ok()?;
    Some(htr.frame_for(hva).raw())
}

/// Independent owners map for host `h`: walks every tenant's host page table
/// (not the fleet's own registry) and collects, per host frame, the
/// `(tenant, gframe)` mappings that point at it.
fn owners_of_host(fleet: &Fleet, h: usize) -> BTreeMap<u64, Vec<(u64, u64)>> {
    let mut owners: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let host = fleet.hosts()[h].system();
    for id in fleet.tenant_ids() {
        let t = fleet.tenant(id).expect("listed tenant is live");
        if t.host_idx() != h {
            continue;
        }
        for m in host.aspace(t.host_pid()).page_table().iter_mappings() {
            for i in 0..m.size.base_pages() {
                let gframe = (m.va.raw() - HOST_VMA_BASE) / 4096 + i;
                owners.entry(m.pte.pfn.raw() + i).or_default().push((id.0, gframe));
            }
        }
    }
    for members in owners.values_mut() {
        members.sort_unstable();
    }
    owners
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded interleavings of writes, reads, discards, balloon traffic,
    /// KSM scans, and controller ticks: afterwards, every host frame mapped
    /// by two or more tenants must carry a sharing record listing exactly
    /// its mappers, every record must describe real multi-mappers, and the
    /// fleet's own audit must come back clean.
    #[test]
    fn interleavings_keep_sharing_registry_exact(seed in 0u64..1_000_000) {
        let mut fleet = small_fleet(seed ^ 0xf1ee);
        let ids = fleet.tenant_ids();
        let pages = fleet.tenant(ids[0]).unwrap().workload_pages();
        let mut rng = seed.wrapping_mul(0x9e37_79b9).wrapping_add(1);
        for _ in 0..160 {
            let id = ids[(splitmix64(&mut rng) % ids.len() as u64) as usize];
            let page = splitmix64(&mut rng) % pages;
            // Small tag pool so KSM scans actually find same-content groups.
            let tag = 1 + splitmix64(&mut rng) % 6;
            match splitmix64(&mut rng) % 100 {
                0..=44 => fleet.tenant_write(id, page, tag).map(|_| ()),
                45..=59 => fleet.tenant_read(id, page).map(|_| ()),
                60..=69 => fleet.tenant_discard(id, page).map(|_| ()),
                70..=79 => {
                    fleet.balloon_inflate_tenant(id, 1 + splitmix64(&mut rng) % 16);
                    Ok(())
                }
                80..=86 => {
                    fleet.balloon_deflate_tenant(id, 1 + splitmix64(&mut rng) % 16);
                    Ok(())
                }
                87..=94 => {
                    fleet.ksm_scan_host(0);
                    Ok(())
                }
                _ => {
                    fleet.step();
                    Ok(())
                }
            }
            .expect("the small fleet never exhausts its host");
        }

        let owners = owners_of_host(&fleet, 0);
        let sharing = fleet.hosts()[0].sharing();
        for (&pfn, members) in &owners {
            let tenants = members.iter().map(|&(t, _)| t).collect::<std::collections::BTreeSet<_>>();
            if members.len() >= 2 {
                let record = sharing.get(&pfn);
                prop_assert_eq!(
                    record,
                    Some(members),
                    "host frame {} mapped {} times (tenants {:?}) needs an exact sharing record",
                    pfn,
                    members.len(),
                    tenants
                );
            } else {
                prop_assert!(
                    !sharing.contains_key(&pfn),
                    "host frame {} is privately mapped but still carries a sharing record",
                    pfn
                );
            }
        }
        for &pfn in sharing.keys() {
            prop_assert!(
                owners.get(&pfn).is_some_and(|m| m.len() >= 2),
                "sharing record for host frame {} has no multi-mapper behind it",
                pfn
            );
        }
        let audit = fleet.audit();
        prop_assert!(audit.is_clean(), "fleet audit must be clean:\n{}", audit);

        // The fleet digest is the hash of exactly the bytes the line-buffer
        // sink collects (sharing registries, balloons and tags populated).
        let snap = fleet.snapshot();
        let line = json::line(|e| snap.enc(e));
        prop_assert_eq!(fnv1a64(line.as_bytes()), digest_fleet(&snap));
        let tree = json::parse(&line).unwrap();
        prop_assert_eq!(tree.to_line(), line);
        // ... and reads back, member for member, from the table that wrote it.
        prop_assert_eq!(json::decode::<FleetSnapshot>(&line, "fleet").unwrap(), snap);
    }

    /// Merge two tenants' same-content pages, then write one of them: the
    /// writer must land on a fresh private host frame, the other tenant must
    /// keep the shared frame and the old content, and the registry record
    /// must dissolve (one mapper left is not a share).
    #[test]
    fn unmerge_on_write_lands_on_fresh_frame(
        seed in 0u64..1_000_000,
        page in 0u64..384,
        tag in 1u64..u64::MAX,
    ) {
        let mut fleet = small_fleet(seed ^ 0x5eed);
        let ids = fleet.tenant_ids();
        let (a, b) = (ids[0], ids[1]);
        fleet.tenant_write(a, page, tag).expect("write a");
        fleet.tenant_write(b, page, tag).expect("write b");
        let (_, merged) = fleet.ksm_scan_host(0);
        prop_assert!(merged >= 1, "equal-tag pages must merge");

        let shared_a = host_frame_of(&fleet, a, page).expect("a backed after merge");
        let shared_b = host_frame_of(&fleet, b, page).expect("b backed after merge");
        prop_assert_eq!(shared_a, shared_b, "merge must land both tenants on one frame");
        prop_assert!(
            fleet.hosts()[0].sharing().contains_key(&shared_a),
            "merged frame {} must be in the sharing registry",
            shared_a
        );

        fleet.tenant_write(a, page, tag ^ 0xdead_beef).expect("diverging write");
        let fresh = host_frame_of(&fleet, a, page).expect("a backed after break");
        let kept = host_frame_of(&fleet, b, page).expect("b backed after break");
        prop_assert_ne!(fresh, shared_a, "writer must leave the shared frame");
        prop_assert_eq!(kept, shared_b, "the non-writer must keep the shared frame");
        prop_assert!(
            !fleet.hosts()[0].sharing().contains_key(&shared_b),
            "a single remaining mapper is not a share; the record must dissolve"
        );
        // The non-writer's content survives the break untouched.
        prop_assert_eq!(fleet.tenant(b).unwrap().tags().get(&page).copied(), Some(tag));
        prop_assert_eq!(
            fleet.tenant(a).unwrap().tags().get(&page).copied(),
            Some(tag ^ 0xdead_beef)
        );
        let audit = fleet.audit();
        prop_assert!(audit.is_clean(), "fleet audit must be clean:\n{}", audit);
    }
}
