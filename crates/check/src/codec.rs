//! Versioned JSONL snapshot codec.
//!
//! Serializes the plain-data snapshot types exported by `contig-buddy`,
//! `contig-mm`, `contig-virt`, and `contig-tlb` to the [`Json`] value model
//! and back, and wraps them in a two-line JSONL file format:
//!
//! ```text
//! {"format":"contig-snapshot","version":1,"digest":<fnv1a64>}
//! {<payload>}
//! ```
//!
//! The header carries a format version (decoders reject versions they do not
//! understand — the backward-compatibility contract checked by CI against a
//! committed golden file) and the digest of the payload line, so corruption
//! is detected before a restore is attempted.
//!
//! Every encoder emits object members in a fixed order; combined with the
//! integer-only number model this makes the encoding canonical, which is what
//! lets [`crate::digest`] hash the serialized form directly.

use contig_buddy::{
    MachineSnapshot, PcpCounters, PcpSnapshot, ZoneConfig, ZoneCounters, ZoneSnapshot,
};
use contig_mm::{
    CacheAllocMode, DaemonConfig, DaemonPhase, DaemonState, DaemonStats, FaultStatsSnapshot,
    FileCacheSnapshot, LatencyModel, NumaStats, PageCacheSnapshot, ProcessSnapshot, Pte,
    RecoveryConfig, RecoveryStats, SystemSnapshot, VmaSnapshot,
};
use contig_buddy::PoisonCounters;
use contig_mm::PoisonStats;
use contig_tlb::{CacheSnapshot, TlbSnapshot};
use contig_types::{FailMode, FailPolicy, Pfn, PoisonMode, PoisonPolicy};
use contig_virt::VmSnapshot;

use crate::digest::fnv1a64;
use crate::json::{parse, Json};

/// Current snapshot file format version. Version 2 added the optional
/// per-zone `pcp` member (per-CPU frame caches); version 3 added the
/// memory-failure state (per-zone `badframes` + `poison` counters, and the
/// system-level `poison_policy` + `poison_stats`); version 4 added the
/// per-VM `balloon` frame list and KSM `sharing` registry; version 5 added
/// the multi-zone NUMA topology state (per-process `home` node and the
/// system-level `numa_stats` counters); version 6 added the background
/// maintenance daemon's mid-epoch state (the system-level `daemon` member:
/// policy, scan cursors, remaining budget, promotion candidates, backoff
/// RNG, counters). Files from any older version still decode: the absent
/// members mean "no poison, no pcp, empty balloon, nothing KSM-merged, no
/// home nodes, daemon disabled".
pub const SNAPSHOT_VERSION: i128 = 6;
/// Oldest snapshot file format version this decoder still accepts.
pub const SNAPSHOT_MIN_VERSION: i128 = 1;
/// `format` tag of snapshot files.
pub const SNAPSHOT_FORMAT: &str = "contig-snapshot";

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(members.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn pair(a: impl Into<i128>, b: impl Into<i128>) -> Json {
    Json::Arr(vec![Json::num(a), Json::num(b)])
}

fn opt_num(v: Option<impl Into<i128>>) -> Json {
    match v {
        Some(n) => Json::num(n),
        None => Json::Null,
    }
}

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

type DecodeResult<T> = Result<T, String>;

fn field<'a>(v: &'a Json, key: &str) -> DecodeResult<&'a Json> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn get_u64(v: &Json, key: &str) -> DecodeResult<u64> {
    field(v, key)?.as_u64().ok_or_else(|| format!("field `{key}` is not a u64"))
}

fn get_u32(v: &Json, key: &str) -> DecodeResult<u32> {
    u32::try_from(get_u64(v, key)?).map_err(|_| format!("field `{key}` out of u32 range"))
}

fn get_bool(v: &Json, key: &str) -> DecodeResult<bool> {
    field(v, key)?.as_bool().ok_or_else(|| format!("field `{key}` is not a bool"))
}

fn get_arr<'a>(v: &'a Json, key: &str) -> DecodeResult<&'a [Json]> {
    field(v, key)?.as_arr().ok_or_else(|| format!("field `{key}` is not an array"))
}

fn as_u64(v: &Json, what: &str) -> DecodeResult<u64> {
    v.as_u64().ok_or_else(|| format!("{what} is not a u64"))
}

fn decode_pair_u64(v: &Json, what: &str) -> DecodeResult<(u64, u64)> {
    match v.as_arr() {
        Some([a, b]) => Ok((as_u64(a, what)?, as_u64(b, what)?)),
        _ => Err(format!("{what} is not a 2-element array")),
    }
}

// ---------------------------------------------------------------------------
// contig-types: fail injection
// ---------------------------------------------------------------------------

fn fail_mode_to_json(mode: FailMode) -> Json {
    match mode {
        FailMode::Never => obj(vec![("kind", Json::Str("never".into()))]),
        FailMode::Nth { n } => obj(vec![("kind", Json::Str("nth".into())), ("n", Json::num(n))]),
        FailMode::EveryNth { n } => {
            obj(vec![("kind", Json::Str("every_nth".into())), ("n", Json::num(n))])
        }
        FailMode::MinOrder { min_order } => obj(vec![
            ("kind", Json::Str("min_order".into())),
            ("min_order", Json::num(min_order)),
        ]),
        FailMode::Probability { rate_ppm, seed } => obj(vec![
            ("kind", Json::Str("probability".into())),
            ("rate_ppm", Json::num(rate_ppm)),
            ("seed", Json::num(seed)),
        ]),
    }
}

fn fail_mode_from_json(v: &Json) -> DecodeResult<FailMode> {
    let kind = field(v, "kind")?.as_str().ok_or("fail mode kind is not a string")?;
    match kind {
        "never" => Ok(FailMode::Never),
        "nth" => Ok(FailMode::Nth { n: get_u64(v, "n")? }),
        "every_nth" => Ok(FailMode::EveryNth { n: get_u64(v, "n")? }),
        "min_order" => Ok(FailMode::MinOrder { min_order: get_u32(v, "min_order")? }),
        "probability" => Ok(FailMode::Probability {
            rate_ppm: get_u32(v, "rate_ppm")?,
            seed: get_u64(v, "seed")?,
        }),
        other => Err(format!("unknown fail mode `{other}`")),
    }
}

fn fail_policy_to_json(p: &FailPolicy) -> Json {
    obj(vec![
        ("mode", fail_mode_to_json(p.mode())),
        ("attempts", Json::num(p.attempts())),
        ("injected", Json::num(p.injected())),
        ("rng_state", Json::num(p.rng_state())),
    ])
}

fn fail_policy_from_json(v: &Json) -> DecodeResult<FailPolicy> {
    Ok(FailPolicy::restore(
        fail_mode_from_json(field(v, "mode")?)?,
        get_u64(v, "attempts")?,
        get_u64(v, "injected")?,
        get_u64(v, "rng_state")?,
    ))
}

fn poison_mode_to_json(mode: PoisonMode) -> Json {
    match mode {
        PoisonMode::Never => obj(vec![("kind", Json::Str("never".into()))]),
        PoisonMode::Nth { n } => {
            obj(vec![("kind", Json::Str("nth".into())), ("n", Json::num(n))])
        }
        PoisonMode::EveryNth { n } => {
            obj(vec![("kind", Json::Str("every_nth".into())), ("n", Json::num(n))])
        }
        PoisonMode::Address { pfn, n } => obj(vec![
            ("kind", Json::Str("address".into())),
            ("pfn", Json::num(pfn.raw())),
            ("n", Json::num(n)),
        ]),
        PoisonMode::Probability { rate_ppm, seed } => obj(vec![
            ("kind", Json::Str("probability".into())),
            ("rate_ppm", Json::num(rate_ppm)),
            ("seed", Json::num(seed)),
        ]),
    }
}

fn poison_mode_from_json(v: &Json) -> DecodeResult<PoisonMode> {
    let kind = field(v, "kind")?.as_str().ok_or("poison mode kind is not a string")?;
    match kind {
        "never" => Ok(PoisonMode::Never),
        "nth" => Ok(PoisonMode::Nth { n: get_u64(v, "n")? }),
        "every_nth" => Ok(PoisonMode::EveryNth { n: get_u64(v, "n")? }),
        "address" => Ok(PoisonMode::Address {
            pfn: Pfn::new(get_u64(v, "pfn")?),
            n: get_u64(v, "n")?,
        }),
        "probability" => Ok(PoisonMode::Probability {
            rate_ppm: get_u32(v, "rate_ppm")?,
            seed: get_u64(v, "seed")?,
        }),
        other => Err(format!("unknown poison mode `{other}`")),
    }
}

fn poison_policy_to_json(p: &PoisonPolicy) -> Json {
    obj(vec![
        ("mode", poison_mode_to_json(p.mode())),
        ("checks", Json::num(p.checks())),
        ("events", Json::num(p.events())),
        ("rng_state", Json::num(p.rng_state())),
    ])
}

fn poison_policy_from_json(v: &Json) -> DecodeResult<PoisonPolicy> {
    Ok(PoisonPolicy::restore(
        poison_mode_from_json(field(v, "mode")?)?,
        get_u64(v, "checks")?,
        get_u64(v, "events")?,
        get_u64(v, "rng_state")?,
    ))
}

// ---------------------------------------------------------------------------
// contig-buddy: zones and machine
// ---------------------------------------------------------------------------

/// Field order of the [`PoisonCounters`] array encoding.
const POISON_COUNTER_FIELDS: usize = 5;

fn poison_counters_to_json(c: &PoisonCounters) -> Json {
    let counters = [
        c.poisoned,
        c.quarantined_free,
        c.quarantined_pcp,
        c.deferred,
        c.quarantined_on_free,
    ];
    Json::Arr(counters.iter().map(|&c| Json::num(c)).collect())
}

fn poison_counters_from_json(v: &Json) -> DecodeResult<PoisonCounters> {
    let raw = v.as_arr().ok_or("poison counters is not an array")?;
    if raw.len() != POISON_COUNTER_FIELDS {
        return Err(format!("poison counters must have {POISON_COUNTER_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "poison counter");
    Ok(PoisonCounters {
        poisoned: c(0)?,
        quarantined_free: c(1)?,
        quarantined_pcp: c(2)?,
        deferred: c(3)?,
        quarantined_on_free: c(4)?,
    })
}

fn zone_to_json(z: &ZoneSnapshot) -> Json {
    obj(vec![
        (
            "config",
            obj(vec![
                ("base", Json::num(z.config.base.raw())),
                ("frames", Json::num(z.config.frames)),
                ("top_order", Json::num(z.config.top_order)),
                ("sorted_top_list", Json::Bool(z.config.sorted_top_list)),
            ]),
        ),
        (
            "free_lists",
            Json::Arr(
                z.free_lists
                    .iter()
                    .map(|list| Json::Arr(list.iter().map(|&f| Json::num(f)).collect()))
                    .collect(),
            ),
        ),
        (
            "allocated",
            Json::Arr(z.allocated.iter().map(|&(pfn, order)| pair(pfn, order)).collect()),
        ),
        (
            "counters",
            Json::Arr(
                [
                    z.counters.allocs,
                    z.counters.targeted_allocs,
                    z.counters.targeted_misses,
                    z.counters.frees,
                    z.counters.splits,
                    z.counters.coalesces,
                ]
                .iter()
                .map(|&c| Json::num(c))
                .collect(),
            ),
        ),
        ("fail", fail_policy_to_json(&z.fail)),
        ("contig_rover", opt_num(z.contig_rover)),
        ("contig_updates", Json::num(z.contig_updates)),
        (
            "pcp",
            match &z.pcp {
                Some(p) => pcp_to_json(p),
                None => Json::Null,
            },
        ),
        ("badframes", Json::Arr(z.badframes.iter().map(|&f| Json::num(f)).collect())),
        ("poison", poison_counters_to_json(&z.poison)),
    ])
}

fn pcp_to_json(p: &PcpSnapshot) -> Json {
    obj(vec![
        ("cpus", Json::num(p.cpus)),
        ("batch", Json::num(p.batch)),
        ("high", Json::num(p.high)),
        ("current_cpu", Json::num(p.current_cpu)),
        (
            "lists",
            Json::Arr(
                p.lists
                    .iter()
                    .map(|list| Json::Arr(list.iter().map(|&f| Json::num(f)).collect()))
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Arr(
                [
                    p.counters.hits,
                    p.counters.refills,
                    p.counters.refilled_frames,
                    p.counters.drains,
                    p.counters.drained_frames,
                    p.counters.targeted_evictions,
                ]
                .iter()
                .map(|&c| Json::num(c))
                .collect(),
            ),
        ),
    ])
}

fn pcp_from_json(v: &Json) -> DecodeResult<PcpSnapshot> {
    let counters = get_arr(v, "counters")?;
    if counters.len() != 6 {
        return Err("pcp counters must have 6 entries".into());
    }
    let c = |i: usize| as_u64(&counters[i], "pcp counter");
    Ok(PcpSnapshot {
        cpus: get_u64(v, "cpus")?,
        batch: get_u64(v, "batch")?,
        high: get_u64(v, "high")?,
        current_cpu: get_u64(v, "current_cpu")?,
        lists: get_arr(v, "lists")?
            .iter()
            .map(|list| {
                list.as_arr()
                    .ok_or_else(|| "pcp list is not an array".to_string())?
                    .iter()
                    .map(|f| as_u64(f, "pcp frame"))
                    .collect()
            })
            .collect::<DecodeResult<_>>()?,
        counters: PcpCounters {
            hits: c(0)?,
            refills: c(1)?,
            refilled_frames: c(2)?,
            drains: c(3)?,
            drained_frames: c(4)?,
            targeted_evictions: c(5)?,
        },
    })
}

fn zone_from_json(v: &Json) -> DecodeResult<ZoneSnapshot> {
    let cfg = field(v, "config")?;
    let counters = get_arr(v, "counters")?;
    if counters.len() != 6 {
        return Err("zone counters must have 6 entries".into());
    }
    let c = |i: usize| as_u64(&counters[i], "zone counter");
    Ok(ZoneSnapshot {
        config: ZoneConfig {
            base: Pfn::new(get_u64(cfg, "base")?),
            frames: get_u64(cfg, "frames")?,
            top_order: get_u32(cfg, "top_order")?,
            sorted_top_list: get_bool(cfg, "sorted_top_list")?,
        },
        free_lists: get_arr(v, "free_lists")?
            .iter()
            .map(|list| {
                list.as_arr()
                    .ok_or_else(|| "free list is not an array".to_string())?
                    .iter()
                    .map(|f| as_u64(f, "free frame"))
                    .collect()
            })
            .collect::<DecodeResult<_>>()?,
        allocated: get_arr(v, "allocated")?
            .iter()
            .map(|p| {
                let (pfn, order) = decode_pair_u64(p, "allocated block")?;
                Ok((pfn, u32::try_from(order).map_err(|_| "order out of range".to_string())?))
            })
            .collect::<DecodeResult<_>>()?,
        counters: ZoneCounters {
            allocs: c(0)?,
            targeted_allocs: c(1)?,
            targeted_misses: c(2)?,
            frees: c(3)?,
            splits: c(4)?,
            coalesces: c(5)?,
        },
        fail: fail_policy_from_json(field(v, "fail")?)?,
        contig_rover: match field(v, "contig_rover")? {
            Json::Null => None,
            other => Some(as_u64(other, "contig_rover")?),
        },
        contig_updates: get_u64(v, "contig_updates")?,
        // Absent in version-1 files: the pcp layer did not exist yet.
        pcp: match v.get("pcp") {
            None | Some(Json::Null) => None,
            Some(other) => Some(pcp_from_json(other)?),
        },
        // Absent before version 3: no hwpoison, so no quarantined frames.
        badframes: match v.get("badframes") {
            None | Some(Json::Null) => Vec::new(),
            Some(other) => other
                .as_arr()
                .ok_or_else(|| "badframes is not an array".to_string())?
                .iter()
                .map(|f| as_u64(f, "badframe"))
                .collect::<DecodeResult<_>>()?,
        },
        poison: match v.get("poison") {
            None | Some(Json::Null) => PoisonCounters::default(),
            Some(other) => poison_counters_from_json(other)?,
        },
    })
}

fn machine_to_json(m: &MachineSnapshot) -> Json {
    obj(vec![
        ("zones", Json::Arr(m.zones.iter().map(zone_to_json).collect())),
        (
            "reservations",
            Json::Arr(
                m.reservations
                    .iter()
                    .map(|&(owner, start, len)| {
                        Json::Arr(vec![Json::num(owner), Json::num(start), Json::num(len)])
                    })
                    .collect(),
            ),
        ),
        ("reservation_rover", Json::num(m.reservation_rover)),
    ])
}

fn machine_from_json(v: &Json) -> DecodeResult<MachineSnapshot> {
    Ok(MachineSnapshot {
        zones: get_arr(v, "zones")?.iter().map(zone_from_json).collect::<DecodeResult<_>>()?,
        reservations: get_arr(v, "reservations")?
            .iter()
            .map(|r| match r.as_arr() {
                Some([a, b, c]) => Ok((
                    as_u64(a, "reservation owner")?,
                    as_u64(b, "reservation start")?,
                    as_u64(c, "reservation len")?,
                )),
                _ => Err("reservation is not a 3-element array".to_string()),
            })
            .collect::<DecodeResult<_>>()?,
        reservation_rover: get_u64(v, "reservation_rover")?,
    })
}

// ---------------------------------------------------------------------------
// contig-mm: processes, page cache, system
// ---------------------------------------------------------------------------

fn vma_to_json(vma: &VmaSnapshot) -> Json {
    obj(vec![
        ("start", Json::num(vma.start)),
        ("len", Json::num(vma.len)),
        (
            "file",
            match vma.file {
                None => Json::Null,
                Some((file, start_page)) => pair(file, start_page),
            },
        ),
        (
            "offsets",
            Json::Arr(
                vma.offsets
                    .iter()
                    .map(|&(va, off)| Json::Arr(vec![Json::num(va), Json::Num(off)]))
                    .collect(),
            ),
        ),
        ("replacement_claimed", Json::Bool(vma.replacement_claimed)),
    ])
}

fn vma_from_json(v: &Json) -> DecodeResult<VmaSnapshot> {
    Ok(VmaSnapshot {
        start: get_u64(v, "start")?,
        len: get_u64(v, "len")?,
        file: match field(v, "file")? {
            Json::Null => None,
            other => {
                let (file, start_page) = decode_pair_u64(other, "vma file")?;
                Some((u32::try_from(file).map_err(|_| "file id out of range")?, start_page))
            }
        },
        offsets: get_arr(v, "offsets")?
            .iter()
            .map(|p| match p.as_arr() {
                Some([va, off]) => Ok((
                    as_u64(va, "offset va")?,
                    off.as_num().ok_or("offset value is not a number")?,
                )),
                _ => Err("offset entry is not a 2-element array".to_string()),
            })
            .collect::<DecodeResult<_>>()?,
        replacement_claimed: get_bool(v, "replacement_claimed")?,
    })
}

fn stats_to_json(s: &FaultStatsSnapshot) -> Json {
    obj(vec![
        ("counters", Json::Arr(s.counters.iter().map(|&c| Json::num(c)).collect())),
        ("latencies_ns", Json::Arr(s.latencies_ns.iter().map(|&l| Json::num(l)).collect())),
        ("record_latencies", Json::Bool(s.record_latencies)),
    ])
}

fn stats_from_json(v: &Json) -> DecodeResult<FaultStatsSnapshot> {
    let raw = get_arr(v, "counters")?;
    if raw.len() != 8 {
        return Err("fault stats must have 8 counters".into());
    }
    let mut counters = [0u64; 8];
    for (slot, val) in counters.iter_mut().zip(raw) {
        *slot = as_u64(val, "fault counter")?;
    }
    Ok(FaultStatsSnapshot {
        counters,
        latencies_ns: get_arr(v, "latencies_ns")?
            .iter()
            .map(|l| as_u64(l, "latency"))
            .collect::<DecodeResult<_>>()?,
        record_latencies: get_bool(v, "record_latencies")?,
    })
}

fn process_to_json(p: &ProcessSnapshot) -> Json {
    obj(vec![
        ("pid", Json::num(p.pid)),
        ("pt_levels", Json::num(p.pt_levels)),
        ("vmas", Json::Arr(p.vmas.iter().map(vma_to_json).collect())),
        (
            "mappings",
            Json::Arr(
                p.mappings
                    .iter()
                    .map(|&(va, pfn, bits, huge)| {
                        Json::Arr(vec![
                            Json::num(va),
                            Json::num(pfn),
                            Json::num(bits),
                            Json::Bool(huge),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("stats", stats_to_json(&p.stats)),
        ("home", opt_num(p.home)),
    ])
}

fn process_from_json(v: &Json) -> DecodeResult<ProcessSnapshot> {
    Ok(ProcessSnapshot {
        pid: get_u32(v, "pid")?,
        pt_levels: get_u32(v, "pt_levels")?,
        vmas: get_arr(v, "vmas")?.iter().map(vma_from_json).collect::<DecodeResult<_>>()?,
        mappings: get_arr(v, "mappings")?
            .iter()
            .map(|m| match m.as_arr() {
                Some([va, pfn, bits, huge]) => Ok((
                    as_u64(va, "mapping va")?,
                    // `System::restore` packs it into a page-table entry.
                    match as_u64(pfn, "mapping pfn")? {
                        pfn if pfn <= Pte::MAX_PFN.raw() => pfn,
                        pfn => return Err(format!("mapping pfn {pfn:#x} exceeds 52 bits")),
                    },
                    u8::try_from(as_u64(bits, "mapping flags")?)
                        .map_err(|_| "flag bits out of range".to_string())?,
                    huge.as_bool().ok_or("mapping huge marker is not a bool")?,
                )),
                _ => Err("mapping is not a 4-element array".to_string()),
            })
            .collect::<DecodeResult<_>>()?,
        stats: stats_from_json(field(v, "stats")?)?,
        // Absent before version 5: processes had no NUMA home node.
        home: match v.get("home") {
            None | Some(Json::Null) => None,
            Some(other) => Some(as_u64(other, "home")?),
        },
    })
}

fn page_cache_to_json(pc: &PageCacheSnapshot) -> Json {
    obj(vec![
        (
            "mode",
            Json::Str(
                match pc.mode {
                    CacheAllocMode::Default => "default",
                    CacheAllocMode::CaContiguous => "ca_contiguous",
                }
                .into(),
            ),
        ),
        ("readahead_allocs", Json::num(pc.readahead_allocs)),
        (
            "files",
            Json::Arr(
                pc.files
                    .iter()
                    .map(|f| {
                        obj(vec![
                            (
                                "pages",
                                Json::Arr(
                                    f.pages.iter().map(|&(idx, pfn)| pair(idx, pfn)).collect(),
                                ),
                            ),
                            (
                                "offset",
                                match f.offset {
                                    None => Json::Null,
                                    Some(off) => Json::Num(off),
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn page_cache_from_json(v: &Json) -> DecodeResult<PageCacheSnapshot> {
    Ok(PageCacheSnapshot {
        mode: match field(v, "mode")?.as_str() {
            Some("default") => CacheAllocMode::Default,
            Some("ca_contiguous") => CacheAllocMode::CaContiguous,
            other => return Err(format!("unknown cache mode {other:?}")),
        },
        readahead_allocs: get_u64(v, "readahead_allocs")?,
        files: get_arr(v, "files")?
            .iter()
            .map(|f| {
                Ok(FileCacheSnapshot {
                    pages: get_arr(f, "pages")?
                        .iter()
                        .map(|p| decode_pair_u64(p, "cached page"))
                        .collect::<DecodeResult<_>>()?,
                    offset: match field(f, "offset")? {
                        Json::Null => None,
                        other => Some(other.as_num().ok_or("cache offset is not a number")?),
                    },
                })
            })
            .collect::<DecodeResult<_>>()?,
    })
}

fn recovery_config_to_json(r: &RecoveryConfig) -> Json {
    obj(vec![
        ("reclaim", Json::Bool(r.reclaim)),
        ("compaction", Json::Bool(r.compaction)),
        ("max_retries", Json::num(r.max_retries)),
        ("reclaim_batch", Json::num(r.reclaim_batch)),
        ("compact_budget", Json::num(r.compact_budget)),
        ("backoff_base_ns", Json::num(r.backoff_base_ns)),
        ("backoff_cap_ns", Json::num(r.backoff_cap_ns)),
        ("backoff_seed", Json::num(r.backoff_seed)),
        ("max_total_attempts", Json::num(r.max_total_attempts)),
    ])
}

fn recovery_config_from_json(v: &Json) -> DecodeResult<RecoveryConfig> {
    Ok(RecoveryConfig {
        reclaim: get_bool(v, "reclaim")?,
        compaction: get_bool(v, "compaction")?,
        max_retries: get_u32(v, "max_retries")?,
        reclaim_batch: get_u64(v, "reclaim_batch")?,
        compact_budget: get_u64(v, "compact_budget")?,
        backoff_base_ns: get_u64(v, "backoff_base_ns")?,
        backoff_cap_ns: get_u64(v, "backoff_cap_ns")?,
        backoff_seed: get_u64(v, "backoff_seed")?,
        max_total_attempts: get_u32(v, "max_total_attempts")?,
    })
}

/// Field order of the [`PoisonStats`] counter array encoding.
const POISON_STAT_FIELDS: usize = 8;

fn poison_stats_to_json(s: &PoisonStats) -> Json {
    let counters = [
        s.strikes,
        s.healed,
        s.healed_frames,
        s.heal_failed,
        s.sigbus,
        s.cache_dropped,
        s.soft_offline_ok,
        s.soft_offline_failed,
    ];
    Json::Arr(counters.iter().map(|&c| Json::num(c)).collect())
}

fn poison_stats_from_json(v: &Json) -> DecodeResult<PoisonStats> {
    let raw = v.as_arr().ok_or("poison stats is not an array")?;
    if raw.len() != POISON_STAT_FIELDS {
        return Err(format!("poison stats must have {POISON_STAT_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "poison stat");
    Ok(PoisonStats {
        strikes: c(0)?,
        healed: c(1)?,
        healed_frames: c(2)?,
        heal_failed: c(3)?,
        sigbus: c(4)?,
        cache_dropped: c(5)?,
        soft_offline_ok: c(6)?,
        soft_offline_failed: c(7)?,
    })
}

/// Field order of the [`NumaStats`] counter array encoding.
const NUMA_STAT_FIELDS: usize = 3;

fn numa_stats_to_json(s: &NumaStats) -> Json {
    let counters = [s.local_allocs, s.fallback_allocs, s.migrations];
    Json::Arr(counters.iter().map(|&c| Json::num(c)).collect())
}

fn numa_stats_from_json(v: &Json) -> DecodeResult<NumaStats> {
    let raw = v.as_arr().ok_or("numa stats is not an array")?;
    if raw.len() != NUMA_STAT_FIELDS {
        return Err(format!("numa stats must have {NUMA_STAT_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "numa stat");
    Ok(NumaStats { local_allocs: c(0)?, fallback_allocs: c(1)?, migrations: c(2)? })
}

/// Field order of the [`DaemonStats`] counter array encoding: the eleven
/// traced counters in `as_named()` order, then the two untraced frame
/// totals.
const DAEMON_STAT_FIELDS: usize = 13;

fn daemon_stats_to_json(s: &DaemonStats) -> Json {
    let counters = [
        s.ticks,
        s.epochs,
        s.compact_moves,
        s.promoted,
        s.promote_failed,
        s.repairs,
        s.shed_promote,
        s.shed_compact,
        s.backoff_skips,
        s.yields,
        s.policy_updates,
        s.compact_frames,
        s.repair_frames,
    ];
    Json::Arr(counters.iter().map(|&c| Json::num(c)).collect())
}

fn daemon_stats_from_json(v: &Json) -> DecodeResult<DaemonStats> {
    let raw = v.as_arr().ok_or("daemon stats is not an array")?;
    if raw.len() != DAEMON_STAT_FIELDS {
        return Err(format!("daemon stats must have {DAEMON_STAT_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "daemon stat");
    Ok(DaemonStats {
        ticks: c(0)?,
        epochs: c(1)?,
        compact_moves: c(2)?,
        promoted: c(3)?,
        promote_failed: c(4)?,
        repairs: c(5)?,
        shed_promote: c(6)?,
        shed_compact: c(7)?,
        backoff_skips: c(8)?,
        yields: c(9)?,
        policy_updates: c(10)?,
        compact_frames: c(11)?,
        repair_frames: c(12)?,
    })
}

fn daemon_config_to_json(c: &DaemonConfig) -> Json {
    obj(vec![
        ("scan_interval", Json::num(c.scan_interval)),
        ("epoch_budget", Json::num(c.epoch_budget)),
        ("aggressiveness", Json::num(c.aggressiveness)),
        ("thp_threshold_pages", Json::num(c.thp_threshold_pages)),
        ("repair_poison", Json::Bool(c.repair_poison)),
        ("shed_promote_pct", Json::num(c.shed_promote_pct)),
        ("shed_compact_pct", Json::num(c.shed_compact_pct)),
        ("yield_pct", Json::num(c.yield_pct)),
        ("poison_storm_frames", Json::num(c.poison_storm_frames)),
        ("backoff_base_ns", Json::num(c.backoff_base_ns)),
        ("backoff_cap_ns", Json::num(c.backoff_cap_ns)),
        ("backoff_seed", Json::num(c.backoff_seed)),
        ("watchdog_vetoes", Json::num(c.watchdog_vetoes)),
    ])
}

fn daemon_config_from_json(v: &Json) -> DecodeResult<DaemonConfig> {
    Ok(DaemonConfig {
        scan_interval: get_u64(v, "scan_interval")?,
        epoch_budget: get_u64(v, "epoch_budget")?,
        aggressiveness: u8::try_from(get_u64(v, "aggressiveness")?)
            .map_err(|_| "daemon aggressiveness out of range")?,
        thp_threshold_pages: get_u64(v, "thp_threshold_pages")?,
        repair_poison: get_bool(v, "repair_poison")?,
        shed_promote_pct: get_u64(v, "shed_promote_pct")?,
        shed_compact_pct: get_u64(v, "shed_compact_pct")?,
        yield_pct: get_u64(v, "yield_pct")?,
        poison_storm_frames: get_u64(v, "poison_storm_frames")?,
        backoff_base_ns: get_u64(v, "backoff_base_ns")?,
        backoff_cap_ns: get_u64(v, "backoff_cap_ns")?,
        backoff_seed: get_u64(v, "backoff_seed")?,
        watchdog_vetoes: get_u64(v, "watchdog_vetoes")?,
    })
}

/// Encodes the full mid-epoch daemon state (codec v6): policy, scan
/// cursors, budget, phase, remembered promotion candidates, backoff RNG,
/// and counters.
fn daemon_to_json(d: &DaemonState) -> Json {
    obj(vec![
        ("enabled", Json::Bool(d.enabled)),
        ("config", daemon_config_to_json(&d.config)),
        ("compact_node", Json::num(d.compact_node)),
        ("compact_cursor", Json::num(d.compact_cursor)),
        ("promote_pid", Json::num(d.promote_pid)),
        ("promote_va", Json::num(d.promote_va)),
        ("candidate_cursor", Json::num(d.candidate_cursor)),
        ("repair_cursor", Json::num(d.repair_cursor)),
        ("budget_left", Json::num(d.budget_left)),
        ("phase", Json::num(d.phase.as_u64())),
        (
            "candidates",
            Json::Arr(d.candidates.iter().map(|&(pid, va)| pair(pid, va)).collect()),
        ),
        ("backoff_rng", Json::num(d.backoff_rng)),
        ("backoff_until_ns", Json::num(d.backoff_until_ns)),
        ("yield_streak", Json::num(d.yield_streak)),
        ("epoch", Json::num(d.epoch)),
        ("stats", daemon_stats_to_json(&d.stats)),
    ])
}

fn daemon_from_json(v: &Json) -> DecodeResult<DaemonState> {
    Ok(DaemonState {
        enabled: get_bool(v, "enabled")?,
        config: daemon_config_from_json(field(v, "config")?)?,
        compact_node: get_u64(v, "compact_node")?,
        compact_cursor: get_u64(v, "compact_cursor")?,
        promote_pid: get_u64(v, "promote_pid")?,
        promote_va: get_u64(v, "promote_va")?,
        candidate_cursor: get_u64(v, "candidate_cursor")?,
        repair_cursor: get_u64(v, "repair_cursor")?,
        budget_left: get_u64(v, "budget_left")?,
        phase: DaemonPhase::from_u64(get_u64(v, "phase")?),
        candidates: get_arr(v, "candidates")?
            .iter()
            .map(|p| {
                let (pid, va) = decode_pair_u64(p, "daemon candidate")?;
                Ok((u32::try_from(pid).map_err(|_| "candidate pid out of range")?, va))
            })
            .collect::<DecodeResult<_>>()?,
        backoff_rng: get_u64(v, "backoff_rng")?,
        backoff_until_ns: get_u64(v, "backoff_until_ns")?,
        yield_streak: get_u64(v, "yield_streak")?,
        epoch: get_u64(v, "epoch")?,
        stats: daemon_stats_from_json(field(v, "stats")?)?,
    })
}

/// Field order of the [`RecoveryStats`] counter array encoding.
const RECOVERY_STAT_FIELDS: usize = 15;

fn recovery_stats_to_json(s: &RecoveryStats) -> Json {
    let counters = [
        s.oom_events,
        s.reclaim_passes,
        s.reclaimed_pages,
        s.compaction_passes,
        s.migrated_blocks,
        s.migrated_frames,
        s.retries,
        s.order_backoffs,
        s.readahead_shrinks,
        s.recovered_faults,
        s.hard_ooms,
        s.livelocks,
        s.backoff_ns,
        s.reclaim_ns,
        s.compaction_ns,
    ];
    Json::Arr(counters.iter().map(|&c| Json::num(c)).collect())
}

fn recovery_stats_from_json(v: &Json) -> DecodeResult<RecoveryStats> {
    let raw = v.as_arr().ok_or("recovery stats is not an array")?;
    if raw.len() != RECOVERY_STAT_FIELDS {
        return Err(format!("recovery stats must have {RECOVERY_STAT_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "recovery stat");
    Ok(RecoveryStats {
        oom_events: c(0)?,
        reclaim_passes: c(1)?,
        reclaimed_pages: c(2)?,
        compaction_passes: c(3)?,
        migrated_blocks: c(4)?,
        migrated_frames: c(5)?,
        retries: c(6)?,
        order_backoffs: c(7)?,
        readahead_shrinks: c(8)?,
        recovered_faults: c(9)?,
        hard_ooms: c(10)?,
        livelocks: c(11)?,
        backoff_ns: c(12)?,
        reclaim_ns: c(13)?,
        compaction_ns: c(14)?,
    })
}

/// Encodes a [`SystemSnapshot`] as a canonical [`Json`] value.
pub fn system_to_json(s: &SystemSnapshot) -> Json {
    obj(vec![
        ("machine", machine_to_json(&s.machine)),
        ("processes", Json::Arr(s.processes.iter().map(process_to_json).collect())),
        ("page_cache", page_cache_to_json(&s.page_cache)),
        ("next_pid", Json::num(s.next_pid)),
        ("thp", Json::Bool(s.thp)),
        ("pt_levels", Json::num(s.pt_levels)),
        ("record_latencies", Json::Bool(s.record_latencies)),
        (
            "latency",
            obj(vec![
                ("base_ns", Json::num(s.latency.base_ns)),
                ("zero_page_ns", Json::num(s.latency.zero_page_ns)),
                ("placement_ns", Json::num(s.latency.placement_ns)),
            ]),
        ),
        ("shared", Json::Arr(s.shared.iter().map(|&(pfn, count)| pair(pfn, count)).collect())),
        ("now_ns", Json::num(s.now_ns)),
        ("recovery", recovery_config_to_json(&s.recovery)),
        ("recovery_stats", recovery_stats_to_json(&s.recovery_stats)),
        ("backoff_rng", Json::num(s.backoff_rng)),
        ("poison_policy", poison_policy_to_json(&s.poison_policy)),
        ("poison_stats", poison_stats_to_json(&s.poison_stats)),
        ("numa_stats", numa_stats_to_json(&s.numa_stats)),
        ("daemon", daemon_to_json(&s.daemon)),
    ])
}

/// Decodes a [`SystemSnapshot`] from its [`Json`] encoding.
///
/// # Errors
///
/// Describes the first missing or ill-typed field.
pub fn system_from_json(v: &Json) -> DecodeResult<SystemSnapshot> {
    let lat = field(v, "latency")?;
    Ok(SystemSnapshot {
        machine: machine_from_json(field(v, "machine")?)?,
        processes: get_arr(v, "processes")?
            .iter()
            .map(process_from_json)
            .collect::<DecodeResult<_>>()?,
        page_cache: page_cache_from_json(field(v, "page_cache")?)?,
        next_pid: get_u32(v, "next_pid")?,
        thp: get_bool(v, "thp")?,
        pt_levels: get_u32(v, "pt_levels")?,
        record_latencies: get_bool(v, "record_latencies")?,
        latency: LatencyModel {
            base_ns: get_u64(lat, "base_ns")?,
            zero_page_ns: get_u64(lat, "zero_page_ns")?,
            placement_ns: get_u64(lat, "placement_ns")?,
        },
        shared: get_arr(v, "shared")?
            .iter()
            .map(|p| {
                let (pfn, count) = decode_pair_u64(p, "shared entry")?;
                Ok((pfn, u32::try_from(count).map_err(|_| "share count out of range")?))
            })
            .collect::<DecodeResult<_>>()?,
        now_ns: get_u64(v, "now_ns")?,
        recovery: recovery_config_from_json(field(v, "recovery")?)?,
        recovery_stats: recovery_stats_from_json(field(v, "recovery_stats")?)?,
        backoff_rng: get_u64(v, "backoff_rng")?,
        // Absent before version 3: poison injection did not exist.
        poison_policy: match v.get("poison_policy") {
            None | Some(Json::Null) => PoisonPolicy::never(),
            Some(other) => poison_policy_from_json(other)?,
        },
        poison_stats: match v.get("poison_stats") {
            None | Some(Json::Null) => PoisonStats::default(),
            Some(other) => poison_stats_from_json(other)?,
        },
        // Absent before version 5: the machine had no NUMA zone accounting.
        numa_stats: match v.get("numa_stats") {
            None | Some(Json::Null) => NumaStats::default(),
            Some(other) => numa_stats_from_json(other)?,
        },
        // Absent before version 6: no background maintenance daemon. The
        // default is disabled, which is behaviour-identical.
        daemon: match v.get("daemon") {
            None | Some(Json::Null) => DaemonState::default(),
            Some(other) => daemon_from_json(other)?,
        },
    })
}

/// Encodes a [`VmSnapshot`] (both translation dimensions) as canonical JSON.
pub fn vm_to_json(s: &VmSnapshot) -> Json {
    obj(vec![
        ("guest", system_to_json(&s.guest)),
        ("host", system_to_json(&s.host)),
        ("host_pid", Json::num(s.host_pid)),
        ("host_vma_start", Json::num(s.host_vma_start)),
        ("host_vma_base", Json::num(s.host_vma_base)),
        ("balloon", Json::Arr(s.balloon.iter().map(|&g| Json::num(g)).collect())),
        (
            "sharing",
            Json::Arr(
                s.sharing
                    .iter()
                    .map(|(pfn, gframes)| {
                        Json::Arr(vec![
                            Json::num(*pfn),
                            Json::Arr(gframes.iter().map(|&g| Json::num(g)).collect()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes a [`VmSnapshot`] from its [`Json`] encoding.
///
/// # Errors
///
/// Describes the first missing or ill-typed field.
pub fn vm_from_json(v: &Json) -> DecodeResult<VmSnapshot> {
    Ok(VmSnapshot {
        guest: system_from_json(field(v, "guest")?)?,
        host: system_from_json(field(v, "host")?)?,
        host_pid: get_u32(v, "host_pid")?,
        host_vma_start: get_u64(v, "host_vma_start")?,
        host_vma_base: get_u64(v, "host_vma_base")?,
        // Absent before version 4: ballooning and KSM did not exist.
        balloon: match v.get("balloon") {
            None | Some(Json::Null) => Vec::new(),
            Some(other) => other
                .as_arr()
                .ok_or("field `balloon` is not an array")?
                .iter()
                .map(|g| as_u64(g, "balloon frame"))
                .collect::<DecodeResult<_>>()?,
        },
        sharing: match v.get("sharing") {
            None | Some(Json::Null) => Vec::new(),
            Some(other) => other
                .as_arr()
                .ok_or("field `sharing` is not an array")?
                .iter()
                .map(|rec| match rec.as_arr() {
                    Some([pfn, gframes]) => Ok((
                        as_u64(pfn, "sharing pfn")?,
                        gframes
                            .as_arr()
                            .ok_or("sharing members is not an array")?
                            .iter()
                            .map(|g| as_u64(g, "sharing gframe"))
                            .collect::<DecodeResult<_>>()?,
                    )),
                    _ => Err("sharing record is not a 2-element array".to_string()),
                })
                .collect::<DecodeResult<_>>()?,
        },
    })
}

// ---------------------------------------------------------------------------
// contig-fleet: multi-tenant fleet images
// ---------------------------------------------------------------------------

fn u64_arr(values: impl IntoIterator<Item = u64>) -> Json {
    Json::Arr(values.into_iter().map(Json::num).collect())
}

fn fleet_tenant_to_json(t: &contig_fleet::TenantSnapshot) -> Json {
    obj(vec![
        ("id", Json::num(t.id)),
        ("guest", system_to_json(&t.guest)),
        ("host_idx", Json::num(t.host_idx)),
        ("host_pid", Json::num(t.host_pid)),
        ("guest_pid", Json::num(t.guest_pid)),
        ("balloon", u64_arr(t.balloon.iter().copied())),
        ("tags", Json::Arr(t.tags.iter().map(|&(p, tag)| pair(p, tag)).collect())),
    ])
}

/// Encodes a [`contig_fleet::FleetSnapshot`] as canonical JSON. The fleet
/// digest hashes this encoding, so crash-replayed fleets can be compared
/// byte-for-byte against the live fleet; there is no decoder — a repro file
/// carries ops, not state.
pub fn fleet_to_json(s: &contig_fleet::FleetSnapshot) -> Json {
    let cfg = &s.config;
    obj(vec![
        (
            "config",
            obj(vec![
                ("hosts", Json::num(cfg.hosts as u64)),
                ("host_mib", Json::num(cfg.host_mib)),
                ("guest_mib", Json::num(cfg.guest_mib)),
                ("overcommit_ppm", Json::num(cfg.overcommit_ppm)),
                ("low_watermark_ppm", Json::num(cfg.low_watermark_ppm)),
                ("high_watermark_ppm", Json::num(cfg.high_watermark_ppm)),
                ("balloon_step", Json::num(cfg.balloon_step)),
                ("balloon_retries", Json::num(cfg.balloon_retries)),
                ("backing_attempts", Json::num(cfg.backing_attempts)),
                ("evac_storm_ppm", Json::num(cfg.evac_storm_ppm)),
                ("evac_attempts", Json::num(cfg.evac_attempts)),
                ("seed", Json::num(cfg.seed)),
                ("host_nodes", Json::num(cfg.host_nodes as u64)),
            ]),
        ),
        ("hosts", Json::Arr(s.hosts.iter().map(system_to_json).collect())),
        (
            "sharing",
            Json::Arr(
                s.sharing
                    .iter()
                    .map(|host| {
                        Json::Arr(
                            host.iter()
                                .map(|(pfn, members)| {
                                    Json::Arr(vec![
                                        Json::num(*pfn),
                                        Json::Arr(
                                            members.iter().map(|&(t, g)| pair(t, g)).collect(),
                                        ),
                                    ])
                                })
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
        ("tenants", Json::Arr(s.tenants.iter().map(fleet_tenant_to_json).collect())),
        (
            "stats",
            Json::Arr(
                s.stats.as_named().iter().map(|&(_, count)| Json::num(count)).collect(),
            ),
        ),
        ("next_tenant", Json::num(s.next_tenant)),
        ("rng", Json::num(s.rng)),
        ("ksm_cursor", Json::num(s.ksm_cursor)),
    ])
}

// ---------------------------------------------------------------------------
// contig-tlb: translation caches
// ---------------------------------------------------------------------------

fn cache_to_json(c: &CacheSnapshot) -> Json {
    obj(vec![
        ("sets", Json::num(c.sets)),
        ("ways", Json::num(c.ways)),
        (
            "slots",
            Json::Arr(
                c.slots
                    .iter()
                    .map(|slot| match slot {
                        None => Json::Null,
                        Some((key, tick)) => pair(*key, *tick),
                    })
                    .collect(),
            ),
        ),
        ("tick", Json::num(c.tick)),
        ("hits", Json::num(c.hits)),
        ("misses", Json::num(c.misses)),
    ])
}

fn cache_from_json(v: &Json) -> DecodeResult<CacheSnapshot> {
    let snap = CacheSnapshot {
        sets: get_u64(v, "sets")?,
        ways: get_u64(v, "ways")?,
        slots: get_arr(v, "slots")?
            .iter()
            .map(|slot| match slot {
                Json::Null => Ok(None),
                other => decode_pair_u64(other, "cache slot").map(Some),
            })
            .collect::<DecodeResult<_>>()?,
        tick: get_u64(v, "tick")?,
        hits: get_u64(v, "hits")?,
        misses: get_u64(v, "misses")?,
    };
    snap.validate()?;
    Ok(snap)
}

/// Encodes a [`TlbSnapshot`] (full hierarchy with LRU state) as canonical
/// JSON.
pub fn tlb_to_json(s: &TlbSnapshot) -> Json {
    obj(vec![
        ("l1_4k", cache_to_json(&s.l1_4k)),
        ("l1_2m", cache_to_json(&s.l1_2m)),
        ("l2", cache_to_json(&s.l2)),
        ("counters", Json::Arr(s.counters.iter().map(|&c| Json::num(c)).collect())),
    ])
}

/// Decodes a [`TlbSnapshot`] from its [`Json`] encoding.
///
/// # Errors
///
/// Describes the first missing or ill-typed field, or the first structure
/// whose image no cache can have produced ([`CacheSnapshot::validate`]), so
/// `TlbHierarchy::from_snapshot` accepts whatever this returns.
pub fn tlb_from_json(v: &Json) -> DecodeResult<TlbSnapshot> {
    let raw = get_arr(v, "counters")?;
    if raw.len() != 4 {
        return Err("tlb counters must have 4 entries".into());
    }
    let mut counters = [0u64; 4];
    for (slot, val) in counters.iter_mut().zip(raw) {
        *slot = as_u64(val, "tlb counter")?;
    }
    Ok(TlbSnapshot {
        l1_4k: cache_from_json(field(v, "l1_4k")?)?,
        l1_2m: cache_from_json(field(v, "l1_2m")?)?,
        l2: cache_from_json(field(v, "l2")?)?,
        counters,
    })
}

// ---------------------------------------------------------------------------
// JSONL file format
// ---------------------------------------------------------------------------

/// Serializes a [`VmSnapshot`] to the two-line JSONL snapshot format
/// (versioned header with digest, then the payload).
pub fn encode_vm_file(snap: &VmSnapshot) -> String {
    let payload = vm_to_json(snap).to_line();
    let header = obj(vec![
        ("format", Json::Str(SNAPSHOT_FORMAT.into())),
        ("version", Json::Num(SNAPSHOT_VERSION)),
        ("digest", Json::num(fnv1a64(payload.as_bytes()))),
    ]);
    format!("{}\n{}\n", header.to_line(), payload)
}

/// Parses and validates a snapshot file produced by [`encode_vm_file`].
///
/// # Errors
///
/// Rejects missing headers, unknown format tags, newer versions, digest
/// mismatches (corruption), and malformed payloads.
pub fn decode_vm_file(text: &str) -> DecodeResult<VmSnapshot> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty snapshot file")?;
    let payload_line = lines.next().ok_or("snapshot file has no payload line")?;
    let header = parse(header_line).map_err(|e| format!("bad header: {e}"))?;
    match field(&header, "format")?.as_str() {
        Some(SNAPSHOT_FORMAT) => {}
        other => return Err(format!("not a snapshot file (format {other:?})")),
    }
    let version = field(&header, "version")?.as_num().ok_or("version is not a number")?;
    if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(format!(
            "snapshot version {version} unsupported (decoder speaks \
             {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_VERSION})"
        ));
    }
    let want = get_u64(&header, "digest")?;
    let got = fnv1a64(payload_line.as_bytes());
    if want != got {
        return Err(format!("digest mismatch: header {want:#x}, payload {got:#x}"));
    }
    let payload = parse(payload_line).map_err(|e| format!("bad payload: {e}"))?;
    vm_from_json(&payload)
}

/// Writes a snapshot file to `path`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_vm_file(path: &std::path::Path, snap: &VmSnapshot) -> std::io::Result<()> {
    std::fs::write(path, encode_vm_file(snap))
}

/// Reads and validates a snapshot file from `path`.
///
/// # Errors
///
/// I/O failures and every validation failure of [`decode_vm_file`].
pub fn read_vm_file(path: &std::path::Path) -> DecodeResult<VmSnapshot> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    decode_vm_file(&text)
}

/// [`contig_virt::GuestStateCodec`] over the versioned JSON snapshot codec:
/// the guest OS crosses the migration wire as exactly the bytes a snapshot
/// export would produce, so the stop-and-copy state chunk needs no second
/// serialization format.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotGuestCodec;

impl contig_virt::GuestStateCodec for SnapshotGuestCodec {
    fn encode(&self, snap: &SystemSnapshot) -> Vec<u8> {
        system_to_json(snap).to_line().into_bytes()
    }

    fn decode(&self, bytes: &[u8]) -> Result<SystemSnapshot, String> {
        let text =
            std::str::from_utf8(bytes).map_err(|e| format!("state chunk not UTF-8: {e}"))?;
        let v = parse(text).map_err(|e| format!("state chunk not JSON: {e}"))?;
        system_from_json(&v)
    }
}
