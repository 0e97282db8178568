//! Versioned JSONL snapshot codec.
//!
//! Writes the plain-data snapshot types exported by `contig-buddy`,
//! `contig-mm`, `contig-virt`, `contig-fleet` and `contig-tlb` as canonical
//! single-line JSON — `encode_*` stream through an [`Enc`] into whichever
//! [`Sink`] the caller chose, a line buffer or a running hash, and build no
//! value — reads them back from a parsed [`Json`] value (`*_from_json`), and
//! wraps a VM image in a two-line JSONL file format:
//!
//! ```text
//! {"format":"contig-snapshot","version":6,"digest":<fnv1a64>}
//! {<payload>}
//! ```
//!
//! The header carries the format version — the decoder reads exactly the
//! version the encoder writes and names any other in its error; CI pins the
//! bytes against a committed golden file — and the digest of the payload
//! line, so corruption is detected before a restore is attempted. Nothing
//! may follow the payload line.
//!
//! Every encoder emits object members in a fixed order; combined with the
//! integer-only number model this makes the encoding canonical, which is what
//! lets [`crate::digest`] hash the bytes as they are emitted.

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
use crate::json::{line, parse, Enc, Json, Sink};

/// Snapshot file format version: the one the encoder writes and the only
/// version read. Every member the encoder emits is required on decode, in
/// the encoder's order; the two optional ones (`pcp`, `home`) are written as
/// `null` when unset, never left out.
pub const SNAPSHOT_VERSION: i128 = 6;
/// `format` tag of snapshot files.
pub const SNAPSHOT_FORMAT: &str = "contig-snapshot";

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

type DecodeResult<T> = Result<T, String>;

fn as_u64(v: &Json, what: &str) -> DecodeResult<u64> {
    v.as_u64().ok_or_else(|| format!("{what} is not a u64"))
}

/// An array of `u64`s; `what` names one element in the error.
fn u64s(v: &Json, what: &str) -> DecodeResult<Vec<u64>> {
    let items = v.as_arr().ok_or_else(|| format!("{what} list is not an array"))?;
    items.iter().map(|n| as_u64(n, what)).collect()
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

/// `{"kind":…,<field>:<value>,…}`: how both injection modes are spelled.
fn encode_mode<S: Sink>(e: &mut Enc<S>, kind: &str, fields: &[(&str, u64)]) {
    e.obj(|e| {
        e.key("kind").str(kind);
        for &(name, value) in fields {
            e.key(name).num(value);
        }
    });
}

fn encode_fail_mode<S: Sink>(e: &mut Enc<S>, mode: FailMode) {
    match mode {
        FailMode::Never => encode_mode(e, "never", &[]),
        FailMode::Nth { n } => encode_mode(e, "nth", &[("n", n)]),
        FailMode::EveryNth { n } => encode_mode(e, "every_nth", &[("n", n)]),
        FailMode::MinOrder { min_order } => {
            encode_mode(e, "min_order", &[("min_order", min_order.into())]);
        }
        FailMode::Probability { rate_ppm, seed } => {
            encode_mode(e, "probability", &[("rate_ppm", rate_ppm.into()), ("seed", seed)]);
        }
    }
}

fn fail_mode_from_json(v: &Json) -> DecodeResult<FailMode> {
    match v.str_of("kind")? {
        "never" => Ok(FailMode::Never),
        "nth" => Ok(FailMode::Nth { n: v.u64_of("n")? }),
        "every_nth" => Ok(FailMode::EveryNth { n: v.u64_of("n")? }),
        "min_order" => Ok(FailMode::MinOrder { min_order: v.u32_of("min_order")? }),
        "probability" => Ok(FailMode::Probability {
            rate_ppm: v.u32_of("rate_ppm")?,
            seed: v.u64_of("seed")?,
        }),
        other => Err(format!("unknown fail mode `{other}`")),
    }
}

fn encode_fail_policy<S: Sink>(e: &mut Enc<S>, p: &FailPolicy) {
    e.obj(|e| {
        encode_fail_mode(e.key("mode"), p.mode());
        e.key("attempts").num(p.attempts());
        e.key("injected").num(p.injected());
        e.key("rng_state").num(p.rng_state());
    });
}

fn fail_policy_from_json(v: &Json) -> DecodeResult<FailPolicy> {
    Ok(FailPolicy::restore(
        fail_mode_from_json(v.field("mode")?)?,
        v.u64_of("attempts")?,
        v.u64_of("injected")?,
        v.u64_of("rng_state")?,
    ))
}

fn encode_poison_mode<S: Sink>(e: &mut Enc<S>, mode: PoisonMode) {
    match mode {
        PoisonMode::Never => encode_mode(e, "never", &[]),
        PoisonMode::Nth { n } => encode_mode(e, "nth", &[("n", n)]),
        PoisonMode::EveryNth { n } => encode_mode(e, "every_nth", &[("n", n)]),
        PoisonMode::Address { pfn, n } => {
            encode_mode(e, "address", &[("pfn", pfn.raw()), ("n", n)]);
        }
        PoisonMode::Probability { rate_ppm, seed } => {
            encode_mode(e, "probability", &[("rate_ppm", rate_ppm.into()), ("seed", seed)]);
        }
    }
}

fn poison_mode_from_json(v: &Json) -> DecodeResult<PoisonMode> {
    match v.str_of("kind")? {
        "never" => Ok(PoisonMode::Never),
        "nth" => Ok(PoisonMode::Nth { n: v.u64_of("n")? }),
        "every_nth" => Ok(PoisonMode::EveryNth { n: v.u64_of("n")? }),
        "address" => Ok(PoisonMode::Address {
            pfn: Pfn::new(v.u64_of("pfn")?),
            n: v.u64_of("n")?,
        }),
        "probability" => Ok(PoisonMode::Probability {
            rate_ppm: v.u32_of("rate_ppm")?,
            seed: v.u64_of("seed")?,
        }),
        other => Err(format!("unknown poison mode `{other}`")),
    }
}

fn encode_poison_policy<S: Sink>(e: &mut Enc<S>, p: &PoisonPolicy) {
    e.obj(|e| {
        encode_poison_mode(e.key("mode"), p.mode());
        e.key("checks").num(p.checks());
        e.key("events").num(p.events());
        e.key("rng_state").num(p.rng_state());
    });
}

fn poison_policy_from_json(v: &Json) -> DecodeResult<PoisonPolicy> {
    Ok(PoisonPolicy::restore(
        poison_mode_from_json(v.field("mode")?)?,
        v.u64_of("checks")?,
        v.u64_of("events")?,
        v.u64_of("rng_state")?,
    ))
}

// ---------------------------------------------------------------------------
// contig-buddy: zones and machine
// ---------------------------------------------------------------------------

/// Field order of the [`PoisonCounters`] array encoding.
const POISON_COUNTER_FIELDS: usize = 5;

fn encode_poison_counters<S: Sink>(e: &mut Enc<S>, c: &PoisonCounters) {
    e.nums([c.poisoned, c.quarantined_free, c.quarantined_pcp, c.deferred, c.quarantined_on_free]);
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

fn encode_zone<S: Sink>(e: &mut Enc<S>, z: &ZoneSnapshot) {
    e.obj(|e| {
        e.key("config").obj(|e| {
            e.key("base").num(z.config.base.raw());
            e.key("frames").num(z.config.frames);
            e.key("top_order").num(z.config.top_order);
            e.key("sorted_top_list").bool(z.config.sorted_top_list);
        });
        e.key("free_lists").arr(|e| z.free_lists.iter().for_each(|l| e.nums(l.iter().copied())));
        e.key("allocated")
            .arr(|e| z.allocated.iter().for_each(|&(pfn, order)| e.nums([pfn, order.into()])));
        let c = &z.counters;
        e.key("counters").nums([
            c.allocs,
            c.targeted_allocs,
            c.targeted_misses,
            c.frees,
            c.splits,
            c.coalesces,
        ]);
        encode_fail_policy(e.key("fail"), &z.fail);
        match z.contig_rover {
            Some(rover) => e.key("contig_rover").num(rover),
            None => e.key("contig_rover").null(),
        }
        e.key("contig_updates").num(z.contig_updates);
        match &z.pcp {
            Some(p) => encode_pcp(e.key("pcp"), p),
            None => e.key("pcp").null(),
        }
        e.key("badframes").nums(z.badframes.iter().copied());
        encode_poison_counters(e.key("poison"), &z.poison);
    });
}

fn encode_pcp<S: Sink>(e: &mut Enc<S>, p: &PcpSnapshot) {
    e.obj(|e| {
        e.key("cpus").num(p.cpus);
        e.key("batch").num(p.batch);
        e.key("high").num(p.high);
        e.key("current_cpu").num(p.current_cpu);
        e.key("lists").arr(|e| p.lists.iter().for_each(|l| e.nums(l.iter().copied())));
        let c = &p.counters;
        e.key("counters").nums([
            c.hits,
            c.refills,
            c.refilled_frames,
            c.drains,
            c.drained_frames,
            c.targeted_evictions,
        ]);
    });
}

fn pcp_from_json(v: &Json) -> DecodeResult<PcpSnapshot> {
    let counters = v.arr_of("counters")?;
    if counters.len() != 6 {
        return Err("pcp counters must have 6 entries".into());
    }
    let c = |i: usize| as_u64(&counters[i], "pcp counter");
    Ok(PcpSnapshot {
        cpus: v.u64_of("cpus")?,
        batch: v.u64_of("batch")?,
        high: v.u64_of("high")?,
        current_cpu: v.u64_of("current_cpu")?,
        lists: v
            .arr_of("lists")?
            .iter()
            .map(|list| u64s(list, "pcp frame"))
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
    let cfg = v.field("config")?;
    let counters = v.arr_of("counters")?;
    if counters.len() != 6 {
        return Err("zone counters must have 6 entries".into());
    }
    let c = |i: usize| as_u64(&counters[i], "zone counter");
    Ok(ZoneSnapshot {
        config: ZoneConfig {
            base: Pfn::new(cfg.u64_of("base")?),
            frames: cfg.u64_of("frames")?,
            top_order: cfg.u32_of("top_order")?,
            sorted_top_list: cfg.bool_of("sorted_top_list")?,
        },
        free_lists: v
            .arr_of("free_lists")?
            .iter()
            .map(|list| u64s(list, "free frame"))
            .collect::<DecodeResult<_>>()?,
        allocated: v.arr_of("allocated")?
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
        fail: fail_policy_from_json(v.field("fail")?)?,
        contig_rover: match v.field("contig_rover")? {
            Json::Null => None,
            other => Some(as_u64(other, "contig_rover")?),
        },
        contig_updates: v.u64_of("contig_updates")?,
        pcp: match v.field("pcp")? {
            Json::Null => None,
            other => Some(pcp_from_json(other)?),
        },
        badframes: u64s(v.field("badframes")?, "badframe")?,
        poison: poison_counters_from_json(v.field("poison")?)?,
    })
}

fn encode_machine<S: Sink>(e: &mut Enc<S>, m: &MachineSnapshot) {
    e.obj(|e| {
        e.key("zones").arr(|e| m.zones.iter().for_each(|z| encode_zone(e, z)));
        e.key("reservations").arr(|e| {
            m.reservations.iter().for_each(|&(owner, start, len)| e.nums([owner, start, len]));
        });
        e.key("reservation_rover").num(m.reservation_rover);
    });
}

fn machine_from_json(v: &Json) -> DecodeResult<MachineSnapshot> {
    Ok(MachineSnapshot {
        zones: v.arr_of("zones")?.iter().map(zone_from_json).collect::<DecodeResult<_>>()?,
        reservations: v.arr_of("reservations")?
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
        reservation_rover: v.u64_of("reservation_rover")?,
    })
}

// ---------------------------------------------------------------------------
// contig-mm: processes, page cache, system
// ---------------------------------------------------------------------------

fn encode_vma<S: Sink>(e: &mut Enc<S>, vma: &VmaSnapshot) {
    e.obj(|e| {
        e.key("start").num(vma.start);
        e.key("len").num(vma.len);
        match vma.file {
            None => e.key("file").null(),
            Some((file, start_page)) => e.key("file").nums([file.into(), start_page]),
        }
        e.key("offsets")
            .arr(|e| vma.offsets.iter().for_each(|&(va, off)| e.nums([va.into(), off])));
        e.key("replacement_claimed").bool(vma.replacement_claimed);
    });
}

fn vma_from_json(v: &Json) -> DecodeResult<VmaSnapshot> {
    Ok(VmaSnapshot {
        start: v.u64_of("start")?,
        len: v.u64_of("len")?,
        file: match v.field("file")? {
            Json::Null => None,
            other => {
                let (file, start_page) = decode_pair_u64(other, "vma file")?;
                Some((u32::try_from(file).map_err(|_| "file id out of range")?, start_page))
            }
        },
        offsets: v.arr_of("offsets")?
            .iter()
            .map(|p| match p.as_arr() {
                Some([va, off]) => Ok((
                    as_u64(va, "offset va")?,
                    off.as_num().ok_or("offset value is not a number")?,
                )),
                _ => Err("offset entry is not a 2-element array".to_string()),
            })
            .collect::<DecodeResult<_>>()?,
        replacement_claimed: v.bool_of("replacement_claimed")?,
    })
}

fn encode_stats<S: Sink>(e: &mut Enc<S>, s: &FaultStatsSnapshot) {
    e.obj(|e| {
        e.key("counters").nums(s.counters);
        e.key("latencies_ns").nums(s.latencies_ns.iter().copied());
        e.key("record_latencies").bool(s.record_latencies);
    });
}

fn stats_from_json(v: &Json) -> DecodeResult<FaultStatsSnapshot> {
    let raw = v.arr_of("counters")?;
    if raw.len() != 8 {
        return Err("fault stats must have 8 counters".into());
    }
    let mut counters = [0u64; 8];
    for (slot, val) in counters.iter_mut().zip(raw) {
        *slot = as_u64(val, "fault counter")?;
    }
    Ok(FaultStatsSnapshot {
        counters,
        latencies_ns: u64s(v.field("latencies_ns")?, "latency")?,
        record_latencies: v.bool_of("record_latencies")?,
    })
}

fn encode_process<S: Sink>(e: &mut Enc<S>, p: &ProcessSnapshot) {
    e.obj(|e| {
        e.key("pid").num(p.pid);
        e.key("pt_levels").num(p.pt_levels);
        e.key("vmas").arr(|e| p.vmas.iter().for_each(|vma| encode_vma(e, vma)));
        e.key("mappings").arr(|e| {
            for &(va, pfn, bits, huge) in &p.mappings {
                e.arr(|e| {
                    e.num(va);
                    e.num(pfn);
                    e.num(bits);
                    e.bool(huge);
                });
            }
        });
        encode_stats(e.key("stats"), &p.stats);
        match p.home {
            Some(home) => e.key("home").num(home),
            None => e.key("home").null(),
        }
    });
}

fn process_from_json(v: &Json) -> DecodeResult<ProcessSnapshot> {
    Ok(ProcessSnapshot {
        pid: v.u32_of("pid")?,
        pt_levels: v.u32_of("pt_levels")?,
        vmas: v.arr_of("vmas")?.iter().map(vma_from_json).collect::<DecodeResult<_>>()?,
        mappings: v.arr_of("mappings")?
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
        stats: stats_from_json(v.field("stats")?)?,
        home: match v.field("home")? {
            Json::Null => None,
            other => Some(as_u64(other, "home")?),
        },
    })
}

fn encode_page_cache<S: Sink>(e: &mut Enc<S>, pc: &PageCacheSnapshot) {
    e.obj(|e| {
        e.key("mode").str(match pc.mode {
            CacheAllocMode::Default => "default",
            CacheAllocMode::CaContiguous => "ca_contiguous",
        });
        e.key("readahead_allocs").num(pc.readahead_allocs);
        e.key("files").arr(|e| {
            for f in &pc.files {
                e.obj(|e| {
                    e.key("pages")
                        .arr(|e| f.pages.iter().for_each(|&(idx, pfn)| e.nums([idx, pfn])));
                    match f.offset {
                        None => e.key("offset").null(),
                        Some(off) => e.key("offset").num(off),
                    }
                });
            }
        });
    });
}

fn page_cache_from_json(v: &Json) -> DecodeResult<PageCacheSnapshot> {
    Ok(PageCacheSnapshot {
        mode: match v.field("mode")?.as_str() {
            Some("default") => CacheAllocMode::Default,
            Some("ca_contiguous") => CacheAllocMode::CaContiguous,
            other => return Err(format!("unknown cache mode {other:?}")),
        },
        readahead_allocs: v.u64_of("readahead_allocs")?,
        files: v.arr_of("files")?
            .iter()
            .map(|f| {
                Ok(FileCacheSnapshot {
                    pages: f.arr_of("pages")?
                        .iter()
                        .map(|p| decode_pair_u64(p, "cached page"))
                        .collect::<DecodeResult<_>>()?,
                    offset: match f.field("offset")? {
                        Json::Null => None,
                        other => Some(other.as_num().ok_or("cache offset is not a number")?),
                    },
                })
            })
            .collect::<DecodeResult<_>>()?,
    })
}

fn encode_recovery_config<S: Sink>(e: &mut Enc<S>, r: &RecoveryConfig) {
    e.obj(|e| {
        e.key("reclaim").bool(r.reclaim);
        e.key("compaction").bool(r.compaction);
        e.key("max_retries").num(r.max_retries);
        e.key("reclaim_batch").num(r.reclaim_batch);
        e.key("compact_budget").num(r.compact_budget);
        e.key("backoff_base_ns").num(r.backoff_base_ns);
        e.key("backoff_cap_ns").num(r.backoff_cap_ns);
        e.key("backoff_seed").num(r.backoff_seed);
        e.key("max_total_attempts").num(r.max_total_attempts);
    });
}

fn recovery_config_from_json(v: &Json) -> DecodeResult<RecoveryConfig> {
    Ok(RecoveryConfig {
        reclaim: v.bool_of("reclaim")?,
        compaction: v.bool_of("compaction")?,
        max_retries: v.u32_of("max_retries")?,
        reclaim_batch: v.u64_of("reclaim_batch")?,
        compact_budget: v.u64_of("compact_budget")?,
        backoff_base_ns: v.u64_of("backoff_base_ns")?,
        backoff_cap_ns: v.u64_of("backoff_cap_ns")?,
        backoff_seed: v.u64_of("backoff_seed")?,
        max_total_attempts: v.u32_of("max_total_attempts")?,
    })
}

/// Field order of the [`PoisonStats`] counter array encoding.
const POISON_STAT_FIELDS: usize = 8;

fn encode_poison_stats<S: Sink>(e: &mut Enc<S>, s: &PoisonStats) {
    e.nums([
        s.strikes,
        s.healed,
        s.healed_frames,
        s.heal_failed,
        s.sigbus,
        s.cache_dropped,
        s.soft_offline_ok,
        s.soft_offline_failed,
    ]);
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

fn encode_numa_stats<S: Sink>(e: &mut Enc<S>, s: &NumaStats) {
    e.nums([s.local_allocs, s.fallback_allocs, s.migrations]);
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

fn encode_daemon_stats<S: Sink>(e: &mut Enc<S>, s: &DaemonStats) {
    e.nums([
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
    ]);
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

fn encode_daemon_config<S: Sink>(e: &mut Enc<S>, c: &DaemonConfig) {
    e.obj(|e| {
        e.key("scan_interval").num(c.scan_interval);
        e.key("epoch_budget").num(c.epoch_budget);
        e.key("aggressiveness").num(c.aggressiveness);
        e.key("thp_threshold_pages").num(c.thp_threshold_pages);
        e.key("repair_poison").bool(c.repair_poison);
        e.key("shed_promote_pct").num(c.shed_promote_pct);
        e.key("shed_compact_pct").num(c.shed_compact_pct);
        e.key("yield_pct").num(c.yield_pct);
        e.key("poison_storm_frames").num(c.poison_storm_frames);
        e.key("backoff_base_ns").num(c.backoff_base_ns);
        e.key("backoff_cap_ns").num(c.backoff_cap_ns);
        e.key("backoff_seed").num(c.backoff_seed);
        e.key("watchdog_vetoes").num(c.watchdog_vetoes);
    });
}

fn daemon_config_from_json(v: &Json) -> DecodeResult<DaemonConfig> {
    Ok(DaemonConfig {
        scan_interval: v.u64_of("scan_interval")?,
        epoch_budget: v.u64_of("epoch_budget")?,
        aggressiveness: u8::try_from(v.u64_of("aggressiveness")?)
            .map_err(|_| "daemon aggressiveness out of range")?,
        thp_threshold_pages: v.u64_of("thp_threshold_pages")?,
        repair_poison: v.bool_of("repair_poison")?,
        shed_promote_pct: v.u64_of("shed_promote_pct")?,
        shed_compact_pct: v.u64_of("shed_compact_pct")?,
        yield_pct: v.u64_of("yield_pct")?,
        poison_storm_frames: v.u64_of("poison_storm_frames")?,
        backoff_base_ns: v.u64_of("backoff_base_ns")?,
        backoff_cap_ns: v.u64_of("backoff_cap_ns")?,
        backoff_seed: v.u64_of("backoff_seed")?,
        watchdog_vetoes: v.u64_of("watchdog_vetoes")?,
    })
}

/// Encodes the full mid-epoch daemon state: policy, scan
/// cursors, budget, phase, remembered promotion candidates, backoff RNG,
/// and counters.
fn encode_daemon<S: Sink>(e: &mut Enc<S>, d: &DaemonState) {
    e.obj(|e| {
        e.key("enabled").bool(d.enabled);
        encode_daemon_config(e.key("config"), &d.config);
        e.key("compact_node").num(d.compact_node);
        e.key("compact_cursor").num(d.compact_cursor);
        e.key("promote_pid").num(d.promote_pid);
        e.key("promote_va").num(d.promote_va);
        e.key("candidate_cursor").num(d.candidate_cursor);
        e.key("repair_cursor").num(d.repair_cursor);
        e.key("budget_left").num(d.budget_left);
        e.key("phase").num(d.phase.as_u64());
        e.key("candidates")
            .arr(|e| d.candidates.iter().for_each(|&(pid, va)| e.nums([pid.into(), va])));
        e.key("backoff_rng").num(d.backoff_rng);
        e.key("backoff_until_ns").num(d.backoff_until_ns);
        e.key("yield_streak").num(d.yield_streak);
        e.key("epoch").num(d.epoch);
        encode_daemon_stats(e.key("stats"), &d.stats);
    });
}

fn daemon_from_json(v: &Json) -> DecodeResult<DaemonState> {
    Ok(DaemonState {
        enabled: v.bool_of("enabled")?,
        config: daemon_config_from_json(v.field("config")?)?,
        compact_node: v.u64_of("compact_node")?,
        compact_cursor: v.u64_of("compact_cursor")?,
        promote_pid: v.u64_of("promote_pid")?,
        promote_va: v.u64_of("promote_va")?,
        candidate_cursor: v.u64_of("candidate_cursor")?,
        repair_cursor: v.u64_of("repair_cursor")?,
        budget_left: v.u64_of("budget_left")?,
        phase: DaemonPhase::from_u64(v.u64_of("phase")?),
        candidates: v.arr_of("candidates")?
            .iter()
            .map(|p| {
                let (pid, va) = decode_pair_u64(p, "daemon candidate")?;
                Ok((u32::try_from(pid).map_err(|_| "candidate pid out of range")?, va))
            })
            .collect::<DecodeResult<_>>()?,
        backoff_rng: v.u64_of("backoff_rng")?,
        backoff_until_ns: v.u64_of("backoff_until_ns")?,
        yield_streak: v.u64_of("yield_streak")?,
        epoch: v.u64_of("epoch")?,
        stats: daemon_stats_from_json(v.field("stats")?)?,
    })
}

/// Field order of the [`RecoveryStats`] counter array encoding.
const RECOVERY_STAT_FIELDS: usize = 15;

fn encode_recovery_stats<S: Sink>(e: &mut Enc<S>, s: &RecoveryStats) {
    e.nums([
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
    ]);
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

/// Writes a [`SystemSnapshot`] in its canonical encoding.
pub fn encode_system<S: Sink>(e: &mut Enc<S>, s: &SystemSnapshot) {
    e.obj(|e| {
        encode_machine(e.key("machine"), &s.machine);
        e.key("processes").arr(|e| s.processes.iter().for_each(|p| encode_process(e, p)));
        encode_page_cache(e.key("page_cache"), &s.page_cache);
        e.key("next_pid").num(s.next_pid);
        e.key("thp").bool(s.thp);
        e.key("pt_levels").num(s.pt_levels);
        e.key("record_latencies").bool(s.record_latencies);
        e.key("latency").obj(|e| {
            e.key("base_ns").num(s.latency.base_ns);
            e.key("zero_page_ns").num(s.latency.zero_page_ns);
            e.key("placement_ns").num(s.latency.placement_ns);
        });
        e.key("shared")
            .arr(|e| s.shared.iter().for_each(|&(pfn, count)| e.nums([pfn, count.into()])));
        e.key("now_ns").num(s.now_ns);
        encode_recovery_config(e.key("recovery"), &s.recovery);
        encode_recovery_stats(e.key("recovery_stats"), &s.recovery_stats);
        e.key("backoff_rng").num(s.backoff_rng);
        encode_poison_policy(e.key("poison_policy"), &s.poison_policy);
        encode_poison_stats(e.key("poison_stats"), &s.poison_stats);
        encode_numa_stats(e.key("numa_stats"), &s.numa_stats);
        encode_daemon(e.key("daemon"), &s.daemon);
    });
}

/// Decodes a [`SystemSnapshot`] from its [`Json`] encoding.
///
/// # Errors
///
/// Describes the first missing or ill-typed field.
pub fn system_from_json(v: &Json) -> DecodeResult<SystemSnapshot> {
    let lat = v.field("latency")?;
    Ok(SystemSnapshot {
        machine: machine_from_json(v.field("machine")?)?,
        processes: v.arr_of("processes")?
            .iter()
            .map(process_from_json)
            .collect::<DecodeResult<_>>()?,
        page_cache: page_cache_from_json(v.field("page_cache")?)?,
        next_pid: v.u32_of("next_pid")?,
        thp: v.bool_of("thp")?,
        pt_levels: v.u32_of("pt_levels")?,
        record_latencies: v.bool_of("record_latencies")?,
        latency: LatencyModel {
            base_ns: lat.u64_of("base_ns")?,
            zero_page_ns: lat.u64_of("zero_page_ns")?,
            placement_ns: lat.u64_of("placement_ns")?,
        },
        shared: v.arr_of("shared")?
            .iter()
            .map(|p| {
                let (pfn, count) = decode_pair_u64(p, "shared entry")?;
                Ok((pfn, u32::try_from(count).map_err(|_| "share count out of range")?))
            })
            .collect::<DecodeResult<_>>()?,
        now_ns: v.u64_of("now_ns")?,
        recovery: recovery_config_from_json(v.field("recovery")?)?,
        recovery_stats: recovery_stats_from_json(v.field("recovery_stats")?)?,
        backoff_rng: v.u64_of("backoff_rng")?,
        poison_policy: poison_policy_from_json(v.field("poison_policy")?)?,
        poison_stats: poison_stats_from_json(v.field("poison_stats")?)?,
        numa_stats: numa_stats_from_json(v.field("numa_stats")?)?,
        daemon: daemon_from_json(v.field("daemon")?)?,
    })
}

/// Writes a [`VmSnapshot`] (both translation dimensions) in its canonical
/// encoding.
pub fn encode_vm<S: Sink>(e: &mut Enc<S>, s: &VmSnapshot) {
    e.obj(|e| {
        encode_system(e.key("guest"), &s.guest);
        encode_system(e.key("host"), &s.host);
        e.key("host_pid").num(s.host_pid);
        e.key("host_vma_start").num(s.host_vma_start);
        e.key("host_vma_base").num(s.host_vma_base);
        e.key("balloon").nums(s.balloon.iter().copied());
        e.key("sharing").arr(|e| {
            for (pfn, gframes) in &s.sharing {
                e.arr(|e| {
                    e.num(*pfn);
                    e.nums(gframes.iter().copied());
                });
            }
        });
    });
}

/// Decodes a [`VmSnapshot`] from its [`Json`] encoding.
///
/// # Errors
///
/// Describes the first missing or ill-typed field.
pub fn vm_from_json(v: &Json) -> DecodeResult<VmSnapshot> {
    Ok(VmSnapshot {
        guest: system_from_json(v.field("guest")?)?,
        host: system_from_json(v.field("host")?)?,
        host_pid: v.u32_of("host_pid")?,
        host_vma_start: v.u64_of("host_vma_start")?,
        host_vma_base: v.u64_of("host_vma_base")?,
        balloon: u64s(v.field("balloon")?, "balloon frame")?,
        sharing: v
            .arr_of("sharing")?
            .iter()
            .map(|rec| match rec.as_arr() {
                Some([pfn, gframes]) => {
                    Ok((as_u64(pfn, "sharing pfn")?, u64s(gframes, "sharing gframe")?))
                }
                _ => Err("sharing record is not a 2-element array".to_string()),
            })
            .collect::<DecodeResult<_>>()?,
    })
}

// ---------------------------------------------------------------------------
// contig-fleet: multi-tenant fleet images
// ---------------------------------------------------------------------------

fn encode_fleet_tenant<S: Sink>(e: &mut Enc<S>, t: &contig_fleet::TenantSnapshot) {
    e.obj(|e| {
        e.key("id").num(t.id);
        encode_system(e.key("guest"), &t.guest);
        e.key("host_idx").num(t.host_idx);
        e.key("host_pid").num(t.host_pid);
        e.key("guest_pid").num(t.guest_pid);
        e.key("balloon").nums(t.balloon.iter().copied());
        e.key("tags").arr(|e| t.tags.iter().for_each(|&(p, tag)| e.nums([p, tag])));
    });
}

/// Writes a [`contig_fleet::FleetSnapshot`] in its canonical encoding. The
/// fleet digest hashes this encoding, so crash-replayed fleets can be
/// compared byte-for-byte against the live fleet; there is no decoder — a
/// repro file carries ops, not state.
pub fn encode_fleet<S: Sink>(e: &mut Enc<S>, s: &contig_fleet::FleetSnapshot) {
    let cfg = &s.config;
    e.obj(|e| {
        e.key("config").obj(|e| {
            e.key("hosts").num(cfg.hosts as u64);
            e.key("host_mib").num(cfg.host_mib);
            e.key("guest_mib").num(cfg.guest_mib);
            e.key("overcommit_ppm").num(cfg.overcommit_ppm);
            e.key("low_watermark_ppm").num(cfg.low_watermark_ppm);
            e.key("high_watermark_ppm").num(cfg.high_watermark_ppm);
            e.key("balloon_step").num(cfg.balloon_step);
            e.key("balloon_retries").num(cfg.balloon_retries);
            e.key("backing_attempts").num(cfg.backing_attempts);
            e.key("evac_storm_ppm").num(cfg.evac_storm_ppm);
            e.key("evac_attempts").num(cfg.evac_attempts);
            e.key("seed").num(cfg.seed);
            e.key("host_nodes").num(cfg.host_nodes as u64);
        });
        e.key("hosts").arr(|e| s.hosts.iter().for_each(|h| encode_system(e, h)));
        e.key("sharing").arr(|e| {
            for host in &s.sharing {
                e.arr(|e| {
                    for (pfn, members) in host {
                        e.arr(|e| {
                            e.num(*pfn);
                            e.arr(|e| members.iter().for_each(|&(t, g)| e.nums([t, g])));
                        });
                    }
                });
            }
        });
        e.key("tenants").arr(|e| s.tenants.iter().for_each(|t| encode_fleet_tenant(e, t)));
        e.key("stats").nums(s.stats.as_named().iter().map(|&(_, count)| count));
        e.key("next_tenant").num(s.next_tenant);
        e.key("rng").num(s.rng);
        e.key("ksm_cursor").num(s.ksm_cursor);
    });
}

// ---------------------------------------------------------------------------
// contig-tlb: translation caches
// ---------------------------------------------------------------------------

fn encode_cache<S: Sink>(e: &mut Enc<S>, c: &CacheSnapshot) {
    e.obj(|e| {
        e.key("sets").num(c.sets);
        e.key("ways").num(c.ways);
        e.key("slots").arr(|e| {
            for slot in &c.slots {
                match *slot {
                    None => e.null(),
                    Some((key, tick)) => e.nums([key, tick]),
                }
            }
        });
        e.key("tick").num(c.tick);
        e.key("hits").num(c.hits);
        e.key("misses").num(c.misses);
    });
}

fn cache_from_json(v: &Json) -> DecodeResult<CacheSnapshot> {
    let snap = CacheSnapshot {
        sets: v.u64_of("sets")?,
        ways: v.u64_of("ways")?,
        slots: v.arr_of("slots")?
            .iter()
            .map(|slot| match slot {
                Json::Null => Ok(None),
                other => decode_pair_u64(other, "cache slot").map(Some),
            })
            .collect::<DecodeResult<_>>()?,
        tick: v.u64_of("tick")?,
        hits: v.u64_of("hits")?,
        misses: v.u64_of("misses")?,
    };
    snap.validate()?;
    Ok(snap)
}

/// Writes a [`TlbSnapshot`] (full hierarchy with LRU state) in its
/// canonical encoding.
pub fn encode_tlb<S: Sink>(e: &mut Enc<S>, s: &TlbSnapshot) {
    e.obj(|e| {
        encode_cache(e.key("l1_4k"), &s.l1_4k);
        encode_cache(e.key("l1_2m"), &s.l1_2m);
        encode_cache(e.key("l2"), &s.l2);
        e.key("counters").nums(s.counters);
    });
}

/// Decodes a [`TlbSnapshot`] from its [`Json`] encoding.
///
/// # Errors
///
/// Describes the first missing or ill-typed field, or the first structure
/// whose image no cache can have produced ([`CacheSnapshot::validate`]), so
/// `TlbHierarchy::from_snapshot` accepts whatever this returns.
pub fn tlb_from_json(v: &Json) -> DecodeResult<TlbSnapshot> {
    let raw = v.arr_of("counters")?;
    if raw.len() != 4 {
        return Err("tlb counters must have 4 entries".into());
    }
    let mut counters = [0u64; 4];
    for (slot, val) in counters.iter_mut().zip(raw) {
        *slot = as_u64(val, "tlb counter")?;
    }
    Ok(TlbSnapshot {
        l1_4k: cache_from_json(v.field("l1_4k")?)?,
        l1_2m: cache_from_json(v.field("l1_2m")?)?,
        l2: cache_from_json(v.field("l2")?)?,
        counters,
    })
}

// ---------------------------------------------------------------------------
// JSONL file format
// ---------------------------------------------------------------------------

/// Serializes a [`VmSnapshot`] to the two-line JSONL snapshot format
/// (versioned header with digest, then the payload).
pub fn encode_vm_file(snap: &VmSnapshot) -> String {
    let payload = line(|e| encode_vm(e, snap));
    let header = line(|e| {
        e.obj(|e| {
            e.key("format").str(SNAPSHOT_FORMAT);
            e.key("version").num(SNAPSHOT_VERSION);
            e.key("digest").num(fnv1a64(payload.as_bytes()));
        });
    });
    format!("{header}\n{payload}\n")
}

/// Parses and validates a snapshot file produced by [`encode_vm_file`].
///
/// # Errors
///
/// Rejects missing headers, unknown format tags, any version but
/// [`SNAPSHOT_VERSION`], digest mismatches (corruption), malformed payloads,
/// and anything but blank lines after the payload.
pub fn decode_vm_file(text: &str) -> DecodeResult<VmSnapshot> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty snapshot file")?;
    let payload_line = lines.next().ok_or("snapshot file has no payload line")?;
    if lines.next().is_some() {
        return Err("trailing data after payload line".into());
    }
    let header = parse(header_line).map_err(|e| format!("bad header: {e}"))?;
    match header.field("format")?.as_str() {
        Some(SNAPSHOT_FORMAT) => {}
        other => return Err(format!("not a snapshot file (format {other:?})")),
    }
    let version = header.field("version")?.as_num().ok_or("version is not a number")?;
    if version != SNAPSHOT_VERSION {
        return Err(format!(
            "snapshot version {version} unsupported (decoder speaks {SNAPSHOT_VERSION})"
        ));
    }
    let want = header.u64_of("digest")?;
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
        line(|e| encode_system(e, snap)).into_bytes()
    }

    fn decode(&self, bytes: &[u8]) -> Result<SystemSnapshot, String> {
        let text =
            std::str::from_utf8(bytes).map_err(|e| format!("state chunk not UTF-8: {e}"))?;
        let v = parse(text).map_err(|e| format!("state chunk not JSON: {e}"))?;
        system_from_json(&v)
    }
}
