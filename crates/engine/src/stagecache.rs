//! Incremental stage-level caching: memoized pipeline stages keyed by
//! their exact inputs, and the one result store of an [`crate::Engine`].
//!
//! A finished job is one more entry of this store: its [`Comparison`]
//! (or the error that stopped it) under its [`JobKey`], artifact kind
//! `job`. Below job granularity, a latency sweep over one spec would
//! re-run kernel extraction at every point and a one-operation spec edit
//! would be a 100 % cold start. This module therefore decomposes a
//! cache-miss job into the stage functions `bittrans-core` exposes
//! ([`bittrans_core::stage_extract`] and friends) and memoizes each
//! stage under a content key derived from *that stage's inputs alone*:
//!
//! ```text
//! stage        key material (joined with \x1f, then FNV-128 hashed)
//! ─────        ──────────────────────────────────────────────────────
//! extract      "extract", canonical spec text
//! fragment     "fragment", canonical kernel text, λ
//! verify       "verify", spec text, fragmented spec text, vectors
//! sched_base   "sched_base", spec text, λ, chaining, balance
//! sched_frag   "sched_frag", kernel text, λ, balance
//! alloc_*      producing-schedule material + adder architecture
//! time_*       producing-allocation material + timing-model bits
//! job          the JobKey itself (spec text × λ × options)
//! ```
//!
//! Parsing/canonicalization is the degenerate zeroth stage: its
//! "artifact" is the canonical spec text itself, computed once per
//! [`StageCache::compare_staged`] call and embedded in every downstream
//! key (it is not separately cached — producing the key would cost as
//! much as producing the artifact).
//!
//! Because keys chain through *artifact content* (the fragment key hashes
//! the extracted kernel's text, not the original spec's), an edit that
//! does not change a stage's inputs does not invalidate anything
//! downstream of it, and two different specs with the same kernel share
//! every post-extraction stage. Concretely:
//!
//! * a latency sweep over one spec shares the latency-invariant prefix
//!   (one `extract`) across all points;
//! * an options axis (adder architecture, timing model) shares
//!   `extract`, `fragment` and `verify` — the expensive stages — and
//!   recomputes only allocation and timing;
//! * a spec edit recomputes only its downstream suffix.
//!
//! # Storage
//!
//! Stage outputs live in memory as [`Arc`]-shared artifacts behind
//! [`OnceLock`] slots: concurrent workers that need the same stage block
//! on one initializer instead of computing it twice, so hit/miss counts
//! are deterministic for a given job set. Errors are cached too —
//! stages are pure functions of their keys, so a failure is as
//! reproducible as a success. Job slots are never blocked on: a job is
//! read without waiting (`StageCache::job`: memory, then its disk
//! file) and its slot is set when the finished job is admitted
//! (`StageCache::admit_job`); concurrent requests for one uncomputed
//! job are the caller's to coalesce. The memo is bounded: at most
//! [`STAGE_MEMO_CAPACITY`] slots — stages and jobs together — are
//! resident, evicted oldest-first, so a long-lived serve process stops
//! growing without limit (an evicted entry costs at worst one disk load
//! or recompute later).
//!
//! The disk tier under `<cache-dir>/stages/` persists **every** stage
//! and every successful job, as `<key>.stage` files: a one-line
//! `bittrans-stage 2 <stage> ok` envelope followed by the artifact's
//! canonical text (the `to_canonical` / `from_canonical` codec each
//! artifact type carries in its home crate — `Display` remains the
//! human-oriented, *non*-parseable dump). A fresh process over a warm
//! directory therefore answers an unchanged grid from its job files, and
//! recomputes zero stages when only those are gone. Files are written to
//! a hidden temp file (pid + process-wide serial) and renamed into
//! place, so a reader never sees a torn file; a file whose envelope or
//! body fails to decode — including one written by a *newer* schema — is
//! deleted and recomputed, never misparsed, and the recompute's respill
//! repairs it. The filesystem itself is the index (no manifest to
//! rebuild), and `cache prune` sweeps it (resident entries are pinned).
//! Legacy files — schema-1 verify tokens (`stages/<key>.json`) and the
//! JSON job files and manifest of older builds at the top level of the
//! cache directory — are never read; the tokens age out under pruning,
//! the top-level files are left alone.
//!
//! Every stage resolution emits one `stage` trace event whose
//! `provenance` (`memory` / `disk` / `computed`) reconciles exactly with
//! the [`StageTally`] counters surfaced as `stage_hits` / `stage_misses`
//! in [`crate::EngineStats`]. Job lookups touch neither: the engine
//! counts them as `cache_hits` / `cache_misses` and traces them as `job`
//! events.

use crate::job::JobResult;
use crate::key::JobKey;
use crate::trace;
use bittrans_core::{
    stage_allocate, stage_extract, stage_fragment, stage_schedule_conventional,
    stage_schedule_fragments, stage_time, stage_verify, Chaining, CompareOptions, Comparison,
    Datapath, Fragmented, Implementation, PipelineError, Schedule,
};
use bittrans_ir::Spec;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default bound on resident in-memory slots, stages and jobs together.
/// At roughly a few kilobytes per artifact this caps the memo in the
/// tens of megabytes; a serve process that outgrows it falls back to
/// the disk tier.
pub(crate) const STAGE_MEMO_CAPACITY: usize = 4096;

/// Schema version of the `<key>.stage` disk envelope. Bumping it makes
/// old files decode-fail (delete → recompute → respill), never misparse.
const STAGE_FILE_SCHEMA: u32 = 2;

/// One memoized stage output (or the error that producing it raised).
#[derive(Clone, Debug)]
enum StageValue {
    /// `extract`: the additive-form kernel.
    Kernel(Arc<Spec>),
    /// `fragment`: the fragmented kernel with metadata.
    Fragmented(Arc<Fragmented>),
    /// `verify`: the fact that equivalence checking passed.
    Verified,
    /// `sched_base` / `sched_frag`: a schedule.
    Schedule(Arc<Schedule>),
    /// `alloc_base` / `alloc_frag`: an allocated datapath.
    Datapath(Arc<Datapath>),
    /// `time_base` / `time_frag`: the measured implementation.
    Timed(Arc<Implementation>),
    /// `job`: a finished job, shared as-is with every outcome it backs.
    Job(Arc<JobResult>),
}

impl StageValue {
    // The `unreachable!`s below guard against two different stages
    // sharing a key; keys are prefix-tagged with the stage name, so a
    // mismatch means a 128-bit hash collision across tags.
    fn into_kernel(self) -> Arc<Spec> {
        match self {
            StageValue::Kernel(v) => v,
            _ => unreachable!("stage key resolved to a non-kernel artifact"),
        }
    }
    fn into_fragmented(self) -> Arc<Fragmented> {
        match self {
            StageValue::Fragmented(v) => v,
            _ => unreachable!("stage key resolved to a non-fragment artifact"),
        }
    }
    fn into_schedule(self) -> Arc<Schedule> {
        match self {
            StageValue::Schedule(v) => v,
            _ => unreachable!("stage key resolved to a non-schedule artifact"),
        }
    }
    fn into_datapath(self) -> Arc<Datapath> {
        match self {
            StageValue::Datapath(v) => v,
            _ => unreachable!("stage key resolved to a non-datapath artifact"),
        }
    }
    fn into_timed(self) -> Arc<Implementation> {
        match self {
            StageValue::Timed(v) => v,
            _ => unreachable!("stage key resolved to a non-implementation artifact"),
        }
    }
    fn into_job(self) -> Arc<JobResult> {
        match self {
            StageValue::Job(v) => v,
            _ => unreachable!("job key resolved to a stage artifact"),
        }
    }

    /// The canonical text spilled as the `<key>.stage` body (empty for
    /// `Verified`, whose artifact is the fact that it passed, and for a
    /// failed job, which is never spilled).
    fn to_canonical(&self) -> String {
        match self {
            StageValue::Kernel(v) => v.to_canonical(),
            StageValue::Fragmented(v) => v.to_canonical(),
            StageValue::Verified => String::new(),
            StageValue::Schedule(v) => v.to_canonical(),
            StageValue::Datapath(v) => v.to_canonical(),
            StageValue::Timed(v) => v.to_canonical(),
            StageValue::Job(v) => {
                v.as_ref().as_ref().map_or_else(|_| String::new(), Comparison::to_canonical)
            }
        }
    }
}

/// The artifact shape a stage resolves to — what the disk tier must
/// decode a `<key>.stage` body back into.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StageKind {
    /// Body is a canonical `Spec`.
    Kernel,
    /// Body is a canonical `Fragmented`.
    Fragmented,
    /// Body is empty.
    Verified,
    /// Body is a canonical `Schedule`.
    Schedule,
    /// Body is a canonical `Datapath`.
    Datapath,
    /// Body is a canonical `Implementation`.
    Timed,
    /// Body is a canonical `Comparison`.
    Job,
}

impl StageKind {
    /// Decodes a `<key>.stage` body into the artifact; `None` marks the
    /// file corrupt (delete → recompute → respill).
    fn decode(self, body: &str) -> Option<StageValue> {
        match self {
            StageKind::Kernel => {
                Spec::from_canonical(body).ok().map(|v| StageValue::Kernel(Arc::new(v)))
            }
            StageKind::Fragmented => {
                Fragmented::from_canonical(body).ok().map(|v| StageValue::Fragmented(Arc::new(v)))
            }
            StageKind::Verified => body.is_empty().then_some(StageValue::Verified),
            StageKind::Schedule => {
                Schedule::from_canonical(body).ok().map(|v| StageValue::Schedule(Arc::new(v)))
            }
            StageKind::Datapath => {
                Datapath::from_canonical(body).ok().map(|v| StageValue::Datapath(Arc::new(v)))
            }
            StageKind::Timed => {
                Implementation::from_canonical(body).ok().map(|v| StageValue::Timed(Arc::new(v)))
            }
            StageKind::Job => {
                Comparison::from_canonical(body).ok().map(|v| StageValue::Job(Arc::new(Ok(v))))
            }
        }
    }
}

type Slot = Arc<OnceLock<Result<StageValue, PipelineError>>>;

/// Where a stage resolution was answered from; mirrors the `provenance`
/// attribute of the emitted `stage` trace event.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Provenance {
    /// Another caller already materialized the slot (or is doing so now;
    /// `OnceLock` blocks us until it lands).
    Memory,
    /// Loaded from a `<cache-dir>/stages/` artifact file.
    Disk,
    /// Ran the stage function.
    Computed,
}

/// Hit/miss counters: per batch (or per request) for stages, `Arc`-shared
/// into worker closures and folded into that batch's
/// [`crate::EngineStats`]; per engine lifetime for jobs.
#[derive(Debug, Default)]
pub struct StageTally {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StageTally {
    /// Stages served from cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Stages computed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Adds to both counters.
    pub(crate) fn record(&self, hits: u64, misses: u64) {
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }
}

/// The bounded slot memo: insertion-ordered, evicted oldest-first once
/// `capacity` is reached. Eviction only drops the memo's reference —
/// in-flight resolutions hold their own `Arc` and complete normally; a
/// later request for an evicted key re-resolves through disk or compute.
#[derive(Debug)]
struct Memo {
    map: HashMap<JobKey, Slot>,
    order: VecDeque<JobKey>,
    capacity: usize,
}

impl Default for Memo {
    fn default() -> Self {
        Memo { map: HashMap::new(), order: VecDeque::new(), capacity: STAGE_MEMO_CAPACITY }
    }
}

impl Memo {
    /// The value of `key`'s slot, if it is resident and set.
    fn get(&self, key: &JobKey) -> Option<&Result<StageValue, PipelineError>> {
        self.map.get(key).and_then(|slot| slot.get())
    }

    fn slot(&mut self, key: JobKey) -> Slot {
        if let Some(slot) = self.map.get(&key) {
            return Arc::clone(slot);
        }
        while self.map.len() >= self.capacity.max(1) {
            match self.order.pop_front() {
                Some(oldest) => {
                    self.map.remove(&oldest);
                }
                None => break,
            }
        }
        let slot = Slot::default();
        self.map.insert(key, Arc::clone(&slot));
        self.order.push_back(key);
        slot
    }
}

/// The engine's result store: bounded in-memory `OnceLock` slots for
/// stage artifacts and finished jobs, an optional disk tier persisting
/// them through the canonical codec, and lifetime stage counters. One
/// per [`crate::Engine`], shared by every batch and serve request run
/// through it.
#[derive(Debug, Default)]
pub struct StageCache {
    memo: Mutex<Memo>,
    /// `<cache-dir>/stages`, when a cache directory is attached.
    disk_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StageCache {
    /// Attaches the stage artifact directory (`<cache-dir>/stages`). The
    /// directory is created lazily, on first spill.
    pub(crate) fn attach_disk(&mut self, dir: PathBuf) {
        self.disk_dir = Some(dir);
    }

    /// The attached `<cache-dir>/stages` directory, if any.
    pub(crate) fn disk_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
    }

    /// Caps the resident slot count (tests exercise small bounds; the
    /// default is [`STAGE_MEMO_CAPACITY`]).
    #[cfg(test)]
    pub(crate) fn set_memo_capacity(&self, capacity: usize) {
        self.memo.lock().expect("stage cache lock").capacity = capacity;
    }

    /// Keys currently resident in the memo — `cache prune` pins these so
    /// an artifact the process is actively sharing is never evicted from
    /// disk out from under a concurrent reader's repair path.
    pub(crate) fn resident_keys(&self) -> HashSet<JobKey> {
        self.memo.lock().expect("stage cache lock").map.keys().copied().collect()
    }

    /// Finished jobs currently resident in the memo.
    pub(crate) fn resident_jobs(&self) -> usize {
        let memo = self.memo.lock().expect("stage cache lock");
        memo.map.values().filter(|slot| matches!(slot.get(), Some(Ok(StageValue::Job(_))))).count()
    }

    /// Looks a finished job up without blocking: the resident slot, else
    /// its disk file (promoted into the memo). Returns the shared result
    /// and where it came from (`"memory"` or `"disk"`), the provenance a
    /// `job` trace event carries. Counts nothing — job hits and misses
    /// are the caller's.
    pub(crate) fn job(&self, key: JobKey) -> Option<(Arc<JobResult>, &'static str)> {
        if let Some(Ok(StageValue::Job(result))) =
            self.memo.lock().expect("stage cache lock").get(&key)
        {
            return Some((Arc::clone(result), "memory"));
        }
        let result = self.load_artifact(key, "job", StageKind::Job)?.into_job();
        let slot = self.memo.lock().expect("stage cache lock").slot(key);
        let _ = slot.set(Ok(StageValue::Job(Arc::clone(&result))));
        Some((result, "disk"))
    }

    /// Whether `key`'s job file on disk decodes, without touching the
    /// memo. A corrupt file is deleted, as on every disk read.
    pub(crate) fn job_on_disk(&self, key: JobKey) -> bool {
        self.load_artifact(key, "job", StageKind::Job).is_some()
    }

    /// Admits a finished job: sets its slot and spills a successful
    /// comparison to `<key>.stage` (best effort). Errors stay in memory
    /// only, like failed stages.
    pub(crate) fn admit_job(&self, key: JobKey, result: &Arc<JobResult>) {
        let value = StageValue::Job(Arc::clone(result));
        if result.is_ok() {
            self.spill_artifact(key, "job", &value);
        }
        let slot = self.memo.lock().expect("stage cache lock").slot(key);
        let _ = slot.set(Ok(value));
    }

    /// Lifetime stage hits across every batch.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lifetime stage misses across every batch.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Resolves one stage: serves the memoized artifact, or probes the
    /// disk tier, or runs `compute` — exactly once per key, even under
    /// concurrency, because every caller funnels through the slot's
    /// `OnceLock`.
    fn resolve(
        &self,
        key: JobKey,
        stage: &'static str,
        kind: StageKind,
        tally: &StageTally,
        compute: impl FnOnce() -> Result<StageValue, PipelineError>,
    ) -> Result<StageValue, PipelineError> {
        let slot: Slot = self.memo.lock().expect("stage cache lock").slot(key);
        let mut provenance = Provenance::Memory;
        let result = slot
            .get_or_init(|| {
                if let Some(value) = self.load_artifact(key, stage, kind) {
                    provenance = Provenance::Disk;
                    return Ok(value);
                }
                provenance = Provenance::Computed;
                let value = compute();
                if let Ok(value) = &value {
                    self.spill_artifact(key, stage, value);
                }
                value
            })
            .clone();
        match provenance {
            Provenance::Computed => {
                tally.misses.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            Provenance::Memory | Provenance::Disk => {
                tally.hits.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        }
        trace::event("stage", |a| {
            a.str("stage", stage)
                .str("key", &key.to_string())
                .str(
                    "provenance",
                    match provenance {
                        Provenance::Memory => "memory",
                        Provenance::Disk => "disk",
                        Provenance::Computed => "computed",
                    },
                )
                .flag("ok", result.is_ok());
        });
        result
    }

    /// Loads the artifact for `key` from the disk tier. A file that
    /// exists but whose envelope or body fails to decode — wrong schema
    /// (older *or* newer), wrong stage, corrupt canonical text — is
    /// deleted so the recompute's respill repairs it.
    fn load_artifact(&self, key: JobKey, stage: &str, kind: StageKind) -> Option<StageValue> {
        let dir = self.disk_dir.as_ref()?;
        let path = dir.join(format!("{key}.stage"));
        let text = std::fs::read_to_string(&path).ok()?;
        let (envelope, body) = text.split_once('\n').unwrap_or((text.as_str(), ""));
        let expected = format!("bittrans-stage {STAGE_FILE_SCHEMA} {stage} ok");
        let value = if envelope == expected { kind.decode(body) } else { None };
        if value.is_none() {
            let _ = std::fs::remove_file(&path);
        }
        value
    }

    /// Best-effort spill of a successful artifact: hidden temp file in
    /// the same directory, then atomic rename, so a reader never sees a
    /// torn file. The temp name carries pid + a process-wide serial, so
    /// two threads (or two engines in one process) spilling one key never
    /// write into the same temp file; a temp file whose write or rename
    /// fails is removed. A failed write costs a recompute in some later process,
    /// never this result. Errors are not spilled — they are cheap to
    /// reproduce and a schema-visible failure marker would risk pinning a
    /// transient environment problem.
    fn spill_artifact(&self, key: JobKey, stage: &str, value: &StageValue) {
        static SPILL: AtomicU64 = AtomicU64::new(0);
        let Some(dir) = &self.disk_dir else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let body =
            format!("bittrans-stage {STAGE_FILE_SCHEMA} {stage} ok\n{}", value.to_canonical());
        let serial = SPILL.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{key}.{}-{serial}.tmp", std::process::id()));
        if std::fs::write(&tmp, body)
            .and_then(|()| std::fs::rename(&tmp, dir.join(format!("{key}.stage"))))
            .is_err()
        {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Runs one comparison through the memoized stages. Composes the
    /// very same `bittrans-core` stage functions in the very same order
    /// as the monolithic [`bittrans_core::compare`] — baseline flow
    /// fully first, then the optimized flow — so results (including
    /// which error surfaces when both flows would fail) are
    /// bit-identical to the uncached path.
    pub(crate) fn compare_staged(
        &self,
        spec: &Spec,
        latency: u32,
        options: &CompareOptions,
        tally: &StageTally,
    ) -> Result<Comparison, PipelineError> {
        // The parse/canonicalize "stage": one canonical rendering per
        // call, embedded in every downstream key.
        let spec_text = spec.to_string();
        let balance = u8::from(options.balance);
        let adder = options.adder_arch.code();
        let chaining = Chaining::ComponentSum.code();
        let timing_bits = format!(
            "{:016x};{:016x}",
            options.timing.delta_ns.to_bits(),
            options.timing.overhead_ns.to_bits()
        );
        let lat = latency.to_string();

        // Baseline flow (conventional schedule of the original spec).
        let base_sched = self
            .resolve(
                stage_key(&["sched_base", &spec_text, &lat, chaining, &balance.to_string()]),
                "sched_base",
                StageKind::Schedule,
                tally,
                || {
                    stage_schedule_conventional(
                        spec,
                        latency,
                        Chaining::ComponentSum,
                        options.balance,
                    )
                    .map(|s| StageValue::Schedule(Arc::new(s)))
                },
            )?
            .into_schedule();
        let base_alloc_material =
            ["alloc_base", &spec_text, &lat, chaining, &balance.to_string(), adder].join("\x1f");
        let base_dp = self
            .resolve(
                JobKey::of_bytes(base_alloc_material.as_bytes()),
                "alloc_base",
                StageKind::Datapath,
                tally,
                || {
                    Ok(StageValue::Datapath(Arc::new(stage_allocate(
                        spec,
                        &base_sched,
                        options.adder_arch,
                    ))))
                },
            )?
            .into_datapath();
        let original = self
            .resolve(
                stage_key(&["time_base", &base_alloc_material, &timing_bits]),
                "time_base",
                StageKind::Timed,
                tally,
                || {
                    Ok(StageValue::Timed(Arc::new(stage_time(
                        spec.name(),
                        spec,
                        &base_sched,
                        &base_dp,
                        &options.timing,
                    ))))
                },
            )?
            .into_timed();

        // Optimized flow. `extract` is the latency-invariant prefix: one
        // per spec, shared by every point of a sweep. Everything after
        // it keys on the *kernel's* content, so specs that extract to
        // the same kernel share the whole suffix.
        let kernel = self
            .resolve(
                stage_key(&["extract", &spec_text]),
                "extract",
                StageKind::Kernel,
                tally,
                || stage_extract(spec).map(|k| StageValue::Kernel(Arc::new(k))),
            )?
            .into_kernel();
        let kernel_text = kernel.to_string();
        let fragmented = self
            .resolve(
                stage_key(&["fragment", &kernel_text, &lat]),
                "fragment",
                StageKind::Fragmented,
                tally,
                || stage_fragment(&kernel, latency).map(|f| StageValue::Fragmented(Arc::new(f))),
            )?
            .into_fragmented();
        if options.verify_vectors > 0 {
            // Keyed on the *fragmented* spec's content: two latencies
            // that fragment identically share one verification.
            let frag_text = fragmented.spec.to_string();
            self.resolve(
                stage_key(&["verify", &spec_text, &frag_text, &options.verify_vectors.to_string()]),
                "verify",
                StageKind::Verified,
                tally,
                || {
                    stage_verify(spec, &fragmented.spec, options.verify_vectors)
                        .map(|()| StageValue::Verified)
                },
            )?;
        }
        let frag_sched = self
            .resolve(
                stage_key(&["sched_frag", &kernel_text, &lat, &balance.to_string()]),
                "sched_frag",
                StageKind::Schedule,
                tally,
                || {
                    stage_schedule_fragments(&fragmented, options.balance)
                        .map(|s| StageValue::Schedule(Arc::new(s)))
                },
            )?
            .into_schedule();
        let frag_alloc_material =
            ["alloc_frag", &kernel_text, &lat, &balance.to_string(), adder].join("\x1f");
        let frag_dp = self
            .resolve(
                JobKey::of_bytes(frag_alloc_material.as_bytes()),
                "alloc_frag",
                StageKind::Datapath,
                tally,
                || {
                    Ok(StageValue::Datapath(Arc::new(stage_allocate(
                        &fragmented.spec,
                        &frag_sched,
                        options.adder_arch,
                    ))))
                },
            )?
            .into_datapath();
        let optimized = self
            .resolve(
                // `Implementation.name` is the original spec's name, so
                // the timing key must carry it: two specs sharing a
                // kernel share everything up to here, but not the label.
                stage_key(&["time_frag", spec.name(), &frag_alloc_material, &timing_bits]),
                "time_frag",
                StageKind::Timed,
                tally,
                || {
                    Ok(StageValue::Timed(Arc::new(stage_time(
                        spec.name(),
                        &fragmented.spec,
                        &frag_sched,
                        &frag_dp,
                        &options.timing,
                    ))))
                },
            )?
            .into_timed();

        Ok(Comparison { original: (*original).clone(), optimized: (*optimized).clone() })
    }
}

/// A stage key: the stage-name-tagged parts joined with the same `\x1f`
/// separator [`crate::key`] uses, FNV-128 hashed.
fn stage_key(parts: &[&str]) -> JobKey {
    JobKey::of_bytes(parts.join("\x1f").as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bittrans_core::compare;

    fn three_adds() -> Spec {
        Spec::parse(
            "spec ex { input A: u16; input B: u16; input D: u16; input F: u16;
              C: u16 = A + B; E: u16 = C + D; G: u16 = E + F; output G; }",
        )
        .unwrap()
    }

    #[test]
    fn staged_result_is_bit_identical_to_monolithic() {
        let spec = three_adds();
        let options = CompareOptions::default();
        let cache = StageCache::default();
        let tally = StageTally::default();
        for latency in 2..=5 {
            let staged = cache.compare_staged(&spec, latency, &options, &tally).unwrap();
            let mono = compare(&spec, latency, &options).unwrap();
            assert_eq!(
                serde_json::to_string(&staged).unwrap(),
                serde_json::to_string(&mono).unwrap(),
                "λ={latency}"
            );
        }
    }

    #[test]
    fn latency_sweep_shares_the_extract_prefix() {
        let spec = three_adds();
        let options = CompareOptions::default();
        let cache = StageCache::default();
        let tally = StageTally::default();
        cache.compare_staged(&spec, 3, &options, &tally).unwrap();
        let cold_misses = tally.misses();
        assert_eq!(tally.hits(), 0, "cold point computes every stage");

        // Each further latency point reuses `extract` (λ-invariant) and
        // computes its per-latency suffix.
        for latency in 4..=6 {
            let before = tally.hits();
            cache.compare_staged(&spec, latency, &options, &tally).unwrap();
            assert!(tally.hits() > before, "λ={latency} must hit the extract stage");
        }
        // Re-running a point recomputes nothing at all.
        let misses_before = tally.misses();
        cache.compare_staged(&spec, 3, &options, &tally).unwrap();
        assert_eq!(tally.misses(), misses_before, "warm point is all hits");
        assert!(tally.misses() >= cold_misses);
    }

    #[test]
    fn adder_axis_shares_extract_fragment_and_verify() {
        let spec = three_adds();
        let cache = StageCache::default();
        let tally = StageTally::default();
        let rca = CompareOptions::default();
        cache.compare_staged(&spec, 3, &rca, &tally).unwrap();

        let csel = CompareOptions {
            adder_arch: bittrans_rtl::AdderArch::CarrySelect,
            ..CompareOptions::default()
        };
        let (h0, m0) = (tally.hits(), tally.misses());
        cache.compare_staged(&spec, 3, &csel, &tally).unwrap();
        // Shared: extract, fragment, verify, and both schedules (the
        // adder only enters at allocation). Recomputed: both alloc and
        // both time stages.
        assert_eq!(tally.hits() - h0, 5, "extract+fragment+verify+2×sched shared");
        assert_eq!(tally.misses() - m0, 4, "2×alloc + 2×time recomputed");
    }

    #[test]
    fn stage_errors_are_cached_and_stable() {
        let spec = three_adds();
        let options = CompareOptions::default();
        let cache = StageCache::default();
        let tally = StageTally::default();
        let first = cache.compare_staged(&spec, 0, &options, &tally).unwrap_err();
        let misses = tally.misses();
        let second = cache.compare_staged(&spec, 0, &options, &tally).unwrap_err();
        assert_eq!(tally.misses(), misses, "failed stage is served from cache");
        assert_eq!(first.to_string(), second.to_string());
        assert!(first.is_infeasible());
    }

    #[test]
    fn all_stage_artifacts_round_trip_through_the_disk_tier() {
        let dir = tempdir("stage-artifacts");
        let spec = three_adds();
        let options = CompareOptions { verify_vectors: 64, ..CompareOptions::default() };

        let mut warm = StageCache::default();
        warm.attach_disk(dir.clone());
        let tally = StageTally::default();
        let first = warm.compare_staged(&spec, 3, &options, &tally).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(files.len(), 9, "all nine stages spilled: {files:?}");
        assert!(files.iter().all(|f| f.ends_with(".stage")), "{files:?}");

        // A fresh cache (fresh process) over the same directory loads
        // every artifact instead of recomputing: zero misses, and the
        // assembled comparison is byte-identical.
        let mut fresh = StageCache::default();
        fresh.attach_disk(dir.clone());
        let fresh_tally = StageTally::default();
        let second = fresh.compare_staged(&spec, 3, &options, &fresh_tally).unwrap();
        assert_eq!(fresh_tally.misses(), 0, "warm directory recomputes zero stages");
        assert_eq!(fresh_tally.hits(), 9, "all nine stages served from disk");
        assert_eq!(
            serde_json::to_string(&first).unwrap(),
            serde_json::to_string(&second).unwrap(),
            "disk round trip preserves the result byte-for-byte"
        );

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_stage_files_are_deleted_and_recomputed() {
        let dir = tempdir("stage-corrupt");
        let spec = three_adds();
        let options = CompareOptions { verify_vectors: 64, ..CompareOptions::default() };

        let mut seed = StageCache::default();
        seed.attach_disk(dir.clone());
        seed.compare_staged(&spec, 3, &options, &StageTally::default()).unwrap();
        let paths: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(paths.len(), 9);

        // Each corruption is invalid for *every* stage: empty, future
        // schema, junk, and a truncated envelope.
        for corruption in
            ["", "bittrans-stage 999 verify ok\n", "not a stage file", "bittrans-stage 2\n"]
        {
            for path in &paths {
                std::fs::write(path, corruption).unwrap();
            }
            let mut fresh = StageCache::default();
            fresh.attach_disk(dir.clone());
            let tally = StageTally::default();
            fresh.compare_staged(&spec, 3, &options, &tally).unwrap();
            assert_eq!(tally.hits(), 0, "corruption {corruption:?} must not hit");
            // The recompute respilled valid artifacts.
            for path in &paths {
                let body = std::fs::read_to_string(path).unwrap();
                assert!(
                    body.starts_with("bittrans-stage 2 "),
                    "respill repaired {path:?}: {body:.40}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_body_under_valid_envelope_is_recomputed() {
        let dir = tempdir("stage-corrupt-body");
        let spec = three_adds();
        let options = CompareOptions { verify_vectors: 64, ..CompareOptions::default() };

        let mut seed = StageCache::default();
        seed.attach_disk(dir.clone());
        seed.compare_staged(&spec, 3, &options, &StageTally::default()).unwrap();

        // Keep each file's own (valid) envelope but garble the body.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let text = std::fs::read_to_string(&path).unwrap();
            let envelope = text.lines().next().unwrap().to_string();
            std::fs::write(&path, format!("{envelope}\ngarbage body\n")).unwrap();
        }
        let mut fresh = StageCache::default();
        fresh.attach_disk(dir.clone());
        let tally = StageTally::default();
        let result = fresh.compare_staged(&spec, 3, &options, &tally).unwrap();
        // The verify file's body should have been empty, so a garbled
        // body invalidates it too: everything recomputes.
        assert_eq!(tally.hits(), 0, "garbled bodies must not hit");
        assert_eq!(
            serde_json::to_string(&result).unwrap(),
            serde_json::to_string(&compare(&spec, 3, &options).unwrap()).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memo_is_bounded_by_the_eviction_policy() {
        let spec = three_adds();
        let options = CompareOptions::default();
        let cache = StageCache::default();
        cache.set_memo_capacity(4);
        let tally = StageTally::default();
        cache.compare_staged(&spec, 3, &options, &tally).unwrap();
        assert!(
            cache.resident_keys().len() <= 4,
            "memo exceeded its bound: {} slots",
            cache.resident_keys().len()
        );
        // Results stay correct under eviction; the evicted prefix simply
        // recomputes.
        let again = cache.compare_staged(&spec, 3, &options, &tally).unwrap();
        assert_eq!(
            serde_json::to_string(&again).unwrap(),
            serde_json::to_string(&compare(&spec, 3, &options).unwrap()).unwrap()
        );
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "bittrans-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::SystemTime::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
