//! The NDP drain engine (§4.2.2, §4.3).
//!
//! A deterministic state machine: each [`NdpEngine::step`] performs one
//! unit of work — ship one block from the NIC buffer to the remote I/O
//! node, or compress one block of the checkpoint at the head of the
//! drain queue. The engine:
//!
//! * **pauses** while the host owns the NVM (§4.2.1 — the host calls
//!   [`NdpEngine::pause`]/[`NdpEngine::resume`] around its commits) and
//!   during recoveries (§4.2.3);
//! * compresses and ships **block-by-block**, overlapping compression
//!   with the transfer (§4.2.2's pipelined DMA transactions);
//! * under NIC backpressure either **stalls** (`Pause` policy) or
//!   **spills** compressed blocks to the NVM's compressed region
//!   (`Spill` policy) — the two §4.2.2 options;
//! * **locks** the source checkpoint in NVM for the duration of its
//!   drain and unlocks it when done.
//!
//! Blocks are framed `[u32 raw_len][u32 comp_len][payload]` so the
//! restore path can decompress incrementally (pipelined restore, §4.3).

use std::collections::{HashMap, VecDeque};

use cr_compress::{Codec, CodecError};
use cr_obs::stage::{self, Stage};
use cr_obs::{Bus, Event, EventKind, Source, SpanGuard};

use crate::faults::{DegradePolicy, FaultPlane, FaultSite, RetryPolicy};
use crate::incremental::IncrementalEncoder;
use crate::metadata::CheckpointMeta;
use crate::nvm::{NvmStore, Region, SlotId};
use crate::remote::{IoNode, ObjectKey};
use crate::vclock::VClock;

/// What the NDP does when the NIC buffer is full (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackpressurePolicy {
    /// Pause compression until NIC space frees up.
    #[default]
    Pause,
    /// Keep compressing, spilling compressed blocks to the NVM's
    /// compressed region.
    Spill,
}

/// A block waiting in the NIC transmit buffer.
#[derive(Debug)]
struct NicBlock {
    key: ObjectKey,
    data: Vec<u8>,
}

/// Bounded NIC transmit buffer.
#[derive(Debug)]
pub struct NicBuffer {
    queue: VecDeque<NicBlock>,
    capacity: usize,
    /// Test/scenario hook: when true the network refuses traffic,
    /// emulating contention from the application's own communication.
    pub blocked: bool,
}

impl NicBuffer {
    fn new(capacity: usize) -> Self {
        NicBuffer {
            queue: VecDeque::new(),
            capacity,
            blocked: false,
        }
    }

    fn full(&self) -> bool {
        self.queue.len() >= self.capacity
    }

    /// Blocks currently queued.
    pub fn depth(&self) -> usize {
        self.queue.len()
    }
}

/// Incremental-drain configuration (§7 future work: the NDP diffs
/// consecutive checkpoints and ships only changed blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IncrementalPolicy {
    /// Maximum number of consecutive deltas before a full checkpoint is
    /// forced (bounds the restore chain, like video keyframes).
    pub max_chain: u32,
    /// Diff granularity, bytes.
    pub diff_block: usize,
}

impl Default for IncrementalPolicy {
    fn default() -> Self {
        IncrementalPolicy {
            max_chain: 4,
            diff_block: 64 * 1024,
        }
    }
}

/// Per-(app, rank) incremental drain state.
#[derive(Debug)]
struct IncrState {
    encoder: IncrementalEncoder,
    last_drained_id: u64,
    chain_len: u32,
}

/// One checkpoint being drained.
#[derive(Debug)]
struct DrainJob {
    slot: SlotId,
    key: ObjectKey,
    meta: CheckpointMeta,
    /// Delta payload when shipping an incremental; `None` streams the
    /// slot's full data.
    delta: Option<Vec<u8>>,
    /// Source preparation (diffing) done.
    prepared: bool,
    /// Next uncompressed offset to compress.
    offset: usize,
    /// Object announced to the remote store.
    begun: bool,
    /// Spilled compressed blocks awaiting shipment, in order.
    spilled: VecDeque<SlotId>,
    /// All input compressed; only shipping remains.
    compression_done: bool,
    /// Number of blocks handed to NIC/spill but not yet shipped.
    unshipped: usize,
    /// Compressed bytes durably appended to the remote object so far
    /// (reported in the drain-complete event).
    shipped_bytes: u64,
    /// Consecutive transient-failure retries charged to this job.
    attempts: u32,
    /// Engine step before which this job is backing off (exclusive).
    blocked_until: u64,
    /// Codec permanently disabled for this job (degraded drain after a
    /// codec fault).
    force_uncompressed: bool,
    /// Causal leaf span covering the job's queue lifetime (enqueue to
    /// finalize/cancel). `None` on a disabled bus — and after close, so
    /// a job can never close its span twice.
    span: Option<SpanGuard>,
}

impl DrainJob {
    /// All blocks durable remotely; only `finalize` remains.
    fn ready_to_finalize(&self) -> bool {
        self.begun
            && self.compression_done
            && self.spilled.is_empty()
            && self.unshipped == 0
    }
}

/// Result of one engine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// No work queued.
    Idle,
    /// One unit of work done.
    Progress,
    /// A drain finished (object finalized, slot unlocked).
    CompletedDrain(SlotId),
    /// Paused by the host.
    Paused,
    /// Cannot proceed: NIC full under `Pause` policy, or NVM compressed
    /// region full under `Spill`.
    Stalled,
    /// A transient injected fault was absorbed this step: the affected
    /// drain is backing off, being re-driven, or was degraded. The
    /// engine is still live and later steps make progress.
    Retrying,
}

/// Counters for the engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NdpStats {
    /// Blocks compressed.
    pub blocks_compressed: u64,
    /// Blocks shipped to the remote node.
    pub blocks_shipped: u64,
    /// Blocks spilled to NVM under backpressure.
    pub blocks_spilled: u64,
    /// Drains completed.
    pub drains_completed: u64,
    /// Drains cancelled by failures.
    pub drains_cancelled: u64,
    /// Drains shipped as incremental deltas rather than full images.
    pub incremental_drains: u64,
    /// Blocks retransmitted after a dropped NIC transfer.
    pub blocks_retransmitted: u64,
    /// Transient remote I/O errors absorbed by retry/backoff.
    pub io_retries: u64,
    /// Drains cancelled after exhausting their retry budget: the
    /// checkpoint stays recoverable locally (and at the partner), but
    /// remote-level coverage degraded for it.
    pub drains_degraded: u64,
    /// NDP engine crashes survived by re-driving in-flight drains.
    pub ndp_crashes: u64,
    /// Drains restarted uncompressed after a codec fault.
    pub codec_fallbacks: u64,
    /// Drains cancelled because their source slot failed integrity
    /// verification: silent NVM rot is never propagated into a remote
    /// object.
    pub drains_source_corrupt: u64,
}

/// Upper bound on recycled framed-block buffers kept by the engine.
const FRAME_POOL_CAP: usize = 32;

/// The drain engine.
pub struct NdpEngine {
    codec: Option<Box<dyn Codec>>,
    policy: BackpressurePolicy,
    block_size: usize,
    incremental: Option<IncrementalPolicy>,
    incr_state: HashMap<(String, u32), IncrState>,
    /// NIC transmit buffer.
    pub nic: NicBuffer,
    queue: VecDeque<DrainJob>,
    paused: bool,
    next_spill_id: u64,
    /// Recycled framed-block buffers: blocks shipped through the NIC
    /// return their allocation here, so a steady-state drain compresses
    /// every block into an already-sized buffer (no per-block `Vec`).
    frame_pool: Vec<Vec<u8>>,
    /// Modeled NDP compression throughput, bytes/s (virtual-time
    /// charging).
    pub compress_bw: f64,
    /// Event counters.
    pub stats: NdpStats,
    /// Retry/backoff budget for transient remote failures.
    retry: RetryPolicy,
    /// What to do when a drain exhausts its retries or the codec fails.
    degrade: DegradePolicy,
    /// Monotonic step counter (the engine's clock; backoff deadlines are
    /// measured against it).
    steps: u64,
    /// Observability bus (disabled by default; see
    /// [`NdpEngine::set_bus`]). Event timestamps are engine steps.
    bus: Bus,
}

impl NdpEngine {
    /// Creates an engine. `codec: None` drains uncompressed.
    pub fn new(
        codec: Option<Box<dyn Codec>>,
        policy: BackpressurePolicy,
        block_size: usize,
        nic_capacity: usize,
        compress_bw: f64,
    ) -> Self {
        assert!(block_size >= 1024, "block size unreasonably small");
        assert!(nic_capacity >= 1);
        NdpEngine {
            codec,
            policy,
            block_size,
            incremental: None,
            incr_state: HashMap::new(),
            nic: NicBuffer::new(nic_capacity),
            queue: VecDeque::new(),
            paused: false,
            next_spill_id: 0,
            frame_pool: Vec::new(),
            compress_bw,
            stats: NdpStats::default(),
            retry: RetryPolicy::default(),
            degrade: DegradePolicy::default(),
            steps: 0,
            bus: Bus::disabled(),
        }
    }

    /// Attaches an observability bus; drain lifecycle events
    /// (start/pause/spill/retry/degrade/cancel/complete) are reported
    /// on it, stamped with the engine's step clock. Disabled by
    /// default.
    pub fn set_bus(&mut self, bus: Bus) {
        self.bus = bus;
    }

    /// Installs the retry and degradation policies (defaults are sane;
    /// chaos configs tighten or loosen them).
    pub fn set_policies(&mut self, retry: RetryPolicy, degrade: DegradePolicy) {
        self.retry = retry;
        self.degrade = degrade;
    }

    /// Enables incremental drains (§7 future work): the NDP diffs each
    /// drained checkpoint against the previous one of the same rank and
    /// ships only changed blocks, forcing a full image every
    /// `policy.max_chain` deltas.
    pub fn enable_incremental(&mut self, policy: IncrementalPolicy) {
        assert!(policy.diff_block >= 64);
        self.incremental = Some(policy);
    }

    /// Codec label used for drained objects (`None` = uncompressed).
    pub fn codec_label(&self) -> Option<String> {
        self.codec.as_ref().map(|c| c.label())
    }

    /// Host is about to use the NVM: suspend drain work (§4.2.1).
    pub fn pause(&mut self) {
        if !self.paused {
            self.emit(EventKind::DrainPause);
        }
        self.paused = true;
    }

    /// Host released the NVM: drain work may proceed.
    pub fn resume(&mut self) {
        if self.paused {
            self.emit(EventKind::DrainResume);
        }
        self.paused = false;
    }

    /// Emits one event on the bus, stamped with the engine's step clock.
    fn emit(&self, kind: EventKind) {
        self.bus.emit_with(|| Event {
            t: self.steps as f64,
            source: Source::Ndp,
            kind,
        });
    }

    /// Whether the engine is paused.
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Queues a checkpoint slot for draining. The caller must have
    /// locked the slot in NVM.
    pub fn enqueue(&mut self, slot: SlotId, meta: CheckpointMeta) {
        let mut drained_meta = meta.clone();
        if let Some(c) = &self.codec {
            drained_meta = meta.compressed_with(&c.label());
        }
        // Leaf span: concurrent drain jobs are siblings under the
        // caller's scope, never ancestors of one another.
        let span = self.bus.enabled().then(|| {
            self.bus
                .span_leaf(Source::Ndp, "drain_job", self.steps as f64)
        });
        self.emit(EventKind::DrainStart {
            job: slot.0,
            bytes: meta.size,
        });
        self.queue.push_back(DrainJob {
            slot,
            key: ObjectKey::of(&meta),
            meta: drained_meta,
            delta: None,
            prepared: false,
            offset: 0,
            begun: false,
            spilled: VecDeque::new(),
            compression_done: false,
            unshipped: 0,
            shipped_bytes: 0,
            attempts: 0,
            blocked_until: 0,
            force_uncompressed: false,
            span,
        });
    }

    /// Pending drains (including the in-flight head).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Drops all drain state (node-loss failure §4.2.3); the caller
    /// wipes the NVM and aborts incomplete remote objects. Incremental
    /// diff bases die with the node, so the next drain of every rank is
    /// a full checkpoint.
    pub fn reset(&mut self) {
        self.stats.drains_cancelled += self.queue.len() as u64;
        let t = self.steps as f64;
        for job in &mut self.queue {
            if let Some(mut sp) = job.span.take() {
                sp.close(t);
            }
        }
        self.queue.clear();
        self.nic.queue.clear();
        self.incr_state.clear();
        self.paused = false;
    }

    /// Performs one unit of drain work with no fault injection.
    pub fn step(
        &mut self,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        clock: &mut VClock,
    ) -> Result<StepOutcome, CodecError> {
        let mut plane = FaultPlane::disabled();
        self.step_faulty(nvm, io, clock, &mut plane)
    }

    /// Performs one unit of drain work, consulting the fault plane at
    /// every injection site. With a disabled plane this is exactly
    /// [`NdpEngine::step`].
    pub fn step_faulty(
        &mut self,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        clock: &mut VClock,
        faults: &mut FaultPlane,
    ) -> Result<StepOutcome, CodecError> {
        if self.paused {
            return Ok(StepOutcome::Paused);
        }
        self.steps += 1;
        faults.tick();

        // 0. Finalize a fully-shipped object. Finalization is its own
        // step (and its own fault site): the remote may crash before the
        // object is sealed, in which case the whole drain is re-driven
        // idempotently from the still-locked slot.
        if let Some(pos) = self.queue.iter().position(|j| {
            j.ready_to_finalize() && j.blocked_until <= self.steps
        }) {
            if faults.fire(FaultSite::IoCrash) {
                // Crash-before-finalize: the partial remote object is
                // gone; rewind and re-drive the drain.
                return Ok(self.transient_failure(pos, nvm, io, true, "io_crash"));
            }
            if faults.fire(FaultSite::IoFinalize) {
                self.stats.io_retries += 1;
                return Ok(
                    self.transient_failure(pos, nvm, io, false, "io_finalize")
                );
            }
            let job = &self.queue[pos];
            let key = job.key.clone();
            let slot = job.slot;
            let bytes_out = job.shipped_bytes;
            io.finalize(&key)
                .map_err(|e| CodecError::new(e.to_string()))?;
            self.stats.drains_completed += 1;
            let mut job =
                self.queue.remove(pos).expect("finalize position valid");
            self.emit(EventKind::DrainComplete {
                job: slot.0,
                bytes_out,
            });
            if let Some(mut sp) = job.span.take() {
                sp.close(self.steps as f64);
            }
            return Ok(StepOutcome::CompletedDrain(slot));
        }

        // 1. Ship a block from the NIC if the network accepts traffic.
        if !self.nic.blocked {
            let front = self.nic.queue.front().map(|b| b.key.clone());
            if let Some(front_key) = front {
                let jpos =
                    self.queue.iter().position(|j| j.key == front_key);
                // Head-of-line wait while the owning job backs off.
                let gated = jpos
                    .is_some_and(|p| self.queue[p].blocked_until > self.steps);
                if !gated {
                    if faults.fire(FaultSite::NicStall) {
                        return Ok(StepOutcome::Retrying);
                    }
                    if faults.fire(FaultSite::NicDrop) {
                        // The transfer was lost in flight: the block
                        // stays queued for retransmission, but the link
                        // time is spent.
                        let len = self
                            .nic
                            .queue
                            .front()
                            .map_or(0, |b| b.data.len());
                        VClock::charge(&mut clock.io_link, len, io.bandwidth);
                        self.stats.blocks_retransmitted += 1;
                        return Ok(StepOutcome::Retrying);
                    }
                    if let Some(pos) = jpos {
                        if faults.fire(FaultSite::IoAppend) {
                            self.stats.io_retries += 1;
                            return Ok(self.transient_failure(
                                pos, nvm, io, false, "io_append",
                            ));
                        }
                    }
                    let mut ship_t = stage::timer(Stage::Ship);
                    let block =
                        self.nic.queue.pop_front().expect("front checked");
                    let block_len = block.data.len() as u64;
                    VClock::charge(
                        &mut clock.io_link,
                        block.data.len(),
                        io.bandwidth,
                    );
                    io.append_block(&block.key, &block.data)
                        .map_err(|e| CodecError::new(e.to_string()))?;
                    if let Some(t) = ship_t.as_mut() {
                        t.add_bytes(block_len);
                    }
                    drop(ship_t);
                    self.stats.blocks_shipped += 1;
                    // The shipped block's allocation goes back to the
                    // pool for the next compression.
                    self.recycle(block.data);
                    if let Some(job) =
                        self.queue.iter_mut().find(|j| j.key == block.key)
                    {
                        job.unshipped -= 1;
                        job.shipped_bytes += block_len;
                        job.attempts = 0;
                    }
                    return Ok(StepOutcome::Progress);
                }
            }
        }

        // 2. Move a spilled block into the NIC when there is room.
        if !self.nic.full() {
            let spill_info = self.queue.iter_mut().find_map(|job| {
                job.spilled
                    .pop_front()
                    .map(|sid| (sid, job.key.clone(), job))
            });
            if let Some((sid, key, job)) = spill_info {
                let slot = nvm
                    .remove(sid)
                    .map_err(|e| CodecError::new(e.to_string()))?;
                job.unshipped += 1;
                self.nic.queue.push_back(NicBlock {
                    key,
                    data: slot.data,
                });
                return Ok(StepOutcome::Progress);
            }
        }

        // 3. Compress the next block of the first non-backing-off job.
        let Some(jpos) = self
            .queue
            .iter()
            .position(|j| !j.compression_done && j.blocked_until <= self.steps)
        else {
            // Jobs may still be waiting on shipment, finalize, or a
            // backoff deadline; if the NIC is blocked that is a stall,
            // otherwise nothing to do.
            return Ok(if self.queue.is_empty() {
                StepOutcome::Idle
            } else if self
                .queue
                .iter()
                .any(|j| j.blocked_until > self.steps)
            {
                StepOutcome::Retrying
            } else {
                self.emit(EventKind::DrainStall {
                    cause: "nic_backpressure",
                });
                StepOutcome::Stalled
            });
        };

        let nic_available = !self.nic.full();
        if !nic_available && self.policy == BackpressurePolicy::Pause {
            self.emit(EventKind::DrainStall {
                cause: "nic_backpressure",
            });
            return Ok(StepOutcome::Stalled);
        }

        // The NDP itself can crash mid-drain: every in-flight drain
        // loses its progress (NIC contents included) and is re-driven
        // from its still-locked slot — idempotently, because the partial
        // remote objects are aborted before the re-drive begins.
        if faults.fire(FaultSite::NdpCrash) {
            self.crash_restart(nvm, io);
            return Ok(StepOutcome::Retrying);
        }

        // Source-integrity gate: a drain reading its slot in place must
        // never propagate silent NVM rot into the remote object. Checked
        // before every read — the check before the *final* read is what
        // makes it airtight, since rot striking after the last block is
        // read cannot affect the shipped bytes. (Delta jobs snapshot
        // their payload at prepare time, so only the pre-prepare check
        // applies to them.)
        if self.queue[jpos].delta.is_none() {
            let intact = nvm
                .get(self.queue[jpos].slot)
                .is_some_and(|slot| slot.verify());
            if !intact {
                self.stats.drains_source_corrupt += 1;
                self.cancel_job(jpos, nvm, io);
                return Ok(StepOutcome::Retrying);
            }
        }

        let job = &mut self.queue[jpos];

        // Source preparation: under incremental drains, diff against
        // the previous drained checkpoint of this rank (§7) before the
        // first block is compressed.
        if !job.prepared {
            if let Some(policy) = self.incremental {
                let slot_data = &nvm
                    .get(job.slot)
                    .ok_or_else(|| CodecError::new("drain source vanished"))?
                    .data;
                let state = self
                    .incr_state
                    .entry((job.meta.app_id.clone(), job.meta.rank))
                    .or_insert_with(|| IncrState {
                        encoder: IncrementalEncoder::new(policy.diff_block),
                        last_drained_id: 0,
                        chain_len: 0,
                    });
                let want_delta = state.chain_len < policy.max_chain
                    && state.encoder.has_base(slot_data.len());
                let delta = state.encoder.encode(slot_data);
                match (want_delta, delta) {
                    (true, Some(incr)) => {
                        job.meta =
                            job.meta.incremental_over(state.last_drained_id);
                        job.delta = Some(incr.encode());
                        state.chain_len += 1;
                        self.stats.incremental_drains += 1;
                    }
                    _ => state.chain_len = 0,
                }
                state.last_drained_id = job.meta.ckpt_id;
            }
            job.prepared = true;
        }

        if !self.queue[jpos].begun {
            if faults.fire(FaultSite::IoBegin) {
                self.stats.io_retries += 1;
                return Ok(
                    self.transient_failure(jpos, nvm, io, false, "io_begin")
                );
            }
            let job = &mut self.queue[jpos];
            io.begin(job.meta.clone())
                .map_err(|e| CodecError::new(e.to_string()))?;
            job.begun = true;
            job.attempts = 0;
        }

        // Codec fault: degrade this drain to uncompressed (re-driven
        // from scratch so the remote object is never mixed-codec), or
        // cancel it outright per policy.
        let use_codec =
            self.codec.is_some() && !self.queue[jpos].force_uncompressed;
        if use_codec && faults.fire(FaultSite::CodecFault) {
            self.degrade_codec(jpos, nvm, io);
            return Ok(StepOutcome::Retrying);
        }

        // Acquire the output buffer before borrowing the source slot:
        // recycled from shipped blocks, else from the NVM's spare pool.
        let mut framed = self
            .frame_pool
            .pop()
            .unwrap_or_else(|| nvm.take_buffer());
        let codec_for_job =
            if use_codec { self.codec.as_deref() } else { None };
        let job = &mut self.queue[jpos];

        let source_data: &[u8] = match &job.delta {
            Some(d) => d,
            None => {
                &nvm.get(job.slot)
                    .ok_or_else(|| {
                        CodecError::new("drain source slot vanished")
                    })?
                    .data
            }
        };
        let raw_len = source_data.len();
        let start = job.offset;
        let end = (start + self.block_size).min(raw_len);
        let chunk = &source_data[start..end];
        let chunk_len = chunk.len();

        // Frame: [u32 raw][u32 comp][payload], built in place — the
        // codec appends its container directly after the header (via
        // `compress_append`), then the comp_len placeholder is patched.
        // No intermediate per-block `Vec`; the buffer itself is recycled
        // from previously shipped blocks.
        //
        // The frame stage timer covers the whole block production
        // (header + codec + patch); the codec's own tokenize/entropy
        // sub-stages nest inside it and are reported separately.
        let mut frame_t = stage::timer(Stage::Frame);
        framed.extend_from_slice(&(chunk_len as u32).to_le_bytes());
        framed.extend_from_slice(&[0u8; 4]); // comp_len, patched below
        match codec_for_job {
            Some(c) => c.compress_append(chunk, &mut framed),
            None => framed.extend_from_slice(chunk),
        }
        let comp_len = framed.len() - 8;
        framed[4..8].copy_from_slice(&(comp_len as u32).to_le_bytes());
        if let Some(t) = frame_t.as_mut() {
            t.add_bytes(chunk_len as u64);
        }
        drop(frame_t);
        VClock::charge(&mut clock.ndp_compute, chunk_len, self.compress_bw);
        self.stats.blocks_compressed += 1;

        job.offset = end;
        let is_last_block = end == raw_len;
        if is_last_block {
            job.compression_done = true;
        }
        let slot_to_unlock = if is_last_block { Some(job.slot) } else { None };

        // Blocks must ship in order: once any block of this job has been
        // spilled, later blocks go to the spill queue too.
        if nic_available && job.spilled.is_empty() {
            job.unshipped += 1;
            let key = job.key.clone();
            self.nic.queue.push_back(NicBlock { key, data: framed });
        } else {
            // Spill policy: park the compressed block in the NVM's
            // compressed region.
            self.next_spill_id += 1;
            let spill_meta = CheckpointMeta {
                app_id: format!("__spill__/{}", job.meta.app_id),
                rank: job.meta.rank,
                ckpt_id: job.meta.ckpt_id,
                size: framed.len() as u64,
                taken_at: self.next_spill_id,
                codec: job.meta.codec.clone(),
                base: job.meta.base,
                content_crc: 0,
            };
            let spill_bytes = framed.len() as u64;
            match nvm.write(Region::Compressed, spill_meta, framed) {
                Ok(sid) => {
                    job.spilled.push_back(sid);
                    self.stats.blocks_spilled += 1;
                    self.emit(EventKind::DrainSpill { bytes: spill_bytes });
                }
                Err(_) => {
                    // Compressed region full too: genuine stall. Undo
                    // the offset advance so the block is recompressed.
                    job.offset = start;
                    job.compression_done = false;
                    self.stats.blocks_compressed -= 1;
                    self.emit(EventKind::DrainStall { cause: "spill_full" });
                    return Ok(StepOutcome::Stalled);
                }
            }
        }

        // Input fully read: the uncompressed slot may be reused
        // (§4.2.2's unlock arrow) even while blocks remain in flight.
        if let Some(slot) = slot_to_unlock {
            nvm.unlock(slot)
                .map_err(|e| CodecError::new(e.to_string()))?;
        }
        Ok(StepOutcome::Progress)
    }

    /// Returns a framed-block allocation to the pool.
    fn recycle(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        if self.frame_pool.len() < FRAME_POOL_CAP {
            self.frame_pool.push(buf);
        }
    }

    /// Drops every NIC block belonging to `key`, recycling the buffers.
    fn drop_nic_blocks(&mut self, key: &ObjectKey) {
        let mut kept = VecDeque::with_capacity(self.nic.queue.len());
        while let Some(b) = self.nic.queue.pop_front() {
            if b.key == *key {
                self.recycle(b.data);
            } else {
                kept.push_back(b);
            }
        }
        self.nic.queue = kept;
    }

    /// Charges one transient failure to a job: bounded retry with
    /// deterministic exponential backoff, escalating to cancellation
    /// when the budget is exhausted. `rewind` additionally re-drives the
    /// drain from scratch (crash-before-finalize semantics).
    fn transient_failure(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        rewind: bool,
        site: &'static str,
    ) -> StepOutcome {
        let job = &mut self.queue[pos];
        job.attempts += 1;
        let attempts = job.attempts;
        let backoff = self.retry.backoff_steps(attempts);
        job.blocked_until = self.steps + backoff;
        self.emit(EventKind::DrainRetry {
            site,
            attempt: attempts,
            backoff_steps: backoff,
        });
        if attempts > self.retry.max_attempts
            && self.degrade.cancel_on_exhaustion
        {
            self.cancel_job(pos, nvm, io);
            return StepOutcome::Retrying;
        }
        if rewind && !self.rewind_job(pos, nvm, io) {
            self.cancel_job(pos, nvm, io);
        }
        StepOutcome::Retrying
    }

    /// Rewinds a job so a re-driven drain is idempotent: aborts the
    /// partial remote object, discards its NIC and spilled blocks, and
    /// resets all progress. Returns false when the drain source is gone
    /// (slot evicted after unlock, no retained delta) — the caller must
    /// cancel instead.
    fn rewind_job(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
        io: &mut IoNode,
    ) -> bool {
        let key = self.queue[pos].key.clone();
        io.abort_object(&key);
        self.drop_nic_blocks(&key);
        let spilled: Vec<SlotId> =
            self.queue[pos].spilled.drain(..).collect();
        for sid in spilled {
            if let Ok(slot) = nvm.remove(sid) {
                self.recycle(slot.data);
            }
        }
        let job = &mut self.queue[pos];
        job.offset = 0;
        job.begun = false;
        job.compression_done = false;
        job.unshipped = 0;
        job.shipped_bytes = 0;
        if job.delta.is_some() {
            return true;
        }
        if nvm.get(job.slot).is_some() {
            // The slot may have been unlocked at compression-done;
            // re-lock it so FIFO eviction cannot take the source out
            // from under the re-drive.
            let _ = nvm.lock(job.slot);
            true
        } else {
            false
        }
    }

    /// NDP crash recovery: all in-flight engine state (NIC contents,
    /// per-job progress, partial remote objects) is lost; every queued
    /// drain is re-driven from its slot, or cancelled if the source is
    /// gone.
    fn crash_restart(&mut self, nvm: &mut NvmStore, io: &mut IoNode) {
        self.stats.ndp_crashes += 1;
        while let Some(b) = self.nic.queue.pop_front() {
            self.recycle(b.data);
        }
        let mut pos = 0;
        while pos < self.queue.len() {
            if self.rewind_job(pos, nvm, io) {
                pos += 1;
            } else {
                // Cancellation may cascade; rescan from the start.
                self.cancel_job(pos, nvm, io);
                pos = 0;
            }
        }
    }

    /// Codec fault handling per [`DegradePolicy`]: restart the drain
    /// uncompressed, or cancel it.
    fn degrade_codec(
        &mut self,
        pos: usize,
        nvm: &mut NvmStore,
        io: &mut IoNode,
    ) {
        if self.degrade.codec_fallback_uncompressed
            && self.rewind_job(pos, nvm, io)
        {
            self.stats.codec_fallbacks += 1;
            let job = &mut self.queue[pos];
            job.force_uncompressed = true;
            job.meta.codec = None;
            let slot = job.slot.0;
            self.emit(EventKind::DrainDegrade { job: slot });
        } else {
            self.cancel_job(pos, nvm, io);
        }
    }

    /// Cancels a drain: the remote object is aborted, spilled and NIC
    /// blocks are reclaimed, and the source slot is unlocked — the
    /// checkpoint remains recoverable at the local (and partner) levels,
    /// so nothing committed is lost, but remote coverage degrades.
    ///
    /// Incremental hygiene: any queued delta prepared after the
    /// cancelled checkpoint chains through it and could never be
    /// restored, so those drains are cancelled too, and the rank's chain
    /// state is reset so its next drain ships a full image.
    fn cancel_job(&mut self, pos: usize, nvm: &mut NvmStore, io: &mut IoNode) {
        let mut job = self.queue.remove(pos).expect("cancel position valid");
        self.scrap_job(&mut job, nvm, io);
        self.incr_state
            .remove(&(job.meta.app_id.clone(), job.meta.rank));
        while let Some(dep) = self.queue.iter().position(|j| {
            j.meta.app_id == job.meta.app_id
                && j.meta.rank == job.meta.rank
                && j.prepared
                && j.meta.base.is_some()
                && j.meta.ckpt_id > job.meta.ckpt_id
        }) {
            let mut dj = self.queue.remove(dep).expect("dep position valid");
            self.scrap_job(&mut dj, nvm, io);
        }
    }

    /// Releases every resource a cancelled job holds.
    fn scrap_job(
        &mut self,
        job: &mut DrainJob,
        nvm: &mut NvmStore,
        io: &mut IoNode,
    ) {
        io.abort_object(&job.key);
        self.drop_nic_blocks(&job.key);
        for &sid in &job.spilled {
            if let Ok(slot) = nvm.remove(sid) {
                self.recycle(slot.data);
            }
        }
        let _ = nvm.unlock(job.slot);
        self.stats.drains_cancelled += 1;
        self.stats.drains_degraded += 1;
        self.emit(EventKind::DrainCancel { job: job.slot.0 });
        if let Some(mut sp) = job.span.take() {
            sp.close(self.steps as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_compress::registry;

    fn setup(
        policy: BackpressurePolicy,
        codec: bool,
        nic_cap: usize,
    ) -> (NdpEngine, NvmStore, IoNode, VClock) {
        let codec = if codec {
            Some(registry::by_name("gz", 1).unwrap())
        } else {
            None
        };
        (
            NdpEngine::new(codec, policy, 4096, nic_cap, 440e6),
            NvmStore::new(1 << 22, 1 << 20),
            IoNode::new(100e6),
            VClock::default(),
        )
    }

    fn store_and_enqueue(
        engine: &mut NdpEngine,
        nvm: &mut NvmStore,
        ckpt_id: u64,
        data: Vec<u8>,
    ) -> (SlotId, CheckpointMeta) {
        let meta =
            CheckpointMeta::new("app", 0, ckpt_id, data.len() as u64, ckpt_id);
        let slot = nvm
            .write(Region::Uncompressed, meta.clone(), data)
            .unwrap();
        nvm.lock(slot).unwrap();
        engine.enqueue(slot, meta.clone());
        (slot, meta)
    }

    fn drain_to_idle(
        engine: &mut NdpEngine,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        clock: &mut VClock,
    ) {
        for _ in 0..1_000_000 {
            match engine.step(nvm, io, clock).unwrap() {
                StepOutcome::Idle => return,
                StepOutcome::Stalled => panic!("unexpected stall"),
                _ => {}
            }
        }
        panic!("drain did not converge");
    }

    #[test]
    fn drains_compressed_checkpoint_end_to_end() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let data = b"checkpoint payload ".repeat(3000);
        let (slot, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, data.clone());
        drain_to_idle(&mut engine, &mut nvm, &mut io, &mut clock);

        assert_eq!(engine.stats.drains_completed, 1);
        assert!(!nvm.get(slot).unwrap().locked, "slot must unlock");
        let key = ObjectKey::of(&meta);
        let (rmeta, blob) = io.read(&key).unwrap();
        assert_eq!(rmeta.codec.as_deref(), Some("gz(1)"));
        // Framed blocks decompress back to the original bytes.
        let gz = registry::by_name("gz", 1).unwrap();
        let mut restored = Vec::new();
        let mut pos = 0;
        while pos < blob.len() {
            let raw =
                u32::from_le_bytes(blob[pos..pos + 4].try_into().unwrap())
                    as usize;
            let comp =
                u32::from_le_bytes(blob[pos + 4..pos + 8].try_into().unwrap())
                    as usize;
            pos += 8;
            let part =
                gz.decompress_to_vec(&blob[pos..pos + comp]).unwrap();
            assert_eq!(part.len(), raw);
            restored.extend_from_slice(&part);
            pos += comp;
        }
        assert_eq!(restored, data);
        // Compressible payload: remote object smaller than input.
        assert!(blob.len() < data.len() / 2);
        assert!(clock.ndp_compute > 0.0 && clock.io_link > 0.0);
    }

    #[test]
    fn uncompressed_drain_preserves_bytes() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, false, 4);
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let (_, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, data.clone());
        drain_to_idle(&mut engine, &mut nvm, &mut io, &mut clock);
        let (rmeta, blob) = io.read(&ObjectKey::of(&meta)).unwrap();
        assert!(rmeta.codec.is_none());
        // Strip frames.
        let mut restored = Vec::new();
        let mut pos = 0;
        while pos < blob.len() {
            let raw =
                u32::from_le_bytes(blob[pos..pos + 4].try_into().unwrap())
                    as usize;
            pos += 8;
            restored.extend_from_slice(&blob[pos..pos + raw]);
            pos += raw;
        }
        assert_eq!(restored, data);
    }

    #[test]
    fn pause_blocks_all_progress() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        store_and_enqueue(&mut engine, &mut nvm, 1, vec![1u8; 10_000]);
        engine.pause();
        for _ in 0..10 {
            assert_eq!(
                engine.step(&mut nvm, &mut io, &mut clock).unwrap(),
                StepOutcome::Paused
            );
        }
        assert_eq!(engine.stats.blocks_compressed, 0);
        engine.resume();
        assert_eq!(
            engine.step(&mut nvm, &mut io, &mut clock).unwrap(),
            StepOutcome::Progress
        );
    }

    #[test]
    fn nic_blockage_stalls_under_pause_policy() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 2);
        store_and_enqueue(&mut engine, &mut nvm, 1, vec![7u8; 100_000]);
        engine.nic.blocked = true;
        // Fill the NIC, then stall.
        let mut stalls = 0;
        for _ in 0..50 {
            match engine.step(&mut nvm, &mut io, &mut clock).unwrap() {
                StepOutcome::Stalled => stalls += 1,
                StepOutcome::Progress => {}
                o => panic!("unexpected {o:?}"),
            }
        }
        assert!(stalls > 0);
        assert_eq!(engine.nic.depth(), 2);
        assert_eq!(engine.stats.blocks_spilled, 0);
        // Unblock: everything drains.
        engine.nic.blocked = false;
        drain_to_idle(&mut engine, &mut nvm, &mut io, &mut clock);
        assert_eq!(engine.stats.drains_completed, 1);
    }

    #[test]
    fn nic_blockage_spills_under_spill_policy() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Spill, true, 2);
        let data = vec![3u8; 100_000];
        let (_, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, data.clone());
        engine.nic.blocked = true;
        // Compression continues past the NIC capacity by spilling.
        for _ in 0..100 {
            let o = engine.step(&mut nvm, &mut io, &mut clock).unwrap();
            if o == StepOutcome::Stalled {
                break;
            }
        }
        assert!(engine.stats.blocks_spilled > 0, "no spills happened");
        assert!(nvm.used(Region::Compressed) > 0);
        // Unblock: spilled blocks ship in order and the drain finishes.
        engine.nic.blocked = false;
        drain_to_idle(&mut engine, &mut nvm, &mut io, &mut clock);
        assert_eq!(engine.stats.drains_completed, 1);
        assert_eq!(nvm.used(Region::Compressed), 0, "spills reclaimed");
        assert!(io.read(&ObjectKey::of(&meta)).is_some());
    }

    #[test]
    fn multiple_queued_drains_complete_in_order() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let mut metas = Vec::new();
        for id in 1..=3 {
            let data = vec![id as u8; 30_000];
            let (_, meta) = store_and_enqueue(&mut engine, &mut nvm, id, data);
            metas.push(meta);
        }
        assert_eq!(engine.backlog(), 3);
        drain_to_idle(&mut engine, &mut nvm, &mut io, &mut clock);
        assert_eq!(engine.stats.drains_completed, 3);
        for meta in &metas {
            assert!(io.read(&ObjectKey::of(meta)).is_some());
        }
    }

    #[test]
    fn reset_cancels_pending_drains() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        store_and_enqueue(&mut engine, &mut nvm, 1, vec![5u8; 50_000]);
        store_and_enqueue(&mut engine, &mut nvm, 2, vec![6u8; 50_000]);
        // A little progress, then node loss.
        for _ in 0..3 {
            engine.step(&mut nvm, &mut io, &mut clock).unwrap();
        }
        engine.reset();
        nvm.wipe();
        io.abort_incomplete();
        assert_eq!(engine.backlog(), 0);
        assert_eq!(engine.stats.drains_cancelled, 2);
        assert_eq!(
            engine.step(&mut nvm, &mut io, &mut clock).unwrap(),
            StepOutcome::Idle
        );
        assert_eq!(io.object_count(), 0);
    }

    #[test]
    fn idle_engine_reports_idle() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, false, 1);
        assert_eq!(
            engine.step(&mut nvm, &mut io, &mut clock).unwrap(),
            StepOutcome::Idle
        );
    }

    use crate::faults::{FaultPlane, FaultPlaneConfig, FaultSite};

    /// Pumps with a fault plane until idle (or stall/step budget).
    fn drain_faulty(
        engine: &mut NdpEngine,
        nvm: &mut NvmStore,
        io: &mut IoNode,
        clock: &mut VClock,
        plane: &mut FaultPlane,
    ) {
        for _ in 0..1_000_000 {
            match engine.step_faulty(nvm, io, clock, plane).unwrap() {
                StepOutcome::Idle => return,
                StepOutcome::Stalled => panic!("unexpected stall"),
                _ => {}
            }
        }
        panic!("faulty drain did not converge");
    }

    /// Reference drain of the same payload on a clean engine; returns
    /// the remote object bytes.
    fn reference_blob(
        policy: BackpressurePolicy,
        codec: bool,
        data: Vec<u8>,
    ) -> Vec<u8> {
        let (mut engine, mut nvm, mut io, mut clock) = setup(policy, codec, 4);
        let (_, meta) = store_and_enqueue(&mut engine, &mut nvm, 1, data);
        drain_to_idle(&mut engine, &mut nvm, &mut io, &mut clock);
        io.read(&ObjectKey::of(&meta)).unwrap().1
    }

    #[test]
    fn io_crash_before_finalize_is_redriven_idempotently() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let data = b"crashy checkpoint ".repeat(4000);
        let (slot, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, data.clone());
        let mut plane = FaultPlane::new(
            FaultPlaneConfig::disabled(1).with(FaultSite::IoCrash, 1.0),
        );
        // Pump until the crash-before-finalize fires (the whole drain is
        // rewound), then let the re-drive run clean.
        for _ in 0..100_000 {
            engine.step_faulty(&mut nvm, &mut io, &mut clock, &mut plane)
                .unwrap();
            if plane.count(FaultSite::IoCrash) >= 1 {
                break;
            }
        }
        assert_eq!(plane.count(FaultSite::IoCrash), 1, "crash must fire");
        assert_eq!(io.incomplete_count(), 0, "partial object aborted");
        plane.set_active(false);
        drain_faulty(&mut engine, &mut nvm, &mut io, &mut clock, &mut plane);
        assert_eq!(engine.stats.drains_completed, 1);
        assert_eq!(engine.stats.drains_cancelled, 0);
        assert!(!nvm.get(slot).unwrap().locked);
        // The re-driven object is bit-identical to a fault-free drain —
        // no duplicate, torn, or double-appended frames.
        let blob = io.read(&ObjectKey::of(&meta)).unwrap().1;
        assert_eq!(
            blob,
            reference_blob(BackpressurePolicy::Pause, true, data)
        );
    }

    #[test]
    fn ndp_crash_mid_drain_redrives_idempotently() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let data: Vec<u8> =
            (0..90_000u32).map(|i| (i % 241) as u8).collect();
        let (slot, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, data.clone());
        // A few clean steps so real progress exists to lose...
        let mut clean = FaultPlane::disabled();
        for _ in 0..7 {
            engine
                .step_faulty(&mut nvm, &mut io, &mut clock, &mut clean)
                .unwrap();
        }
        assert!(engine.stats.blocks_compressed > 0);
        // ...then the engine crashes (the fault fires on the next step
        // that reaches the compress phase; earlier steps may be busy
        // shipping already-compressed blocks).
        let mut crash = FaultPlane::new(
            FaultPlaneConfig::disabled(2).with(FaultSite::NdpCrash, 1.0),
        );
        for _ in 0..100 {
            engine
                .step_faulty(&mut nvm, &mut io, &mut clock, &mut crash)
                .unwrap();
            if crash.count(FaultSite::NdpCrash) >= 1 {
                break;
            }
        }
        assert_eq!(crash.count(FaultSite::NdpCrash), 1);
        assert_eq!(engine.stats.ndp_crashes, 1);
        assert_eq!(io.incomplete_count(), 0, "in-flight object aborted");
        assert_eq!(engine.nic.depth(), 0, "in-flight NIC blocks lost");
        assert!(nvm.get(slot).unwrap().locked, "slot stays locked");
        // Re-driven drain converges to the exact fault-free object.
        drain_faulty(&mut engine, &mut nvm, &mut io, &mut clock, &mut clean);
        assert_eq!(engine.stats.drains_completed, 1);
        let blob = io.read(&ObjectKey::of(&meta)).unwrap().1;
        assert_eq!(
            blob,
            reference_blob(BackpressurePolicy::Pause, true, data)
        );
    }

    #[test]
    fn append_retry_exhaustion_cancels_gracefully() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let (slot, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, vec![9u8; 40_000]);
        let mut plane = FaultPlane::new(
            FaultPlaneConfig::disabled(3).with(FaultSite::IoAppend, 1.0),
        );
        let mut idle = false;
        for _ in 0..200_000 {
            match engine
                .step_faulty(&mut nvm, &mut io, &mut clock, &mut plane)
                .unwrap()
            {
                StepOutcome::Idle => {
                    idle = true;
                    break;
                }
                StepOutcome::Stalled => panic!("must degrade, not stall"),
                _ => {}
            }
        }
        assert!(idle, "engine must reach idle after degrading");
        assert_eq!(engine.stats.drains_completed, 0);
        assert_eq!(engine.stats.drains_cancelled, 1);
        assert_eq!(engine.stats.drains_degraded, 1);
        assert!(engine.stats.io_retries > 0);
        // Graceful: slot unlocked and intact locally, nothing partial
        // left remotely, NIC and spill space reclaimed.
        let s = nvm.get(slot).unwrap();
        assert!(!s.locked);
        assert!(s.verify(), "local copy still pristine");
        assert_eq!(io.incomplete_count(), 0);
        assert!(io.read(&ObjectKey::of(&meta)).is_none());
        assert_eq!(engine.nic.depth(), 0);
        assert_eq!(nvm.used(Region::Compressed), 0);
    }

    #[test]
    fn codec_fault_degrades_to_uncompressed_drain() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let data = b"degradable payload ".repeat(2500);
        let (_, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, data.clone());
        let mut plane = FaultPlane::new(
            FaultPlaneConfig::disabled(4).with(FaultSite::CodecFault, 1.0),
        );
        // The codec faults once; the drain restarts uncompressed and,
        // with the codec out of the path, completes even though the
        // plane stays armed.
        drain_faulty(&mut engine, &mut nvm, &mut io, &mut clock, &mut plane);
        assert_eq!(engine.stats.codec_fallbacks, 1);
        assert_eq!(engine.stats.drains_completed, 1);
        assert_eq!(engine.stats.drains_cancelled, 0);
        let (rmeta, blob) = io.read(&ObjectKey::of(&meta)).unwrap();
        assert!(rmeta.codec.is_none(), "degraded object is uncompressed");
        // Uncompressed frames reassemble to the original bytes.
        let mut restored = Vec::new();
        let mut pos = 0;
        while pos < blob.len() {
            let raw =
                u32::from_le_bytes(blob[pos..pos + 4].try_into().unwrap())
                    as usize;
            pos += 8;
            restored.extend_from_slice(&blob[pos..pos + raw]);
            pos += raw;
        }
        assert_eq!(restored, data);
    }

    #[test]
    fn nic_drops_force_retransmits_but_bytes_survive() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let data = b"lossy link payload ".repeat(3000);
        let (_, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, data.clone());
        let mut plane = FaultPlane::new(
            FaultPlaneConfig::disabled(5)
                .with(FaultSite::NicDrop, 0.4)
                .with(FaultSite::NicStall, 0.2),
        );
        drain_faulty(&mut engine, &mut nvm, &mut io, &mut clock, &mut plane);
        assert!(engine.stats.blocks_retransmitted > 0, "drops must fire");
        assert_eq!(engine.stats.drains_completed, 1);
        let blob = io.read(&ObjectKey::of(&meta)).unwrap().1;
        assert_eq!(
            blob,
            reference_blob(BackpressurePolicy::Pause, true, data)
        );
    }

    #[test]
    fn rotten_source_slot_is_never_drained_to_remote() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let (slot, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, vec![3u8; 50_000]);
        assert!(nvm.tamper(slot, 1234));
        drain_to_idle(&mut engine, &mut nvm, &mut io, &mut clock);
        assert_eq!(engine.stats.drains_source_corrupt, 1);
        assert_eq!(engine.stats.drains_completed, 0);
        assert!(io.read(&ObjectKey::of(&meta)).is_none());
        assert_eq!(io.incomplete_count(), 0);
        assert!(!nvm.get(slot).unwrap().locked);
    }

    #[test]
    fn mid_drain_rot_aborts_instead_of_shipping_torn_object() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let (slot, meta) =
            store_and_enqueue(&mut engine, &mut nvm, 1, vec![7u8; 90_000]);
        // Let real progress happen, then rot the source mid-drain.
        let mut clean = FaultPlane::disabled();
        for _ in 0..5 {
            engine
                .step_faulty(&mut nvm, &mut io, &mut clock, &mut clean)
                .unwrap();
        }
        assert!(engine.stats.blocks_compressed > 0);
        assert!(!engine.queue[0].compression_done, "rot must strike mid-read");
        assert!(nvm.tamper(slot, 80_000));
        drain_to_idle(&mut engine, &mut nvm, &mut io, &mut clock);
        assert_eq!(engine.stats.drains_source_corrupt, 1);
        assert!(io.read(&ObjectKey::of(&meta)).is_none(), "no torn object");
        assert_eq!(io.incomplete_count(), 0);
    }

    /// The source gate verifies the whole slot, not just the block about
    /// to be read: rot in a block that was already compressed and
    /// shipped still cancels the drain at the next compress step. The
    /// chaos report depends on exactly this choice of which drains
    /// cancel.
    #[test]
    fn rot_in_already_read_block_still_cancels_drain() {
        let (mut engine, mut nvm, mut io, mut clock) =
            setup(BackpressurePolicy::Pause, true, 4);
        let data: Vec<u8> = (0..90_000u32).map(|i| (i % 251) as u8).collect();
        let (slot, meta) = store_and_enqueue(&mut engine, &mut nvm, 1, data);
        let mut clean = FaultPlane::disabled();
        while engine.stats.blocks_shipped < 3 {
            engine
                .step_faulty(&mut nvm, &mut io, &mut clock, &mut clean)
                .unwrap();
        }
        assert!(!engine.queue[0].compression_done);
        assert!(engine.queue[0].offset > 4096, "block 0 already read");
        assert!(nvm.tamper(slot, 100));
        let compressed = engine.stats.blocks_compressed;
        // Blocks already in the NIC may still ship; the gate must fire
        // before any further block is read.
        for _ in 0..16 {
            if engine.stats.drains_source_corrupt > 0 {
                break;
            }
            engine
                .step_faulty(&mut nvm, &mut io, &mut clock, &mut clean)
                .unwrap();
            assert_eq!(
                engine.stats.blocks_compressed, compressed,
                "no further block may be read from a rotten slot"
            );
        }
        assert_eq!(engine.stats.drains_source_corrupt, 1);
        assert_eq!(engine.stats.drains_cancelled, 1);
        assert!(engine.queue.is_empty());
        assert!(io.read(&ObjectKey::of(&meta)).is_none(), "no remote object");
        assert_eq!(io.incomplete_count(), 0);
        assert!(!nvm.get(slot).unwrap().locked, "slot unlocked");
    }

    #[test]
    fn faulty_drains_are_deterministic_in_the_seed() {
        let run = |seed: u64| {
            let (mut engine, mut nvm, mut io, mut clock) =
                setup(BackpressurePolicy::Spill, true, 2);
            let data = b"deterministic chaos ".repeat(2000);
            let (_, meta) =
                store_and_enqueue(&mut engine, &mut nvm, 1, data);
            let mut plane =
                FaultPlane::new(FaultPlaneConfig::uniform(seed, 0.05));
            drain_faulty(
                &mut engine, &mut nvm, &mut io, &mut clock, &mut plane,
            );
            let blob = io
                .read(&ObjectKey::of(&meta))
                .map(|(_, b)| b)
                .unwrap_or_default();
            (plane.render_log(), engine.stats, blob)
        };
        let a = run(77);
        let b = run(77);
        assert_eq!(a.0, b.0, "fault logs must replay bit-exactly");
        assert_eq!(a.1, b.1);
        assert_eq!(a.2, b.2);
        let c = run(78);
        assert_ne!(a.0, c.0, "different seed, different fault history");
    }
}
