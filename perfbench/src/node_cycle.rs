//! `node_cycle`: the paper's node path on one `ComputeNode` with `gz(1)`
//! NDP compression, driven as a closed loop by a single host client.
//!
//! Phase 1 commits a seeded stream of `checkpoint_rank` calls over all
//! seven mini-apps and several ranks; every `k`-th checkpoint of an app
//! is drained to a durable remote object by pumping `ndp_step` until its
//! `CompletedDrain`. Phase 2 restores: first after `LocalSurvivable`
//! failures from the populated node (local path), then each after a
//! `NodeLoss` (remote path). An independent oracle predicts which
//! checkpoints drain, which survive in the NVM's FIFO region, and the
//! exact bytes and `RestoreSource` of every restore.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cr_compress::registry;
use cr_node::ndp::{NdpStats, StepOutcome};
use cr_node::node::{ComputeNode, FailureKind, NodeConfig, RestoreSource};
use cr_node::nvm::Region;
use cr_node::vclock::VClock;
use cr_obs::{Bus, Event, EventKind, EventSink};
use cr_workloads::{all_mini_apps, CheckpointGenerator};

use crate::report::PassReport;
use crate::trace::Tracer;
use crate::{Ctx, SplitMix};

/// Sizes of one run. Every app keeps one image size for all its ranks,
/// so the bytes drained per round do not depend on the seed.
struct Scale {
    /// Image bytes per app, in `all_mini_apps()` order.
    sizes: [usize; 7],
    /// Ranks per app (one image each).
    ranks: u32,
    /// Rounds of phase 1; each round checkpoints every rank once.
    rounds: usize,
    /// Restores after `LocalSurvivable`.
    local_restores: usize,
    /// Restores after `NodeLoss`.
    remote_restores: usize,
    /// NVM uncompressed-region capacity.
    nvm_bytes: usize,
}

const KIB: usize = 1 << 10;
const MIB: usize = 1 << 20;

fn scale(tiny: bool) -> Scale {
    if tiny {
        Scale {
            sizes: [
                512 * KIB,
                256 * KIB,
                128 * KIB,
                64 * KIB,
                64 * KIB,
                32 * KIB,
                32 * KIB,
            ],
            ranks: 2,
            rounds: 2,
            local_restores: 4,
            remote_restores: 6,
            nvm_bytes: MIB,
        }
    } else {
        Scale {
            sizes: [4 * MIB, 2 * MIB, MIB, MIB, 512 * KIB, 256 * KIB, 256 * KIB],
            ranks: 2,
            rounds: 4,
            local_restores: 14,
            remote_restores: 28,
            nvm_bytes: 16 * MIB,
        }
    }
}

/// Every `DRAIN_RATIO`-th checkpoint of an app is drained (equal to the
/// rank count, so each round drains every app exactly once).
const DRAIN_RATIO: u32 = 2;
/// Version stamps are written at the start of every `STAMP_STRIDE`
/// bytes, so consecutive checkpoints of a rank differ.
const STAMP_STRIDE: usize = 64 * KIB;
/// Upper bound on `ndp_step` calls for one drain (a hang is a failure).
const MAX_STEPS_PER_DRAIN: usize = 100_000;

/// One application rank and the oracle's view of it.
struct Key {
    app: &'static str,
    rank: u32,
    image: Vec<u8>,
    /// Last committed version (0 = none yet).
    version: u64,
    /// Last version made durable remotely.
    drained: Option<u64>,
}

impl Key {
    fn stamp(idx: usize, version: u64) -> [u8; 8] {
        SplitMix::new(((idx as u64) << 32) ^ version)
            .next_u64()
            .to_le_bytes()
    }

    fn set_version(&mut self, idx: usize, version: u64) {
        self.version = version;
        let stamp = Key::stamp(idx, version);
        for off in (0..self.image.len()).step_by(STAMP_STRIDE) {
            let end = (off + 8).min(self.image.len());
            self.image[off..end].copy_from_slice(&stamp[..end - off]);
        }
    }

    /// True if `data` is exactly this rank's image at `version`.
    fn matches(&self, idx: usize, version: u64, data: &[u8]) -> bool {
        if data.len() != self.image.len() {
            return false;
        }
        let stamp = Key::stamp(idx, version);
        (0..data.len()).step_by(STAMP_STRIDE).all(|off| {
            let end = (off + 8).min(data.len());
            let next = (off + STAMP_STRIDE).min(data.len());
            data[off..end] == stamp[..end - off] && data[end..next] == self.image[end..next]
        })
    }
}

/// The oracle's model of the NVM uncompressed region: FIFO slots under
/// a byte capacity. Drains complete before the next commit, so no slot
/// is locked when a write makes room.
struct NvmModel {
    cap: usize,
    used: usize,
    slots: VecDeque<(usize, u64, usize)>,
}

impl NvmModel {
    fn write(&mut self, key: usize, version: u64, size: usize) {
        while self.cap - self.used < size {
            let (_, _, s) = self.slots.pop_front().expect("room exists");
            self.used -= s;
        }
        self.used += size;
        self.slots.push_back((key, version, size));
    }

    fn wipe(&mut self) {
        self.slots.clear();
        self.used = 0;
    }

    fn newest(&self, key: usize) -> Option<u64> {
        self.slots.iter().filter(|s| s.0 == key).map(|s| s.1).max()
    }
}

/// Counts the NVM's lock-contention events (the store has no getter for
/// them).
#[derive(Default, Clone)]
struct Contention(Arc<AtomicU64>);

impl EventSink for Contention {
    fn record(&mut self, ev: &Event) {
        if matches!(ev.kind, EventKind::LockContention) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn drain(&mut self) -> Vec<Event> {
        Vec::new()
    }

    fn render(&self) -> String {
        String::new()
    }
}

/// Step classes, by the `NdpStats` counter a step advanced.
fn classify(before: &NdpStats, after: &NdpStats) -> &'static str {
    if after.drains_completed > before.drains_completed {
        "finalize_step"
    } else if after.blocks_compressed > before.blocks_compressed {
        "compress_step"
    } else if after.blocks_shipped > before.blocks_shipped {
        "ship_step"
    } else {
        "other_step"
    }
}

fn clock_delta(rep: &mut PassReport, phase: &str, a: &VClock, b: &VClock) {
    rep.set(
        &format!("vclock.{phase}.host_nvm_s"),
        b.host_nvm - a.host_nvm,
    );
    rep.set(
        &format!("vclock.{phase}.ndp_compute_s"),
        b.ndp_compute - a.ndp_compute,
    );
    rep.set(&format!("vclock.{phase}.io_link_s"), b.io_link - a.io_link);
    rep.set(
        &format!("vclock.{phase}.restore_io_s"),
        b.restore_io - a.restore_io,
    );
}

/// Runs one pass and returns its report.
pub fn run(ctx: &Ctx) -> PassReport {
    let sc = scale(ctx.tiny);
    // Every pass of a run draws its own images and order from the run's
    // seed, so a run's medians span several inputs.
    let seed = SplitMix::new(ctx.seed ^ ctx.pass.wrapping_mul(0xA076_1D64_78BD_642F)).next_u64();
    let mut rep = PassReport::default();
    let mut tr = Tracer::new(ctx.trace);

    // ---- set-up: images, node ------------------------------------------
    let apps = all_mini_apps();
    let (mut keys, gen_s) = tr.time("workloads", "generate", || {
        let mut keys = Vec::new();
        for (a, app) in apps.iter().enumerate() {
            for rank in 0..sc.ranks {
                keys.push(Key {
                    app: app.name(),
                    rank,
                    image: app.generate_rank(sc.sizes[a], seed, rank),
                    version: 0,
                    drained: None,
                });
            }
        }
        keys
    });
    rep.set("workloads.generate_s", gen_s);
    let cfg = NodeConfig {
        nvm_uncompressed: sc.nvm_bytes,
        drain_ratio: DRAIN_RATIO,
        ..NodeConfig::small_test()
    };
    let block = cfg.block_size;
    rep.set("model.nvm_bw", cfg.nvm_bandwidth);
    rep.set("model.ndp_compress_bw", cfg.ndp_compress_bw);
    rep.set("model.host_decompress_bw", cfg.host_decompress_bw);
    rep.set("model.io_bw", cfg.io_bandwidth);
    let mut node = ComputeNode::new(cfg);
    let contention = Contention::default();
    if ctx.trace {
        node.set_observer(&Bus::with_sink(contention.clone()));
    }
    for app in &apps {
        node.register_app(app.name());
    }
    let mut model = NvmModel {
        cap: sc.nvm_bytes,
        used: 0,
        slots: VecDeque::new(),
    };
    let mut rng = SplitMix::new(seed ^ 0x6e6f_6465);
    rep.set("setup_s", ctx.since_spawn());
    tr.clear();

    // ---- phase 1: checkpoint stream ------------------------------------
    tr.enter("bench", "pass");
    let p1_start = tr.now();
    let clock0 = *node.clock();
    let io0 = node.io().bytes_written;
    let mut app_commits = [0u32; 7];
    let mut peak_used = 0usize;
    for round in 0..sc.rounds {
        // Each app's ranks in rotated order, so the drained (last) rank
        // alternates between rounds; apps interleave in seeded order.
        let mut labels: Vec<usize> = (0..apps.len())
            .flat_map(|a| std::iter::repeat_n(a, sc.ranks as usize))
            .collect();
        rng.shuffle(&mut labels);
        let mut next_rank = [0u32; 7];
        for a in labels {
            let rank = (round as u32 + 1 + next_rank[a]) % sc.ranks;
            next_rank[a] += 1;
            let idx = a * sc.ranks as usize + rank as usize;
            let version = keys[idx].version + 1;
            keys[idx].set_version(idx, version);
            app_commits[a] += 1;
            let drained = app_commits[a] % DRAIN_RATIO == 0;
            let size = keys[idx].image.len();

            let t0 = tr.now();
            let res = node.checkpoint_rank(keys[idx].app, keys[idx].rank, &keys[idx].image);
            let t1 = tr.now();
            tr.record("node", "checkpoint", t0, t1);
            rep.sample("commit_ms", (t1 - t0) as f64 / 1e6);
            rep.add("commit_bytes", size as f64);
            let slot = match res {
                Ok(slot) => slot,
                Err(e) => {
                    rep.check(false, || {
                        format!("checkpoint {}/{rank}: {e}", keys[idx].app)
                    });
                    continue;
                }
            };
            model.write(idx, version, size);
            peak_used = peak_used.max(node.nvm().used(Region::Uncompressed));
            let locked = node.nvm().get(slot).is_some_and(|s| s.locked);
            rep.check(locked == drained, || {
                format!("checkpoint {}/{rank} v{version}: drain predicted {drained}, slot locked {locked}", keys[idx].app)
            });
            if !drained {
                continue;
            }

            // Pump the NDP until this checkpoint is durable.
            let mut compress_steps = 0u64;
            let mut done = None;
            for _ in 0..MAX_STEPS_PER_DRAIN {
                let before = node.ndp_stats();
                let s0 = tr.now();
                let out = node.ndp_step();
                let s1 = tr.now();
                let class = classify(&before, &node.ndp_stats());
                tr.record("ndp", class, s0, s1);
                rep.add("ndp.steps", 1.0);
                match out {
                    Ok(StepOutcome::CompletedDrain(s)) if s == slot => {
                        done = Some(s1);
                        break;
                    }
                    Ok(StepOutcome::Paused) => rep.add("ndp.paused_steps", 1.0),
                    Ok(StepOutcome::Stalled) => rep.add("ndp.stalled_steps", 1.0),
                    Ok(StepOutcome::Idle) => break,
                    Ok(_) => {}
                    Err(e) => {
                        rep.check(false, || format!("drain {}/{rank}: {e}", keys[idx].app));
                        break;
                    }
                }
                if class == "compress_step" {
                    compress_steps += 1;
                }
            }
            rep.check(done.is_some(), || {
                format!("drain {}/{rank} v{version} never completed", keys[idx].app)
            });
            if let Some(t_done) = done {
                rep.sample("to_durable_ms", (t_done - t0) as f64 / 1e6);
                rep.add("durable_bytes", size as f64);
                // The source-integrity gate verifies the whole slot before
                // every block it compresses.
                rep.add(
                    "integrity.verify_bytes",
                    (compress_steps * size as u64) as f64,
                );
                rep.add(
                    "integrity.hand_verify_bytes",
                    (size.div_ceil(block) * size) as f64,
                );
                keys[idx].drained = Some(version);
            }
        }
    }
    let p1_end = tr.now();
    let clock1 = *node.clock();
    rep.set("phase1_s", (p1_end - p1_start) as f64 / 1e9);
    clock_delta(&mut rep, "p1", &clock0, &clock1);
    rep.set("remote.objects", node.io().object_count() as f64);
    rep.set(
        "remote.bytes_written",
        (node.io().bytes_written - io0) as f64,
    );

    // ---- phase 2: restores ------------------------------------------------
    let p2_start = tr.now();
    let mut local: Vec<usize> = (0..keys.len())
        .filter(|&k| model.newest(k).is_some())
        .collect();
    rng.shuffle(&mut local);
    let local_restores = if local.is_empty() {
        0
    } else {
        sc.local_restores
    };
    for i in 0..local_restores {
        let idx = local[i % local.len()];
        let version = model.newest(idx).expect("listed as present");
        let ((), _) = tr.time("node", "inject_failure", || {
            node.inject_failure(FailureKind::LocalSurvivable)
        });
        restore(
            &mut node,
            &mut tr,
            &mut rep,
            &keys,
            idx,
            version,
            RestoreSource::LocalNvm,
        );
    }
    let mut remote: Vec<usize> = (0..keys.len())
        .filter(|&k| keys[k].drained.is_some())
        .collect();
    rng.shuffle(&mut remote);
    if ctx.tamper {
        if let Some(&idx) = remote.first() {
            node.tamper_remote(keys[idx].app, keys[idx].rank);
        }
    }
    for i in 0..sc.remote_restores {
        let Some(&idx) = remote.get(i % remote.len().max(1)) else {
            break;
        };
        let version = keys[idx].drained.expect("listed as durable");
        let ((), _) = tr.time("node", "inject_failure", || {
            node.inject_failure(FailureKind::NodeLoss)
        });
        model.wipe();
        if restore(
            &mut node,
            &mut tr,
            &mut rep,
            &keys,
            idx,
            version,
            RestoreSource::RemoteIo,
        ) {
            model.write(idx, version, keys[idx].image.len());
        }
        peak_used = peak_used.max(node.nvm().used(Region::Uncompressed));
    }
    let p2_end = tr.now();
    tr.exit();
    rep.set("phase2_s", (p2_end - p2_start) as f64 / 1e9);
    clock_delta(&mut rep, "p2", &clock1, node.clock());
    rep.set("nvm.peak_used_bytes", peak_used as f64);
    rep.set("nvm.evictions", node.nvm().evictions as f64);
    rep.set(
        "nvm.lock_contention",
        contention.0.load(Ordering::Relaxed) as f64,
    );
    rep.spans = tr.spans().to_vec();

    if ctx.trace {
        probes(&mut rep, &node, &keys, block);
    }
    rep
}

/// One timed restore of `keys[idx]`, checked against the oracle's
/// expected source and version. Returns true if it matched.
fn restore(
    node: &mut ComputeNode,
    tr: &mut Tracer,
    rep: &mut PassReport,
    keys: &[Key],
    idx: usize,
    version: u64,
    want: RestoreSource,
) -> bool {
    let key = &keys[idx];
    let t0 = tr.now();
    let res = node.restore_rank(key.app, key.rank);
    let t1 = tr.now();
    // Keyed by the level that served the restore (the expected one when
    // it failed).
    let source = res.as_ref().map_or(want, |r| r.source);
    let name = if source == RestoreSource::RemoteIo {
        "restore_remote"
    } else {
        "restore_local"
    };
    tr.record("node", name, t0, t1);
    rep.sample(&format!("{name}_ms"), (t1 - t0) as f64 / 1e6);
    rep.add(&format!("{name}_bytes"), key.image.len() as f64);
    let ok = match &res {
        Ok(r) => r.source == want && key.matches(idx, version, &r.data),
        Err(_) => false,
    };
    rep.check(ok, || match &res {
        Ok(r) => format!(
            "restore {}/{}: want {want:?} v{version}, got {:?} ({} bytes{})",
            key.app,
            key.rank,
            r.source,
            r.data.len(),
            if r.source == want {
                ", wrong bytes"
            } else {
                ""
            }
        ),
        Err(e) => format!(
            "restore {}/{}: want {want:?} v{version}, got error {e}",
            key.app, key.rank
        ),
    });
    ok
}

/// Traced-run probes, outside the timed path: CRC-64 over the node's own
/// NVM slots, and the drained images replayed block by block through the
/// node's codec, both directions, outputs checked.
fn probes(rep: &mut PassReport, node: &ComputeNode, keys: &[Key], block: usize) {
    let t = std::time::Instant::now();
    let mut bytes = 0usize;
    let mut intact = true;
    for slot in node.nvm().slots(Region::Uncompressed) {
        intact &= slot.verify();
        bytes += slot.data.len();
    }
    rep.set("integrity.crc_s", t.elapsed().as_secs_f64());
    rep.set("integrity.crc_bytes", bytes as f64);
    rep.check(intact, || {
        "an NVM slot failed verification after the pass".into()
    });

    let (name, level) = node.config().codec.expect("node_cycle drains with a codec");
    let codec = registry::by_name(name, level).expect("codec exists");
    let (mut raw, mut packed, mut c_s, mut d_s) = (0usize, 0usize, 0.0f64, 0.0f64);
    let mut frame = Vec::with_capacity(block + 1024);
    let mut back = Vec::with_capacity(block);
    let mut exact = true;
    for key in keys.iter().filter(|k| k.drained.is_some()) {
        for chunk in key.image.chunks(block) {
            let t = std::time::Instant::now();
            codec.compress(chunk, &mut frame);
            c_s += t.elapsed().as_secs_f64();
            let t = std::time::Instant::now();
            let ok = codec.decompress(&frame, &mut back).is_ok();
            d_s += t.elapsed().as_secs_f64();
            exact &= ok && back == chunk;
            raw += chunk.len();
            packed += frame.len();
        }
    }
    rep.check(exact, || "codec replay did not round-trip".into());
    rep.set("codec.raw_bytes", raw as f64);
    rep.set("codec.packed_bytes", packed as f64);
    rep.set("codec.compress_s", c_s);
    rep.set("codec.decompress_s", d_s);
}
