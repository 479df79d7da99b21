//! The traced run: evaluations re-enacted from outside the engine,
//! serially, with every call into a layer's public functions wrapped in a
//! span the benchmark owns.
//!
//! A re-enactment performs the work `Engine::evaluate` performs for a
//! cache state: cold, every stage computes and every artifact is stored to
//! a disk cache; warm, the persisted artifacts are loaded and only the
//! stages the engine does not persist (analysis, heap templates, baseline
//! and per-strategy layouts, first-touch ordering, lowering and the
//! strategy runs) compute. Spans never nest, so a span's self time is its
//! duration, and the wall time of a traced run minus the sum of its spans
//! is the time no span covers.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use nimage_compiler::{CuId, InstrumentConfig};
use nimage_core::{
    CacheKey, DiskCodec, DiskStore, LayoutOrders, Pipeline, ProfiledArtifacts, RunParts, Strategy,
};
use nimage_heap::ObjId;
use nimage_image::BinaryImage;
use nimage_order::{assign_ids, HeapStrategy};
use nimage_vm::{HeapTemplate, LoweredProgram, LoweredShard, RunReport};

use crate::workload::{Inputs, Subject};

/// Self-time metrics of the traced run, each with the `Report.stages` row
/// it corresponds to (`None`: the engine records no stage span there).
pub const LAYER_TIMES: [(&str, Option<&str>); 12] = [
    ("core.fingerprint_ms", None),
    ("diskcache.store_ms", None),
    ("diskcache.load_ms", None),
    ("analysis.ms", Some("analyze")),
    ("compiler.ms", Some("compile")),
    ("heap.snapshot_ms", Some("snapshot")),
    ("profiler.replay_ms", Some("replay")),
    ("order.ms", Some("order")),
    ("order.optimize_ms", Some("optimize")),
    ("image.layout_ms", Some("layout")),
    ("vm.lower_ms", Some("lower")),
    ("vm.run_ms", Some("run")),
];

/// One span: the layer metric it counts toward, the engine stage whose
/// report row covers the same work, and its duration.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer metric (one of [`LAYER_TIMES`]).
    pub metric: &'static str,
    /// Engine stage row covering the same work, if any.
    pub stage: Option<&'static str>,
    /// Duration in nanoseconds.
    pub ns: u64,
}

/// Loads one stored artifact back as the type it was stored as.
type Loader = fn(&DiskStore, CacheKey) -> bool;

fn load_as<T: DiskCodec>(store: &DiskStore, k: CacheKey) -> bool {
    store.get::<T>("perfbench", k).is_some()
}

/// A traced run: the spans and counts of one or more re-enactments.
#[derive(Debug, Clone, Default)]
pub struct LayerRun {
    /// Wall time of the whole traced run, set by its caller.
    pub wall_ns: u64,
    /// Every span, in call order.
    pub spans: Vec<Span>,
    /// Work counts (`analysis.reachable_methods`, `vm.ops`, …).
    pub counts: BTreeMap<&'static str, u64>,
    /// Every artifact stored so far, for [`load_back`].
    stored: Vec<(CacheKey, Loader)>,
}

impl LayerRun {
    /// Σ self time of one layer metric, in ms.
    pub fn metric_ms(&self, metric: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.metric == metric)
            .map(|s| s.ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Σ self time of the spans covering one engine stage, in ms.
    pub fn stage_ms(&self, stage: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.stage == Some(stage))
            .map(|s| s.ns)
            .sum::<u64>() as f64
            / 1e6
    }

    /// Wall time no span covers, in ms.
    pub fn unattributed_ms(&self) -> f64 {
        let spanned: u64 = self.spans.iter().map(|s| s.ns).sum();
        self.wall_ns.saturating_sub(spanned) as f64 / 1e6
    }

    fn time<T>(
        &mut self,
        metric: &'static str,
        stage: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let v = f();
        self.spans.push(Span {
            metric,
            stage,
            ns: t0.elapsed().as_nanos() as u64,
        });
        v
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }
}

/// Whether the re-enactment starts from an empty or a primed store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cache {
    /// Compute every stage and store every artifact.
    Cold,
    /// Load the artifacts a cold re-enactment stored.
    Warm,
}

fn key(subject: Subject, what: &str) -> CacheKey {
    CacheKey::of_debug("perfbench", &(subject.name(), what))
}

fn shard_key(subject: Subject, cu: CuId) -> CacheKey {
    CacheKey::of_debug("perfbench-shard", &(subject.name(), cu.index()))
}

/// Store / load helpers that time the disk layer.
struct Disk<'a> {
    store: &'a DiskStore,
}

impl Disk<'_> {
    fn put<T: DiskCodec>(
        &self,
        run: &mut LayerRun,
        stage: Option<&'static str>,
        k: CacheKey,
        v: &T,
    ) {
        run.time("diskcache.store_ms", stage, || {
            self.store.put("perfbench", k, v)
        });
        run.stored.push((k, load_as::<T>));
    }

    fn get<T: DiskCodec>(
        &self,
        run: &mut LayerRun,
        stage: Option<&'static str>,
        k: CacheKey,
        what: &str,
    ) -> Result<T, String> {
        run.time("diskcache.load_ms", stage, || {
            self.store.get("perfbench", k)
        })
        .ok_or_else(|| format!("traced run: {what} missing from the primed store"))
    }
}

type Ids = HashMap<HeapStrategy, Arc<HashMap<ObjId, u64>>>;

/// Re-enacts one evaluation of every program in `inputs` over all eight
/// strategies against `store`, adding its spans and counts to `run`.
///
/// # Errors
/// Pipeline failures, or (warm) an artifact the store does not hold.
pub fn reenact(
    run: &mut LayerRun,
    inputs: &Inputs,
    store: &DiskStore,
    cache: Cache,
) -> Result<(), String> {
    let disk = Disk { store };
    for (subject, _, program) in &inputs.programs {
        reenact_one(run, &disk, *subject, program, cache)?;
    }
    Ok(())
}

/// Loads every artifact `run` stored back from `store`, each as its own
/// type, timing the disk layer's reads.
///
/// # Errors
/// An artifact that does not load back.
pub fn load_back(run: &mut LayerRun, store: &DiskStore) -> Result<(), String> {
    for (k, load) in run.stored.clone() {
        if !run.time("diskcache.load_ms", None, || load(store, k)) {
            return Err(format!(
                "traced run: stored artifact {k:?} did not load back"
            ));
        }
    }
    Ok(())
}

fn layout(
    run: &mut LayerRun,
    p: &Pipeline<'_>,
    compiled: &nimage_compiler::CompiledProgram,
    snap: &nimage_heap::HeapSnapshot,
    orders: LayoutOrders,
    native: Option<&[u32]>,
) -> Result<BinaryImage, String> {
    let image = run
        .time("image.layout_ms", Some("layout"), || {
            p.layout_stage(compiled, snap, orders, native)
        })
        .map_err(|e| e.to_string())?;
    run.count("image.text_pages", image.text_pages());
    run.count(
        "image.heap_pages",
        image.svm_heap.size.div_ceil(image.options.page_size),
    );
    Ok(image)
}

fn vm_run(
    run: &mut LayerRun,
    p: &Pipeline<'_>,
    parts: RunParts<'_>,
    subject: Subject,
) -> Result<RunReport, String> {
    let report = run
        .time("vm.run_ms", Some("run"), || p.run(parts, subject.stop()))
        .map_err(|e| e.to_string())?;
    run.count("vm.ops", report.ops + report.probe_ops);
    Ok(report)
}

fn reenact_one(
    run: &mut LayerRun,
    disk: &Disk<'_>,
    subject: Subject,
    program: &nimage_ir::Program,
    cache: Cache,
) -> Result<(), String> {
    let opts = subject.options();
    let p = Pipeline::new(program, opts.clone());
    let err = |e: nimage_core::PipelineError| e.to_string();

    run.time("core.fingerprint_ms", None, || {
        CacheKey::of_debug("program", program)
    });
    let reach = run.time("analysis.ms", Some("analyze"), || p.analyze_stage());
    run.count("analysis.reachable_methods", reach.methods.len() as u64);

    // The profiling half: instrumented build, run and replay (cold), or
    // the persisted profile (warm).
    let artifacts: ProfiledArtifacts = match cache {
        Cache::Warm => disk.get(run, None, key(subject, "profile"), "profile")?,
        Cache::Cold => {
            let compiled = run.time("compiler.ms", Some("compile"), || {
                p.compile_stage(reach.clone(), InstrumentConfig::FULL, None)
            });
            run.count("compiler.cus", compiled.cus.len() as u64);
            disk.put(run, None, key(subject, "compile:instrumented"), &compiled);
            let snap = run
                .time("heap.snapshot_ms", Some("snapshot"), || {
                    p.snapshot_stage(&compiled, &opts.heap_instrumented)
                })
                .map_err(err)?;
            run.count("heap.objects", snap.entries().len() as u64);
            run.count("heap.bytes", snap.total_bytes());
            disk.put(run, None, key(subject, "snapshot:instrumented"), &snap);
            let template = run.time("heap.snapshot_ms", Some("snapshot"), || {
                Arc::new(HeapTemplate::from_build_heap(snap.heap()))
            });
            let image = layout(run, &p, &compiled, &snap, LayoutOrders::default(), None)?;
            let lowered = run.time("vm.lower_ms", Some("lower"), || {
                Arc::new(LoweredProgram::new(program, &compiled, opts.vm.max_paths))
            });
            let mut ids = Ids::new();
            for hs in opts.heap_strategies() {
                let m = run.time("order.ms", Some("order"), || {
                    Arc::new(assign_ids(program, &snap, hs))
                });
                disk.put(
                    run,
                    None,
                    key(subject, &format!("ids:instrumented:{hs:?}")),
                    &*m,
                );
                ids.insert(hs, m);
            }
            let report = vm_run(
                run,
                &p,
                RunParts::new(&compiled, &snap, &image)
                    .heap(Some(template))
                    .lowered(Some(lowered)),
                subject,
            )?;
            let events = report
                .trace
                .as_ref()
                .map_or(0, |t| t.threads.iter().map(Vec::len).sum::<usize>());
            run.count("profiler.trace_events", events as u64);
            let artifacts = run
                .time("profiler.replay_ms", Some("replay"), || {
                    p.post_process(report, &mut |hs| ids[&hs].clone())
                })
                .map_err(err)?;
            disk.put(run, None, key(subject, "profile"), &artifacts);
            artifacts
        }
    };

    // The optimized build shared by every strategy.
    let (compiled, snap) = match cache {
        Cache::Warm => (
            disk.get(
                run,
                None,
                key(subject, "compile:optimized"),
                "optimized compile",
            )?,
            disk.get(
                run,
                None,
                key(subject, "snapshot:optimized"),
                "optimized snapshot",
            )?,
        ),
        Cache::Cold => {
            let compiled = run.time("compiler.ms", Some("compile"), || {
                p.compile_stage(
                    reach.clone(),
                    InstrumentConfig::NONE,
                    Some(&artifacts.call_counts),
                )
            });
            run.count("compiler.cus", compiled.cus.len() as u64);
            disk.put(run, None, key(subject, "compile:optimized"), &compiled);
            let snap = run
                .time("heap.snapshot_ms", Some("snapshot"), || {
                    p.snapshot_stage(&compiled, &opts.heap_optimized)
                })
                .map_err(err)?;
            run.count("heap.objects", snap.entries().len() as u64);
            run.count("heap.bytes", snap.total_bytes());
            disk.put(run, None, key(subject, "snapshot:optimized"), &snap);
            (compiled, snap)
        }
    };
    let template = run.time("heap.snapshot_ms", Some("snapshot"), || {
        Arc::new(HeapTemplate::from_build_heap(snap.heap()))
    });
    let base_image = layout(run, &p, &compiled, &snap, LayoutOrders::default(), None)?;
    let lowered = run.time("vm.lower_ms", Some("lower"), || {
        Arc::new(LoweredProgram::new(program, &compiled, opts.vm.max_paths))
    });

    // The hot-CU pre-lowering wave, each shard persisted per CU.
    let hot: Vec<CuId> = run.time("vm.lower_ms", Some("lower"), || {
        let sig_to_cu: HashMap<String, CuId> = compiled
            .cus
            .iter()
            .map(|cu| (program.method_signature(cu.root), cu.id))
            .collect();
        artifacts
            .cu_profile
            .sigs
            .iter()
            .filter_map(|sig| sig_to_cu.get(sig).copied())
            .filter(|&cu| !lowered.is_cu_lowered(cu))
            .collect()
    });
    for cu in hot {
        match cache {
            Cache::Cold => {
                let shard = run.time("vm.lower_ms", Some("lower"), || {
                    lowered.extract_shard(program, &compiled, cu)
                });
                disk.put(run, Some("lower"), shard_key(subject, cu), &shard);
            }
            Cache::Warm => {
                let shard: LoweredShard =
                    disk.get(run, Some("lower"), shard_key(subject, cu), "lowered shard")?;
                if !run.time("vm.lower_ms", Some("lower"), || {
                    lowered.install_shard(&compiled, &shard)
                }) {
                    return Err(format!(
                        "traced run: shard {} failed to install",
                        cu.index()
                    ));
                }
            }
        }
    }

    let base_parts = || {
        RunParts::new(&compiled, &snap, &base_image)
            .heap(Some(template.clone()))
            .lowered(Some(lowered.clone()))
    };
    match cache {
        Cache::Warm => {
            let _: RunReport = disk.get(run, None, key(subject, "run:baseline"), "baseline run")?;
        }
        Cache::Cold => {
            let report = vm_run(run, &p, base_parts(), subject)?;
            disk.put(run, None, key(subject, "run:baseline"), &report);
        }
    }

    let mut ids = Ids::new();
    for hs in opts.heap_strategies() {
        let k = key(subject, &format!("ids:optimized:{hs:?}"));
        let m = match cache {
            Cache::Warm => Arc::new(disk.get(run, None, k, "heap ids")?),
            Cache::Cold => {
                let m = run.time("order.ms", Some("order"), || {
                    Arc::new(assign_ids(program, &snap, hs))
                });
                disk.put(run, None, k, &*m);
                m
            }
        };
        ids.insert(hs, m);
    }

    for s in Strategy::all() {
        let s_ids = opts.heap_strategy_for(s).map(|hs| ids[&hs].clone());
        let order = |run: &mut LayerRun, metric, stage| {
            run.time(metric, Some(stage), || {
                p.order_stage(&artifacts, &compiled, &snap, Some(s), s_ids.as_deref())
            })
        };
        let orders = match (s.clustered(), cache) {
            (false, _) => order(run, "order.ms", "order"),
            (true, Cache::Cold) => {
                let plan = order(run, "order.optimize_ms", "optimize");
                disk.put(
                    run,
                    None,
                    key(subject, &format!("plan:{}", s.name())),
                    &plan,
                );
                plan
            }
            (true, Cache::Warm) => disk.get(
                run,
                None,
                key(subject, &format!("plan:{}", s.name())),
                "plan",
            )?,
        };
        let image = layout(
            run,
            &p,
            &compiled,
            &snap,
            orders,
            Some(artifacts.native_pages.as_slice()),
        )?;
        vm_run(
            run,
            &p,
            RunParts::new(&compiled, &snap, &image)
                .heap(Some(template.clone()))
                .lowered(Some(lowered.clone())),
            subject,
        )?;
    }
    Ok(())
}
