//! # nimage-perfbench
//!
//! The repository benchmark. For one workload it generates the seeded
//! programs, evaluates them with `Engine::evaluate` over all eight
//! strategies (2 engine threads) for a fixed measuring time, checks every
//! cell's output, and prints the end-to-end metrics — or, with tracing,
//! the per-layer metrics of a separate traced run that times each layer
//! from outside. See `README.md` beside this crate for the workloads and
//! the layer → metric → workload map.

pub mod check;
pub mod json;
pub mod layers;
pub mod measure;
pub mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use nimage_core::{
    DiskCacheOptions, DiskStore, DiskUsage, Engine, EngineOptions, EngineStats, EvalRequest,
    PipelineError, Report, Strategy, TraceOptions,
};

use crate::check::{check_cell, references, CellRecord, Reference};
use crate::layers::{load_back, reenact, Cache, LayerRun, LAYER_TIMES};
use crate::measure::{geomean, median, peak_rss_mb, process_cpu, tail};
use crate::workload::{Inputs, Size, Workload, ENGINE_THREADS};

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Allowed worsening as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [MetricDef; 7] = [
    e2e("eval_ms", "ms", "lower", 0.25),
    e2e("eval_cpu_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("text_faults", "count", "lower", 0.15),
    e2e("heap_faults", "count", "lower", 0.2),
    e2e("startup_speedup", "x", "higher", 0.1),
];

/// The per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: [MetricDef; 56] = [
    layer("core.fingerprint_ms", "ms", "lower"),
    layer("diskcache.store_ms", "ms", "lower"),
    layer("diskcache.load_ms", "ms", "lower"),
    layer("diskcache.bytes", "B", "lower"),
    layer("diskcache.entries", "count", "lower"),
    layer("diskcache.hits", "count", "higher"),
    layer("diskcache.misses", "count", "lower"),
    layer("diskcache.stores", "count", "lower"),
    layer("diskcache.rejected", "count", "lower"),
    layer("diskcache.hit_ratio", "ratio", "higher"),
    layer("diskcache.eval_ms", "ms", "lower"),
    layer("diskcache.prime_ms", "ms", "lower"),
    layer("memo.hits", "count", "higher"),
    layer("memo.misses", "count", "lower"),
    layer("memo.hit_ratio", "ratio", "higher"),
    layer("analysis.ms", "ms", "lower"),
    layer("analysis.reachable_methods", "count", "lower"),
    layer("compiler.ms", "ms", "lower"),
    layer("compiler.cus", "count", "lower"),
    layer("heap.snapshot_ms", "ms", "lower"),
    layer("heap.objects", "count", "lower"),
    layer("heap.bytes", "B", "lower"),
    layer("profiler.replay_ms", "ms", "lower"),
    layer("profiler.trace_events", "count", "lower"),
    layer("order.ms", "ms", "lower"),
    layer("order.optimize_ms", "ms", "lower"),
    layer("order.predicted_text_faults", "count", "lower"),
    layer("order.predicted_heap_faults", "count", "lower"),
    layer("order.heap_prediction_gap", "count", "lower"),
    layer("image.layout_ms", "ms", "lower"),
    layer("image.text_pages", "count", "lower"),
    layer("image.heap_pages", "count", "lower"),
    layer("vm.lower_ms", "ms", "lower"),
    layer("vm.run_ms", "ms", "lower"),
    layer("vm.ops", "count", "lower"),
    layer("vm.mops_per_s", "Mops/s", "higher"),
    layer("vm.shards_lazy", "count", "lower"),
    layer("vm.shards_eager", "count", "lower"),
    layer("engine.parallelism", "x", "higher"),
    layer("engine.eval_ms_tail", "ms", "lower"),
    layer("engine.eval_ms_tail_pct", "pct", "higher"),
    layer("engine.eval_samples", "count", "higher"),
    layer("engine.traced_wall_ms", "ms", "lower"),
    layer("engine.unattributed_ms", "ms", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("report.analyze_ms", "ms", "lower"),
    layer("report.compile_ms", "ms", "lower"),
    layer("report.snapshot_ms", "ms", "lower"),
    layer("report.lower_ms", "ms", "lower"),
    layer("report.replay_ms", "ms", "lower"),
    layer("report.order_ms", "ms", "lower"),
    layer("report.optimize_ms", "ms", "lower"),
    layer("report.layout_ms", "ms", "lower"),
    layer("report.run_ms", "ms", "lower"),
    layer("crosscheck.flagged_layers", "count", "lower"),
    layer("cells.fail_frac", "ratio", "lower"),
];

/// Memory-probe processes per run; `peak_rss_mb` is their median.
const RSS_PROBES: usize = 3;
/// Set-up repetitions per run at least; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Set-up time per run at least, so that a quick set-up is repeated
/// often enough for a steady median.
const SETUP_MIN: Duration = Duration::from_secs(2);
/// Set-up repetitions per run at most.
const SETUP_MAX_REPEATS: usize = 100;
/// Timed evaluations per run at least, however long they take.
const MIN_EVALS: usize = 5;
/// Traced runs per `--trace 1` run; the one with the median wall time is
/// reported, so its layers still add up to its wall time.
const TRACED_RUNS: usize = 3;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload.
    pub workload: Workload,
    /// Input seed (0: the stock programs).
    pub seed: u64,
    /// Measuring time.
    pub seconds: f64,
    /// Print per-layer (true) or end-to-end (false) metrics.
    pub trace: bool,
    /// Program size.
    pub size: Size,
    /// This benchmark's executable, re-run as the memory probe.
    pub probe_exe: PathBuf,
}

/// A measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// No cell failed.
    pub correct: bool,
    /// Cells checked.
    pub attempted: u64,
    /// Cells that errored or failed a check.
    pub failed: u64,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable findings (first failure, cross-check flags).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Failed cells over attempted cells.
    pub fn cell_fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A per-run work directory under `.bench_work/` in the current
/// directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(workload: Workload) -> Result<WorkDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(".bench_work").join(format!(
            "{}-{}-{}",
            workload.name(),
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's directory is left.
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Checked cells so far, and the references they are checked against.
#[derive(Debug)]
struct Tally {
    refs: BTreeMap<String, Reference>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    fn new(refs: BTreeMap<String, Reference>) -> Tally {
        Tally {
            refs,
            attempted: 0,
            failed: 0,
            notes: Vec::new(),
        }
    }

    fn fail(&mut self, cells: u64, why: String) {
        self.attempted += cells;
        self.failed += cells;
        if self.notes.len() < 5 {
            self.notes.push(why);
        }
    }

    fn check(&mut self, inputs: &Inputs, cells: &[CellRecord], cold: Option<&[CellRecord]>) {
        if cells.len() != inputs.cells() {
            let why = format!("{} cells, expected {}", cells.len(), inputs.cells());
            self.fail(inputs.cells() as u64, why);
            return;
        }
        for (i, cell) in cells.iter().enumerate() {
            match check_cell(cell, self.refs.get(&cell.workload), cold.map(|c| &c[i])) {
                Ok(()) => self.attempted += 1,
                Err(why) => self.fail(1, why),
            }
        }
    }
}

/// Predicted against measured faults of the clustered cells.
#[derive(Debug, Clone, Copy, Default)]
struct PlanFaults {
    predicted_text: u64,
    predicted_heap: u64,
    measured_heap: u64,
}

/// One timed evaluation.
struct Timed {
    wall_ms: f64,
    cpu_ms: f64,
    cells: Vec<CellRecord>,
    report: Report,
    stats: EngineStats,
    usage: DiskUsage,
    plan: Option<PlanFaults>,
}

/// One `Engine::evaluate` of every program × all strategies on a fresh
/// engine, over the disk cache at `dir` or with no disk tier. Only the
/// evaluate call is timed.
fn evaluate(
    inputs: &Inputs,
    dir: Option<&Path>,
    vm_events: bool,
    plans: bool,
) -> Result<Timed, PipelineError> {
    let specs = inputs.specs();
    let req = EvalRequest::new()
        .workloads(specs.iter().cloned())
        .strategies(Strategy::all());
    let engine = Engine::new(EngineOptions {
        n_threads: ENGINE_THREADS,
        disk: dir.map(DiskCacheOptions::at),
        trace: TraceOptions {
            vm_events,
            ..TraceOptions::default()
        },
    });
    let (t0, c0) = (Instant::now(), process_cpu());
    let outcome = engine.evaluate(&req);
    let (wall, cpu) = (t0.elapsed(), process_cpu().saturating_sub(c0));
    let outcome = outcome?;
    let cells: Vec<CellRecord> = outcome.cells.iter().map(CellRecord::of).collect();
    let plan = if plans {
        // Cache hits after the evaluation: the clustered cells' plans.
        let mut pf = PlanFaults::default();
        for spec in &specs {
            let artifacts = engine.profile_workload(spec)?;
            for s in Strategy::all().into_iter().filter(Strategy::clustered) {
                let predicted = engine
                    .layout_plan(spec, &artifacts, s)?
                    .and_then(|p| p.predicted);
                if let Some(p) = predicted {
                    pf.predicted_text += p.optimized.text;
                    // The plan models the heap only where it orders it.
                    if s.orders_heap() {
                        pf.predicted_heap += p.optimized.heap;
                        pf.measured_heap += cells
                            .iter()
                            .filter(|c| c.workload == spec.name && c.strategy == s)
                            .map(|c| c.faults.1)
                            .sum::<u64>();
                    }
                }
            }
        }
        Some(pf)
    } else {
        None
    };
    Ok(Timed {
        wall_ms: wall.as_secs_f64() * 1e3,
        cpu_ms: cpu.as_secs_f64() * 1e3,
        cells,
        report: outcome.report,
        stats: engine.stats(),
        usage: engine.disk().map(DiskStore::usage).unwrap_or_default(),
        plan,
    })
}

/// The generated inputs plus, for warm workloads, the primed cache.
struct Setup {
    inputs: Inputs,
    primed: Option<PathBuf>,
    /// The priming evaluation that filled `primed`.
    prime: Option<Timed>,
    /// The first cold evaluation's cells: every later cell must equal them.
    cold: Option<Vec<CellRecord>>,
    /// Timed set-up repetitions, in seconds.
    secs: Vec<f64>,
}

/// Program generation plus (warm workloads) the cold evaluation that
/// primes the cache, repeated at least [`SETUP_REPEATS`] times and for at
/// least [`SETUP_MIN`], then (warm workloads) the priming itself, untimed:
/// the cold evaluation once more, with a disk tier writing the cache.
///
/// The timed repetitions run the cold evaluation without a disk tier.
/// On a 2-vCPU host with ext4 without a journal, creating a cache file
/// took from 0.03 ms to 1 ms, depending on how many files the file system
/// had deleted in the last half minute (by this run or the one before),
/// so a set-up time with the cache writes in it measured the file system
/// more than the program. The priming's own wall time is the per-layer
/// `diskcache.prime_ms`.
fn setup(args: &Args, work: &WorkDir, tally: &mut Tally) -> Result<Setup, String> {
    let (mut kept, mut cold) = (None, None);
    let mut secs = Vec::new();
    let started = Instant::now();
    while secs.len() < SETUP_REPEATS
        || (started.elapsed() < SETUP_MIN && secs.len() < SETUP_MAX_REPEATS)
    {
        let t0 = Instant::now();
        let inputs = Inputs::generate(args.workload, args.seed, args.size);
        let cells = if args.workload.warm() {
            let t = evaluate(&inputs, None, false, false).map_err(|e| format!("priming: {e}"))?;
            Some(t.cells)
        } else {
            None
        };
        secs.push(t0.elapsed().as_secs_f64());
        if let Some(cells) = cells {
            tally.check(&inputs, &cells, cold.as_deref());
            cold.get_or_insert(cells);
        }
        kept = Some(inputs);
    }
    let inputs: Inputs = kept.ok_or("no set-up ran")?;
    let (primed, prime) = if args.workload.warm() {
        let dir = work.path("primed");
        let t = evaluate(&inputs, Some(&dir), false, false).map_err(|e| format!("priming: {e}"))?;
        tally.check(&inputs, &t.cells, cold.as_deref());
        (Some(dir), Some(t))
    } else {
        (None, None)
    };
    Ok(Setup {
        inputs,
        primed,
        prime,
        cold,
        secs,
    })
}

/// Timed evaluations for `duration` (and until [`MIN_EVALS`] succeeded,
/// within twice as many attempts), each on a fresh engine: over the
/// primed cache, or with no disk tier for the cold workload.
fn measure(s: &mut Setup, tally: &mut Tally, duration: Duration, plans: bool) -> Vec<Timed> {
    let deadline = Instant::now() + duration;
    let mut out: Vec<Timed> = Vec::new();
    let mut i = 0;
    while (out.len() < MIN_EVALS && i < 2 * MIN_EVALS) || Instant::now() < deadline {
        if i >= MIN_EVALS && out.is_empty() {
            break; // every attempt failed
        }
        match evaluate(
            &s.inputs,
            s.primed.as_deref(),
            false,
            plans && out.is_empty(),
        ) {
            Ok(t) => {
                tally.check(&s.inputs, &t.cells, s.cold.as_deref());
                s.cold.get_or_insert_with(|| t.cells.clone());
                out.push(t);
            }
            Err(e) => tally.fail(s.inputs.cells() as u64, format!("evaluate: {e}")),
        }
        i += 1;
    }
    out
}

/// `name over N samples: min, q1, median, q3, max`.
fn spread_note(name: &str, samples: &str, values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |f: f64| v[((v.len() - 1) as f64 * f).round() as usize];
    format!(
        "{name} over {} {samples}: min {:.3}, q1 {:.3}, median {:.3}, q3 {:.3}, max {:.3}",
        v.len(),
        q(0.0),
        q(0.25),
        q(0.5),
        q(0.75),
        q(1.0)
    )
}

/// The memory probe, run in a fresh process: generates the workload's
/// programs and evaluates them once (over `primed`, for warm workloads),
/// checks the cells' results, and returns the process's peak RSS (`VmHWM`) in MiB.
///
/// # Errors
/// An evaluation error, a failed cell, or no `/proc/self/status`.
pub fn rss_probe(args: &Args, primed: Option<&Path>) -> Result<f64, String> {
    let inputs = Inputs::generate(args.workload, args.seed, args.size);
    let t = evaluate(&inputs, primed, false, false).map_err(|e| e.to_string())?;
    let mut tally = Tally::new(references(&inputs, false)?);
    tally.check(&inputs, &t.cells, None);
    if tally.failed > 0 {
        return Err(format!("memory probe: {:?}", tally.notes));
    }
    peak_rss_mb().ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_string())
}

/// Peak RSS of processes that ran only this workload: [`RSS_PROBES`] runs
/// of [`rss_probe`] in child processes. In-process peaks depend on how
/// much freed memory the allocator kept from earlier evaluations and the
/// set-up, and moved by a quarter between runs.
fn probe_peak_rss(args: &Args, s: &Setup) -> Result<Vec<f64>, String> {
    (0..RSS_PROBES)
        .map(|_| {
            let mut cmd = std::process::Command::new(&args.probe_exe);
            cmd.arg("--rss-probe")
                .args(["--workload", args.workload.name()])
                .args(["--seed", &args.seed.to_string()]);
            if args.size == Size::Small {
                cmd.arg("--small");
            }
            if let Some(dir) = &s.primed {
                cmd.arg("--primed").arg(dir);
            }
            let out = cmd.output().map_err(|e| format!("memory probe: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "memory probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            stdout
                .trim()
                .parse::<f64>()
                .map_err(|_| format!("memory probe printed {stdout:?}"))
        })
        .collect()
}

fn push(metrics: &mut Vec<Metric>, def: &MetricDef, value: f64) {
    metrics.push(Metric {
        name: def.name,
        unit: def.unit,
        value: if value.is_finite() { value } else { 0.0 },
    });
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs one workload and collects its metrics.
///
/// # Errors
/// Set-up failures, or no evaluation succeeding at all.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new(args.workload)?;
    let inputs = Inputs::generate(args.workload, args.seed, args.size);
    let mut tally = Tally::new(references(&inputs, true)?);
    drop(inputs);
    let mut s = setup(args, &work, &mut tally)?;
    let seconds = Duration::from_secs_f64(args.seconds);
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = Vec::new();

    if !args.trace {
        let timed = measure(&mut s, &mut tally, seconds, false);
        if timed.is_empty() {
            return Err(format!("no evaluation succeeded: {:?}", tally.notes));
        }
        let cold = s.cold.as_deref().unwrap_or_default();
        let walls: Vec<f64> = timed.iter().map(|t| t.wall_ms).collect();
        let cpus: Vec<f64> = timed.iter().map(|t| t.cpu_ms).collect();
        values.insert("setup_s", median(&s.secs));
        values.insert("eval_ms", median(&walls));
        values.insert("eval_cpu_ms", median(&cpus));
        let peaks = probe_peak_rss(args, &s)?;
        values.insert("peak_rss_mb", median(&peaks));
        values.insert(
            "text_faults",
            cold.iter().map(|c| c.faults.0).sum::<u64>() as f64,
        );
        values.insert(
            "heap_faults",
            cold.iter().map(|c| c.faults.1).sum::<u64>() as f64,
        );
        let speedups: Vec<f64> = cold.iter().map(|c| c.speedup).collect();
        values.insert("startup_speedup", geomean(&speedups));
        notes.push(spread_note("eval_ms", "evaluations", &walls));
        notes.push(spread_note("setup_s", "set-ups", &s.secs));
        notes.push(format!(
            "peak_rss_mb of {} probe processes: {peaks:.1?}",
            peaks.len()
        ));
    } else {
        traced(args, &mut s, &work, &mut tally, &mut values, &mut notes)?;
    }

    let defs: Vec<&MetricDef> = if args.trace {
        PER_LAYER.iter().collect()
    } else {
        END_TO_END.iter().collect()
    };
    let mut metrics = Vec::new();
    let mut outcome = Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: Vec::new(),
        notes: tally.notes,
    };
    values.insert("cells.fail_frac", outcome.cell_fail_frac());
    for def in defs {
        let v = values
            .get(def.name)
            .copied()
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        push(&mut metrics, def, v);
    }
    outcome.metrics = metrics;
    outcome.notes.extend(notes);
    Ok(outcome)
}

/// The `--trace 1` run: timed evaluations for the engine counters, paired
/// evaluations with and without VM trace events for the tracing overhead,
/// and the outside re-enactment for the layer self times.
fn traced(
    args: &Args,
    s: &mut Setup,
    work: &WorkDir,
    tally: &mut Tally,
    values: &mut BTreeMap<&'static str, f64>,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let timed = measure(s, tally, half, true);
    let Some(first) = timed.first() else {
        return Err(format!("no evaluation succeeded: {:?}", tally.notes));
    };

    // Tracing overhead: alternating pairs, VM events on and off.
    let deadline = Instant::now() + half;
    let (mut plain, mut events) = (Vec::new(), Vec::new());
    let mut pair = 0;
    while pair < 3 || Instant::now() < deadline {
        for on in [pair % 2 == 0, pair % 2 == 1] {
            match evaluate(&s.inputs, s.primed.as_deref(), on, false) {
                Ok(t) => {
                    tally.check(&s.inputs, &t.cells, s.cold.as_deref());
                    if on { &mut events } else { &mut plain }.push(t.wall_ms);
                }
                Err(e) => tally.fail(s.inputs.cells() as u64, format!("evaluate: {e}")),
            }
        }
        pair += 1;
    }
    values.insert(
        "trace.overhead_pct",
        (ratio(median(&events), median(&plain)) - 1.0) * 100.0,
    );

    // Engine-side numbers of the timed evaluations.
    let walls: Vec<f64> = timed
        .iter()
        .map(|t| t.wall_ms)
        .chain(plain.iter().copied())
        .collect();
    let cpus: Vec<f64> = timed.iter().map(|t| t.cpu_ms).collect();
    let wall_med = median(&walls);
    values.insert(
        "engine.parallelism",
        ratio(
            median(&cpus),
            median(&timed.iter().map(|t| t.wall_ms).collect::<Vec<_>>()),
        ),
    );
    let (pct, tail_ms) = tail(&walls).unwrap_or((50.0, wall_med));
    values.insert("engine.eval_ms_tail", tail_ms);
    values.insert("engine.eval_ms_tail_pct", pct);
    values.insert("engine.eval_samples", walls.len() as f64);
    // Disk-tier counters: the timed evaluations for warm workloads; for the
    // cold workload, whose timed evaluations run without a disk tier, one
    // extra evaluation into an empty cache directory, which is also its
    // priming time.
    let probe;
    let disked = match &s.prime {
        Some(prime) => {
            values.insert("diskcache.eval_ms", wall_med);
            values.insert("diskcache.prime_ms", prime.wall_ms);
            first
        }
        None => {
            let dir = work.path("disk-probe");
            probe = evaluate(&s.inputs, Some(&dir), false, false).map_err(|e| e.to_string())?;
            tally.check(&s.inputs, &probe.cells, s.cold.as_deref());
            let _ = std::fs::remove_dir_all(dir);
            values.insert("diskcache.eval_ms", probe.wall_ms);
            values.insert("diskcache.prime_ms", probe.wall_ms);
            &probe
        }
    };
    let disk = disked.stats.disk.unwrap_or_default();
    values.insert("diskcache.hits", disk.hits as f64);
    values.insert("diskcache.misses", disk.misses as f64);
    values.insert("diskcache.stores", disk.stores as f64);
    values.insert("diskcache.rejected", disk.rejected as f64);
    values.insert(
        "diskcache.hit_ratio",
        ratio(disk.hits as f64, (disk.hits + disk.misses) as f64),
    );
    values.insert("diskcache.bytes", disked.usage.bytes as f64);
    values.insert("diskcache.entries", disked.usage.entries as f64);
    let (hits, misses) = (first.stats.cache_hits(), first.stats.cache_misses());
    values.insert("memo.hits", hits as f64);
    values.insert("memo.misses", misses as f64);
    values.insert("memo.hit_ratio", ratio(hits as f64, (hits + misses) as f64));
    values.insert("vm.shards_lazy", first.stats.lowered_shards.lazy as f64);
    values.insert("vm.shards_eager", first.stats.lowered_shards.eager as f64);
    let plan = first.plan.unwrap_or_default();
    values.insert("order.predicted_text_faults", plan.predicted_text as f64);
    values.insert("order.predicted_heap_faults", plan.predicted_heap as f64);
    values.insert(
        "order.heap_prediction_gap",
        plan.measured_heap.abs_diff(plan.predicted_heap) as f64,
    );
    // Report rows of the timed evaluation closest to the median.
    let typical = timed
        .iter()
        .min_by(|a, b| {
            (a.wall_ms - wall_med)
                .abs()
                .total_cmp(&(b.wall_ms - wall_med).abs())
        })
        .unwrap_or(first);
    // The engine rows covering what the traced run re-enacts: the cold
    // evaluation with a disk tier for the cold workload; the priming plus
    // a timed evaluation for the warm ones.
    let timed_report = match s.primed {
        Some(_) => &typical.report,
        None => &disked.report,
    };
    let report_ms = |stage: &str| {
        [Some(timed_report), s.prime.as_ref().map(|p| &p.report)]
            .into_iter()
            .flatten()
            .flat_map(|r| r.stages.iter().filter(|row| row.name == stage))
            .map(|row| row.exclusive_ns as f64 / 1e6)
            .sum::<f64>()
    };

    let layer = traced_runs(s, work)?;
    for (metric, _) in LAYER_TIMES {
        values.insert(metric, layer.metric_ms(metric));
    }
    for (name, n) in &layer.counts {
        values.insert(name, *n as f64);
    }
    for name in [
        "analysis.reachable_methods",
        "compiler.cus",
        "heap.objects",
        "heap.bytes",
        "profiler.trace_events",
    ] {
        values.entry(name).or_insert(0.0);
    }
    let run_ms = layer.metric_ms("vm.run_ms");
    values.insert(
        "vm.mops_per_s",
        ratio(
            layer.counts.get("vm.ops").copied().unwrap_or(0) as f64,
            run_ms * 1e3,
        ),
    );
    values.insert("engine.traced_wall_ms", layer.wall_ns as f64 / 1e6);
    values.insert("engine.unattributed_ms", layer.unattributed_ms());

    // Cross-check: the outside spans against the engine's own stage rows.
    let bound = END_TO_END
        .iter()
        .find(|d| d.name == "eval_ms")
        .and_then(|d| d.bound)
        .unwrap_or(0.0);
    let mut flagged = 0;
    for (metric, stage) in LAYER_TIMES {
        let Some(stage) = stage else { continue };
        let (outside, engine) = (layer.stage_ms(stage), report_ms(stage));
        let report_key = PER_LAYER
            .iter()
            .find(|d| d.name == format!("report.{stage}_ms"))
            .map(|d| d.name)
            .ok_or("missing report row metric")?;
        values.insert(report_key, engine);
        let gap = ratio((outside - engine).abs(), outside.max(engine));
        if gap > bound {
            flagged += 1;
            notes.push(format!(
                "crosscheck {stage}: outside spans {outside:.2} ms ({metric}) vs Report.stages \
                 {engine:.2} ms, {:.0}% apart",
                gap * 100.0
            ));
        }
    }
    values.insert("crosscheck.flagged_layers", flagged as f64);
    notes.push(format!(
        "crosscheck fingerprint: core.fingerprint_ms = {:.2} ms has no Report.stages row (known \
         span-less gap)",
        layer.metric_ms("core.fingerprint_ms")
    ));
    Ok(())
}

/// The traced run, [`TRACED_RUNS`] times on a disk store of its own;
/// the run with the median wall time is kept. Each run re-enacts what the
/// workload does: a cold evaluation that stores every artifact (the whole
/// cold workload, or the warm workloads' priming), then the warm
/// evaluation that loads them, or, for the cold workload, a load-back of
/// every stored artifact. So every layer, the disk layer in both
/// directions, does measurable work on every workload.
fn traced_runs(s: &Setup, work: &WorkDir) -> Result<LayerRun, String> {
    let mut runs = Vec::new();
    for i in 0..TRACED_RUNS {
        let dir = work.path(&format!("layers-{i}"));
        let store = DiskStore::open(&DiskCacheOptions::at(&dir));
        let mut run = LayerRun::default();
        let t0 = Instant::now();
        reenact(&mut run, &s.inputs, &store, Cache::Cold)?;
        if s.primed.is_some() {
            reenact(&mut run, &s.inputs, &store, Cache::Warm)?;
        } else {
            load_back(&mut run, &store)?;
        }
        run.wall_ns = t0.elapsed().as_nanos() as u64;
        runs.push(run);
        let _ = std::fs::remove_dir_all(dir);
    }
    runs.sort_by_key(|r| r.wall_ns);
    Ok(runs.swap_remove(runs.len() / 2))
}
