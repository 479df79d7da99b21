//! The benchmark's workloads and their seeded inputs.
//!
//! A workload is a set of programs evaluated together in one
//! `Engine::evaluate` over all eight strategies, plus the disk-cache state
//! the evaluation starts from. The seed only perturbs the `RuntimeScale`
//! each program is generated at; the engine receives nothing but the
//! generated programs.

use nimage_core::{BuildOptions, Strategy, WorkloadSpec};
use nimage_ir::Program;
use nimage_profiler::DumpMode;
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// Engine worker threads in every workload (the 2-vCPU host's `nproc`).
pub const ENGINE_THREADS: usize = 2;

/// One program of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subject {
    /// The micronaut-like service, stopped at its first response.
    Micronaut,
    /// An AWFY benchmark, run to exit.
    Awfy(Awfy),
}

impl Subject {
    /// Row name in the evaluation.
    pub fn name(self) -> &'static str {
        match self {
            Subject::Micronaut => Microservice::Micronaut.name(),
            Subject::Awfy(a) => a.name(),
        }
    }

    /// When measured runs stop: services never exit.
    pub fn stop(self) -> StopWhen {
        match self {
            Subject::Micronaut => StopWhen::FirstResponse,
            Subject::Awfy(_) => StopWhen::Exit,
        }
    }

    /// Pipeline options, as `nimage bench` uses them for this program.
    pub fn options(self) -> BuildOptions {
        let dump_mode = match self {
            Subject::Micronaut => DumpMode::MemoryMapped,
            Subject::Awfy(_) => DumpMode::OnFull,
        };
        BuildOptions {
            vm: VmConfig {
                dump_mode,
                ..VmConfig::default()
            },
            ..BuildOptions::default()
        }
    }

    /// The scale the stock program is generated at: `Microservice::program`
    /// uses 50 runtime modules; `Awfy::program` perturbs the default scale
    /// by a hash of the benchmark name (same formula, reproduced here).
    pub fn stock_scale(self) -> RuntimeScale {
        let d = RuntimeScale::default();
        match self {
            Subject::Micronaut => RuntimeScale { modules: 50, ..d },
            Subject::Awfy(a) => {
                let h = name_hash(a.name());
                RuntimeScale {
                    modules: d.modules - 10 + (h % 25) as usize,
                    hot_methods: d.hot_methods - 1 + (h / 25 % 3) as usize,
                    hot_pad: d.hot_pad - 10 + (h / 75 % 25) as usize,
                    cold_methods: d.cold_methods - 1 + (h / 7 % 3) as usize,
                    cold_pad: d.cold_pad - 15 + (h / 11 % 35) as usize,
                    metas: d.metas - 4 + (h / 13 % 9) as usize,
                    blob_len: d.blob_len - 80 + (h / 17 % 160) as usize,
                }
            }
        }
    }

    /// Generates the program at `scale`.
    pub fn program(self, scale: &RuntimeScale) -> Program {
        match self {
            Subject::Micronaut => Microservice::Micronaut.program_at(scale),
            Subject::Awfy(a) => a.program_at(scale),
        }
    }
}

/// The name hash `Awfy::program` perturbs its scale with.
fn name_hash(name: &str) -> u64 {
    name.bytes()
        .fold(0u64, |a, b| a.wrapping_mul(131).wrapping_add(u64::from(b)))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The runtime scale of `name` under `seed`: `base` itself for seed 0,
/// otherwise `base` with its module count, padding and metadata sizes
/// moved by a few percent, keyed on both seed and name. The method counts
/// per module stay fixed, and the amplitude is far below `Awfy::program`'s
/// per-name spread, so seeds vary the inputs without moving the medians
/// beyond the benchmark's bounds.
pub fn seeded_scale(base: &RuntimeScale, name: &str, seed: u64) -> RuntimeScale {
    if seed == 0 {
        return base.clone();
    }
    let mut h = splitmix64(seed ^ name_hash(name).rotate_left(32));
    let mut nudge = |v: usize, radius: u64| -> usize {
        let delta = (h % (2 * radius + 1)) as i64 - radius as i64;
        h = splitmix64(h);
        (v as i64 + delta).max(1) as usize
    };
    RuntimeScale {
        modules: nudge(base.modules, 1),
        hot_methods: base.hot_methods,
        hot_pad: nudge(base.hot_pad, 2),
        cold_methods: base.cold_methods,
        cold_pad: nudge(base.cold_pad, 3),
        metas: nudge(base.metas, 1),
        blob_len: nudge(base.blob_len, 16),
    }
}

/// Program size: the stock scales, or `RuntimeScale::small()` for smoke
/// runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The stock scales (the measured benchmark).
    Full,
    /// `RuntimeScale::small()` for every program (tests).
    Small,
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// micronaut × 8 strategies, fresh engine without a disk tier.
    ColdMicronaut,
    /// micronaut × 8 strategies, fresh engine on a primed disk cache.
    WarmMicronaut,
    /// Mandelbrot, Queens, List × 8 strategies on a primed disk cache.
    WarmAwfyRun,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ColdMicronaut,
        Workload::WarmMicronaut,
        Workload::WarmAwfyRun,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMicronaut => "cold-micronaut",
            Workload::WarmMicronaut => "warm-micronaut",
            Workload::WarmAwfyRun => "warm-awfy-run",
        }
    }

    /// Resolves a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether each timed evaluation starts from a primed disk cache.
    pub fn warm(self) -> bool {
        !matches!(self, Workload::ColdMicronaut)
    }

    /// The programs evaluated together.
    pub fn subjects(self) -> &'static [Subject] {
        match self {
            Workload::ColdMicronaut | Workload::WarmMicronaut => &[Subject::Micronaut],
            Workload::WarmAwfyRun => &[
                Subject::Awfy(Awfy::Mandelbrot),
                Subject::Awfy(Awfy::Queens),
                Subject::Awfy(Awfy::List),
            ],
        }
    }
}

/// The generated programs of one workload under one seed.
#[derive(Debug)]
pub struct Inputs {
    /// `(subject, scale, program)` rows, in evaluation order.
    pub programs: Vec<(Subject, RuntimeScale, Program)>,
}

impl Inputs {
    /// Generates every program of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64, size: Size) -> Inputs {
        let programs = workload
            .subjects()
            .iter()
            .map(|&s| {
                let base = match size {
                    Size::Full => s.stock_scale(),
                    Size::Small => RuntimeScale::small(),
                };
                let scale = seeded_scale(&base, s.name(), seed);
                let program = s.program(&scale);
                (s, scale, program)
            })
            .collect();
        Inputs { programs }
    }

    /// One engine workload row per program.
    pub fn specs(&self) -> Vec<WorkloadSpec<'_>> {
        self.programs
            .iter()
            .map(|(s, _, p)| WorkloadSpec::new(s.name(), p, s.options(), s.stop()))
            .collect()
    }

    /// Cells per evaluation.
    pub fn cells(&self) -> usize {
        self.programs.len() * Strategy::all().len()
    }
}
