//! Tests of the benchmark itself: metric names, `BENCHMARK.json`
//! agreement, the output format, seeded inputs, and small-scale smoke
//! runs of every workload.

use std::collections::BTreeMap;
use std::path::PathBuf;

use nimage_core::{CacheKey, Strategy};
use nimage_perfbench::check::{check_cell, references, CellRecord};
use nimage_perfbench::json::Json;
use nimage_perfbench::layers::LAYER_TIMES;
use nimage_perfbench::workload::{Inputs, Size, Subject, Workload};
use nimage_perfbench::{run, Args, MetricDef, Outcome, END_TO_END, PER_LAYER};
use nimage_workloads::Microservice;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_counts_are_valid() {
    let layers: Vec<&MetricDef> = PER_LAYER.iter().collect();
    assert!(
        END_TO_END.len() <= 16,
        "{} end-to-end metrics",
        END_TO_END.len()
    );
    assert!(layers.len() <= 128, "{} per-layer metrics", layers.len());
    let mut seen = std::collections::BTreeSet::new();
    for def in END_TO_END.iter().chain(layers.iter().copied()) {
        assert!(valid_name(def.name), "bad metric name {:?}", def.name);
        assert!(
            valid_unit(def.unit),
            "bad unit {:?} of {}",
            def.unit,
            def.name
        );
        assert!(matches!(def.better, "lower" | "higher"), "{}", def.name);
        assert!(seen.insert(def.name), "duplicate metric {}", def.name);
    }
    for def in &END_TO_END {
        let bound = def.bound.expect("end-to-end metrics carry a bound");
        assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", def.name);
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    for (metric, _) in LAYER_TIMES {
        assert!(
            layers.iter().any(|d| d.name == metric),
            "{metric} is not reported"
        );
    }
}

fn defs_of(j: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    j.get(key)
        .and_then(Json::arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::str).unwrap().to_string(),
                m.get("unit").and_then(Json::str).unwrap().to_string(),
                m.get("better").and_then(Json::str).unwrap().to_string(),
                m.get("bound").and_then(Json::num),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_program() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let j = Json::parse(&text).expect("BENCHMARK.json parses");
    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound))
        .collect();
    assert_eq!(defs_of(&j, "end_to_end"), e2e);
    let layers: Vec<_> = PER_LAYER
        .iter()
        .map(|d| (d.name.into(), d.unit.into(), d.better.into(), None))
        .collect();
    assert_eq!(defs_of(&j, "per_layer"), layers);
    let workloads: Vec<&str> = j
        .get("workloads")
        .and_then(Json::arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn seed_zero_generates_the_stock_programs() {
    let fp = |p: &nimage_ir::Program| CacheKey::of_debug("program", p);
    let micronaut = Inputs::generate(Workload::WarmMicronaut, 0, Size::Full);
    assert_eq!(
        fp(&micronaut.programs[0].2),
        fp(&Microservice::Micronaut.program())
    );
    let awfy = Inputs::generate(Workload::WarmAwfyRun, 0, Size::Full);
    for (subject, _, program) in &awfy.programs {
        let Subject::Awfy(a) = subject else {
            panic!("AWFY workload")
        };
        assert_eq!(fp(program), fp(&a.program()), "{}", a.name());
    }
}

#[test]
fn seeds_perturb_the_scale_reproducibly() {
    let scale = |seed| {
        Inputs::generate(Workload::WarmAwfyRun, seed, Size::Small).programs[0]
            .1
            .clone()
    };
    let debug = |seed| format!("{:?}", scale(seed));
    assert_eq!(debug(7), debug(7));
    assert_ne!(debug(0), debug(7));
    assert!((1..20).any(|seed| debug(seed) != debug(1)));
}

#[test]
fn output_check_compares_work_with_the_legacy_interpreter() {
    let inputs = Inputs::generate(Workload::WarmMicronaut, 1, Size::Small);
    let refs = references(&inputs, true).expect("legacy run");
    let name = Microservice::Micronaut.name();
    let reference = &refs[name];
    let (ops, response) = reference.ops.expect("legacy operation counts");
    assert!(response.is_some(), "micronaut stops at its first response");
    let cell = CellRecord {
        workload: name.to_string(),
        strategy: Strategy::all()[0],
        baseline_faults: (1, 1),
        faults: (1, 1),
        ops: (ops, ops),
        response_ops: (response, response),
        result: (reference.result.clone(), reference.result.clone()),
        speedup: 1.0,
    };
    assert_eq!(check_cell(&cell, Some(reference), None), Ok(()));
    // More work before the same response, in both runs alike, still fails.
    let later = response.map(|o| o + 1);
    let slower = CellRecord {
        response_ops: (later, later),
        ..cell.clone()
    };
    assert!(check_cell(&slower, Some(reference), None).is_err());
    let more = CellRecord {
        ops: (ops + 1, ops + 1),
        ..cell
    };
    assert!(check_cell(&more, Some(reference), None).is_err());
}

fn smoke(workload: Workload, seed: u64, trace: bool) -> Outcome {
    let outcome = run(&Args {
        workload,
        seed,
        seconds: 0.05,
        trace,
        size: Size::Small,
        probe_exe: PathBuf::from(env!("CARGO_BIN_EXE_nimage-perfbench")),
    })
    .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", workload.name()));
    assert_eq!(
        outcome.cell_fail_frac(),
        0.0,
        "{}: {:?}",
        workload.name(),
        outcome.notes
    );
    assert!(outcome.correct && outcome.attempted > 0);
    outcome
}

/// Parses the result line and checks its shape; returns the metrics.
fn parse_result(line: &str, defs: &[&MetricDef]) -> BTreeMap<String, f64> {
    let j = Json::parse(line).expect("result line parses");
    assert_eq!(j.keys(), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
    let attempted = j.get("attempted").and_then(Json::num).unwrap();
    assert!(attempted >= 1.0 && attempted.fract() == 0.0);
    assert_eq!(j.get("failed").and_then(Json::num), Some(0.0));
    let metrics = j.get("metrics").unwrap();
    let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
    assert_eq!(metrics.keys(), names);
    defs.iter()
        .map(|d| {
            let m = metrics.get(d.name).unwrap();
            assert_eq!(m.keys(), ["value", "unit"]);
            assert_eq!(m.get("unit").and_then(Json::str), Some(d.unit));
            (
                d.name.to_string(),
                m.get("value").and_then(Json::num).unwrap(),
            )
        })
        .collect()
}

#[test]
fn smoke_runs_pass_their_checks_and_print_every_end_to_end_metric() {
    let defs: Vec<&MetricDef> = END_TO_END.iter().collect();
    let mut faults = Vec::new();
    for w in Workload::ALL {
        let values = parse_result(&smoke(w, 0, false).to_json(), &defs);
        for d in &defs {
            assert!(
                values[d.name] > 0.0,
                "{} {} = {}",
                w.name(),
                d.name,
                values[d.name]
            );
        }
        faults.push((
            values["text_faults"],
            values["heap_faults"],
            values["startup_speedup"],
        ));
    }
    // Cold and warm micronaut build identical images.
    assert_eq!(faults[0], faults[1]);
}

#[test]
fn output_check_passes_on_a_second_seed() {
    for w in Workload::ALL {
        smoke(w, 1, false);
    }
}

#[test]
fn traced_layers_add_up_to_the_traced_wall_time() {
    let defs: Vec<&MetricDef> = PER_LAYER.iter().collect();
    for w in Workload::ALL {
        let values = parse_result(&smoke(w, 0, true).to_json(), &defs);
        let spanned: f64 = LAYER_TIMES.iter().map(|(m, _)| values[*m]).sum();
        let wall = values["engine.traced_wall_ms"];
        let total = spanned + values["engine.unattributed_ms"];
        assert!(
            (total - wall).abs() <= 1e-6 * wall.max(1.0),
            "{}: layers {spanned} + unattributed {} != wall {wall}",
            w.name(),
            values["engine.unattributed_ms"]
        );
        // Every layer does measurable work on every workload, so no time
        // reads a constant zero.
        for d in defs.iter().filter(|d| d.unit == "ms") {
            assert!(values[d.name] > 0.0, "{}: {} is zero", w.name(), d.name);
        }
        assert!(values["vm.ops"] > 0.0, "{}", w.name());
        if w.warm() {
            assert!(values["diskcache.load_ms"] > 0.0 && values["diskcache.hits"] > 0.0);
            assert_eq!(
                values["diskcache.stores"],
                0.0,
                "{} rewrote the cache",
                w.name()
            );
        } else {
            assert!(values["compiler.ms"] > 0.0 && values["diskcache.stores"] > 0.0);
        }
    }
}
