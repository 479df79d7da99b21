//! Output checks that do not trust the compiler under test.
//!
//! Every cell's program result is compared with a reference: Queens with
//! its closed form, every other program with `expected.txt`, which holds
//! results captured with `ExecMode::Legacy` (the tree-walking reference
//! interpreter, independent of the lowered engine under test) by
//! `--capture-expected`. Interpreter operations depend on the seed's
//! program, so they are not committed: each run executes its programs
//! once under `ExecMode::Legacy` before measuring, and every cell's
//! baseline and reordered run must execute exactly as many operations
//! (and, for a service, reach its first response after exactly as many)
//! as that run. A cell also fails, on repeated and warm evaluations, when
//! it is not bit-identical to the first cold evaluation of the same
//! inputs.

use std::collections::BTreeMap;

use nimage_core::{MatrixCell, Pipeline, Strategy};
use nimage_ir::Program;
use nimage_vm::{CostModel, ExecMode, ExitKind, RtValue, RunReport};
use nimage_workloads::Awfy;

use crate::workload::{Inputs, Subject};

/// The committed reference results (`<program> <result>` lines).
pub const EXPECTED: &str = include_str!("../expected.txt");

/// AWFY inner iterations `main` runs for Queens (the harness sums their
/// results).
const QUEENS_ITERATIONS: i64 = 2;

/// A program's observable result: the entry method's return value, or
/// `first-response` for a service stopped at its first response.
pub fn program_result(r: &RunReport) -> String {
    match (r.exit, &r.entry_return) {
        (ExitKind::FirstResponse, _) if r.first_response.is_some() => "first-response".to_string(),
        (ExitKind::Exited, Some(RtValue::Int(v))) => format!("int:{v}"),
        (exit, ret) => format!("unexpected:{exit:?}/{ret:?}"),
    }
}

/// Parses `expected.txt`: `#` comments, then `<program> <result>` lines.
pub fn parse_expected(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .map(|(p, r)| (p.to_string(), r.trim().to_string()))
        .collect()
}

/// The reference result of `subject`: the closed form where the program
/// has one, else the committed capture.
pub fn expected_result(subject: Subject, captured: &BTreeMap<String, String>) -> Option<String> {
    match subject {
        Subject::Awfy(a @ Awfy::Queens) => a
            .expected_iteration_result()
            .map(|v| format!("int:{}", v * QUEENS_ITERATIONS)),
        _ => captured.get(subject.name()).cloned(),
    }
}

/// The baseline run of `program` through the serial pipeline under the
/// `ExecMode::Legacy` interpreter.
///
/// # Errors
/// A pipeline error.
pub fn legacy_baseline(subject: Subject, program: &Program) -> Result<RunReport, String> {
    let mut opts = subject.options();
    opts.vm.exec = ExecMode::Legacy;
    let p = Pipeline::new(program, opts);
    let artifacts = p
        .profiling_run(subject.stop())
        .map_err(|e| format!("{}: legacy run: {e}", subject.name()))?;
    let baseline = p
        .baseline(&artifacts, subject.stop())
        .map_err(|e| format!("{}: legacy run: {e}", subject.name()))?;
    Ok(baseline.report)
}

/// What one program must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Program result: the closed form or the committed capture.
    pub result: String,
    /// Operations of the legacy run, and for a service the operations
    /// before its first response; `None` when not computed.
    pub ops: Option<(u64, Option<u64>)>,
}

/// The references of every program of `inputs`, by program name. With
/// `legacy`, each program also runs once under `ExecMode::Legacy` for its
/// operation counts.
///
/// # Errors
/// A program without a reference result, or a failed legacy run.
pub fn references(inputs: &Inputs, legacy: bool) -> Result<BTreeMap<String, Reference>, String> {
    let captured = parse_expected(EXPECTED);
    inputs
        .programs
        .iter()
        .map(|(subject, _, program)| {
            let result = expected_result(*subject, &captured)
                .ok_or_else(|| format!("{}: no reference result", subject.name()))?;
            let ops = if legacy {
                let r = legacy_baseline(*subject, program)?;
                Some((r.ops, r.first_response.map(|p| p.ops)))
            } else {
                None
            };
            Ok((subject.name().to_string(), Reference { result, ops }))
        })
        .collect()
}

/// The checked numbers of one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Program row.
    pub workload: String,
    /// Strategy column.
    pub strategy: Strategy,
    /// Baseline `.text` / `.svm_heap` major faults.
    pub baseline_faults: (u64, u64),
    /// Reordered image's `.text` / `.svm_heap` major faults.
    pub faults: (u64, u64),
    /// Interpreter operations of the baseline and the reordered run.
    pub ops: (u64, u64),
    /// Operations before the first response, of the baseline and the
    /// reordered run.
    pub response_ops: (Option<u64>, Option<u64>),
    /// Program results of the baseline and the reordered run.
    pub result: (String, String),
    /// `Evaluation::speedup` under the SSD cost model.
    pub speedup: f64,
}

impl CellRecord {
    /// Reduces an engine cell to its checked numbers.
    pub fn of(cell: &MatrixCell) -> CellRecord {
        let (b, o) = (&cell.eval.baseline, &cell.eval.optimized);
        CellRecord {
            workload: cell.workload.clone(),
            strategy: cell.strategy,
            baseline_faults: (b.faults.text, b.faults.svm_heap),
            faults: (o.faults.text, o.faults.svm_heap),
            ops: (b.ops, o.ops),
            response_ops: (
                b.first_response.map(|p| p.ops),
                o.first_response.map(|p| p.ops),
            ),
            result: (program_result(b), program_result(o)),
            speedup: cell.eval.speedup(&CostModel::ssd()),
        }
    }
}

/// Checks one cell: results and operation counts against the reference,
/// and bit-identity with `cold` (the first cold evaluation's cell) when
/// given.
pub fn check_cell(
    cell: &CellRecord,
    reference: Option<&Reference>,
    cold: Option<&CellRecord>,
) -> Result<(), String> {
    let Some(reference) = reference else {
        return Err(format!("{}: no reference result", cell.workload));
    };
    let what = format!("{} / {}", cell.workload, cell.strategy.name());
    let runs = [
        ("baseline", &cell.result.0, cell.ops.0, cell.response_ops.0),
        ("reordered", &cell.result.1, cell.ops.1, cell.response_ops.1),
    ];
    for (run, result, ops, response_ops) in runs {
        if *result != reference.result {
            return Err(format!(
                "{what}: {run} result {result}, expected {}",
                reference.result
            ));
        }
        if let Some(expected) = reference.ops {
            if (ops, response_ops) != expected {
                return Err(format!(
                    "{what}: {run} run executed {ops} ops (first response {response_ops:?}), \
                     the legacy interpreter {} ({:?})",
                    expected.0, expected.1
                ));
            }
        }
    }
    if cell.ops.0 != cell.ops.1 {
        return Err(format!(
            "{what}: reordering changed execution ({} vs {} ops)",
            cell.ops.0, cell.ops.1
        ));
    }
    if let Some(cold) = cold {
        if cell != cold {
            return Err(format!(
                "{what}: differs from the cold evaluation: {cell:?} vs {cold:?}"
            ));
        }
    }
    Ok(())
}
