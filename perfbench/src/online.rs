//! One online query driven through the layers' public API, timed the way
//! an analyst experiences it: from submission to each refined report.

use std::sync::Arc;
use std::time::Instant;

use gola_common::rng::hash_combine;
use gola_common::{Result, Value};
use gola_core::{BatchReport, BatchTiming, OnlineConfig, OnlineExecutor, OnlineSession};
use gola_storage::{Catalog, GrowingPartitioner, MiniBatchPartitioner, Partitioner};

use crate::trace::Tracer;

/// Relative CI half-width an analyst waits for (`tt_ci1`).
pub const CI_TARGET: f64 = 0.01;

/// What one online run showed. Times are seconds since submission and
/// count only time spent inside the system (not the benchmark's checks).
#[derive(Default)]
pub struct RunStats {
    pub ttfe_s: f64,
    /// Index of the first report whose worst relative CI half-width is at
    /// most [`CI_TARGET`], when the run was asked to look for it.
    pub ci1_report: Option<usize>,
    pub busy_s: f64,
    /// Wall time of each `step`.
    pub batch_s: Vec<f64>,
    /// Time since submission at each report.
    pub report_at_s: Vec<f64>,
    /// When each report came out, and the rows it covered.
    pub report_instants: Vec<Instant>,
    pub report_rows: Vec<usize>,
    pub rows: usize,
    pub timing: BatchTiming,
    /// Hash of every report, bit for bit.
    pub fingerprint: u64,
    /// Hash of the first report alone.
    pub first_fingerprint: u64,
    pub last: Option<BatchReport>,
    /// Mean over reports of |U| / rows seen.
    pub uncertain_frac: f64,
    pub recomputations: usize,
}

/// How far to run a query and what to look for on the way.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every report, looking for the first within [`CI_TARGET`]. Reports
    /// are bit-identical across runs of one input, so one such run per
    /// input suffices.
    FindCi,
    /// Every report.
    Full,
    /// Only the first report (a time-to-first-estimate probe).
    First,
}

impl RunStats {
    /// Time to the report with index `ci1_report` of a run over the same
    /// input; the whole run when no report got there.
    pub fn tt_ci1_s(&self, ci1_report: Option<usize>) -> f64 {
        ci1_report
            .and_then(|i| self.report_at_s.get(i).copied())
            .unwrap_or(self.busy_s)
    }
}

/// Run `sql` online, recording layer spans on `tracer`.
pub fn run(
    catalog: &Catalog,
    sql: &str,
    config: &OnlineConfig,
    tracer: &Tracer,
    mode: Mode,
) -> Result<RunStats> {
    run_with(catalog, sql, config, tracer, mode, &mut |_| {})
}

/// [`run`], handing every report to `on_report` as it comes out. The
/// callback's time counts in no measurement.
pub fn run_with(
    catalog: &Catalog,
    sql: &str,
    config: &OnlineConfig,
    tracer: &Tracer,
    mode: Mode,
    on_report: &mut dyn FnMut(&BatchReport),
) -> Result<RunStats> {
    let q = tracer.query_id();
    let t0 = Instant::now();
    let session = OnlineSession::new(catalog.clone(), config.clone());
    let prepared = tracer.time("core.prepare", q, None, || session.prepare(sql))?;
    let partitioner = tracer.time("storage.partition", q, None, || -> Result<Partitioner> {
        let table = catalog.get(&prepared.stream_table)?;
        let k = config.num_batches.min(table.num_rows()).max(1);
        Ok(match catalog.stream(&prepared.stream_table) {
            Some(stream) => Partitioner::Growing(GrowingPartitioner::new(
                Arc::clone(stream),
                k,
                config.partition_seed,
            )?),
            None => {
                Partitioner::Uniform(MiniBatchPartitioner::new(table, k, config.partition_seed)?)
            }
        })
    })?;
    let mut exec = tracer.time("core.executor_new", q, None, || {
        OnlineExecutor::new(
            catalog,
            prepared.meta.clone(),
            Arc::new(partitioner),
            config.clone(),
        )
    })?;
    let mut stats = RunStats {
        busy_s: t0.elapsed().as_secs_f64(),
        ..RunStats::default()
    };
    let mut uncertain = 0.0;
    while !exec.is_finished() {
        let start = Instant::now();
        let report = exec.step()?;
        let end = Instant::now();
        let id = tracer.record("core.step", q, None, start, end);
        let t = &report.timing;
        tracer.record_stages(
            q,
            id,
            start,
            &[
                ("core.join", t.join),
                ("core.classify", t.classify),
                ("core.fold", t.fold),
                ("core.publish", t.publish),
                ("core.recover", t.recover),
            ],
        );
        // Growing queries block for data inside `step`; the report's own
        // batch time is the work done once the data was there.
        let step_s = report.batch_time.as_secs_f64();
        stats.busy_s += step_s;
        if stats.batch_s.is_empty() {
            stats.ttfe_s = stats.busy_s;
        }
        stats.batch_s.push(step_s);
        stats.report_at_s.push(stats.busy_s);
        stats.report_instants.push(end);
        stats.report_rows.push(report.rows_seen);
        stats.rows = report.rows_seen;
        stats.timing.accumulate(&report.timing);
        stats.recomputations = report.recomputations;
        uncertain += report.uncertain_tuples as f64 / report.rows_seen.max(1) as f64;
        if mode == Mode::FindCi
            && stats.ci1_report.is_none()
            && report
                .achieved_rel_error(report.ci_level)
                .is_some_and(|e| e <= CI_TARGET)
        {
            stats.ci1_report = Some(stats.batch_s.len() - 1);
        }
        stats.fingerprint = fingerprint(stats.fingerprint, &report);
        on_report(&report);
        if stats.batch_s.len() == 1 {
            stats.first_fingerprint = stats.fingerprint;
        }
        stats.last = Some(report);
        if mode == Mode::First {
            break;
        }
    }
    stats.uncertain_frac = uncertain / stats.batch_s.len().max(1) as f64;
    Ok(stats)
}

/// Fold one report into a running hash: every float by its bits, so two
/// streams hash equal only if they are bit-identical (up to collisions).
pub fn fingerprint(mut h: u64, r: &BatchReport) -> u64 {
    let mut put = |x: u64| h = hash_combine(h, x);
    put(r.batch_index as u64);
    put(r.rows_seen as u64);
    put(r.uncertain_tuples as u64);
    put(r.recomputations as u64);
    for row in r.table.rows() {
        for v in row.iter() {
            put(value_bits(v));
        }
    }
    for c in &r.estimates {
        put(c.row as u64);
        put(c.col as u64);
        put(c.estimate.value.to_bits());
        for rep in &c.estimate.replicas {
            put(rep.to_bits());
        }
    }
    for &certain in &r.row_certain {
        put(u64::from(certain));
    }
    h
}

fn value_bits(v: &Value) -> u64 {
    match v {
        Value::Null => 0x6E75_6C6C,
        Value::Bool(b) => u64::from(*b) + 1,
        Value::Int(i) => *i as u64,
        Value::Float(f) => f.to_bits(),
        Value::Str(s) => s
            .bytes()
            .fold(0xCBF2_9CE4_8422_2325, |h, b| hash_combine(h, u64::from(b))),
    }
}
