//! Per-layer replays for the traced run: each times one layer's public
//! functions on the workload's own data, aggregates and seeds.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gola_agg::{AggKind, ReplicatedStates};
use gola_bootstrap::BootstrapSpec;
use gola_common::Value;
use gola_core::BatchTiming;
use gola_storage::{Catalog, MiniBatchPartitioner, Table};

use crate::online::RunStats;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{rss_bytes, Outcome};

/// Group key columns and aggregate arguments of the block a workload's
/// replicated state lives in. `None` as an argument is `COUNT(*)`.
pub struct AggBlock {
    pub group_cols: &'static [&'static str],
    pub aggs: fn() -> Vec<(AggKind, Option<&'static str>)>,
}

/// Median over `runs` of `f`.
pub fn median_by(runs: &[&RunStats], f: impl Fn(&RunStats) -> f64) -> f64 {
    median(&runs.iter().map(|r| f(r)).collect::<Vec<_>>())
}

/// Median over `runs` of one executor stage's seconds per run.
pub fn stage_s(runs: &[&RunStats], stage: fn(&BatchTiming) -> Duration) -> f64 {
    median_by(runs, |r| stage(&r.timing).as_secs_f64())
}

/// The executor's metrics over `runs`: each stage's seconds per run, the
/// fold and publish shares of a run, the uncertain set and the
/// recomputations (medians over runs), and the median `prepare` and
/// `OnlineExecutor::new` spans.
pub fn core_metrics(out: &mut Outcome, runs: &[&RunStats], tracer: &Tracer) {
    let busy = median_by(runs, |r| r.busy_s);
    out.set("core.join_s", stage_s(runs, |t| t.join));
    out.set("core.classify_s", stage_s(runs, |t| t.classify));
    out.set("core.fold_s", stage_s(runs, |t| t.fold));
    out.set("core.publish_s", stage_s(runs, |t| t.publish));
    out.set("core.recover_s", stage_s(runs, |t| t.recover));
    out.set("core.fold_share", stage_s(runs, |t| t.fold) / busy);
    out.set("core.publish_share", stage_s(runs, |t| t.publish) / busy);
    out.set("core.uncertain_frac", median_by(runs, |r| r.uncertain_frac));
    out.set(
        "core.recomputations",
        median_by(runs, |r| r.recomputations as f64),
    );
    out.set(
        "core.prepare_ms",
        median(&tracer.secs("core.prepare")) * 1e3,
    );
    out.set(
        "core.executor_new_ms",
        median(&tracer.secs("core.executor_new")) * 1e3,
    );
}

/// Replay the mini-batch schedule of `table`: `storage.partition_ms`,
/// `storage.batch_ms` and `core.groups_touched_frac` (mean over batches
/// of distinct groups the batch touches ÷ distinct groups seen so far).
pub fn partition_replay(
    out: &mut Outcome,
    table: &Arc<Table>,
    k: usize,
    seed: u64,
    block: &AggBlock,
) {
    let cols = column_indices(table, block.group_cols);
    let t = Instant::now();
    let partitioner = MiniBatchPartitioner::new(Arc::clone(table), k, seed)
        .expect("partitioning a nonempty table into at most its row count");
    out.set("storage.partition_ms", t.elapsed().as_secs_f64() * 1e3);
    let mut batch_s = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let mut touched_frac = Vec::new();
    for i in 0..partitioner.num_batches() {
        let t = Instant::now();
        let batch = partitioner.batch(i);
        batch_s.push(t.elapsed().as_secs_f64());
        let mut touched = std::collections::HashSet::new();
        for row in batch.rows() {
            touched.insert(
                cols.iter()
                    .map(|&c| row.get(c).clone())
                    .collect::<Vec<Value>>(),
            );
        }
        let n = touched.len();
        seen.extend(touched);
        touched_frac.push(n as f64 / seen.len().max(1) as f64);
    }
    out.set("storage.batch_ms", median(&batch_s) * 1e3);
    out.set(
        "core.groups_touched_frac",
        crate::stats::mean(&touched_frac),
    );
}

/// `bootstrap.weights_ns_per_tuple`: the weight kernel over the table's
/// tuple ids, one batch-sized call at a time.
pub fn weights_replay(out: &mut Outcome, rows: usize, batch: usize, spec: BootstrapSpec) {
    let ids: Vec<u64> = (0..rows as u64).collect();
    let mut buf = Vec::new();
    let t = Instant::now();
    for chunk in ids.chunks(batch.max(1)) {
        spec.weights_batch(std::hint::black_box(chunk), &mut buf);
        std::hint::black_box(&buf);
    }
    out.set(
        "bootstrap.weights_ns_per_tuple",
        t.elapsed().as_secs_f64() * 1e9 / rows.max(1) as f64,
    );
}

/// The `agg.*` metrics: fold every row of `table` into per-group
/// replicated states (two halves, as two workers would), merge the halves,
/// and finalize every group's estimates.
pub fn agg_replay(out: &mut Outcome, table: &Table, block: &AggBlock, spec: BootstrapSpec) {
    let aggs = (block.aggs)();
    let kinds: Vec<AggKind> = aggs.iter().map(|(k, _)| k.clone()).collect();
    let key_cols = column_indices(table, block.group_cols);
    let arg_cols: Vec<Option<usize>> = aggs
        .iter()
        .map(|(_, c)| c.map(|c| column_indices(table, &[c])[0]))
        .collect();
    let rows = table.rows();
    let mut group_of = Vec::with_capacity(rows.len());
    let mut ids: HashMap<Vec<Value>, usize> = HashMap::new();
    let mut args = Vec::with_capacity(rows.len());
    for row in &rows {
        let key: Vec<Value> = key_cols.iter().map(|&c| row.get(c).clone()).collect();
        let next = ids.len();
        group_of.push(*ids.entry(key).or_insert(next));
        args.push(
            arg_cols
                .iter()
                .map(|c| c.map_or(Value::Int(1), |c| row.get(c).clone()))
                .collect::<Vec<Value>>(),
        );
    }
    let groups = ids.len().max(1);
    let trials = spec.trials as usize;
    let tuple_ids: Vec<u64> = (0..rows.len() as u64).collect();
    let mut weights = Vec::new();
    spec.weights_batch(&tuple_ids, &mut weights);

    let rss0 = rss_bytes();
    let mut halves: Vec<Vec<ReplicatedStates>> = (0..2)
        .map(|_| {
            (0..groups)
                .map(|_| ReplicatedStates::new(&kinds, spec.trials))
                .collect()
        })
        .collect();
    let half = rows.len() / 2;
    let t = Instant::now();
    for (i, (g, a)) in group_of.iter().zip(&args).enumerate() {
        let w = &weights[i * trials..(i + 1) * trials];
        halves[usize::from(i >= half)][*g].update_with_weights(a, w);
    }
    let fold_s = t.elapsed().as_secs_f64();
    let state_bytes = (rss_bytes() - rss0).max(0.0) / (2 * groups) as f64;

    let (first, second) = halves.split_at_mut(1);
    let t = Instant::now();
    for (a, b) in first[0].iter_mut().zip(&second[0]) {
        a.merge(b);
    }
    let merge_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    for s in &first[0] {
        for j in 0..kinds.len() {
            std::hint::black_box(s.estimate(j, 1.0));
        }
    }
    let estimate_s = t.elapsed().as_secs_f64();

    out.set(
        "agg.fold_ns_per_tuple",
        fold_s * 1e9 / rows.len().max(1) as f64,
    );
    out.set("agg.merge_us_per_group", merge_s * 1e6 / groups as f64);
    out.set(
        "agg.estimate_us_per_group",
        estimate_s * 1e6 / groups as f64,
    );
    out.set("agg.state_bytes_per_group", state_bytes);
}

/// `sql.compile_ms`: median of `reps` compilations of each query.
pub fn compile_replay(out: &mut Outcome, catalog: &Catalog, sqls: &[&str], reps: usize) {
    let mut ms = Vec::new();
    for _ in 0..reps {
        for sql in sqls {
            let t = Instant::now();
            let graph = gola_sql::compile(sql, catalog);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.check(graph.is_ok(), || format!("compiling {sql}"));
        }
    }
    out.set("sql.compile_ms", median(&ms));
}

fn column_indices(table: &Table, names: &[&str]) -> Vec<usize> {
    let schema = table.schema();
    names
        .iter()
        .map(|n| {
            schema
                .fields()
                .iter()
                .position(|f| f.name == *n)
                .unwrap_or_else(|| panic!("workload column {n} missing from its own table"))
        })
        .collect()
}
