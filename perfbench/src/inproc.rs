//! `q17_nested`: TPC-H Q17 online over static tables in-process, run at
//! threads=`nproc` and threads=1 and checked against the exact engine.

use std::sync::Arc;
use std::time::Instant;

use gola_agg::AggKind;
use gola_core::OnlineConfig;
use gola_storage::{Catalog, Table};
use gola_workloads::TpchGenerator;

use crate::layers::{self, AggBlock};
use crate::online::{self, Mode, RunStats};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{load_rate, Ctx, Outcome};

/// TPC-H Q17, a correlated nested AVG: every executor stage works,
/// including classify and recover.
const TABLE: &str = "lineitem_denorm";
const SQL: &str = gola_workloads::tpch::Q17;
const ROWS: usize = 50_000;
const BATCHES: usize = 15;

/// Q17's inner block, per-part AVG(quantity): its replicated state.
const BLOCK: AggBlock = AggBlock {
    group_cols: &["partkey"],
    aggs: || vec![(AggKind::Avg, Some("quantity"))],
};

/// Time-to-first-estimate probes (submit, first report, drop) per visit,
/// so the tail has enough samples.
const PROBES: usize = 12;

/// Datasets per run, each generated from its own seeds derived from the
/// run's seed: data-dependent costs (such as Q17's envelope
/// recomputations) then average out within a run instead of across runs.
/// Each visit to a dataset runs it at threads=`nproc` and at threads=1,
/// probes its time to first estimate, and times one columnar load of it.
const DATASETS: usize = 8;

struct Dataset {
    table: Arc<Table>,
    catalog: Catalog,
    cfg_n: OnlineConfig,
    cfg_1: OnlineConfig,
    runs_n: Vec<RunStats>,
    runs_1: Vec<RunStats>,
    probes: Vec<RunStats>,
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (mut setup_s, mut load_s) = (Vec::new(), Vec::new());
    let mut sets: Vec<Dataset> = Vec::with_capacity(DATASETS);
    let mut untraced_busy = Vec::new();
    let off = Tracer::new(false);
    // Visit the datasets in turn until the window closes, every dataset at
    // least once. Each is set up on its first visit, so that the set-up
    // times, like every other sample, spread over the window.
    let loop_start = Instant::now();
    let deadline = loop_start + ctx.measure;
    let mut visits = 0;
    while visits < DATASETS || Instant::now() < deadline {
        if visits < DATASETS {
            let seeds = ctx.seeds.sub(visits as u64);
            let t = Instant::now();
            let table = Arc::new(
                TpchGenerator {
                    seed: seeds.data,
                    ..TpchGenerator::default()
                }
                .generate(ROWS),
            );
            let mut catalog = Catalog::new();
            catalog
                .register(TABLE, Arc::clone(&table))
                .expect("registering into a fresh catalog");
            setup_s.push(t.elapsed().as_secs_f64());
            sets.push(Dataset {
                table,
                catalog,
                cfg_n: seeds.config(BATCHES, ctx.cpus),
                cfg_1: seeds.config(BATCHES, 1),
                runs_n: Vec::new(),
                runs_1: Vec::new(),
                probes: Vec::new(),
            });
        }
        let set = &mut sets[visits % DATASETS];
        visits += 1;
        load_s.push(load_rate(&mut out, &set.table));
        let first = if set.runs_n.is_empty() {
            Mode::FindCi
        } else {
            Mode::Full
        };
        for (cfg, runs, mode) in [
            (&set.cfg_n, &mut set.runs_n, first),
            (&set.cfg_1, &mut set.runs_1, Mode::Full),
        ] {
            match online::run(&set.catalog, SQL, cfg, tracer, mode) {
                Ok(mut r) => {
                    out.attempted += 1;
                    // Only the reference run's final report is checked;
                    // holding every run's would inflate `peak_rss_mb`.
                    if !runs.is_empty() {
                        r.last = None;
                    }
                    runs.push(r);
                }
                Err(e) => out.check(false, || format!("online run: {e}")),
            }
        }
        for _ in 0..PROBES {
            match online::run(&set.catalog, SQL, &set.cfg_n, tracer, Mode::First) {
                Ok(mut r) => {
                    out.attempted += 1;
                    r.last = None;
                    set.probes.push(r);
                }
                Err(e) => out.check(false, || format!("ttfe probe: {e}")),
            }
        }
        if ctx.trace {
            // The same run untraced, for the tracing overhead.
            if let Ok(r) = online::run(&set.catalog, SQL, &set.cfg_n, &off, Mode::Full) {
                untraced_busy.push(r.busy_s);
            }
        }
    }

    let loop_s = loop_start.elapsed().as_secs_f64();
    // Correctness, per dataset: every stream bit-identical to its first
    // threads=1 run, every probe's first report identical to that run's,
    // the final answer equal to the exact engine's, and the stream
    // unchanged with the metrics registry enabled.
    let mut exact_s = Vec::new();
    for (d, set) in sets.iter().enumerate() {
        let Some(reference) = set.runs_1.first() else {
            out.check(false, || format!("dataset {d}: no complete threads=1 run"));
            continue;
        };
        for (i, r) in set.runs_n.iter().chain(&set.runs_1).enumerate() {
            out.check(r.fingerprint == reference.fingerprint, || {
                format!("dataset {d} run {i}: report stream differs from threads=1")
            });
        }
        for p in &set.probes {
            out.check(p.first_fingerprint == reference.first_fingerprint, || {
                format!("dataset {d}: a probe's first report differs")
            });
        }
        if let Some((secs, exact)) = exact_answer(&set.catalog, SQL, &mut out) {
            exact_s.push(secs);
            let last = reference.last.as_ref().map(|r| &r.table);
            let cmp = last.map(|t| gola_conformance::tables_bit_equal(t, &exact));
            out.check(matches!(cmp, Some(Ok(()))), || {
                format!("dataset {d}: final answer vs exact engine: {cmp:?}")
            });
        }
    }
    gola_obs::set_enabled(true);
    let with_obs = online::run(&sets[0].catalog, SQL, &sets[0].cfg_n, &off, Mode::Full);
    gola_obs::set_enabled(false);
    gola_obs::reset();
    out.check(
        with_obs
            .is_ok_and(|r| Some(r.fingerprint) == sets[0].runs_1.first().map(|f| f.fingerprint)),
        || "report stream changed with the obs registry enabled".to_string(),
    );

    // End-to-end metrics, over every dataset's runs.
    let runs_n: Vec<&RunStats> = sets.iter().flat_map(|s| &s.runs_n).collect();
    let runs_1: Vec<&RunStats> = sets.iter().flat_map(|s| &s.runs_1).collect();
    let probes = sets.iter().flat_map(|s| &s.probes);
    if runs_n.is_empty() || runs_1.is_empty() {
        return out;
    }
    let ms = |xs: Vec<f64>| xs.into_iter().map(|x| x * 1e3).collect::<Vec<f64>>();
    let tps = |runs: &[&RunStats]| {
        median(
            &runs
                .iter()
                .map(|r| r.rows as f64 / r.busy_s)
                .collect::<Vec<_>>(),
        )
    };
    let busy_n: Vec<f64> = runs_n.iter().map(|r| r.busy_s).collect();
    let batch_ms = ms(runs_n.iter().flat_map(|r| r.batch_s.clone()).collect());
    let ttfe_ms = ms(runs_n
        .iter()
        .copied()
        .chain(probes)
        .map(|r| r.ttfe_s)
        .collect());
    let ci1_ms = ms(sets
        .iter()
        .flat_map(|s| {
            let at = s.runs_n.first().and_then(|r| r.ci1_report);
            s.runs_n.iter().map(move |r| r.tt_ci1_s(at))
        })
        .collect());
    let fresh_ms = ms(runs_n.iter().flat_map(|r| r.report_at_s.clone()).collect());
    out.set("setup_s", median(&setup_s));
    out.set("tuples_per_s", tps(&runs_n));
    out.set("tuples_per_s_t1", tps(&runs_1));
    out.set("batch_ms_p50", median(&batch_ms));
    out.set_tail("batch_ms_tail", &batch_ms);
    out.set("ttfe_ms_p50", median(&ttfe_ms));
    out.set_tail("ttfe_ms_tail", &ttfe_ms);
    out.set("tt_ci1_ms_p50", median(&ci1_ms));
    out.set("queries_per_s", 1.0 / median(&busy_n));
    out.set("ingest_rows_per_s", median(&load_s));
    out.set("freshness_ms_p50", median(&fresh_ms));
    out.set_tail("freshness_ms_tail", &fresh_ms);
    out.note("rows", sets[0].table.num_rows());
    out.note("measured_s", format!("{loop_s:.2}"));
    out.note("datasets", DATASETS);
    out.note("visits", visits);
    out.note(
        "recomputations",
        format!(
            "{:?}",
            sets.iter()
                .map(|s| s.runs_1.first().map(|r| r.recomputations))
                .collect::<Vec<_>>()
        ),
    );
    // Printed, not gated: a faster exact engine would make it look worse.
    let exact = median(&exact_s);
    let online_t1 = median(&runs_1.iter().map(|r| r.busy_s).collect::<Vec<_>>());
    out.note("online_over_exact_t1", format!("{:.3}", online_t1 / exact));

    if ctx.trace {
        per_layer(
            &mut out,
            tracer,
            &sets[0],
            &runs_n,
            &runs_1,
            &untraced_busy,
            exact,
        );
    }
    out
}

/// The exact answer and how long the exact engine took to compute it.
fn exact_answer(catalog: &Catalog, sql: &str, out: &mut Outcome) -> Option<(f64, Table)> {
    let t = Instant::now();
    let exact = gola_sql::compile(sql, catalog)
        .and_then(|graph| gola_engine::BatchEngine::new(catalog).execute(&graph));
    let secs = t.elapsed().as_secs_f64();
    match exact {
        Ok(table) => Some((secs, table)),
        Err(e) => {
            out.check(false, || format!("exact engine: {e}"));
            None
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    tracer: &Tracer,
    set: &Dataset,
    runs_n: &[&RunStats],
    runs_1: &[&RunStats],
    untraced_busy: &[f64],
    exact_s: f64,
) {
    layers::core_metrics(out, runs_n, tracer);
    out.set(
        "core.fold_speedup",
        layers::stage_s(runs_1, |t| t.fold) / layers::stage_s(runs_n, |t| t.fold),
    );
    out.set("engine.exact_s", exact_s);
    out.set(
        "obs.trace_overhead_frac",
        layers::median_by(runs_n, |r| r.busy_s) / median(untraced_busy) - 1.0,
    );
    registry_overhead(out, &set.catalog, SQL, &set.cfg_n);

    let bootstrap = set.cfg_n.bootstrap;
    let rows = set.table.num_rows();
    layers::compile_replay(out, &set.catalog, &[SQL], 20);
    layers::partition_replay(out, &set.table, BATCHES, set.cfg_n.partition_seed, &BLOCK);
    layers::weights_replay(out, rows, rows / BATCHES, bootstrap);
    layers::agg_replay(out, &set.table, &BLOCK, bootstrap);
}

/// `obs.registry_overhead_frac`: median wall with the metrics registry
/// enabled over the median with it disabled, runs interleaved.
fn registry_overhead(out: &mut Outcome, catalog: &Catalog, sql: &str, cfg: &OnlineConfig) {
    let off = Tracer::new(false);
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for (enabled, acc) in [(false, &mut off_s), (true, &mut on_s)] {
            gola_obs::set_enabled(enabled);
            if let Ok(r) = online::run(catalog, sql, cfg, &off, Mode::Full) {
                acc.push(r.busy_s);
            }
        }
    }
    gola_obs::set_enabled(false);
    gola_obs::reset();
    out.set(
        "obs.registry_overhead_frac",
        median(&on_s) / median(&off_s) - 1.0,
    );
}
