//! `ingest_live`: one writer thread appends Conviva rows to a durable
//! stream on a fixed schedule (open loop) and seals one segment per step,
//! while one query thread runs a GROUP BY over the growing stream. After
//! each cycle the stream is closed, reopened from disk, and both the live
//! and the replayed answers are checked against the exact engine.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use gola_agg::AggKind;
use gola_common::Value;
use gola_storage::{Catalog, StreamTable, Table};
use gola_workloads::ConvivaGenerator;

use crate::layers::{self, AggBlock};
use crate::online::{self, Mode, RunStats};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Ctx, Outcome, Seeds};

const SQL: &str = "SELECT device, AVG(play_time), COUNT(*) FROM sessions GROUP BY device";
/// Rows sealed before the query starts, split into `BASE_BATCHES`.
const BASE_ROWS: usize = 4_000;
const BASE_BATCHES: usize = 10;
/// Segments the writer seals while the query runs, one per step, from
/// the moment the query has caught up with the rows sealed before it.
const SEGMENTS: usize = 30;
const SEGMENT_ROWS: usize = 1_000;
/// The writer's schedule: one append + seal every `STEP`.
const STEP: Duration = Duration::from_millis(20);
/// Time-to-first-estimate probes (submit, first report, drop) per cycle,
/// so the tail has enough samples.
const PROBES: usize = 5;

const BLOCK: AggBlock = AggBlock {
    group_cols: &["device"],
    aggs: || vec![(AggKind::Avg, Some("play_time")), (AggKind::Count, None)],
};

/// What the writer saw of one segment.
struct Seal {
    /// Rows queryable once this seal returned.
    watermark: usize,
    sealed_at: Instant,
    append_s: f64,
    seal_s: f64,
    /// How late the step started against its schedule.
    late_s: f64,
}

struct Cycle {
    setup_s: f64,
    probe_ttfe_s: Vec<f64>,
    live: RunStats,
    replay: RunStats,
    seals: Vec<Seal>,
    open_dir_s: f64,
    disk_bytes: u64,
    user_bytes: u64,
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut cycles = Vec::new();
    let start = Instant::now();
    let deadline = start + ctx.measure;
    // A traced run leaves every other cycle untraced, for the tracing
    // overhead; only traced cycles feed its metrics.
    let untraced = Tracer::new(false);
    let mut untraced_busy = Vec::new();
    let mut n = 0;
    while cycles.is_empty() || Instant::now() < deadline {
        let seeds = ctx.seeds.sub(n);
        let dir = ctx.scratch.join(format!("stream-{n}"));
        let plain = ctx.trace && n % 2 == 1;
        n += 1;
        match cycle(
            &seeds,
            ctx,
            if plain { &untraced } else { tracer },
            &dir,
            &mut out,
        ) {
            Ok(c) if plain => untraced_busy.push(c.live.busy_s),
            Ok(c) => cycles.push(c),
            Err(e) => {
                out.check(false, || format!("ingest cycle: {e}"));
                break;
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let wall = start.elapsed().as_secs_f64();
    if cycles.is_empty() {
        return out;
    }

    let ms = |s: f64| s * 1e3;
    let live: Vec<&RunStats> = cycles.iter().map(|c| &c.live).collect();
    let batch_ms: Vec<f64> = live
        .iter()
        .flat_map(|r| r.batch_s.iter().map(|&s| ms(s)))
        .collect();
    let ttfe: Vec<f64> = cycles
        .iter()
        .flat_map(|c| c.probe_ttfe_s.iter().copied().chain([c.live.ttfe_s]))
        .map(ms)
        .collect();
    let ci1: Vec<f64> = live.iter().map(|r| ms(r.tt_ci1_s(r.ci1_report))).collect();
    let mut fresh = Vec::new();
    for c in &cycles {
        for s in &c.seals {
            // The first report covering the segment's rows.
            let seen = c
                .live
                .report_rows
                .iter()
                .position(|&rows| rows >= s.watermark);
            if let Some(at) = seen.map(|i| c.live.report_instants[i]) {
                fresh.push(ms(at.saturating_duration_since(s.sealed_at).as_secs_f64()));
            }
        }
    }
    let seals: Vec<&Seal> = cycles.iter().flat_map(|c| &c.seals).collect();
    let write_rate: Vec<f64> = seals
        .iter()
        .map(|s| SEGMENT_ROWS as f64 / (s.append_s + s.seal_s))
        .collect();
    out.set(
        "setup_s",
        median(&cycles.iter().map(|c| c.setup_s).collect::<Vec<_>>()),
    );
    out.set(
        "tuples_per_s",
        median(
            &cycles
                .iter()
                .map(|c| c.replay.rows as f64 / c.replay.busy_s)
                .collect::<Vec<_>>(),
        ),
    );
    out.set(
        "tuples_per_s_t1",
        median(
            &live
                .iter()
                .map(|r| r.rows as f64 / r.busy_s)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("batch_ms_p50", median(&batch_ms));
    out.set_tail("batch_ms_tail", &batch_ms);
    out.set("ttfe_ms_p50", median(&ttfe));
    out.set_tail("ttfe_ms_tail", &ttfe);
    out.set("tt_ci1_ms_p50", median(&ci1));
    out.set("queries_per_s", cycles.len() as f64 / wall);
    out.set("ingest_rows_per_s", median(&write_rate));
    out.set("freshness_ms_p50", median(&fresh));
    out.set_tail("freshness_ms_tail", &fresh);
    out.note("cycles", cycles.len());
    out.note("segments_per_cycle", SEGMENTS);
    out.note(
        "writer_late_ms_max",
        format!(
            "{:.3}",
            seals.iter().map(|s| ms(s.late_s)).fold(0.0, f64::max)
        ),
    );

    if ctx.trace {
        let seal_ms: Vec<f64> = seals.iter().map(|s| ms(s.seal_s)).collect();
        out.set(
            "storage.append_ms_per_krow",
            ms(seals.iter().map(|s| s.append_s).sum::<f64>()) / (seals.len() * SEGMENT_ROWS) as f64
                * 1e3,
        );
        out.set("storage.seal_ms_p50", median(&seal_ms));
        out.set_tail("storage.seal_ms_tail", &seal_ms);
        out.set(
            "storage.bytes_per_user_byte",
            median(
                &cycles
                    .iter()
                    .map(|c| c.disk_bytes as f64 / c.user_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.set(
            "storage.open_dir_ms",
            ms(median(
                &cycles.iter().map(|c| c.open_dir_s).collect::<Vec<_>>(),
            )),
        );
        layers::core_metrics(&mut out, &live, tracer);
        let seeds = ctx.seeds.sub(0);
        let data = Arc::new(generate(&seeds));
        let mut catalog = Catalog::new();
        catalog
            .register("sessions", Arc::clone(&data))
            .expect("registering into a fresh catalog");
        let t = Instant::now();
        let exact = gola_sql::compile(SQL, &catalog)
            .and_then(|g| gola_engine::BatchEngine::new(&catalog).execute(&g));
        out.set("engine.exact_s", t.elapsed().as_secs_f64());
        out.check(exact.is_ok(), || "exact engine".to_string());
        let bootstrap = seeds.config(BASE_BATCHES, 1).bootstrap;
        layers::compile_replay(&mut out, &catalog, &[SQL], 20);
        layers::partition_replay(
            &mut out,
            &data,
            BASE_BATCHES + SEGMENTS,
            seeds.partition,
            &BLOCK,
        );
        layers::weights_replay(&mut out, data.num_rows(), SEGMENT_ROWS, bootstrap);
        layers::agg_replay(&mut out, &data, &BLOCK, bootstrap);
        let traced_busy: Vec<f64> = live.iter().map(|r| r.busy_s).collect();
        out.set(
            "obs.trace_overhead_frac",
            median(&traced_busy) / median(&untraced_busy) - 1.0,
        );
    }
    out
}

fn generate(seeds: &Seeds) -> Table {
    ConvivaGenerator {
        seed: seeds.data,
        ..ConvivaGenerator::default()
    }
    .generate(BASE_ROWS + SEGMENTS * SEGMENT_ROWS)
}

/// One stream's life: set up, ingest under a live query, close, reopen,
/// replay, check.
fn cycle(
    seeds: &Seeds,
    ctx: &Ctx,
    tracer: &Tracer,
    dir: &Path,
    out: &mut Outcome,
) -> Result<Cycle, String> {
    let t = Instant::now();
    let data = generate(seeds);
    let rows = data.rows();
    let stream =
        StreamTable::create_dir(Arc::clone(data.schema()), dir).map_err(|e| e.to_string())?;
    stream
        .append_rows(&rows[..BASE_ROWS])
        .and_then(|()| stream.seal())
        .map_err(|e| e.to_string())?;
    let mut catalog = Catalog::new();
    catalog
        .register_stream("sessions", Arc::clone(&stream))
        .map_err(|e| e.to_string())?;
    let setup_s = t.elapsed().as_secs_f64();

    // Time-to-first-estimate probes over the stream as it stands.
    let mut probe_ttfe_s = Vec::with_capacity(PROBES);
    for _ in 0..PROBES {
        let probe = online::run(
            &catalog,
            SQL,
            &seeds.config(BASE_BATCHES, 1),
            tracer,
            Mode::First,
        )
        .map_err(|e| format!("ttfe probe: {e}"))?;
        probe_ttfe_s.push(probe.ttfe_s);
    }

    // The writer starts once the live query has caught up with the sealed
    // rows. Until then the stream's size is fixed, so the reports over the
    // sealed rows, and the one among them first within the CI target, do
    // not depend on how the two threads happen to interleave.
    let (caught_up, start_writer) = std::sync::mpsc::channel::<()>();
    let (live, seals) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            // A reader that fails before catching up drops the sender,
            // which releases the writer too.
            let start_writer = start_writer;
            let _ = start_writer.recv();
            let seals = write_segments(&stream, &rows[BASE_ROWS..], tracer);
            if seals.is_err() {
                // Release the reader, which would otherwise wait for data.
                let _ = stream.close();
            }
            seals
        });
        let mut caught_up = Some(caught_up);
        let live = online::run_with(
            &catalog,
            SQL,
            &seeds.config(BASE_BATCHES, 1),
            tracer,
            Mode::FindCi,
            &mut |report| {
                if report.rows_seen >= BASE_ROWS {
                    if let Some(tx) = caught_up.take() {
                        let _ = tx.send(());
                    }
                }
            },
        );
        drop(caught_up);
        if live.is_err() {
            // Unblock the writer's schedule: nobody is reading any more.
            let _ = stream.close();
        }
        (live, writer.join().expect("writer thread panicked"))
    });
    let live = live.map_err(|e| format!("live query: {e}"))?;
    let seals = seals?;

    // The exact answer over every row, in append order.
    let mut exact_catalog = Catalog::new();
    exact_catalog
        .register("sessions", Arc::new(data))
        .map_err(|e| e.to_string())?;
    let exact = gola_sql::compile(SQL, &exact_catalog)
        .and_then(|g| gola_engine::BatchEngine::new(&exact_catalog).execute(&g))
        .map_err(|e| format!("exact engine: {e}"))?;
    let check = |out: &mut Outcome, what: &str, run: &RunStats| {
        let cmp = run
            .last
            .as_ref()
            .ok_or_else(|| "no report".to_string())
            .and_then(|r| gola_conformance::tables_bit_equal(&r.table, &exact));
        out.check(cmp.is_ok(), || {
            format!("{what} answer vs exact engine: {cmp:?}")
        });
    };
    check(out, "live", &live);

    let t = Instant::now();
    let reopened = StreamTable::open_dir(dir).map_err(|e| format!("open_dir: {e}"))?;
    let open_dir_s = t.elapsed().as_secs_f64();
    out.check(
        reopened.is_closed() && reopened.watermark() as usize == rows.len(),
        || "reopened stream is not closed at the full watermark".to_string(),
    );
    let mut replay_catalog = Catalog::new();
    replay_catalog
        .register_stream("sessions", reopened)
        .map_err(|e| e.to_string())?;
    let replay = online::run(
        &replay_catalog,
        SQL,
        &seeds.config(BASE_BATCHES, ctx.cpus),
        tracer,
        Mode::Full,
    )
    .map_err(|e| format!("replayed query: {e}"))?;
    check(out, "replayed", &replay);

    let disk_bytes = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    Ok(Cycle {
        setup_s,
        probe_ttfe_s,
        live,
        replay,
        seals,
        open_dir_s,
        disk_bytes,
        user_bytes: rows.iter().flat_map(|r| r.iter()).map(value_bytes).sum(),
    })
}

/// The writer: one append + seal per `STEP`, the first at once, on a
/// fixed schedule whatever the reader does; the last step closes the
/// stream, which seals it.
fn write_segments(
    stream: &StreamTable,
    rows: &[gola_common::Row],
    tracer: &Tracer,
) -> Result<Vec<Seal>, String> {
    let q = tracer.query_id();
    let start = Instant::now();
    let mut seals = Vec::with_capacity(SEGMENTS);
    let mut watermark = BASE_ROWS;
    for (i, segment) in rows.chunks(SEGMENT_ROWS).enumerate() {
        let due = start + STEP * i as u32;
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let begun = Instant::now();
        let late_s = begun.saturating_duration_since(due).as_secs_f64();
        stream
            .append_rows(segment)
            .map_err(|e| format!("append: {e}"))?;
        let appended = Instant::now();
        tracer.record("storage.append_rows", q, None, begun, appended);
        if i + 1 == SEGMENTS {
            stream.close().map_err(|e| format!("close: {e}"))?;
        } else {
            stream.seal().map_err(|e| format!("seal: {e}"))?;
        }
        let sealed_at = Instant::now();
        tracer.record("storage.seal", q, None, appended, sealed_at);
        watermark += segment.len();
        seals.push(Seal {
            watermark,
            sealed_at,
            append_s: (appended - begun).as_secs_f64(),
            seal_s: (sealed_at - appended).as_secs_f64(),
            late_s,
        });
    }
    Ok(seals)
}

/// Bytes a user hands over for one value: 8 per number, the text of a
/// string, 1 per boolean or null.
fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => s.len() as u64,
        Value::Bool(_) | Value::Null => 1,
    }
}
