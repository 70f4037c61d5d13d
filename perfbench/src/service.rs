//! `service_mix`: a self-hosted HTTP server over Conviva sessions and a
//! closed loop of `nproc` clients, each streaming the Conviva suite back to
//! back through `POST /query`, one connection per request.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gola_agg::AggKind;
use gola_common::rng::{hash_combine, SplitMix64};
use gola_core::sched::{QueryService, ServiceConfig};
use gola_core::{BatchReport, OnlineConfig, OnlineSession};
use gola_server::{Server, ServerConfig};
use gola_storage::Catalog;
use gola_workloads::{conviva, ConvivaGenerator};

use crate::layers::{self, AggBlock};
use crate::online::{self, Mode, RunStats};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};

const ROWS: usize = 20_000;
const BATCHES: usize = 10;
/// Slices the measured window is cut into, each over a dataset of its own.
const SLICES: usize = 8;
/// Columnar loads of the slice's rows timed before each slice's loop.
/// Their rate settles at one of a few levels for a whole slice (how the
/// rows happen to lie in memory), and this memory-bound build slows more
/// than the rest when the host is busy, so `ingest_rows_per_s` is the
/// fastest of each slice's loads, averaged over the slices.
const LOADS: usize = 10;
/// Rounds of the suite sent alone over HTTP and in-process, paired.
const PAIR_ROUNDS: usize = 10;

/// C3's inner block: per-ad AVG(play_time), the suite's grouped state.
const BLOCK: AggBlock = AggBlock {
    group_cols: &["ad_id"],
    aggs: || vec![(AggKind::Avg, Some("play_time"))],
};

/// What a solo in-process run of one suite query produced: the reference
/// frames every HTTP stream of that query must equal byte for byte.
struct Reference {
    name: &'static str,
    sql: &'static str,
    frames: Vec<String>,
    /// Index of the first frame within the CI target.
    ci1_frame: Option<usize>,
    rows: usize,
}

/// One HTTP stream as the client saw it.
struct Stream {
    /// Index of the query in the suite.
    query: usize,
    /// Index of the first frame within the CI target.
    ci1_frame: usize,
    rows: usize,
    /// Time from writing the request to each frame's arrival.
    frame_at: Vec<Duration>,
    /// Bytes of all frames, newlines included.
    frame_bytes: usize,
    /// Whether the frames equal the solo in-process run's byte for byte.
    /// Only this is kept, not the frames: keeping them would make
    /// `peak_rss_mb` grow with the number of streams completed.
    matches_solo: bool,
}

pub fn run(ctx: &Ctx, tracer: &Tracer) -> Outcome {
    let mut out = Outcome::default();

    // The window is cut into slices, each over a dataset of its own
    // (generated from the slice's derived seeds) and served by a server
    // set up afresh, the previous one stopped first. Before each slice's
    // closed loop come one solo in-process pass over the suite at
    // threads=1, whose frames are the byte-for-byte reference for every
    // HTTP stream of the slice, and a few columnar loads. Set-up, solo
    // passes and loads thus sample the whole window, and data-dependent
    // costs average out within a run. A traced run leaves every other
    // slice untraced, for the tracing overhead.
    let (mut setup_s, mut solo_runs, mut loads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut solo_rows, mut solo_busy, mut exact_s) = (0usize, 0.0, Vec::new());
    let (mut streams, mut untraced_streams, mut wall) = (Vec::new(), Vec::new(), 0.0);
    let untraced = Tracer::new(false);
    let slice_len = ctx.measure / SLICES as u32;
    let mut server = None;
    let (mut data, mut catalog, mut base, mut refs) = (None, Catalog::new(), None, Vec::new());
    for slice in 0..SLICES {
        drop(server.take());
        let seeds = ctx.seeds.sub(slice as u64);
        let cfg = seeds.config(BATCHES, 1);
        let t = Instant::now();
        let table = Arc::new(
            ConvivaGenerator {
                seed: seeds.data,
                ..ConvivaGenerator::default()
            }
            .generate(ROWS),
        );
        catalog = Catalog::new();
        catalog
            .register("sessions", Arc::clone(&table))
            .expect("registering into a fresh catalog");
        let started = Server::start(
            catalog.clone(),
            ServerConfig {
                service: service_config(&cfg, ctx),
                max_connections: ctx.cpus + 1,
                ..ServerConfig::default()
            },
        );
        setup_s.push(t.elapsed().as_secs_f64());
        let addr = match started {
            Ok(s) => server.insert(s).addr(),
            Err(e) => {
                out.check(false, || format!("server start: {e}"));
                return out;
            }
        };
        refs.clear();
        let mut slice_exact_s = 0.0;
        for (name, sql) in conviva::queries() {
            let mut frames = Vec::new();
            let mut render = |r: &BatchReport| frames.push(gola_server::json::report_json(r));
            let mut r =
                match online::run_with(&catalog, sql, &cfg, tracer, Mode::FindCi, &mut render) {
                    Ok(r) => r,
                    Err(e) => {
                        out.check(false, || format!("{name}: solo run: {e}"));
                        return out;
                    }
                };
            out.attempted += 1;
            solo_rows += r.rows;
            solo_busy += r.busy_s;
            // The drained answer is the exact one.
            let t = Instant::now();
            let exact = OnlineSession::new(catalog.clone(), cfg.clone()).execute_exact(sql);
            slice_exact_s += t.elapsed().as_secs_f64();
            let cmp = exact
                .map_err(|e| e.to_string())
                .and_then(|exact| match r.last.take() {
                    Some(last) => gola_conformance::tables_bit_equal(&last.table, &exact),
                    None => Err("no report".to_string()),
                });
            out.check(cmp.is_ok(), || {
                format!("slice {slice}: {name}: final answer vs exact engine: {cmp:?}")
            });
            refs.push(Reference {
                name,
                sql,
                frames,
                ci1_frame: r.ci1_report,
                rows: r.rows,
            });
            solo_runs.push(r);
        }
        exact_s.push(slice_exact_s);
        let best = (0..LOADS)
            .map(|_| crate::load_rate(&mut out, &table))
            .fold(0.0, f64::max);
        loads.push(best);
        if ctx.trace && slice % 2 == 1 {
            let (s, _) = closed_loop(addr, &refs, ctx, slice_len, &untraced, &mut out);
            untraced_streams.extend(s);
        } else {
            let (s, w) = closed_loop(addr, &refs, ctx, slice_len, tracer, &mut out);
            streams.extend(s);
            wall += w;
        }
        data = Some(table);
        base = Some(cfg);
    }
    let (server, data, base) = (
        server.expect("SLICES is nonzero"),
        data.expect("SLICES is nonzero"),
        base.expect("SLICES is nonzero"),
    );
    if ctx.trace {
        let ttfe = |s: &[Stream]| {
            median(
                &s.iter()
                    .map(|s| s.frame_at[0].as_secs_f64())
                    .collect::<Vec<_>>(),
            )
        };
        out.set(
            "obs.trace_overhead_frac",
            ttfe(&streams) / ttfe(&untraced_streams) - 1.0,
        );
    }
    if streams.is_empty() {
        out.check(false, || "no HTTP stream completed".to_string());
        return out;
    }

    let ms = |d: &Duration| d.as_secs_f64() * 1e3;
    let ttfe = |s: &Stream| vec![ms(&s.frame_at[0])];
    let gaps = |s: &Stream| {
        s.frame_at
            .windows(2)
            .map(|w| ms(&(w[1] - w[0])))
            .collect::<Vec<_>>()
    };
    let fresh = |s: &Stream| s.frame_at.iter().map(ms).collect::<Vec<_>>();
    let ci1 = |s: &Stream| vec![ms(&s.frame_at[s.ci1_frame.min(s.frame_at.len() - 1)])];
    let pooled = |f: &dyn Fn(&Stream) -> Vec<f64>| streams.iter().flat_map(f).collect::<Vec<_>>();
    let rows: usize = streams.iter().map(|s| s.rows).sum();
    out.set("setup_s", median(&setup_s));
    out.set("tuples_per_s", rows as f64 / wall);
    out.set("tuples_per_s_t1", solo_rows as f64 / solo_busy);
    out.set("batch_ms_p50", suite_median(&streams, &gaps));
    out.set_tail("batch_ms_tail", &pooled(&gaps));
    out.set("ttfe_ms_p50", suite_median(&streams, &ttfe));
    out.set_tail("ttfe_ms_tail", &pooled(&ttfe));
    out.set("tt_ci1_ms_p50", suite_median(&streams, &ci1));
    out.set("queries_per_s", streams.len() as f64 / wall);
    out.set("ingest_rows_per_s", mean(&loads));
    out.set("freshness_ms_p50", suite_median(&streams, &fresh));
    out.set_tail("freshness_ms_tail", &pooled(&fresh));
    out.note("rows", data.num_rows());
    out.note("datasets", SLICES);
    out.note("clients", ctx.cpus);
    out.note("streams", streams.len());

    if ctx.trace {
        let solo: Vec<&RunStats> = solo_runs.iter().collect();
        layers::core_metrics(&mut out, &solo, tracer);
        out.set("engine.exact_s", median(&exact_s));
        let sqls: Vec<&str> = refs.iter().map(|r| r.sql).collect();
        layers::compile_replay(&mut out, &catalog, &sqls, 20);
        layers::partition_replay(&mut out, &data, BATCHES, base.partition_seed, &BLOCK);
        layers::weights_replay(
            &mut out,
            data.num_rows(),
            data.num_rows() / BATCHES,
            base.bootstrap,
        );
        layers::agg_replay(&mut out, &data, &BLOCK, base.bootstrap);
        let (sched_ttfe, quantum) = sched_loop(&catalog, &base, &refs, ctx, &mut out);
        out.set("sched.ttfe_ms", sched_ttfe);
        out.set("sched.quantum_ms", quantum);
        let http = http_overhead_ms(server.addr(), &catalog, &base, &refs, ctx, &mut out);
        out.set("server.http_overhead_ms", http);
        let bytes: usize = streams.iter().map(|s| s.frame_bytes).sum();
        let frames: usize = streams.iter().map(|s| s.frame_at.len()).sum();
        out.set("server.bytes_per_frame", bytes as f64 / frames as f64);
    }
    out
}

/// The suite's median of `f`: each query's median over its streams,
/// averaged over the suite's queries. The queries differ in cost, so a
/// median pooled over all streams would sit between two queries' samples
/// and jump with the mix of queries the clients happened to complete.
fn suite_median(streams: &[Stream], f: &dyn Fn(&Stream) -> Vec<f64>) -> f64 {
    let per_query: Vec<f64> = (0..conviva::queries().len())
        .filter_map(|q| {
            let xs: Vec<f64> = streams
                .iter()
                .filter(|s| s.query == q)
                .flat_map(f)
                .collect();
            (!xs.is_empty()).then(|| median(&xs))
        })
        .collect();
    mean(&per_query)
}

/// Load sized to the host: `nproc` sessions run at once on an
/// `nproc`-thread pool, and `nproc` clients never need the queue.
fn service_config(base: &OnlineConfig, ctx: &Ctx) -> ServiceConfig {
    ServiceConfig {
        max_active: ctx.cpus,
        queue_capacity: ctx.cpus,
        threads: ctx.cpus,
        base: base.clone(),
    }
}

/// The order client `c` streams the suite in for its `round`-th pass: a
/// seeded shuffle, so clients do not move in lockstep.
fn suite_order(order_seed: u64, client: usize, round: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(hash_combine(hash_combine(order_seed, client as u64), round));
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        idx.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    idx
}

/// `ctx.cpus` clients, each sending its next request only once the last
/// stream ended, until `window` has passed. Returns the completed streams
/// and the loop's wall time in seconds.
fn closed_loop(
    addr: SocketAddr,
    refs: &[Reference],
    ctx: &Ctx,
    window: Duration,
    tracer: &Tracer,
    out: &mut Outcome,
) -> (Vec<Stream>, f64) {
    let start = Instant::now();
    let deadline = start + window;
    let results: Vec<(Vec<Stream>, Vec<String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ctx.cpus)
            .map(|c| {
                scope.spawn(move || {
                    let (mut done, mut errors) = (Vec::new(), Vec::new());
                    let mut round = 0;
                    'outer: loop {
                        for q in suite_order(ctx.seeds.order, c, round, refs.len()) {
                            if Instant::now() >= deadline {
                                break 'outer;
                            }
                            let qid = tracer.query_id();
                            let t = Instant::now();
                            match post_query(addr, refs[q].sql) {
                                Ok((frame_at, frames)) => {
                                    let id = tracer.record(
                                        "server.post_query",
                                        qid,
                                        None,
                                        t,
                                        Instant::now(),
                                    );
                                    tracer.record(
                                        "server.first_frame",
                                        qid,
                                        Some(id),
                                        t,
                                        t + frame_at[0],
                                    );
                                    done.push(Stream {
                                        query: q,
                                        ci1_frame: refs[q].ci1_frame.unwrap_or(frame_at.len() - 1),
                                        rows: refs[q].rows,
                                        frame_at,
                                        frame_bytes: frames.iter().map(|f| f.len() + 1).sum(),
                                        matches_solo: frames == refs[q].frames,
                                    });
                                }
                                Err(e) => errors.push(format!("{}: {e}", refs[q].name)),
                            }
                        }
                        round += 1;
                    }
                    (done, errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut streams = Vec::new();
    for (done, errors) in results {
        for e in errors {
            out.check(false, || format!("HTTP stream failed: {e}"));
        }
        for s in &done {
            let r = &refs[s.query];
            out.check(s.matches_solo, || {
                format!(
                    "{}: HTTP stream differs from the solo in-process run",
                    r.name
                )
            });
        }
        streams.extend(done);
    }
    (streams, wall)
}

/// POST `sql` and read the chunked NDJSON answer, timing each frame from
/// the moment the request was written.
fn post_query(addr: SocketAddr, sql: &str) -> Result<(Vec<Duration>, Vec<String>), String> {
    let mut conn = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    conn.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let request = format!(
        "POST /query HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{sql}",
        sql.len()
    );
    let sent = Instant::now();
    conn.write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut reader = BufReader::new(conn);
    let mut line = String::new();
    reader
        .read_line(&mut line)
        .map_err(|e| format!("status: {e}"))?;
    if !line.starts_with("HTTP/1.1 200") {
        return Err(format!("status {}", line.trim()));
    }
    loop {
        line.clear();
        let n = reader
            .read_line(&mut line)
            .map_err(|e| format!("head: {e}"))?;
        if n == 0 || line == "\r\n" {
            break;
        }
    }
    let (mut frame_at, mut frames) = (Vec::new(), Vec::new());
    let mut pending = String::new();
    loop {
        line.clear();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("chunk size: {e}"))?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| format!("bad chunk size {line:?}"))?;
        if size == 0 {
            break;
        }
        let mut chunk = vec![0u8; size + 2];
        reader
            .read_exact(&mut chunk)
            .map_err(|e| format!("chunk: {e}"))?;
        chunk.truncate(size);
        pending.push_str(std::str::from_utf8(&chunk).map_err(|e| format!("utf8: {e}"))?);
        while let Some(at) = pending.find('\n') {
            let frame: String = pending.drain(..=at).collect();
            if frame.starts_with("{\"error\"") {
                return Err(format!("error frame {}", frame.trim()));
            }
            frame_at.push(sent.elapsed());
            frames.push(frame.trim_end_matches('\n').to_string());
        }
    }
    if frames.is_empty() {
        return Err("stream ended with no frames".to_string());
    }
    Ok((frame_at, frames))
}

/// What HTTP adds to the first frame: one client alone, each suite query
/// in turn over HTTP and through an in-process [`QueryService`] of the
/// same shape, paired; the median HTTP time minus the median in-process
/// time, in milliseconds.
fn http_overhead_ms(
    addr: SocketAddr,
    catalog: &Catalog,
    base: &OnlineConfig,
    refs: &[Reference],
    ctx: &Ctx,
    out: &mut Outcome,
) -> f64 {
    let service = QueryService::new(catalog.clone(), service_config(base, ctx));
    let (mut http, mut inproc) = (Vec::new(), Vec::new());
    for _ in 0..PAIR_ROUNDS {
        for r in refs {
            match post_query(addr, r.sql) {
                Ok((frame_at, _)) => http.push(frame_at[0].as_secs_f64() * 1e3),
                Err(e) => out.check(false, || format!("{}: solo HTTP stream: {e}", r.name)),
            }
            let t = Instant::now();
            let first = service.submit(r.sql).map(|h| (h.recv(), t.elapsed()));
            match first {
                Ok((Some(Ok(_)), d)) => inproc.push(d.as_secs_f64() * 1e3),
                _ => out.check(false, || format!("{}: solo in-process stream", r.name)),
            }
        }
    }
    median(&http) - median(&inproc)
}

/// The same closed loop through an in-process [`QueryService`], without
/// HTTP: returns the median time to the first report and the median gap
/// between one session's consecutive reports (its scheduling quantum), in
/// milliseconds.
fn sched_loop(
    catalog: &Catalog,
    base: &OnlineConfig,
    refs: &[Reference],
    ctx: &Ctx,
    out: &mut Outcome,
) -> (f64, f64) {
    let service = QueryService::new(catalog.clone(), service_config(base, ctx));
    let deadline = Instant::now() + ctx.measure / 2;
    let samples: Vec<(Vec<f64>, Vec<f64>, Vec<String>)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..ctx.cpus)
            .map(|c| {
                let service = &service;
                scope.spawn(move || {
                    let (mut ttfe, mut gaps, mut errors) = (Vec::new(), Vec::new(), Vec::new());
                    let mut round = 0;
                    'outer: loop {
                        for q in suite_order(ctx.seeds.order, c, round, refs.len()) {
                            if Instant::now() >= deadline {
                                break 'outer;
                            }
                            let t = Instant::now();
                            let handle = match service.submit(refs[q].sql) {
                                Ok(h) => h,
                                Err(e) => {
                                    errors.push(format!("{}: submit: {e}", refs[q].name));
                                    continue;
                                }
                            };
                            let mut last = t;
                            let mut frames = Vec::new();
                            while let Some(report) = handle.recv() {
                                let now = Instant::now();
                                match report {
                                    Ok(r) => frames.push(gola_server::json::report_json(&r)),
                                    Err(e) => errors.push(format!("{}: {e}", refs[q].name)),
                                }
                                if last == t {
                                    ttfe.push((now - t).as_secs_f64() * 1e3);
                                } else {
                                    gaps.push((now - last).as_secs_f64() * 1e3);
                                }
                                last = now;
                            }
                            if frames != refs[q].frames {
                                errors.push(format!(
                                    "{}: in-process service stream differs from solo",
                                    refs[q].name
                                ));
                            }
                        }
                        round += 1;
                    }
                    (ttfe, gaps, errors)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let (mut ttfe, mut gaps) = (Vec::new(), Vec::new());
    for (t, g, errors) in samples {
        out.attempted += t.len() as u64;
        for e in errors {
            out.check(false, || e);
        }
        ttfe.extend(t);
        gaps.extend(g);
    }
    (median(&ttfe), median(&gaps))
}
