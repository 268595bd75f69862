//! The served workload: the tiny ladder behind `pivot_serve::Server` on
//! the wall clock, driven by one generator thread.
//!
//! * Phase A offers seeded Poisson arrivals at a fixed absolute rate with
//!   a 250 ms deadline (an open loop). Every round repeats one seeded
//!   arrival pattern, so each arrival is measured once per round. Each
//!   request's sojourn is measured from its *due* time, so a late
//!   generator or a stalled engine shows as latency rather than as a
//!   lower offered rate.
//! * Phase B keeps `2 * MAX_BATCH` requests outstanding (a closed loop)
//!   and measures completions per second at saturation.
//!
//! The phases alternate in rounds (A, B, A, B, ...), so that each samples
//! the whole run. Request `i` of a phase carries input `i % pool`, and
//! each round is a whole multiple of the pool, so every run offers each
//! input equally often.

use crate::ladder::{derive_seed, Ladder, SetupTimes, ARRIVALS_SALT, BATCH};
use crate::report::{peak_rss_mb, Report};
use crate::stats::{
    check_halves, energy_ladder, fast_rate, fast_time, mean_energy_mj, median, percentile,
};
use crate::trace::Tracer;
use crate::{host, layers, reference};
use pivot_core::{evaluate_guarded_slice, GuardedOutcome, Parallelism};
use pivot_serve::{
    HealthStats, OverloadPolicy, ServeConfig, ServeOutcome, ServeResponse, Server, Ticket,
};
use pivot_tensor::{Matrix, Rng};
use std::collections::VecDeque;
use std::ops::Range;
use std::time::{Duration, Instant};

/// Low-effort constraint of the static gate: half the inputs stay low.
pub const LEC: f64 = 0.5;
/// Largest coalesced batch.
const MAX_BATCH: usize = BATCH;
/// Phase A's offered rate in requests per second, about a third of the
/// ladder's capacity on the reference host.
const RATE: f64 = 200.0;
/// Phase A's per-request deadline.
const DEADLINE: Duration = Duration::from_millis(250);
/// Phase B's deadline, loose enough that nothing times out at saturation.
const SATURATION_DEADLINE: Duration = Duration::from_secs(10);
/// Nominal phase-B completion rate, used only to size phase B.
const NOMINAL_CAPACITY: f64 = 740.0;
/// Completions per phase-B window, two full batches; throughput is the
/// [`fast_rate`] of the windows' rates. Short windows matter: the host's
/// slow mode is a stream of brief stalls, and only short units of work
/// see the stretches between them.
const WINDOW: usize = 2 * MAX_BATCH;
/// Rounds the two phases alternate in. Each phase-A arrival is measured
/// once per round, so this is the sample count behind each arrival's
/// fast-mode sojourn.
const ROUNDS: usize = 16;
/// How long before each due time the phase-A generator stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_millis(1);
/// Generator lateness p99 above which a run is flagged as unreliable.
const LATE_FLAG_MS: f64 = 1.0;

/// The server configuration: one engine thread running the cascade
/// sequentially, and an overload budget so loose that the effort cap never
/// engages (`degraded == 0`).
fn config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 256,
        max_batch: MAX_BATCH,
        batch_window: Duration::from_millis(2),
        parallelism: Parallelism::Off,
        overload: OverloadPolicy {
            queue_budget: Duration::from_secs(1),
            recover_ratio: 0.5,
            recover_after: 8,
        },
        threshold: None,
    }
}

/// One offered request and what came back.
#[derive(Debug)]
struct Record {
    /// Position of the request in its phase's offer order.
    request: usize,
    /// Index into the input pool.
    image: usize,
    /// Time from the request's due time to its submission.
    lateness: Duration,
    /// `None` when admission refused the request.
    response: Option<ServeResponse>,
}

impl Record {
    /// Due-time-to-response milliseconds; infinite for a refused request.
    fn sojourn_ms(&self) -> f64 {
        self.response.as_ref().map_or(f64::INFINITY, |r| {
            (self.lateness + r.latency).as_secs_f64() * 1e3
        })
    }
}

/// What one phase produced.
#[derive(Debug, Default)]
struct Phase {
    records: Vec<Record>,
    /// Microseconds spent in each `submit` call.
    submit_us: Vec<f64>,
    /// Round and completions per second of each window (phase B only).
    window_ips: Vec<(usize, f64)>,
    /// Wall seconds of the phase.
    seconds: f64,
    /// Requests the engine resolved, and batches it ran, during the phase.
    resolved: u64,
    batches: u64,
}

impl Phase {
    fn append(&mut self, mut round: Phase) {
        self.records.append(&mut round.records);
        self.submit_us.append(&mut round.submit_us);
        self.window_ips.append(&mut round.window_ips);
        self.seconds += round.seconds;
        self.resolved += round.resolved;
        self.batches += round.batches;
    }
}

fn submit(
    server: &Server,
    image: &Matrix,
    deadline: Duration,
    phase: &mut Phase,
    tracer: &mut Option<&mut Tracer>,
) -> Option<Ticket> {
    let image = image.clone();
    let t = Instant::now();
    let ticket = match tracer {
        Some(tracer) => tracer.span("serve.submit", |_| server.submit(image, deadline)),
        None => server.submit(image, deadline),
    };
    phase.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
    ticket.ok()
}

/// `n` seeded Poisson inter-arrival gaps in seconds: one round's pattern.
fn poisson_gaps(n: usize, rng: &mut Rng) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            -(1.0 - u).ln() / RATE
        })
        .collect()
}

/// One round of phase A: `requests` arriving with the round's `gaps`.
fn open_loop(
    server: &Server,
    images: &[Matrix],
    requests: Range<usize>,
    gaps: &[f64],
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    let mut pending: VecDeque<(usize, Duration, Ticket)> = VecDeque::new();
    let start = Instant::now();
    let mut due_s = 0.0;
    for i in requests {
        due_s += gaps[i % gaps.len()];
        let due = start + Duration::from_secs_f64(due_s);
        collect_ready(&mut pending, &mut phase.records, images.len());
        wait_until(due);
        let lateness = Instant::now().saturating_duration_since(due);
        match submit(
            server,
            &images[i % images.len()],
            DEADLINE,
            &mut phase,
            &mut tracer,
        ) {
            Some(ticket) => pending.push_back((i, lateness, ticket)),
            None => phase.records.push(Record {
                request: i,
                image: i % images.len(),
                lateness,
                response: None,
            }),
        }
    }
    for (request, lateness, ticket) in pending {
        phase.records.push(Record {
            request,
            image: request % images.len(),
            lateness,
            response: ticket.wait(),
        });
    }
    phase.seconds = start.elapsed().as_secs_f64();
    phase
}

/// Sleeps until [`SPIN`] before `due`, then spins until `due`: a sleeping
/// thread on a busy host wakes late by up to milliseconds, and that delay
/// belongs to the generator, not to the server under test.
fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(wait);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

fn collect_ready(
    pending: &mut VecDeque<(usize, Duration, Ticket)>,
    records: &mut Vec<Record>,
    pool: usize,
) {
    let mut i = 0;
    while i < pending.len() {
        if let Some(response) = pending[i].2.try_wait() {
            let (request, lateness, _) = pending.remove(i).expect("index in range");
            records.push(Record {
                request,
                image: request % pool,
                lateness,
                response: Some(response),
            });
        } else {
            i += 1;
        }
    }
}

/// One round of phase B: `requests` with `2 * MAX_BATCH` kept outstanding.
fn closed_loop(
    server: &Server,
    images: &[Matrix],
    round: usize,
    requests: Range<usize>,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    let mut pending: VecDeque<(usize, Instant, Ticket)> = VecDeque::new();
    let n = requests.len();
    let mut done = Vec::with_capacity(n);
    let start = Instant::now();
    let mut next = requests.start;
    while phase.records.len() < n {
        while pending.len() < 2 * MAX_BATCH && next < requests.end {
            let image = next % images.len();
            let submitted = Instant::now();
            match submit(
                server,
                &images[image],
                SATURATION_DEADLINE,
                &mut phase,
                &mut tracer,
            ) {
                Some(ticket) => pending.push_back((next, submitted, ticket)),
                None => phase.records.push(Record {
                    request: next,
                    image,
                    lateness: Duration::ZERO,
                    response: None,
                }),
            }
            next += 1;
        }
        if let Some((request, submitted, ticket)) = pending.pop_front() {
            let response = ticket.wait();
            // When the engine answered, not when this thread got round to
            // collecting the answer: a generator that was descheduled
            // would otherwise collect a burst and report it as a fast
            // window.
            if let Some(r) = &response {
                done.push(submitted + r.latency);
            }
            phase.records.push(Record {
                request,
                image: request % images.len(),
                lateness: Duration::ZERO,
                response,
            });
        }
    }
    phase.seconds = start.elapsed().as_secs_f64();
    // Completions per second in each whole window of the round.
    done.sort_unstable();
    let mut window_start = start;
    for chunk in done.chunks_exact(WINDOW) {
        let end = chunk[WINDOW - 1];
        phase
            .window_ips
            .push((round, WINDOW as f64 / (end - window_start).as_secs_f64()));
        window_start = end;
    }
    phase
}

/// Phase sizes `(A, B)` for a run of `seconds`, in whole multiples of
/// the input pool per round: phase A takes about half the run, and phase
/// B the rest.
fn phase_sizes(pool: usize, seconds: u64) -> (usize, usize) {
    let unit = pool * ROUNDS;
    let whole = |n: f64| ((n / unit as f64).round() as usize).max(1) * unit;
    let n_a = whole(RATE * seconds as f64 / 2.0);
    let rest = (seconds as f64 - n_a as f64 / RATE).max(0.0);
    (n_a, whole(NOMINAL_CAPACITY * rest))
}

/// Runs `n_a` phase-A and `n_b` phase-B requests in [`ROUNDS`] alternating
/// rounds (A, B, A, B, ...), so that each phase's windows sample the
/// whole run rather than one half of it. `between` runs after every
/// phase of every round.
fn run_phases(
    server: &Server,
    images: &[Matrix],
    (n_a, n_b): (usize, usize),
    gaps: &[f64],
    mut tracer: Option<&mut Tracer>,
    mut between: impl FnMut(),
) -> (Phase, Phase) {
    let (mut a, mut b) = (Phase::default(), Phase::default());
    for round in 0..ROUNDS {
        let before = server.health();
        let mut a_round = open_loop(
            server,
            images,
            round * n_a / ROUNDS..(round + 1) * n_a / ROUNDS,
            gaps,
            tracer.as_deref_mut(),
        );
        let after = server.health();
        a_round.resolved = after.resolved() - before.resolved();
        a_round.batches = after.batches - before.batches;
        a.append(a_round);
        between();
        b.append(closed_loop(
            server,
            images,
            round,
            round * n_b / ROUNDS..(round + 1) * n_b / ROUNDS,
            tracer.as_deref_mut(),
        ));
        between();
    }
    (a, b)
}

/// The ladder and a warmed-up server.
struct Setup {
    ladder: Ladder,
    server: Server,
}

/// Builds the ladder, spawns the server and warms it; the spawn and the
/// warm-up are timed as two more set-up steps.
fn build(seed: u64) -> Setup {
    let mut ladder = Ladder::build(LEC, seed);
    let t = Instant::now();
    let server = Server::spawn(ladder.levels.clone(), vec![ladder.threshold], config());
    ladder.steps.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    // Warm the engine thread and the reply path with one full batch.
    let tickets: Vec<Ticket> = ladder.images[..MAX_BATCH]
        .iter()
        .filter_map(|m| server.submit(m.clone(), SATURATION_DEADLINE).ok())
        .collect();
    for ticket in tickets {
        ticket.wait();
    }
    ladder.steps.push(t.elapsed().as_secs_f64());
    Setup { ladder, server }
}

/// The offline guarded outcome of every input, the reference every
/// served response must equal bit for bit.
fn offline_outcomes(ladder: &Ladder) -> Vec<GuardedOutcome> {
    ladder
        .batches()
        .iter()
        .flat_map(|b| {
            evaluate_guarded_slice(&ladder.levels, &[ladder.threshold], 1, b, Parallelism::Off).0
        })
        .collect()
}

/// Whether a response is a healthy completion identical to the offline
/// outcome, within the deadline it was offered with.
fn matches(record: &Record, expected: &GuardedOutcome, deadline: Duration) -> bool {
    let Some(response) = &record.response else {
        return false;
    };
    let ServeOutcome::Completed(served) = &response.outcome else {
        return false;
    };
    served.prediction == expected.prediction
        && served.level == expected.level
        && served.entropy.to_bits() == expected.entropy.to_bits()
        && served.fault_fallback.is_none()
        && record.lateness + response.latency <= deadline
}

/// Checks both phases and the ledger. Returns `(attempted, failed,
/// correct)`; every request that is not a matching, timely completion
/// counts as failed. The offline outcomes the responses are held to are
/// checked against the `f64` reference once, by [`check_offline`].
fn check(
    a: &Phase,
    b: &Phase,
    health: &HealthStats,
    expected: &[GuardedOutcome],
) -> (u64, u64, bool) {
    let miss = |phase: &Phase, deadline| {
        phase
            .records
            .iter()
            .filter(|r| !matches(r, &expected[r.image], deadline))
            .count() as u64
    };
    let attempted = (a.records.len() + b.records.len()) as u64;
    let failed = miss(a, DEADLINE) + miss(b, SATURATION_DEADLINE);
    if !health.accounted() {
        eprintln!("check: serving ledger does not balance: {health}");
    }
    (attempted, failed, failed == 0 && health.accounted())
}

/// Checks the offline outcomes the served responses are held to: the
/// calibration met the LEC, and the outcomes agree with the independent
/// `f64` reference. Returns the number of mismatched inputs and whether
/// the gate check passed.
fn check_offline(ladder: &Ladder, seed: u64, expected: &[GuardedOutcome]) -> (u64, bool) {
    (
        reference::mismatches(ladder, seed, expected),
        ladder.gate_meets_lec(),
    )
}

/// Phase A's sojourn p50 and p90 in ms over the given rounds. Every round
/// offers the same arrival pattern and inputs, so request `q` of one round
/// is the same unit of work in every round; each position's
/// [`fast_time`] over the rounds is its sojourn on the undisturbed host,
/// and the percentiles are taken over those.
fn fast_latency(a: &Phase, rounds: Range<usize>) -> (f64, f64) {
    let round = a.records.len() / ROUNDS;
    let mut by_position = vec![Vec::with_capacity(ROUNDS); round];
    for r in &a.records {
        if rounds.contains(&(r.request / round)) {
            by_position[r.request % round].push(r.sojourn_ms());
        }
    }
    let mut sojourn: Vec<f64> = by_position.iter().map(|s| fast_time(s)).collect();
    sojourn.sort_by(f64::total_cmp);
    let p90 = percentile(&sojourn, 90.0);
    if rounds.len() == ROUNDS {
        eprintln!(
            "serve-tiny: sojourn over {round} arrival positions x {ROUNDS} rounds, {} beyond p90",
            p90.beyond
        );
    }
    (percentile(&sojourn, 50.0).value, p90.value)
}

/// Phase B's fast-mode completion rate over the windows of the given
/// rounds.
fn fast_throughput(b: &Phase, rounds: Range<usize>) -> f64 {
    let ips: Vec<f64> = b
        .window_ips
        .iter()
        .filter(|(round, _)| rounds.contains(round))
        .map(|&(_, ips)| ips)
        .collect();
    fast_rate(&ips)
}

/// The timed figures `(throughput, p50, p90)` of the whole run. The
/// run's first and second halves are compared on each and a
/// disagreement is flagged, but it does not fail the run: a slow stretch
/// of the host that covers one half moves these figures by up to a third
/// (measured), about as much as the check would have to catch.
fn timed_figures(a: &Phase, b: &Phase) -> (f64, f64, f64) {
    let (early, late) = (0..ROUNDS / 2, ROUNDS / 2..ROUNDS);
    let (p50_early, p90_early) = fast_latency(a, early.clone());
    let (p50_late, p90_late) = fast_latency(a, late.clone());
    for (name, first, second) in [
        (
            "throughput_ips",
            fast_throughput(b, early),
            fast_throughput(b, late),
        ),
        ("latency_p50_ms", p50_early, p50_late),
        ("latency_p90_ms", p90_early, p90_late),
    ] {
        if let Err(e) = check_halves(name, first, second) {
            eprintln!("serve-tiny: flagged: {e}");
        }
    }
    let (p50, p90) = fast_latency(a, 0..ROUNDS);
    (fast_throughput(b, 0..ROUNDS), p50, p90)
}

fn lateness_p99_ms(phase: &Phase) -> f64 {
    let mut ms: Vec<f64> = phase
        .records
        .iter()
        .map(|r| r.lateness.as_secs_f64() * 1e3)
        .collect();
    ms.sort_by(f64::total_cmp);
    percentile(&ms, 99.0).value
}

fn log_phases(a: &Phase, b: &Phase) {
    let late = lateness_p99_ms(a);
    let flag = if late > LATE_FLAG_MS {
        " (generator fell behind its schedule)"
    } else {
        ""
    };
    eprintln!(
        "serve-tiny: phase A {} requests in {:.2} s, generator lateness p99 {late:.3} ms{flag}; \
         phase B {} requests in {:.2} s",
        a.records.len(),
        a.seconds,
        b.records.len(),
        b.seconds
    );
}

fn exit_levels(phases: &[&Phase]) -> Vec<usize> {
    phases
        .iter()
        .flat_map(|p| &p.records)
        .filter_map(|r| r.response.as_ref()?.outcome.served().map(|s| s.level))
        .collect()
}

/// The untraced run: end-to-end metrics.
pub fn measure(seed: u64, seconds: u64, started: Instant) -> Result<Report, String> {
    let Setup { ladder, server } = build(seed);
    let mut setup = SetupTimes::first(started, ladder.steps.clone(), 2 * ROUNDS);
    let sizes = phase_sizes(ladder.images.len(), seconds);
    let gaps = poisson_gaps(
        sizes.0 / ROUNDS,
        &mut Rng::new(derive_seed(seed, ARRIVALS_SALT)),
    );
    let host_start = host::ref_batch_ms();
    let (a, b) = run_phases(&server, &ladder.images, sizes, &gaps, None, || {
        setup.after_unit(|| build(seed).ladder.steps)
    });
    host::log("serve-tiny", host_start, host::ref_batch_ms());
    let health = server.shutdown();
    log_phases(&a, &b);
    eprintln!("serve-tiny: set-ups {:?} s", setup.totals());

    let expected = offline_outcomes(&ladder);
    let (attempted, failed, correct) = check(&a, &b, &health, &expected);
    let (offline_failed, gate_ok) = check_offline(&ladder, seed, &expected);
    let (throughput, p50, p90) = timed_figures(&a, &b);
    eprintln!("serve-tiny: {health}");
    let exits = exit_levels(&[&a, &b]);
    if exits.is_empty() {
        return Err("no request was served".into());
    }

    let mut r = Report {
        correct: correct && gate_ok && offline_failed == 0,
        attempted,
        failed: failed + offline_failed,
        ..Report::default()
    };
    r.set("setup_s", setup.fast_seconds());
    r.set("throughput_ips", throughput);
    r.set("latency_p50_ms", p50);
    r.set("latency_p90_ms", p90);
    r.set(
        "served_share",
        (attempted - failed) as f64 / attempted as f64,
    );
    r.set(
        "energy_mj_per_img",
        mean_energy_mj(&energy_ladder(), &exits),
    );
    r.set("peak_rss_mb", peak_rss_mb()?);
    Ok(r)
}

/// The traced run: both phases untraced, then both again with spans
/// around every submission, then the layer probes on the tiny shapes.
pub fn trace(seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Report, String> {
    let Setup { ladder, server } = build(seed);
    let sizes = phase_sizes(ladder.images.len(), seconds);
    let host_start = host::ref_batch_ms();
    let gaps = poisson_gaps(
        sizes.0 / ROUNDS,
        &mut Rng::new(derive_seed(seed, ARRIVALS_SALT)),
    );
    let (plain_a, plain_b) = run_phases(&server, &ladder.images, sizes, &gaps, None, || ());
    let (a, b) = tracer.span("serve.phases", |t| {
        run_phases(&server, &ladder.images, sizes, &gaps, Some(t), || ())
    });
    let host_end = host::ref_batch_ms();
    host::log("serve-tiny", host_start, host_end);
    let health = server.shutdown();
    log_phases(&a, &b);

    let expected = offline_outcomes(&ladder);
    let (attempted, failed, correct) = check(&a, &b, &health, &expected);
    let (plain_attempted, plain_failed, plain_correct) =
        check(&plain_a, &plain_b, &health, &expected);
    let (offline_failed, gate_ok) = check_offline(&ladder, seed, &expected);
    let mut r = Report {
        correct: correct && plain_correct && gate_ok && offline_failed == 0,
        attempted: attempted + plain_attempted,
        failed: failed + plain_failed + offline_failed,
        ..Report::default()
    };
    r.set(
        "trace.overhead_pct",
        (fast_throughput(&plain_b, 0..ROUNDS) / fast_throughput(&b, 0..ROUNDS) - 1.0) * 100.0,
    );
    r.set("host.ref_batch_ms", median(&[host_start, host_end]));

    // Phase A's coalesced batch width; phase B always fills MAX_BATCH.
    r.set("serve.batch_size", a.resolved as f64 / a.batches as f64);
    let mut engine_ms: Vec<f64> = a
        .records
        .iter()
        .filter_map(|r| Some(r.response.as_ref()?.latency.as_secs_f64() * 1e3))
        .collect();
    engine_ms.sort_by(f64::total_cmp);
    r.set("serve.engine_p50_ms", percentile(&engine_ms, 50.0).value);
    let mut submit_us = a.submit_us.clone();
    submit_us.extend(&b.submit_us);
    r.set("serve.submit.us", median(&submit_us));
    r.set("serve.gen_lateness_p99_ms", lateness_p99_ms(&a));
    r.set("serve.shed", health.shed as f64);
    r.set("serve.timed_out", health.timed_out as f64);
    r.set("serve.degraded", health.degraded as f64);
    r.set("serve.failed", health.failed as f64);
    r.set("serve.downshifts", health.downshifts as f64);

    let exits = exit_levels(&[&a, &b]);
    let low = exits.iter().filter(|&&l| l == 0).count();
    r.set("core.f_low", low as f64 / exits.len().max(1) as f64);
    layers::probe_all(seed, &ladder, tracer, &mut r);
    let escalated_b = exit_levels(&[&b]).iter().filter(|&&l| l == 1).count() as f64;
    r.set(
        "core.wasted_share",
        r.values["vit.level0.ms_per_img"] * escalated_b / (b.seconds * 1e3),
    );
    Ok(r)
}
