//! The serving workloads: seeded request streams, the open and closed
//! loops that drive `Scheduler::step`, and the wall-clock record each
//! loop leaves behind.
//!
//! Everything here calls the engine through its public API only. Times
//! are taken around `Scheduler::step`; per-request latencies are derived
//! afterwards from the scheduler's step-indexed request records and the
//! wall-clock end time of every step.

use crate::faults::{FaultSpec, Injector};
use crate::trace::Tracer;
use fa_attention::batch::{DecodeBatch, EvictionPolicy, KvFormat, KvLayout};
use fa_attention::serve::{
    LoadGen, LoadSpec, Phase, Request, RequestRecord, Scheduler, ServeConfig, StepReport,
};
use fa_attention::{AttentionConfig, HeadTopology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Engine shape: head topology, cache policy, and prefill chunking.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub query_heads: usize,
    pub kv_heads: usize,
    pub head_dim: usize,
    pub block_rows: usize,
    pub format: KvFormat,
    pub prefill_chunk: usize,
}

impl Shape {
    /// A fresh engine of this shape.
    pub fn engine(&self) -> DecodeBatch<f64> {
        let topo = HeadTopology::gqa(
            self.query_heads,
            self.kv_heads,
            AttentionConfig::new(self.head_dim),
        );
        let mut e = DecodeBatch::with_policy(
            topo,
            self.block_rows,
            KvLayout::HeadMajor,
            self.format,
            EvictionPolicy::RetainAll,
        );
        e.set_prefill_chunk(self.prefill_chunk);
        e
    }
}

/// How requests reach the scheduler.
#[derive(Clone, Copy, Debug)]
pub enum Arrivals {
    /// Independent users: Poisson arrivals at a fixed rate over the run's
    /// window, each timed from when it was due.
    Open { rate_per_s: f64 },
    /// `clients` callers that each send their next request on the step
    /// after the previous one finished, `requests_per_s × seconds`
    /// requests in all. Client `c` sends its first request at step
    /// `c × stagger_steps`, so the run starts near steady state instead
    /// of with every prompt queued at once. The schedule is step-indexed,
    /// so it repeats exactly; each request is timed from its submission.
    Closed {
        clients: usize,
        requests_per_s: f64,
        stagger_steps: u64,
    },
}

/// One serving workload.
#[derive(Clone, Copy, Debug)]
pub struct ServingWorkload {
    pub name: &'static str,
    pub shape: Shape,
    pub serve: ServeConfig,
    /// Request shapes; the burst fields are ignored (one request per draw).
    pub load: LoadSpec,
    pub arrivals: Arrivals,
    pub faults: Option<FaultSpec>,
    /// Time-to-first-token limit of the SLO, in ms.
    pub slo_ttft_ms: f64,
    /// Inter-token gap limit of the SLO, in ms.
    pub slo_gap_ms: f64,
}

/// Splitmix finalizer: derives independent streams from the run seed.
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The first `count` requests of the workload's seeded stream. `LoadGen`
/// (one request per draw) supplies each request's tenant, priority,
/// stream seed and shared-prefix choice. Prompt and output lengths are
/// bounded-Pareto with the spec's ranges and tail indices, drawn by
/// stratified sampling: the `count` uniforms behind each length fall one
/// per stratum of `[0, 1)`, in seeded order. Every request's length is
/// still bounded-Pareto, but the lengths of a run as a whole hardly vary
/// from seed to seed, so neither does the work a run offers.
pub fn request_stream(load: &LoadSpec, seed: u64, count: usize) -> Vec<Request> {
    let spec = LoadSpec {
        burst_prob: 1.0,
        burst_max: 1,
        ..*load
    };
    let mut gen = LoadGen::new(spec, mix(seed, 1));
    let prompts = stratified_pareto(
        load.prompt_min,
        load.prompt_max,
        load.prompt_tail,
        count,
        mix(seed, 4),
    );
    let outputs = stratified_pareto(
        load.output_min,
        load.output_max,
        load.output_tail,
        count,
        mix(seed, 5),
    );
    prompts
        .into_iter()
        .zip(outputs)
        .map(|(prompt_tokens, output_tokens)| Request {
            prompt_tokens,
            output_tokens,
            ..gen.step().pop().expect("a certain burst of one")
        })
        .collect()
}

/// `count` bounded-Pareto lengths in `lo..=hi` with tail index `alpha`,
/// one per stratum of the underlying uniform, in seeded order.
fn stratified_pareto(lo: usize, hi: usize, alpha: f64, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut strata: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        strata.swap(i, rng.gen_range(0..=i));
    }
    strata
        .into_iter()
        .map(|k| {
            // u in (0, 1]: the Pareto inverse CDF needs u > 0.
            let u = 1.0 - (k as f64 + rng.gen_range(0.0f64..1.0)) / count as f64;
            let x = lo as f64 / u.max(f64::MIN_POSITIVE).powf(1.0 / alpha);
            (x as usize).clamp(lo, hi)
        })
        .collect()
}

/// Due times (seconds from the start of the run) of a Poisson process
/// of rate `rate_per_s` over `[0, window_s)`, conditioned on its mean
/// count: that many independent uniform times, sorted. Fixing the count
/// keeps the offered load equal across seeds.
pub fn due_times(rate_per_s: f64, seed: u64, window_s: f64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let n = (rate_per_s * window_s).round() as usize;
    let mut due: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..window_s)).collect();
    due.sort_by(f64::total_cmp);
    due
}

/// The run's inputs: every request, and for the open loop its due time.
#[derive(Clone)]
pub struct Plan {
    pub requests: Vec<Request>,
    pub due_s: Option<Vec<f64>>,
}

impl ServingWorkload {
    /// The run's request list and schedule: a pure function of the seed
    /// and the run length.
    pub fn plan(&self, seed: u64, seconds: f64) -> Plan {
        match self.arrivals {
            Arrivals::Open { rate_per_s } => {
                let due = due_times(rate_per_s, seed, seconds);
                Plan {
                    requests: request_stream(&self.load, seed, due.len()),
                    due_s: Some(due),
                }
            }
            Arrivals::Closed {
                clients,
                requests_per_s,
                ..
            } => {
                let n = ((requests_per_s * seconds).round() as usize).max(clients);
                Plan {
                    requests: request_stream(&self.load, seed, n),
                    due_s: None,
                }
            }
        }
    }

    /// A fresh scheduler over a fresh engine.
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::new(self.shape.engine(), self.serve)
    }
}

/// What one served run leaves behind. Times are seconds from the start
/// of the run.
pub struct Episode {
    pub requests: Vec<Request>,
    /// Per request: when it was due (open loop) or submitted (closed).
    pub start_s: Vec<f64>,
    /// Per request: when it was handed to `Scheduler::step`.
    pub submit_s: Vec<f64>,
    /// Per scheduler step: wall-clock start and end.
    pub step_start_s: Vec<f64>,
    pub step_end_s: Vec<f64>,
    pub reports: Vec<StepReport>,
    /// The scheduler's records (record index = submission order).
    pub records: Vec<RequestRecord>,
    /// Record index → request index.
    pub rec_req: Vec<usize>,
    /// Summed duration of all `Scheduler::step` calls.
    pub busy_s: f64,
    /// From the first step's start to the last step's end.
    pub wall_s: f64,
    pub injector: Option<Injector>,
}

impl Episode {
    fn new(requests: Vec<Request>) -> Episode {
        let n = requests.len();
        Episode {
            requests,
            start_s: vec![0.0; n],
            submit_s: vec![0.0; n],
            step_start_s: Vec::new(),
            step_end_s: Vec::new(),
            reports: Vec::new(),
            records: Vec::new(),
            rec_req: Vec::new(),
            busy_s: 0.0,
            wall_s: 0.0,
            injector: None,
        }
    }

    /// Runs one `Scheduler::step` and logs its wall-clock span.
    fn step(
        &mut self,
        sched: &mut Scheduler,
        arrivals: &[Request],
        t0: Instant,
        tracer: &mut Option<Tracer>,
    ) {
        if let Some(t) = tracer.as_mut() {
            t.before_step(sched, t0);
        }
        let s0 = t0.elapsed().as_secs_f64();
        let rep = sched.step(arrivals);
        let s1 = t0.elapsed().as_secs_f64();
        if let Some(t) = tracer.as_mut() {
            t.after_step(sched, &rep, s0, s1);
        }
        self.step_start_s.push(s0);
        self.step_end_s.push(s1);
        self.busy_s += s1 - s0;
        self.reports.push(rep);
    }
}

/// Steps after which a closed loop is declared wedged.
const MAX_STEPS: usize = 1 << 20;

fn settled(phase: Phase) -> bool {
    matches!(phase, Phase::Finished | Phase::Shed)
}

/// Serves `plan` through `sched`, open or closed loop as the plan says.
/// With a tracer, every step is also recorded as a span and sampled
/// steps get shadow spans on a clone of the engine.
pub fn serve(
    w: &ServingWorkload,
    plan: Plan,
    seed: u64,
    sched: &mut Scheduler,
    mut tracer: Option<Tracer>,
) -> (Episode, Option<Tracer>) {
    let mut ep = Episode::new(plan.requests);
    let mut injector = w.faults.map(|f| Injector::new(f, seed));
    let t0 = Instant::now();
    match plan.due_s {
        Some(due) => open_loop(&mut ep, &due, sched, t0, &mut tracer),
        None => {
            let Arrivals::Closed {
                clients,
                stagger_steps,
                ..
            } = w.arrivals
            else {
                unreachable!("a plan without due times is closed-loop");
            };
            closed_loop(
                &mut ep,
                clients,
                stagger_steps,
                sched,
                t0,
                &mut tracer,
                &mut injector,
            );
        }
    }
    ep.records = sched.records().to_vec();
    ep.wall_s = match (ep.step_start_s.first(), ep.step_end_s.last()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    ep.injector = injector;
    (ep, tracer)
}

/// Spins until `target_s` after `t0`. Spinning instead of sleeping
/// keeps the core out of idle states, whose exit latency would land on
/// the next request.
fn wait_until(t0: Instant, target_s: f64) {
    while t0.elapsed().as_secs_f64() < target_s {
        std::hint::spin_loop();
    }
}

fn open_loop(
    ep: &mut Episode,
    due: &[f64],
    sched: &mut Scheduler,
    t0: Instant,
    tracer: &mut Option<Tracer>,
) {
    let mut next = 0;
    let mut settled_count = 0;
    loop {
        let now = t0.elapsed().as_secs_f64();
        let mut arrivals = Vec::new();
        while next < due.len() && due[next] <= now {
            ep.start_s[next] = due[next];
            ep.submit_s[next] = now;
            ep.rec_req.push(next);
            arrivals.push(ep.requests[next].clone());
            next += 1;
        }
        if arrivals.is_empty() && settled_count == next {
            if next == due.len() {
                return;
            }
            wait_until(t0, due[next]);
            continue;
        }
        ep.step(sched, &arrivals, t0, tracer);
        let rep = ep.reports.last().expect("a step just ran");
        settled_count += rep.finished + rep.shed;
    }
}

fn closed_loop(
    ep: &mut Episode,
    clients: usize,
    stagger_steps: u64,
    sched: &mut Scheduler,
    t0: Instant,
    tracer: &mut Option<Tracer>,
    injector: &mut Option<Injector>,
) {
    let total = ep.requests.len();
    // Record index of each client's outstanding request.
    let mut outstanding: Vec<Option<usize>> = vec![None; clients];
    let mut next = 0;
    loop {
        let now = t0.elapsed().as_secs_f64();
        let step = sched.now();
        let mut arrivals = Vec::new();
        for (c, slot) in outstanding.iter_mut().enumerate() {
            let free = slot.is_none_or(|rec| settled(sched.records()[rec].phase));
            if !free || step < c as u64 * stagger_steps {
                continue;
            }
            *slot = None;
            if next < total {
                *slot = Some(ep.rec_req.len());
                ep.start_s[next] = now;
                ep.submit_s[next] = now;
                ep.rec_req.push(next);
                arrivals.push(ep.requests[next].clone());
                next += 1;
            }
        }
        if arrivals.is_empty() && outstanding.iter().all(Option::is_none) && next == total {
            return;
        }
        assert!(
            (sched.now() as usize) < MAX_STEPS,
            "the closed loop made no progress in {MAX_STEPS} steps"
        );
        if let Some(inj) = injector.as_mut() {
            inj.before_step(sched);
        }
        ep.step(sched, &arrivals, t0, tracer);
        if let Some(inj) = injector.as_mut() {
            inj.after_step(sched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{CHAT_OPEN, LONG_CONTEXT};

    fn fingerprint(p: &Plan) -> String {
        format!("{:?} {:?}", p.requests, p.due_s)
    }

    #[test]
    fn requests_and_due_times_are_a_pure_function_of_the_seed() {
        for w in [CHAT_OPEN, LONG_CONTEXT] {
            let a = w.plan(7, 2.0);
            assert!(!a.requests.is_empty());
            assert_eq!(fingerprint(&a), fingerprint(&w.plan(7, 2.0)), "{}", w.name);
            assert_ne!(fingerprint(&a), fingerprint(&w.plan(8, 2.0)), "{}", w.name);
        }
    }

    #[test]
    fn open_loop_due_times_are_sorted_inside_the_window_at_the_mean_count() {
        let due = due_times(45.0, 3, 2.0);
        assert_eq!(due.len(), 90);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| (0.0..2.0).contains(&t)));
    }

    #[test]
    fn request_lengths_stay_in_the_workload_ranges() {
        let l = LONG_CONTEXT.load;
        for r in request_stream(&l, 11, 200) {
            assert!((l.prompt_min..=l.prompt_max).contains(&r.prompt_tokens));
            assert!((l.output_min..=l.output_max).contains(&r.output_tokens));
        }
    }
}
