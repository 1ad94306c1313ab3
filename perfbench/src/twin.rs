//! The golden twin: the same request list served through the plain path
//! (one thread, no speculation, no shared-block scoring, no flips), and
//! the per-(request, token) comparison of delivered token hashes.
//!
//! The engine's token streams are a pure function of each request's
//! seed and cache history, never of batch composition or timing, so the
//! twin may batch the requests however it likes and still must deliver
//! bit-identical tokens.

use crate::serving::ServingWorkload;
use fa_attention::serve::{Phase, Request, ServeConfig};

/// Concurrent requests the twin keeps in flight.
const TWIN_CLIENTS: usize = 48;
/// Steps after which the twin gives up on unfinished requests.
const MAX_STEPS: usize = 1 << 20;

/// Token hashes the twin delivers, per request index (empty if the twin
/// did not finish a request, which fails every comparison against it).
pub fn golden_hashes(w: &ServingWorkload, requests: &[Request]) -> Vec<Vec<u64>> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-thread pool");
    pool.install(|| {
        let serve = ServeConfig {
            speculation_gamma: 0,
            scrub_slo_steps: None,
            recovery_log: false,
            token_budget: w.serve.token_budget.max(TWIN_CLIENTS),
            queue_bound: requests.len().max(1),
            ..w.serve
        };
        let mut engine = w.shape.engine();
        engine.set_shared_scoring(false);
        let mut sched = fa_attention::serve::Scheduler::new(engine, serve);
        let mut next = 0;
        for _ in 0..MAX_STEPS {
            let in_flight = sched
                .records()
                .iter()
                .filter(|r| !matches!(r.phase, Phase::Finished | Phase::Shed))
                .count();
            let take = TWIN_CLIENTS
                .saturating_sub(in_flight)
                .min(requests.len() - next);
            if take == 0 && in_flight == 0 {
                break;
            }
            sched.step(&requests[next..next + take]);
            next += take;
        }
        sched
            .records()
            .iter()
            .map(|r| match r.phase {
                Phase::Finished => r.token_hashes.clone(),
                _ => Vec::new(),
            })
            .collect()
    })
}

/// The outcome of comparing one run against its twin.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Verdict {
    pub sent: usize,
    /// Finished with every token equal to the twin, or differing only
    /// where an injected flip explains it.
    pub succeeded: usize,
    /// Shed, unfinished, or delivered a token the twin does not explain.
    pub failed: usize,
    /// Requests whose tokens differ with no injected flip to explain it.
    pub unexplained: usize,
    /// Delivered tokens that differ from the twin in flip-exposed requests.
    pub silent_tokens: usize,
    pub tokens_compared: usize,
}

/// Per-request live outcome, in request order.
pub struct Delivered<'a> {
    pub finished: bool,
    pub hashes: &'a [u64],
    pub exposed: bool,
}

/// Compares delivered token hashes with the twin's, request by request.
pub fn compare(live: &[Delivered<'_>], golden: &[Vec<u64>]) -> Verdict {
    assert_eq!(live.len(), golden.len(), "one golden stream per request");
    let mut v = Verdict {
        sent: live.len(),
        ..Verdict::default()
    };
    for (d, g) in live.iter().zip(golden) {
        let differing = d.hashes.iter().zip(g).filter(|(a, b)| a != b).count()
            + d.hashes.len().abs_diff(g.len());
        v.tokens_compared += d.hashes.len();
        let explained = differing == 0 || d.exposed;
        if d.exposed {
            v.silent_tokens += differing;
        } else if differing > 0 {
            v.unexplained += 1;
        }
        if d.finished && explained && d.hashes.len() == g.len() {
            v.succeeded += 1;
        } else {
            v.failed += 1;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delivered(hashes: &[u64], exposed: bool) -> Delivered<'_> {
        Delivered {
            finished: true,
            hashes,
            exposed,
        }
    }

    #[test]
    fn an_altered_token_hash_is_a_failure() {
        let golden = vec![vec![1, 2, 3], vec![4, 5]];
        let clean = [delivered(&golden[0], false), delivered(&golden[1], false)];
        let ok = compare(&clean, &golden);
        assert_eq!((ok.succeeded, ok.failed, ok.unexplained), (2, 0, 0));

        let live = [delivered(&golden[0], false), delivered(&[4, 5 ^ 1], false)];
        let v = compare(&live, &golden);
        assert_eq!((v.succeeded, v.failed, v.unexplained), (1, 1, 1));
        assert_eq!(v.silent_tokens, 0);
    }

    #[test]
    fn a_flip_explains_its_request_only() {
        let golden = vec![vec![1, 2, 3], vec![4, 5]];
        let live = [delivered(&[1, 9, 3], true), delivered(&[4, 5], false)];
        let v = compare(&live, &golden);
        assert_eq!((v.succeeded, v.failed, v.silent_tokens), (2, 0, 1));
    }

    #[test]
    fn unfinished_and_truncated_requests_fail() {
        let golden = vec![vec![1, 2, 3], vec![4, 5]];
        let mut live = [delivered(&[1, 2, 3], false), delivered(&[4], false)];
        live[0].finished = false;
        let v = compare(&live, &golden);
        assert_eq!((v.succeeded, v.failed), (0, 2));
    }
}
