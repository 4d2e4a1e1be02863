//! Randomized (seeded, deterministic) tests of the simulation kernel's
//! invariants. Each test sweeps a fixed set of seeds via
//! [`test_support::cases`] so failures are reproducible without any
//! external property-testing framework.

use desim::server::{FifoServer, Link, MultiServer};
use desim::stats::{LogHistogram, Summary};
use desim::time::Time;
use desim::EventQueue;
use test_support::{cases, Rng64};

const CASES: u64 = 64;

fn arrivals(rng: &mut Rng64, max_at: u64, max_dur: u64, max_len: usize) -> Vec<(u64, u64)> {
    let len = rng.gen_range(1..max_len);
    let mut v: Vec<(u64, u64)> = (0..len)
        .map(|_| (rng.gen_range(0..max_at), rng.gen_range(1..max_dur)))
        .collect();
    v.sort_unstable();
    v
}

/// FIFO server: with sorted arrivals, completions are nondecreasing,
/// service intervals never overlap, and busy time is conserved.
#[test]
fn fifo_server_conservation() {
    cases(CASES, 0xF1F0, |_case, rng| {
        let reqs = arrivals(rng, 10_000, 500, 200);
        let mut s = FifoServer::new();
        let mut last_done = Time::ZERO;
        let mut total_service = Time::ZERO;
        for &(at, dur) in &reqs {
            let g = s.offer(Time::from_ns(at), Time::from_ns(dur));
            // Service starts no earlier than arrival and no earlier than
            // the previous completion.
            assert!(g.start >= Time::from_ns(at));
            assert!(g.start >= last_done);
            assert_eq!(g.done, g.start + Time::from_ns(dur));
            last_done = g.done;
            total_service += Time::from_ns(dur);
        }
        assert_eq!(s.busy_time(), total_service);
        assert_eq!(s.served(), reqs.len() as u64);
    });
}

/// Multi-server: total busy is conserved and the k-server bound holds
/// (aggregate utilization at most 1.0).
#[test]
fn multiserver_conservation() {
    cases(CASES, 0x3A11, |_case, rng| {
        let k = rng.gen_range(1..8usize);
        let reqs = arrivals(rng, 5_000, 300, 100);
        let mut m = MultiServer::new(k);
        let mut total_service = Time::ZERO;
        let mut makespan = Time::ZERO;
        for &(at, dur) in &reqs {
            let g = m.offer(Time::from_ns(at), Time::from_ns(dur));
            assert!(g.start >= Time::from_ns(at));
            total_service += Time::from_ns(dur);
            makespan = makespan.max(g.done);
        }
        assert_eq!(m.busy_time(), total_service);
        let util = m.utilization(makespan);
        assert!(util <= 1.0 + 1e-9, "utilization {util}");
    });
}

/// Event queue pops in (time, insertion) order for arbitrary input.
#[test]
fn event_queue_total_order() {
    cases(CASES, 0x0EDE, |_case, rng| {
        let len = rng.gen_range(1..300usize);
        let mut q = EventQueue::new();
        for i in 0..len {
            q.schedule(Time::from_ns(rng.gen_range(0..1_000u64)), i);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    });
}

/// Merging summaries in any split equals the single-stream summary.
#[test]
fn summary_merge_split_invariant() {
    cases(CASES, 0x5123, |_case, rng| {
        let len = rng.gen_range(2..200usize);
        let xs: Vec<f64> = (0..len).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let cut = rng.gen_range(0..len + 1);
        let mut whole = Summary::new();
        xs.iter().for_each(|&x| whole.record(x));
        let mut a = Summary::new();
        let mut b = Summary::new();
        xs[..cut].iter().for_each(|&x| a.record(x));
        xs[cut..].iter().for_each(|&x| b.record(x));
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    });
}

/// Histogram quantiles are monotone in q and bracket min/max.
#[test]
fn histogram_quantiles_monotone() {
    cases(CASES, 0x4157, |_case, rng| {
        let len = rng.gen_range(1..200usize);
        let samples: Vec<u64> = (0..len).map(|_| rng.gen_range(1..1_000_000u64)).collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(Time::from_ps(s));
        }
        let q25 = h.quantile(0.25);
        let q50 = h.quantile(0.5);
        let q99 = h.quantile(0.99);
        assert!(q25 <= q50 && q50 <= q99);
        let max = *samples.iter().max().unwrap();
        // The top quantile's bucket upper bound is at least the max sample.
        assert!(h.quantile(1.0) >= Time::from_ps(max));
    });
}

/// Link: completion is monotone in arrival for equal sizes, and the
/// transfer time scales linearly with bytes.
#[test]
fn link_monotone_and_linear() {
    cases(CASES, 0x117C, |_case, rng| {
        let bw = rng.gen_range(1_000_000..100_000_000_000u64);
        let nsizes = rng.gen_range(1..50usize);
        let mut l = Link::new(bw, Time::from_ns(10));
        let mut last = Time::ZERO;
        let mut at = Time::ZERO;
        for _ in 0..nsizes {
            let s = rng.gen_range(1..100_000u64);
            let done = l.send(at, s);
            assert!(done >= last, "completion must be monotone");
            last = done;
            at += Time::from_ns(1);
        }
        // Linearity of occupancy within fixed-point resolution.
        let one = l.occupancy(1000).ps() as i128;
        let ten = l.occupancy(10_000).ps() as i128;
        assert!(
            (ten - 10 * one).abs() <= 10,
            "occupancy not linear: {one} vs {ten}"
        );
    });
}

/// Pop the next event from the queue and the oracle, requiring the
/// same event and clock; returns the new "now".
fn pop_both(
    q: &mut EventQueue<u64>,
    oracle: &mut Vec<(Time, u64, u64)>,
    keyed: bool,
    now: Time,
) -> Time {
    let want = oracle.pop();
    if keyed {
        assert_eq!(q.pop_keyed(), want, "keyed pop diverged");
    } else {
        assert_eq!(q.pop(), want.map(|(t, _, id)| (t, id)), "pop diverged");
    }
    let now = want.map_or(now, |(t, _, _)| t);
    assert_eq!(q.now(), now, "clock diverged");
    now
}

/// The event queue against a sorted-vector oracle. Each case fills a
/// queue towards a target population (1 to 5000 pending, log-spread),
/// interleaves schedules with pops around it, then drains. Deltas mix
/// zero (ties at "now"), picosecond-scale ties, near-future, and
/// far-future times; odd cases use caller keys that arrive out of
/// order, even cases the queue's insertion counter. Every pop, peek,
/// clock reading, and length must match the oracle exactly.
#[test]
fn event_queue_matches_sorted_oracle() {
    cases(CASES, 0x0AC1_E5EE, |case, rng| {
        let keyed = case % 2 == 1;
        let target = match case {
            0 => 1,
            1 => 5000,
            _ => {
                let span = 1usize << rng.gen_range(1..13u32);
                1 + rng.gen_range(0..span)
            }
        };
        let mut q = if case % 4 < 2 {
            EventQueue::with_capacity(target)
        } else {
            EventQueue::new()
        };
        // Pending `(time, key, id)`, sorted descending so the next pop
        // is at the back.
        let mut oracle: Vec<(Time, u64, u64)> = Vec::new();
        let mut now = Time::ZERO;
        let mut next_id = 0u64;
        for _ in 0..4 * target + 16 {
            let fill = if oracle.len() < target { 4 } else { 2 };
            if oracle.is_empty() || rng.gen_range(0..5u32) < fill {
                let delta = match rng.gen_range(0..16u32) {
                    0..=2 => 0,
                    3..=6 => rng.gen_range(0..20u64),
                    7..=14 => rng.gen_range(0..20_000u64),
                    _ => rng.gen_range(0..100_000_000_000u64),
                };
                let at = now + Time::from_ps(delta);
                let key = if keyed {
                    // Random high bits scramble arrival order; the id
                    // in the low bits keeps keys unique.
                    let key = (rng.gen_range(0..16u64) << 32) | next_id;
                    q.schedule_keyed(at, key, next_id);
                    key
                } else {
                    q.schedule(at, next_id);
                    next_id
                };
                let i = oracle.partition_point(|&(t, k, _)| (t, k) > (at, key));
                oracle.insert(i, (at, key, next_id));
                next_id += 1;
            } else {
                now = pop_both(&mut q, &mut oracle, keyed, now);
            }
            assert_eq!(q.len(), oracle.len(), "case {case}: length diverged");
            assert_eq!(
                q.peek_key(),
                oracle.last().map(|&(t, k, _)| (t, k)),
                "case {case}: peek diverged"
            );
        }
        while !oracle.is_empty() {
            now = pop_both(&mut q, &mut oracle, keyed, now);
        }
        assert!(q.is_empty() && q.pop().is_none());
    });
}
