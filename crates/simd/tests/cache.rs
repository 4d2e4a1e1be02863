//! Daemon-side result cache: a request whose digest is already stored
//! is answered at admission — no worker dispatch, no engine work — and
//! the pool's conservation laws still hold with the new
//! `served_from_cache` outcome in play.
//!
//! The pool is started in a `RunCtx` whose cache points at a private
//! store, so the cache is on for this pool only.

use emu_core::ctx::RunCtx;
use simd::pool::{Pool, PoolConfig};
use simd::proto::{parse_request, report_slice, Request, RunRequest, Spec};
use std::sync::mpsc;
use std::time::Duration;

fn stream_req(id: u64) -> RunRequest {
    RunRequest {
        id,
        spec: Spec::Stream {
            preset: "chick".into(),
            elems: 512,
            threads: 16,
            kernel: "add".into(),
            strategy: "serial".into(),
            single_nodelet: true,
            stack_touch_period: 4,
        },
        deadline_ms: None,
        max_events: None,
        chaos: None,
    }
}

fn submit_and_wait(pool: &Pool, req: RunRequest) -> String {
    let (tx, rx) = mpsc::channel();
    pool.submit(req, tx).expect("admitted");
    rx.recv().expect("one response per accepted request")
}

#[test]
fn repeat_requests_are_served_from_cache_and_reconcile() {
    let dir = std::env::temp_dir().join(format!("emu-cache-simd-test-{}", std::process::id()));
    let ctx = RunCtx {
        cache: Some(dir.clone()),
        ..RunCtx::default()
    };

    let pool = ctx.scope(|| {
        Pool::start(PoolConfig {
            workers: 2,
            queue_cap: 8,
            ..PoolConfig::default()
        })
    });
    // Cold: executes on a worker and publishes the report.
    let first = submit_and_wait(&pool, stream_req(1));
    assert!(first.contains("\"ok\":true"), "{first}");
    assert!(!first.contains("\"cached\":true"), "{first}");
    // Repeats: answered at admission from the store, byte-identical
    // report, marked cached.
    for i in 0..3 {
        let r = submit_and_wait(&pool, stream_req(10 + i));
        assert!(r.contains("\"cached\":true"), "request {i}: {r}");
        assert_eq!(report_slice(&r).unwrap(), report_slice(&first).unwrap());
    }
    // A different config is a different digest: it must simulate.
    let mut other = stream_req(20);
    if let Spec::Stream { elems, .. } = &mut other.spec {
        *elems = 1024;
    }
    let o = submit_and_wait(&pool, other);
    assert!(o.contains("\"ok\":true"), "{o}");
    assert!(!o.contains("\"cached\":true"), "{o}");
    assert_ne!(report_slice(&o).unwrap(), report_slice(&first).unwrap());

    assert!(pool.drain(Duration::from_secs(10)));
    let s = pool.stats().snapshot();
    assert_eq!(s.completed_ok, 5);
    assert_eq!(s.served_from_cache, 3);
    assert_eq!(s.warm_hits + s.cold_builds, 2);
    assert!(
        pool.stats().reconcile().is_empty(),
        "{:?}",
        pool.stats().reconcile()
    );
    assert!(s.json().contains("\"served_from_cache\":3"), "{}", s.json());

    // Each stored entry's recipe is its request's own wire line (id 0,
    // no budgets), which `simctl cache verify` re-runs.
    let store = runcache::Store::at(&dir);
    let mut specs = Vec::new();
    for o in store.scan() {
        let recipe = store.load(&o.digest).unwrap().recipe.unwrap();
        let Ok(Request::Run(req)) = parse_request(&recipe) else {
            panic!("recipe is not a run request line: {recipe}");
        };
        assert_eq!((req.id, req.deadline_ms, req.max_events), (0, None, None));
        specs.push(req.spec);
    }
    assert_eq!(specs.len(), 2);
    assert!(specs.contains(&stream_req(0).spec), "{specs:?}");

    let _ = std::fs::remove_dir_all(&dir);
}
