//! The fleet's answer-summary cache: keys, eviction and the counters it
//! exports to `obs`.

use std::sync::Arc;

use twpp::net::{Answer, AnswerData, Frame};
use twpp::obs::{Obs, SampleValue};
use twpp_server::fleet::Fleet;

fn answer(text: &str) -> Arc<Answer> {
    Arc::new(Answer {
        complete: true,
        stop_code: 0,
        coverage_bits: 1f64.to_bits(),
        text: text.to_owned(),
        data: AnswerData::Query {
            call_count: 1,
            dicts: 1,
            total_traces: 1,
            rendered: 1,
        },
    })
}

fn stat(archive: &str) -> Frame {
    Frame::Stat {
        archive: archive.to_owned(),
    }
}

fn counter(obs: &Obs, name: &str) -> u64 {
    match obs.snapshot().get(name).map(|s| &s.value) {
        Some(SampleValue::Counter(n)) => *n,
        other => panic!("{name}: expected a counter, got {other:?}"),
    }
}

#[test]
fn evictions_reach_obs() {
    let obs = Obs::collecting();
    // Each entry weighs about 120 bytes: three fit, the rest evict.
    let fleet = Fleet::new(std::path::Path::new("unused"), 1 << 20, 400, obs.clone());
    for i in 0..10 {
        let key = Fleet::summary_key(7, &stat(&format!("a{i}")));
        assert!(fleet.summary_lookup(&key).is_none());
        fleet.summary_insert(&key, answer(&"x".repeat(40)));
    }
    let stats = fleet.summary_stats();
    assert!(stats.resident_bytes <= 400);
    assert!(stats.evictions > 0, "ten entries overflow a 400-byte cap");
    assert_eq!(
        counter(&obs, "twpp_serve_summary_cache_evicted_bytes_total"),
        stats.evicted_bytes
    );
    assert_eq!(counter(&obs, "twpp_serve_summary_cache_misses_total"), 10);
    let last = Fleet::summary_key(7, &stat("a9"));
    assert!(fleet.summary_lookup(&last).is_some());
    assert_eq!(counter(&obs, "twpp_serve_summary_cache_hits_total"), 1);
}

#[test]
fn split_and_joined_keys_agree() {
    let fleet = Fleet::new(
        std::path::Path::new("unused"),
        1 << 20,
        1 << 20,
        Obs::noop(),
    );
    let request = stat("fleet");
    let put = fleet.summary_put(3, request.encode(), answer("three"));
    let hit = fleet
        .summary_lookup(&Fleet::summary_key(3, &request))
        .expect("the joined key finds the split insert");
    assert!(Arc::ptr_eq(&put, &hit));
    assert!(
        fleet.summary_get(4, &request.encode()).is_none(),
        "uids never alias"
    );
    let again = fleet
        .summary_get(3, &request.encode())
        .expect("split lookup hits");
    assert!(Arc::ptr_eq(&put, &again));
}
