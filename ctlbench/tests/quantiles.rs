//! The Harrell–Davis estimate behind every printed latency percentile
//! (`op_p95_ms` among them) lands on the quantile it names, and moves
//! smoothly where a lumpy tail makes the nearest-rank percentile jump.

use ctlbench::report::hd_quantile;

#[test]
fn estimates_the_named_quantile() {
    let v: Vec<f64> = (1..=1001).map(f64::from).collect();
    assert!((hd_quantile(&v, 0.5) - 501.0).abs() < 0.5);
    assert!((hd_quantile(&v, 0.99) - 991.0).abs() < 1.5);
    assert_eq!(hd_quantile(&[7.0], 0.99), 7.0);
    assert!(hd_quantile(&[], 0.5).is_nan());
}

#[test]
fn a_lumpy_tail_moves_it_smoothly() {
    // 1,000 fast ops plus `slow` slow ones: the nearest-rank p99 flips
    // from fast to slow as `slow` crosses 1% of the ops; the estimate
    // rises step by step instead.
    let p99 = |slow: usize| {
        let mut v = vec![10.0; 1000];
        v.extend(std::iter::repeat_n(40.0, slow));
        hd_quantile(&v, 0.99)
    };
    let mut last = p99(0);
    assert!((last - 10.0).abs() < 1e-9);
    for slow in 1..=20 {
        let now = p99(slow);
        assert!(
            now >= last && now - last < 10.0,
            "slow={slow}: {last} -> {now}"
        );
        last = now;
    }
    assert!(last > 35.0);
}
