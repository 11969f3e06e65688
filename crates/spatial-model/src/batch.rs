//! Batch-pattern classification for the bare (uninstrumented) fast path of
//! the machine's batch APIs.
//!
//! The bulk of the messages in a large run come from *regular* batches:
//! whole Z-blocks exchanging values at one common displacement (block
//! replication, in-block broadcast levels, quarter shifts) or at an affinely
//! strided one. For those, the aggregate energy is an arithmetic series and
//! the message count is exact arithmetic — no per-item Manhattan distance or
//! saturating add is needed. [`classify`] recognizes the two closed-form
//! shapes; anything else is [`BatchPattern::Irregular`] and pays the ordinary
//! per-item loop.
//!
//! *Saturation note.* A serial left fold of `saturating_add` over
//! non-negative terms equals `min(true_sum, u64::MAX)`: partial sums are
//! monotone, so the fold clamps exactly when the true sum exceeds `u64::MAX`
//! and is exact otherwise. The `u128` closed forms, clamped once when added
//! to the machine's counter, compute the same function — so the closed-form
//! and per-item charges agree bit-for-bit even at the saturation boundary.

use crate::coord::Coord;

/// The displacement structure of a batch of point-to-point messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BatchPattern {
    /// No items.
    Empty,
    /// Every message has the same `(drow, dcol)` displacement — e.g. a whole
    /// aligned Z-block shifting to a sibling block. Translation invariance
    /// of the Manhattan metric makes every per-message cost identical, so
    /// the batch is charged in O(1): `energy = count · (|drow| + |dcol|)`.
    Uniform {
        /// Common row displacement (`dst.row - src.row`).
        drow: i64,
        /// Common column displacement.
        dcol: i64,
    },
    /// Message `i` has displacement `(drow + i·srow, dcol + i·scol)` with
    /// `(srow, scol) ≠ (0, 0)` — e.g. a strided compaction. The energy sum
    /// is an arithmetic series split at the (at most one) sign change per
    /// axis, still O(1).
    Affine {
        /// Row displacement of item 0.
        drow: i64,
        /// Column displacement of item 0.
        dcol: i64,
        /// Per-item row stride.
        srow: i64,
        /// Per-item column stride.
        scol: i64,
    },
    /// Anything else: charged by the ordinary per-item loop.
    Irregular,
}

/// Classifies a batch of `(src, dst)` pairs in one pass of comparisons.
pub fn classify(mut pairs: impl Iterator<Item = (Coord, Coord)>) -> BatchPattern {
    let Some((s0, d0)) = pairs.next() else {
        return BatchPattern::Empty;
    };
    let base = (d0.row - s0.row, d0.col - s0.col);
    let Some((s1, d1)) = pairs.next() else {
        return BatchPattern::Uniform { drow: base.0, dcol: base.1 };
    };
    let second = (d1.row - s1.row, d1.col - s1.col);
    let stride = (second.0 - base.0, second.1 - base.1);
    let mut expect = second;
    for (s, d) in pairs {
        expect = (expect.0 + stride.0, expect.1 + stride.1);
        if (d.row - s.row, d.col - s.col) != expect {
            return BatchPattern::Irregular;
        }
    }
    if stride == (0, 0) {
        BatchPattern::Uniform { drow: base.0, dcol: base.1 }
    } else {
        BatchPattern::Affine { drow: base.0, dcol: base.1, srow: stride.0, scol: stride.1 }
    }
}

/// `Σ_{i=0}^{n-1} |a + i·s|`, exactly, as the arithmetic series split at the
/// single sign change of the monotone sequence. `u128` so no intermediate
/// overflows for any realistic grid.
pub(crate) fn sum_abs_affine(a: i64, s: i64, n: u64) -> u128 {
    if n == 0 {
        return 0;
    }
    if s == 0 {
        return u128::from(n) * u128::from(a.unsigned_abs());
    }
    let (a, s, n) = (i128::from(a), i128::from(s), i128::from(n));
    // Σ_{i=lo}^{hi} (a + i·s); `2a + (lo+hi)s` is even times cnt, but avoid
    // the parity question by summing 2× and halving once.
    let series = |lo: i128, hi: i128| -> i128 {
        let cnt = hi - lo + 1;
        cnt * (2 * a + (lo + hi) * s) / 2
    };
    // Number of leading indices on the negative side of the monotone ramp.
    let neg = if s > 0 {
        // a + i·s < 0  ⇔  i < ⌈-a / s⌉
        if a >= 0 {
            0
        } else {
            ((-a) + s - 1).div_euclid(s).clamp(0, n)
        }
    } else {
        // decreasing: a + i·s < 0  ⇔  i > a / (-s); count the tail.
        if a < 0 {
            n
        } else {
            (n - 1 - (a.div_euclid(-s)).min(n - 1)).clamp(0, n)
        }
    };
    let mut total: i128 = 0;
    if s > 0 {
        if neg > 0 {
            total -= series(0, neg - 1);
        }
        if neg < n {
            total += series(neg, n - 1);
        }
    } else {
        let pos = n - neg;
        if pos > 0 {
            total += series(0, pos - 1);
        }
        if neg > 0 {
            total -= series(pos, n - 1);
        }
    }
    debug_assert!(total >= 0);
    total as u128
}

/// How many indices `i ∈ [0, n)` of an affine batch have zero displacement
/// (`drow + i·srow == 0` and `dcol + i·scol == 0`). At most one unless the
/// pattern degenerates to uniform-zero (which [`classify`] reports as
/// `Uniform`), so this is O(1).
pub(crate) fn affine_zero_count(drow: i64, dcol: i64, srow: i64, scol: i64, n: u64) -> u64 {
    // Solutions of one axis equation `d + i·s == 0` over i ∈ [0, n).
    let axis = |d: i64, s: i64| -> AxisZeros {
        if s == 0 {
            if d == 0 {
                AxisZeros::All
            } else {
                AxisZeros::None
            }
        } else if d % s == 0 {
            let i = -(d / s);
            if i >= 0 && (i as u64) < n {
                AxisZeros::One(i as u64)
            } else {
                AxisZeros::None
            }
        } else {
            AxisZeros::None
        }
    };
    match (axis(drow, srow), axis(dcol, scol)) {
        (AxisZeros::None, _) | (_, AxisZeros::None) => 0,
        (AxisZeros::One(i), AxisZeros::One(j)) => u64::from(i == j),
        (AxisZeros::One(_), AxisZeros::All) | (AxisZeros::All, AxisZeros::One(_)) => 1,
        // Both axes identically zero would be `Uniform { 0, 0 }`, never an
        // `Affine` classification; unreachable but harmless.
        (AxisZeros::All, AxisZeros::All) => n,
    }
}

enum AxisZeros {
    None,
    One(u64),
    All,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(disp: &[(i64, i64)]) -> Vec<(Coord, Coord)> {
        disp.iter()
            .enumerate()
            .map(|(i, &(dr, dc))| {
                let s = Coord::new(i as i64, 2 * i as i64);
                (s, Coord::new(s.row + dr, s.col + dc))
            })
            .collect()
    }

    #[test]
    fn classify_recognizes_each_shape() {
        assert_eq!(classify(pairs(&[]).into_iter()), BatchPattern::Empty);
        assert_eq!(
            classify(pairs(&[(3, -1)]).into_iter()),
            BatchPattern::Uniform { drow: 3, dcol: -1 }
        );
        assert_eq!(
            classify(pairs(&[(3, -1), (3, -1), (3, -1)]).into_iter()),
            BatchPattern::Uniform { drow: 3, dcol: -1 }
        );
        assert_eq!(
            classify(pairs(&[(1, 0), (3, -2), (5, -4)]).into_iter()),
            BatchPattern::Affine { drow: 1, dcol: 0, srow: 2, scol: -2 }
        );
        assert_eq!(classify(pairs(&[(1, 0), (3, 0), (4, 0)]).into_iter()), BatchPattern::Irregular);
    }

    #[test]
    fn sum_abs_affine_matches_naive() {
        for &(a, s) in &[(0i64, 0i64), (5, 0), (-5, 0), (-7, 2), (7, -2), (3, 3), (-3, -3), (1, -1)]
        {
            for n in 0u64..20 {
                let naive: u128 =
                    (0..n).map(|i| u128::from((a + i as i64 * s).unsigned_abs())).sum();
                assert_eq!(sum_abs_affine(a, s, n), naive, "a={a} s={s} n={n}");
            }
        }
    }

    #[test]
    fn affine_zero_count_matches_naive() {
        for &(dr, dc, sr, sc) in
            &[(0i64, 0i64, 1i64, 0i64), (-4, -6, 2, 3), (-4, -6, 2, 2), (-4, 0, 2, 0), (1, 1, 2, 2)]
        {
            for n in 0u64..8 {
                let naive = (0..n)
                    .filter(|&i| dr + i as i64 * sr == 0 && dc + i as i64 * sc == 0)
                    .count() as u64;
                assert_eq!(affine_zero_count(dr, dc, sr, sc, n), naive, "{dr},{dc},{sr},{sc},{n}");
            }
        }
    }

    #[test]
    fn profiled_totals_agree_across_bare_and_instrumented_paths() {
        // The profile is charged from the final counters, and the raw
        // counters are bit-identical across the bare closed-form path and
        // the instrumented per-item replay — so every profiled total must
        // agree too. This pins that chain end to end on the machine's batch
        // APIs.
        use crate::machine::Machine;

        let n = (1 << 17) + 1031;
        let run = |m: &mut Machine| {
            let items =
                m.place_batch((0..n as u64).collect(), |i| Coord::new(i as i64 % 509, 0));
            // Uniform phase: O(1) closed form on the bare path.
            let moved = m.send_batch(
                items
                    .into_iter()
                    .map(|t| {
                        let dst = Coord::new(t.loc().row + 1, t.loc().col + 2);
                        (t, dst)
                    })
                    .collect(),
            );
            // Irregular phase: per-item charging.
            let _ = m.send_batch(
                moved
                    .into_iter()
                    .enumerate()
                    .map(|(i, t)| (t, Coord::new((i % 37) as i64, (i % 11) as i64)))
                    .collect::<Vec<_>>(),
            );
        };
        for profile in crate::profile::builtin_profiles() {
            let mut m = Machine::with_profile(*profile);
            assert!(m.is_bare(), "a profile is accounting, not an instrument");
            run(&mut m);
            let reference = m.profiled_report().expect("built-ins cannot saturate here");
            // Instrumented replay: the trace forces the materializing
            // per-item path; counters — hence profiled totals — must match.
            let mut m = Machine::with_profile(*profile);
            m.enable_trace(4);
            assert!(!m.is_bare());
            run(&mut m);
            assert_eq!(
                m.profiled_report().unwrap(),
                reference,
                "instrumented replay under {}",
                profile.name()
            );
        }
    }

    #[test]
    fn u128_intermediates_charge_a_two_to_twenty_message_run_exactly() {
        // A closed-form 2^20-message run under weights big enough that every
        // pJ component overflows u64: the u128 intermediates must carry the
        // exact products (no clamp, no wrap, no error for representable
        // results).
        use crate::machine::Machine;
        use crate::profile::{CostProfile, ProfileWeights};

        #[derive(Debug)]
        struct HugeWeights;
        impl CostProfile for HugeWeights {
            fn name(&self) -> &'static str {
                "huge-weights"
            }
            fn weights(&self) -> ProfileWeights {
                ProfileWeights {
                    pj_per_hop: 1 << 60,
                    pj_per_op: 1 << 60,
                    pj_per_word_hop: 1 << 60,
                    cycles_per_hop: 1 << 20,
                    cycles_per_op: 1 << 20,
                }
            }
        }
        static HUGE: HugeWeights = HugeWeights;

        let n = 1u64 << 20;
        let mut m = Machine::with_profile(&HUGE);
        let items = m.place_batch((0..n).collect(), |i| Coord::new(i as i64, 0));
        let _ = m.send_batch(
            items
                .into_iter()
                .map(|t| {
                    let dst = Coord::new(t.loc().row + 3, t.loc().col + 4);
                    (t, dst)
                })
                .collect(),
        );
        let c = m.report();
        assert_eq!(c.messages, n, "one message per item");
        assert_eq!(c.energy, 7 * n, "uniform displacement of 7 hops");
        let p = m.profiled_report().expect("representable in u128");
        let w = 1u128 << 60;
        assert_eq!(p.hop_pj, w * u128::from(c.energy));
        assert_eq!(p.op_pj, w * u128::from(c.messages));
        assert_eq!(p.occupancy_pj, w * (u128::from(c.energy) + u128::from(c.messages)));
        assert!(p.total_pj > u128::from(u64::MAX), "the point of the u128 intermediates");
        assert_eq!(p.delay_cycles, (u128::from(c.distance) + u128::from(c.depth)) << 20);
        assert_eq!(p.edp, p.total_pj * p.delay_cycles);
    }
}
