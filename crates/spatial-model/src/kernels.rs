//! Closed-form cost kernels for the regular collective DAGs of the §V
//! primitives.
//!
//! The All-Pairs Sort (paper §V-C(a)) explodes `m` elements onto an
//! `bm × bm` scratch square and runs three perfectly regular quadtree
//! collectives over it: replicate the staged array into every hosting block,
//! broadcast each block's corner element over its block, and sum-reduce the
//! comparison indicators back onto the corners. Every message in those three
//! phases crosses a displacement determined solely by a base-4 digit of its
//! block index or cell offset — never by the data — so the aggregate energy,
//! the message count, and every output's critical [`Path`] satisfy closed
//! forms over digit decompositions. [`Machine::allpairs_square_finish`]
//! charges exactly what the open-coded level-order phases in
//! `sorting::allpairs` charge, in `O(bm·log bm)` work instead of `O(m·bm)`
//! materialized deliveries.
//!
//! Why the closed forms are exact (and not just asymptotic):
//!
//! * **Energy / messages.** Aligned Z-blocks keep corresponding cells at one
//!   common displacement per quadtree edge (`decode` is additive across
//!   disjoint bit ranges), so each phase is a sequence of uniform batches.
//!   Their true sums are charged through the same saturating accumulator the
//!   batch API uses; saturating addition of non-negative terms is
//!   grouping-independent (see the saturation note in [`crate::batch`]), so
//!   the final counter is bit-identical to the per-item loop's.
//! * **Paths.** `Path::step` adds constants and `Path::join` is an
//!   element-wise max, so the fold over the reduce tree equals a per-leaf
//!   maximum of `leaf path + route constants`, which separates into terms
//!   depending only on the staged paths, the corner paths, and digit
//!   statistics of the block index.
//! * **Watermarks.** Every intermediate delivery's path is component-wise
//!   dominated by its block's final reduced path, so max-merging only the
//!   final paths leaves the machine's depth/distance watermarks identical.

use crate::machine::Machine;
use crate::path::Path;
use crate::value::Tracked;
use crate::zorder;

/// Manhattan distance from the origin to `decode(z)`.
#[inline]
fn dist1(z: u64) -> u64 {
    let (r, c) = zorder::decode(z);
    r + c
}

/// Digit statistics of a Z offset: `nz` = number of nonzero base-4 digits
/// (messages on the quadtree route from 0 to `o`), `route` = total Manhattan
/// distance of that route, `edge` = distance of the final edge (the least
/// significant nonzero digit), 0 for `o == 0`.
#[inline]
fn digit_stats(o: u64) -> (u64, u64, u64) {
    let mut nz = 0u64;
    let mut route = 0u64;
    let mut x = o;
    let mut pos = 0u32;
    while x > 0 {
        let d = x & 3;
        if d != 0 {
            nz += 1;
            route += dist1(d << pos);
        }
        x >>= 2;
        pos += 2;
    }
    let edge = if o == 0 {
        0
    } else {
        let tz = o.trailing_zeros() & !1;
        dist1(o & (3 << tz))
    };
    (nz, route, edge)
}

impl Machine {
    /// Charges the replicate + broadcast + compare + reduce phases of an
    /// All-Pairs rank on a bare machine in closed form and builds the ranked
    /// outputs, bit-identically to the open-coded level-order phases.
    ///
    /// `staged[j]` is the path of array element `j` staged at cell
    /// `scratch_lo + j`; `corners[i]` is element `i`'s copy at the corner of
    /// block `i` (cell `scratch_lo + i·bm`); `ranks[i]` is element `i`'s rank
    /// under the total order, computed locally by the caller (the DAG's cost
    /// is data-independent, so the simulator may resolve comparisons host-
    /// side). Returns `(element, rank)` at each corner with the exact
    /// critical path the materialized simulation produces.
    ///
    /// # Panics
    /// Panics if the machine is instrumented (callers must use the
    /// materializing path so instruments observe the per-item event stream),
    /// or on inconsistent lengths / `bm` not a power of four / `m < 2`.
    pub fn allpairs_square_finish<T: Clone>(
        &mut self,
        staged: &[Path],
        corners: Vec<Tracked<T>>,
        ranks: &[u64],
        scratch_lo: u64,
        bm: u64,
    ) -> Vec<Tracked<(T, u64)>> {
        assert!(self.is_bare(), "closed-form kernels require an uninstrumented machine");
        let m = staged.len() as u64;
        assert!(m >= 2, "closed-form all-pairs needs at least two elements");
        assert!(corners.len() as u64 == m && ranks.len() as u64 == m, "inconsistent lengths");
        let lvls = (bm.trailing_zeros() as u64) / 2; // bm = 4^lvls
        assert!(bm >= 4 && bm == 1 << (2 * lvls), "bm must be a power of four >= 4");
        assert!(m <= bm, "more elements than blocks");
        let scale = 1u64 << lvls; // decode(x·bm) = decode(x)·2^lvls per axis

        // One pass over the offsets accumulates every digit statistic the
        // three phases need.
        let mut sum_edge_in: u128 = 0; // Σ_{o=1}^{bm-1} edge(o)   (broadcast = reduce)
        let mut sum_edge_blk: u128 = 0; // Σ_{b=1}^{m-1} edge(b)    (replication, unscaled)
        let mut max_route = 0u64; // max_o route(o)
        let mut mp_depth = 0u64; // max_{o<m} staged[o].depth + nz(o)
        let mut mp_dist = 0u64; // max_{o<m} staged[o].distance + route(o)
        let mut blk: Vec<(u64, u64)> = Vec::with_capacity(m as usize); // (nz, route) per block
        for o in 0..bm {
            let (nz, route, edge) = digit_stats(o);
            if o > 0 {
                sum_edge_in += u128::from(edge);
            }
            max_route = max_route.max(route);
            if o < m {
                let p = staged[o as usize];
                mp_depth = mp_depth.max(p.depth + nz);
                mp_dist = mp_dist.max(p.distance + route);
                if o > 0 {
                    sum_edge_blk += u128::from(edge);
                }
                blk.push((nz, route));
            }
        }

        // Phase A (replicate into blocks): every block b ≥ 1 receives the
        // m-element array copy over its single incoming tree edge.
        self.add_energy_total(u128::from(m) * sum_edge_blk * u128::from(scale));
        self.add_messages(m * (m - 1));
        // Phase B (per-block broadcast): each of the m blocks floods bm cells.
        self.add_energy_total(u128::from(m) * sum_edge_in);
        self.add_messages(m * (bm - 1));
        // Compare phase: local, free.
        // Phase D (per-block reduce): the mirror tree of phase B.
        self.add_energy_total(u128::from(m) * sum_edge_in);
        self.add_messages(m * (bm - 1));

        // Final reduced path at each corner, exact per the separation
        // argument in the module docs; watermark = max over those paths.
        corners
            .into_iter()
            .zip(ranks)
            .enumerate()
            .map(|(i, (corner, &rank))| {
                let (nz_i, route_i) = blk[i];
                let c = corner.path();
                let r = Path {
                    depth: (nz_i + mp_depth).max(c.depth + 2 * lvls),
                    distance: (route_i * scale + mp_dist).max(c.distance + 2 * max_route),
                };
                self.observe(r);
                let (value, loc, _) = corner.into_parts();
                debug_assert_eq!(loc, zorder::coord_of(scratch_lo + i as u64 * bm));
                Tracked::raw((value, rank), loc, c.join(r))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digit_stats_match_naive_routes() {
        for o in 0u64..256 {
            let mut nz = 0;
            let mut route = 0;
            let mut last_edge = 0;
            for pos in 0..4 {
                let d = (o >> (2 * pos)) & 3;
                if d != 0 {
                    nz += 1;
                    let e = dist1(d << (2 * pos));
                    route += e;
                    if last_edge == 0 {
                        last_edge = e; // least significant nonzero digit
                    }
                }
            }
            assert_eq!(digit_stats(o), (nz, route, last_edge), "o = {o}");
        }
    }

    #[test]
    fn closed_form_kernel_charges_identically_through_every_profile() {
        // `allpairs_square_finish` requires a *bare* machine — and a profile
        // is not an instrument, so a profiled machine still takes the
        // closed-form path and its profiled report equals charging the raw
        // closed-form counters directly.
        use crate::profile::builtin_profiles;

        let kernel_run = |m: &mut Machine| {
            let staged = vec![Path::ZERO; 4];
            let corners: Vec<Tracked<u64>> = (0..4u64)
                .map(|i| Tracked::raw(i, zorder::coord_of(i * 4), Path::ZERO))
                .collect();
            let out = m.allpairs_square_finish(&staged, corners, &[0, 1, 2, 3], 0, 4);
            assert_eq!(out.len(), 4);
        };
        let mut bare = Machine::new();
        kernel_run(&mut bare);
        let raw = bare.report();
        assert!(raw.messages > 0, "the kernel charges real traffic");
        for profile in builtin_profiles() {
            let mut m = Machine::with_profile(*profile);
            assert!(m.is_bare(), "profiled machines must keep the kernel path");
            kernel_run(&mut m);
            assert_eq!(m.report(), raw, "raw counters are profile-independent");
            assert_eq!(
                m.profiled_report().unwrap(),
                profile.charge(raw).unwrap(),
                "kernel charge equals charging the raw counters under {}",
                profile.name()
            );
        }
    }

    #[test]
    fn scale_law_matches_decode() {
        // decode(x · 4^L) = decode(x) · 2^L, the identity the block-level
        // distances rely on.
        for x in 1u64..64 {
            for l in 0..5u64 {
                let (r, c) = zorder::decode(x);
                let (rs, cs) = zorder::decode(x << (2 * l));
                assert_eq!((rs, cs), (r << l, c << l), "x={x} l={l}");
            }
        }
    }
}
