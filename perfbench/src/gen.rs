//! Workload definitions and seeded input generation.
//!
//! Every input the program receives — user placements, privacy levels,
//! public POIs, standing-query registrations and the request stream —
//! is generated here with `lbsp-mobility` before any timing starts, so
//! the same seed always drives the program with the same bytes.

use lbsp_bench::{poi_store, world};
use lbsp_cluster::PartitionMap;
use lbsp_geom::{Point, Rect, SimTime};
use lbsp_mobility::{Population, SpatialDistribution};
use lbsp_server::PublicObject;
use rand::rngs::StdRng;
use rand::{RngExt as _, SeedableRng};
use std::time::Duration;

/// Where the requests go.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One `NetServer` journaling to a write-ahead log.
    Durable,
    /// A `Router` in front of this many in-memory nodes.
    Cluster(usize),
}

/// One workload: a topology plus a traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Server topology.
    pub topology: Topology,
    /// Registered mobile users.
    pub users: usize,
    /// Public POIs loaded into every engine.
    pub pois: usize,
    /// Exact-location updates in every ten requests; the rest are
    /// private range queries.
    pub updates_per_10: usize,
    /// Range-query radius (world units).
    pub radius: f64,
    /// Offered rate of the paced open-loop phase, requests per second.
    pub paced_rps: f64,
    /// Whether standing queries are registered (and drained on
    /// connection 0).
    pub standing: bool,
    /// Random-waypoint speed cap, world units per second.
    pub v_max: f64,
    /// Simulated seconds between two updates of one user.
    pub dt: f64,
}

/// Every workload the benchmark knows.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "update-heavy",
        topology: Topology::Durable,
        users: 2_000,
        pois: 1_000,
        updates_per_10: 9,
        radius: 0.05,
        paced_rps: 500.0,
        standing: true,
        v_max: 0.01,
        dt: 1.0,
    },
    Spec {
        name: "query-heavy",
        topology: Topology::Durable,
        users: 2_000,
        pois: 10_000,
        updates_per_10: 1,
        radius: 0.1,
        paced_rps: 1_000.0,
        standing: false,
        v_max: 0.01,
        dt: 1.0,
    },
    Spec {
        name: "cluster-update",
        topology: Topology::Cluster(4),
        users: 2_000,
        pois: 1_000,
        updates_per_10: 9,
        radius: 0.05,
        paced_rps: 1_000.0,
        standing: false,
        v_max: 0.12,
        dt: 1.0,
    },
];

/// A request counts toward goodput only when it completed OK within
/// this limit.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(10);

/// Privacy levels, assigned to users in turn.
pub const K_CYCLE: [u32; 4] = [2, 5, 10, 25];

/// Standing count queries registered on workloads with `standing`.
pub const STANDING_COUNTS: usize = 256;
/// How many of those sit over the densest city.
pub const STANDING_DENSE: usize = 32;
/// One user in this many holds a standing private range query.
pub const STANDING_RANGE_EVERY: u64 = 16;
/// Users whose range-query replies are compared across a restart and
/// whose queries probe the router hop.
pub const PROBES: usize = 32;

/// Looks a workload up by name.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// An exact location update.
    Update {
        /// Reporting user.
        user: u64,
        /// New exact position.
        pos: Point,
        /// Report time.
        time: SimTime,
    },
    /// A private range query (Fig. 5a) around the user's position.
    Query {
        /// Querying user.
        user: u64,
        /// Query time.
        time: SimTime,
    },
}

impl Op {
    /// The user the request belongs to.
    pub fn user(&self) -> u64 {
        match *self {
            Op::Update { user, .. } | Op::Query { user, .. } => user,
        }
    }
}

/// Everything the program receives during one run.
pub struct Inputs {
    /// The workload these inputs belong to.
    pub spec: Spec,
    /// Initial position of every user (index = user id).
    pub placement: Vec<Point>,
    /// Privacy level of every user.
    pub ks: Vec<u32>,
    /// Public objects loaded into every engine.
    pub pois: Vec<PublicObject>,
    /// Standing count query areas.
    pub standing_counts: Vec<Rect>,
    /// Users holding a standing range query of radius `spec.radius`.
    pub standing_ranges: Vec<u64>,
    /// The request stream: the first `paced` requests feed the paced
    /// phase, the rest the closed-loop phase.
    pub ops: Vec<Op>,
    /// Length of the paced prefix of `ops`.
    pub paced: usize,
    /// Users probed after the load phases.
    pub probes: Vec<u64>,
    /// Share of updates whose user changes cluster stripe (computed
    /// for a 4-stripe partition on every workload).
    pub crossing_share: f64,
}

/// Distinct sub-seeds so the streams of one run do not share draws.
fn sub_seed(seed: u64, salt: u64) -> u64 {
    seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// An axis-aligned square of half-side `h` around `c`, clipped to the
/// unit world.
fn square(c: Point, h: f64) -> Rect {
    Rect::new_unchecked(
        (c.x - h).max(0.0),
        (c.y - h).max(0.0),
        (c.x + h).min(1.0),
        (c.y + h).min(1.0),
    )
}

/// Generates the inputs of `spec` from `seed`: `paced` requests for the
/// paced phase followed by `closed` requests for the closed-loop phase.
pub fn generate(spec: Spec, seed: u64, paced: usize, closed: usize) -> Inputs {
    let w = world();
    let dist = SpatialDistribution::three_cities(&w);
    let mut population = Population::generate(w, spec.users, &dist, 0.0, spec.v_max, seed);
    let placement = population.positions();
    let ks = (0..spec.users)
        .map(|i| K_CYCLE[i % K_CYCLE.len()])
        .collect();
    // The store is hash-keyed: sort so the program sees one order.
    let mut pois: Vec<PublicObject> = poi_store(spec.pois, sub_seed(seed, 1))
        .iter()
        .copied()
        .collect();
    pois.sort_by_key(|o| o.id);

    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 2));
    let (standing_counts, standing_ranges) = if spec.standing {
        let SpatialDistribution::GaussianClusters { centers, .. } = &dist else {
            unreachable!("three_cities is a cluster mixture")
        };
        let densest = centers
            .iter()
            .copied()
            .max_by_key(|c| placement.iter().filter(|p| p.dist(*c) < 0.1).count())
            .expect("three cities");
        let counts = (0..STANDING_COUNTS)
            .map(|i| {
                if i < STANDING_DENSE {
                    let c = Point::new(
                        densest.x + rng.random_range(-0.03..0.03),
                        densest.y + rng.random_range(-0.03..0.03),
                    );
                    square(c, rng.random_range(0.02..0.06))
                } else {
                    let c = Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0));
                    square(c, rng.random_range(0.02..0.08))
                }
            })
            .collect();
        let ranges = (0..spec.users as u64)
            .filter(|u| u % STANDING_RANGE_EVERY == 0)
            .collect();
        (counts, ranges)
    } else {
        (Vec::new(), Vec::new())
    };

    let stripes = PartitionMap::new(w, 4);
    let mut last = placement.clone();
    let mut crossings = 0usize;
    let mut updates = 0usize;
    let total = paced + closed;
    let mut ops = Vec::with_capacity(total);
    let mut tick = 0u32;
    'outer: loop {
        tick += 1;
        let time = SimTime::from_secs(f64::from(tick) * spec.dt);
        for (user, pos) in population.step_all(spec.dt) {
            let prev = &mut last[user as usize];
            if stripes.node_of(*prev) != stripes.node_of(pos) {
                crossings += 1;
            }
            updates += 1;
            *prev = pos;
            ops.push(Op::Update { user, pos, time });
            if ops.len() == total {
                break 'outer;
            }
            // Queries follow their update run so the mix holds in every
            // window of ten requests.
            if updates.is_multiple_of(spec.updates_per_10) {
                for _ in 0..10 - spec.updates_per_10 {
                    let user = rng.random_range(0..spec.users as u64);
                    ops.push(Op::Query { user, time });
                    if ops.len() == total {
                        break 'outer;
                    }
                }
            }
        }
    }
    let probes = (0..PROBES)
        .map(|_| rng.random_range(0..spec.users as u64))
        .collect();
    Inputs {
        spec,
        placement,
        ks,
        pois,
        standing_counts,
        standing_ranges,
        ops,
        paced,
        probes,
        crossing_share: crossings as f64 / updates.max(1) as f64,
    }
}

/// FNV-1a over every generated input, in a fixed order.
pub fn digest(inputs: &Inputs) -> u64 {
    struct Fnv(u64);
    impl Fnv {
        fn u64(&mut self, v: u64) {
            for b in v.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
        fn f64(&mut self, v: f64) {
            self.u64(v.to_bits());
        }
        fn point(&mut self, p: Point) {
            self.f64(p.x);
            self.f64(p.y);
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for (p, k) in inputs.placement.iter().zip(&inputs.ks) {
        h.point(*p);
        h.u64(u64::from(*k));
    }
    for o in &inputs.pois {
        h.u64(o.id);
        h.point(o.pos);
    }
    for r in &inputs.standing_counts {
        h.f64(r.min_x());
        h.f64(r.min_y());
        h.f64(r.max_x());
        h.f64(r.max_y());
    }
    for u in &inputs.standing_ranges {
        h.u64(*u);
    }
    h.u64(inputs.paced as u64);
    for op in &inputs.ops {
        match *op {
            Op::Update { user, pos, time } => {
                h.u64(1);
                h.u64(user);
                h.point(pos);
                h.f64(time.as_secs());
            }
            Op::Query { user, time } => {
                h.u64(2);
                h.u64(user);
                h.f64(time.as_secs());
            }
        }
    }
    for u in &inputs.probes {
        h.u64(*u);
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for s in SPECS {
            let a = digest(&generate(s, 7, 2_000, 3_000));
            let b = digest(&generate(s, 7, 2_000, 3_000));
            let c = digest(&generate(s, 8, 2_000, 3_000));
            assert_eq!(a, b, "{}: same seed must give the same stream", s.name);
            assert_ne!(a, c, "{}: another seed must give another stream", s.name);
        }
    }

    #[test]
    fn mix_and_lengths_follow_the_spec() {
        for s in SPECS {
            let inputs = generate(s, 3, 1_000, 9_000);
            assert_eq!(inputs.ops.len(), 10_000);
            let updates = inputs
                .ops
                .iter()
                .filter(|o| matches!(o, Op::Update { .. }))
                .count();
            assert_eq!(updates, 1_000 * s.updates_per_10, "{}", s.name);
            assert_eq!(inputs.placement.len(), s.users);
            assert_eq!(inputs.pois.len(), s.pois);
            let want_counts = if s.standing { STANDING_COUNTS } else { 0 };
            assert_eq!(inputs.standing_counts.len(), want_counts);
        }
    }
}
