//! Seeded inputs: every key, operation and crash offset a run uses is drawn
//! here, before any timed phase starts, so the program under test receives
//! only inputs and a seed reproduces them exactly.

/// SplitMix64: the seeded generator behind every draw of the benchmark.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `stream` of the run seeded with `seed`; distinct
    /// streams of one seed are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5EED))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The value bound to `key` by every put. A pure function of the key, so
/// any answer carrying a value can be checked without coordination.
pub fn value_of(key: u64) -> u64 {
    (mix(key ^ 0xA5A5_5A5A_0F0F_F0F0) >> 4) | 1
}

/// Map key of universe slot `idx` (user keys must be nonzero).
pub fn key_of(idx: u32) -> u64 {
    idx as u64 + 1
}

/// A request: operation in the top two bits, universe slot below.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Req(u32);

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Get,
    Put,
    Remove,
}

impl Op {
    pub fn name(self) -> &'static str {
        match self {
            Op::Get => "get",
            Op::Put => "put",
            Op::Remove => "remove",
        }
    }
}

impl Req {
    const IDX_MASK: u32 = (1 << 30) - 1;

    pub fn new(op: Op, idx: u32) -> Req {
        debug_assert!(idx <= Self::IDX_MASK);
        let code = match op {
            Op::Get => 0,
            Op::Put => 1,
            Op::Remove => 2,
        };
        Req(code << 30 | idx)
    }

    pub fn op(self) -> Op {
        match self.0 >> 30 {
            0 => Op::Get,
            1 => Op::Put,
            _ => Op::Remove,
        }
    }

    pub fn idx(self) -> u32 {
        self.0 & Self::IDX_MASK
    }

    pub fn key(self) -> u64 {
        key_of(self.idx())
    }
}

/// Operation mix in percent: get, put, remove (sums to 100).
#[derive(Copy, Clone, Debug)]
pub struct Mix {
    pub get: u32,
    pub put: u32,
}

impl Mix {
    fn draw(self, rng: &mut Rng) -> Op {
        let r = rng.below(100) as u32;
        if r < self.get {
            Op::Get
        } else if r < self.get + self.put {
            Op::Put
        } else {
            Op::Remove
        }
    }
}

/// How a request picks its universe slot.
pub enum KeyDist {
    Uniform,
    /// Zipf over ranks; ranks map to slots through one seeded permutation
    /// shared by every client, so all clients agree on the hot keys and
    /// the hot keys are scattered over the universe.
    Zipf {
        zipf: Zipf,
        scramble: Vec<u32>,
    },
}

impl KeyDist {
    pub fn zipf(universe: u32, theta: f64, rng: &mut Rng) -> KeyDist {
        KeyDist::Zipf {
            zipf: Zipf::new(universe as u64, theta),
            scramble: permutation(universe, rng),
        }
    }

    fn draw(&self, universe: u32, rng: &mut Rng) -> u32 {
        match self {
            KeyDist::Uniform => rng.below(universe as u64) as u32,
            KeyDist::Zipf { zipf, scramble } => scramble[zipf.sample(rng) as usize],
        }
    }
}

/// Zipf sampler over ranks `0..n` (Gray et al., the YCSB generator):
/// O(1) per draw after an O(n) normalisation.
pub struct Zipf {
    n: f64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        let zeta = |m: u64| (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let zeta2 = zeta(2);
        Zipf {
            n: n as f64,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n as u64 - 1)
    }
}

/// A seeded permutation of `0..n`.
pub fn permutation(n: u32, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n).collect();
    for i in (1..p.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        p.swap(i, j);
    }
    p
}

/// Draws `len` requests over a universe of `universe` slots.
pub fn stream(len: usize, universe: u32, mix: Mix, dist: &KeyDist, rng: &mut Rng) -> Vec<Req> {
    (0..len)
        .map(|_| {
            let op = mix.draw(rng);
            Req::new(op, dist.draw(universe, rng))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        let mix = Mix { get: 90, put: 5 };
        let dist = KeyDist::zipf(4000, 0.99, &mut Rng::new(7, 0));
        let a = stream(1000, 4000, mix, &dist, &mut Rng::new(7, 1));
        let b = stream(1000, 4000, mix, &dist, &mut Rng::new(7, 1));
        let c = stream(1000, 4000, mix, &dist, &mut Rng::new(8, 1));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(1, 2);
        let mut hot = 0;
        for _ in 0..10_000 {
            let r = z.sample(&mut rng);
            assert!(r < 1000);
            if r < 10 {
                hot += 1;
            }
        }
        // The ten hottest of 1000 ranks take about 39 % of zipf(0.99) draws.
        assert!((3000..5000).contains(&hot), "hot draws {hot}");
    }

    #[test]
    fn mix_shares_follow_the_percentages() {
        let s = stream(
            100_000,
            100,
            Mix { get: 90, put: 5 },
            &KeyDist::Uniform,
            &mut Rng::new(3, 3),
        );
        let gets = s.iter().filter(|r| r.op() == Op::Get).count();
        assert!((89_000..91_000).contains(&gets), "gets {gets}");
    }

    #[test]
    fn requests_round_trip() {
        for op in [Op::Get, Op::Put, Op::Remove] {
            let r = Req::new(op, 399_999);
            assert_eq!((r.op(), r.idx(), r.key()), (op, 399_999, 400_000));
        }
    }
}
