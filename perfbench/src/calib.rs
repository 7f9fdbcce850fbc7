//! The host-speed calibration kernel.
//!
//! The build host is shared, and its single-thread speed for this
//! simulator drifts: a workload's pass takes up to twice as long in one
//! minute as in the next. Clock frequency is not the cause (a pure ALU
//! loop moves by about a third as much), nor is DRAM latency (a pointer
//! chase over 16 MiB barely moves). A kernel shaped like the simulator's
//! own hot path does follow it. So the end-to-end runs time such a
//! kernel after every cell and scale each cell's host times to the speed
//! at which the kernel takes [`REFERENCE`].
//!
//! The kernel shares no code with the simulator: a min-time event loop
//! over 16 virtual cores whose accesses walk a private 8-way tag array,
//! a shared 16-way one and, on a miss, a SipHash map of 2^18 lines that
//! spills the per-core L2, with a dynamic call per step. Nothing the
//! simulator does changes the kernel's work, so a faster simulator reads
//! faster.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel steps per sample (about 10 ms on the build host).
const STEPS: usize = 100_000;

/// Distinct lines the kernel's backing map holds.
const LINES: u64 = 1 << 18;

/// The kernel's sample time on the build host at its quiet speed; scaled
/// times are host seconds at that speed.
pub const REFERENCE: Duration = Duration::from_millis(10);

/// How steeply the simulator's host time follows the kernel's: a cell
/// takes `(k / REFERENCE)^EXPONENT` times its reference-speed time when
/// the kernel takes `k`. Fitted on five-minute traces of each workload.
const EXPONENT: f64 = 1.2;

/// Kernel samples taken within this much of a cell's host interval feed
/// its speed estimate.
const WINDOW: Duration = Duration::from_millis(500);

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

type Op = Box<dyn Fn(u64) -> u64>;

/// The calibration kernel and its state, which persists across samples.
pub struct Kernel {
    clocks: BinaryHeap<Reverse<(u64, usize)>>,
    rng: Vec<u64>,
    private: Vec<u64>,
    shared: Vec<u64>,
    backing: HashMap<u64, u64>,
    ops: Vec<Op>,
    /// Every sample so far: its midpoint and its host time.
    log: Vec<(Instant, Duration)>,
}

impl Kernel {
    /// A kernel with its backing map fully populated, so its footprint
    /// stays fixed from the first sample on.
    pub fn new() -> Kernel {
        let ops: Vec<Op> = vec![
            Box::new(|x| x.rotate_left(7) ^ 3),
            Box::new(|x| x.wrapping_mul(0x9e37_79b9)),
            Box::new(|x| (x >> 3) | 1),
            Box::new(|x| x ^ 0xff),
        ];
        // Sized up front: no table is grown and freed, so the set-up's
        // resident growth is exactly the kernel's footprint.
        let mut backing = HashMap::with_capacity(LINES as usize);
        backing.extend((0..LINES).map(|l| (l, 0)));
        let mut k = Kernel {
            clocks: (0..16).map(|c| Reverse((0, c))).collect(),
            rng: (1..=16).map(|i| xorshift(i * 0x1234_5678_9abc)).collect(),
            private: vec![0; 16 * 64 * 8],
            shared: vec![0; 1024 * 16],
            backing,
            ops,
            log: Vec::new(),
        };
        // One unlogged run warms the caches and the branch predictors.
        k.run(STEPS);
        k
    }

    /// Run the kernel once and log its host time.
    pub fn sample(&mut self) {
        let start = Instant::now();
        black_box(self.run(STEPS));
        let took = start.elapsed();
        self.log.push((start + took / 2, took));
    }

    /// The factor that scales a host time measured over `from..to` to
    /// the reference speed: `(REFERENCE / k)^EXPONENT`, with `k` the
    /// median of the samples within [`WINDOW`] of the interval. The
    /// samples just before and just after it always count.
    pub fn factor(&self, from: Instant, to: Instant) -> f64 {
        let log = &self.log;
        let after = log.partition_point(|&(at, _)| at < to);
        let lo = log.partition_point(|&(at, _)| at + WINDOW < from).min(after.saturating_sub(1));
        let hi = log.partition_point(|&(at, _)| at <= to + WINDOW).max(after + 1).min(log.len());
        let ks: Vec<f64> = log[lo..hi].iter().map(|&(_, d)| d.as_secs_f64()).collect();
        (REFERENCE.as_secs_f64() / crate::report::median(&ks)).powf(EXPONENT)
    }

    /// The median sample time so far.
    pub fn median(&self) -> Duration {
        let ks: Vec<f64> = self.log.iter().map(|&(_, d)| d.as_secs_f64()).collect();
        Duration::from_secs_f64(crate::report::median(&ks))
    }

    fn run(&mut self, steps: usize) -> u64 {
        let mut acc = 0u64;
        for _ in 0..steps {
            let Reverse((t, c)) = self.clocks.pop().expect("16 virtual cores");
            let r = xorshift(self.rng[c]);
            self.rng[c] = r;
            // Seven in eight accesses stay in a small hot set.
            let line = if r & 7 != 0 { (r >> 8) & 0x3ff } else { (r >> 8) % LINES };
            let tag = line + 1;
            let set = (c * 64 + (line & 63) as usize) * 8;
            let ways = &mut self.private[set..set + 8];
            let latency = if let Some(w) = ways.iter().position(|&x| x == tag) {
                ways[..=w].rotate_right(1);
                1
            } else {
                ways.rotate_right(1);
                ways[0] = tag;
                let set = (line & 1023) as usize * 16;
                let ways = &mut self.shared[set..set + 16];
                if let Some(w) = ways.iter().position(|&x| x == tag) {
                    ways[..=w].rotate_right(1);
                    12
                } else {
                    ways.rotate_right(1);
                    ways[0] = tag;
                    let fills = self.backing.entry(line).or_default();
                    *fills += 1;
                    100 + (*fills & 7)
                }
            };
            acc = acc.wrapping_add(self.ops[(r >> 40) as usize & 3](acc ^ line));
            self.clocks.push(Reverse((t + latency, c)));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_takes_the_median_of_the_samples_near_the_interval() {
        let mut k = Kernel::new();
        let t0 = Instant::now();
        let ms = Duration::from_millis;
        // Samples every 100 ms: 20 ms up to 1 s, then 5 ms, then 40 ms
        // from 2 s on.
        k.log = (0..30)
            .map(|i| {
                let took = match i {
                    0..=10 => ms(20),
                    11..=19 => ms(5),
                    _ => ms(40),
                };
                (t0 + ms(100 * i), took)
            })
            .collect();
        // A cell over 1.45..1.55 s sees the samples at 1.0..=2.0 s: nine
        // at 5 ms and one each at 20 and 40 ms, so the median is 5 ms.
        let f = k.factor(t0 + ms(1450), t0 + ms(1550));
        assert!((f - 2f64.powf(EXPONENT)).abs() < 1e-9, "{f}");
        // The samples just before and after a long cell count even when
        // they lie outside the window; the 40 ms one does not.
        k.log = vec![(t0, ms(10)), (t0 + ms(5000), ms(10)), (t0 + ms(9000), ms(40))];
        assert!((k.factor(t0 + ms(1000), t0 + ms(4000)) - 1.0).abs() < 1e-9);
    }
}
