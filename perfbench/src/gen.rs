//! Seeded, linear-time input generation.
//!
//! Every input a run feeds the program is built here from the run's seed, before any
//! timed window opens: the base claims as CSV bytes, the labels and hidden truth, the
//! source features, the ingest batches and the reader id streams. The same seed gives
//! byte-identical inputs. Work is O(claims): each object draws its claimants directly,
//! so a 2M-claim base takes well under a second.

use slimfast_data::{FeatureMatrix, FeatureMatrixBuilder, NamedObservation, SourceId};

/// Sources shared by every object; each source is a row of the feature matrix.
pub const SOURCES: usize = 400;
/// Claims per object, from distinct sources.
const CLAIMS_PER_OBJECT: usize = 8;
/// Domain features per source; the first `PREDICTIVE` of them shift its accuracy.
const FEATURES: usize = 5;
const PREDICTIVE: usize = 3;
/// Share of base objects whose true value is given to the learner.
const LABEL_RATE: f64 = 0.01;
/// Claims per `ServingEngine::ingest` call: the engine's default publish cadence, so
/// each batch publishes exactly once.
pub const BATCH_CLAIMS: usize = 512;
const OBJECTS_PER_BATCH: usize = BATCH_CLAIMS / CLAIMS_PER_OBJECT;
/// Accuracy shift of one set predictive feature, on top of a base drawn from
/// `[BASE_ACCURACY, BASE_ACCURACY + BASE_SPREAD)`.
const FEATURE_SHIFT: f64 = 0.07;
const BASE_ACCURACY: f64 = 0.5;
const BASE_SPREAD: f64 = 0.2;
/// Exponent of the Zipf-like id skew.
const ZIPF_EXPONENT: f64 = 1.0;

/// SplitMix64: small, fast and good enough for workload generation.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed ^ 0x5851_F42D_4C95_7F2D)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Everything one run feeds the program.
pub struct Inputs {
    /// Base claims as `source,object,value` lines, object-major: object `o` is named
    /// `o{o}` and its claims are lines `8o..8o+8`. The first objects cycle through all
    /// sources in order, so every prefix of at least `SOURCES / 8` objects covers every
    /// source and interns sources, and objects, in index order.
    pub csv: Vec<u8>,
    /// Byte length of the claims of the first `fit_objects` objects.
    pub fit_csv_len: usize,
    pub fit_objects: usize,
    pub base_objects: usize,
    /// True value index (`0` for `v0`, `1` for `v1`) of every base object, then of
    /// every fresh object in batch order.
    pub truth: Vec<u8>,
    /// Whether the learner sees the true value of each base object.
    pub labeled: Vec<bool>,
    pub features: FeatureMatrix,
    /// Ingest batches of claims about fresh objects `f{i}`.
    pub batches: Vec<Vec<NamedObservation>>,
    /// Base-object ids read uniformly at random.
    pub uniform_ids: Vec<u32>,
    /// Base-object ids with a Zipf-like skew over a shuffled popularity order.
    pub skewed_ids: Vec<u32>,
}

impl Inputs {
    pub fn generate(
        seed: u64,
        base_objects: usize,
        fit_objects: usize,
        batches: usize,
        read_ids: usize,
    ) -> Self {
        assert!(fit_objects * CLAIMS_PER_OBJECT >= SOURCES && fit_objects <= base_objects);
        let mut rng = Rng::new(seed);
        let mut features = FeatureMatrixBuilder::new();
        let accuracy: Vec<f64> = (0..SOURCES)
            .map(|s| {
                let mut a = BASE_ACCURACY + BASE_SPREAD * rng.unit();
                for k in 0..FEATURES {
                    if rng.below(2) == 1 {
                        features.set_flag(SourceId::new(s), &format!("f{k}"));
                        if k < PREDICTIVE {
                            a += FEATURE_SHIFT;
                        }
                    }
                }
                a
            })
            .collect();
        let features = features.build(SOURCES);

        let total_objects = base_objects + batches * OBJECTS_PER_BATCH;
        let truth: Vec<u8> = (0..total_objects).map(|_| rng.below(2) as u8).collect();
        let labeled: Vec<bool> = (0..base_objects).map(|_| rng.unit() < LABEL_RATE).collect();

        let mut csv = Vec::with_capacity(base_objects * CLAIMS_PER_OBJECT * 18);
        let mut fit_csv_len = 0;
        let mut claimants = [0usize; CLAIMS_PER_OBJECT];
        for (o, &true_value) in truth[..base_objects].iter().enumerate() {
            if o == fit_objects {
                fit_csv_len = csv.len();
            }
            draw_claimants(&mut rng, o, &mut claimants);
            for &s in &claimants {
                let v = claim_value(&mut rng, accuracy[s], true_value);
                push_line(&mut csv, s, b'o', o, v);
            }
        }
        if fit_objects == base_objects {
            fit_csv_len = csv.len();
        }

        let mut line = Vec::new();
        let batches = (0..batches)
            .map(|b| {
                let mut batch = Vec::with_capacity(BATCH_CLAIMS);
                for j in 0..OBJECTS_PER_BATCH {
                    let f = b * OBJECTS_PER_BATCH + j;
                    draw_claimants(&mut rng, base_objects + f, &mut claimants);
                    for &s in &claimants {
                        let v = claim_value(&mut rng, accuracy[s], truth[base_objects + f]);
                        line.clear();
                        push_line(&mut line, s, b'f', f, v);
                        let text = std::str::from_utf8(&line[..line.len() - 1]).expect("ascii");
                        let mut fields = text.split(',');
                        let mut next = || fields.next().expect("three fields");
                        batch.push(NamedObservation::new(next(), next(), next()));
                    }
                }
                batch
            })
            .collect();

        let uniform_ids = (0..read_ids)
            .map(|_| rng.below(base_objects) as u32)
            .collect();
        let skewed_ids = skewed_ids(&mut rng, base_objects, read_ids);

        Self {
            csv,
            fit_csv_len,
            fit_objects,
            base_objects,
            truth,
            labeled,
            features,
            batches,
            uniform_ids,
            skewed_ids,
        }
    }

    pub fn fit_csv(&self) -> &[u8] {
        &self.csv[..self.fit_csv_len]
    }
}

/// Distinct claimants of object `o`. The first `SOURCES / CLAIMS_PER_OBJECT` objects take
/// consecutive source blocks so that sources first appear in index order.
fn draw_claimants(rng: &mut Rng, o: usize, out: &mut [usize; CLAIMS_PER_OBJECT]) {
    if o < SOURCES / CLAIMS_PER_OBJECT {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = o * CLAIMS_PER_OBJECT + i;
        }
        return;
    }
    for i in 0..CLAIMS_PER_OBJECT {
        out[i] = loop {
            let s = rng.below(SOURCES);
            if !out[..i].contains(&s) {
                break s;
            }
        };
    }
}

fn claim_value(rng: &mut Rng, accuracy: f64, truth: u8) -> u8 {
    if rng.unit() < accuracy {
        truth
    } else {
        1 - truth
    }
}

fn push_line(out: &mut Vec<u8>, source: usize, prefix: u8, object: usize, value: u8) {
    out.push(b's');
    push_decimal(out, source);
    out.extend_from_slice(&[b',', prefix]);
    push_decimal(out, object);
    out.extend_from_slice(&[b',', b'v', b'0' + value, b'\n']);
}

fn push_decimal(out: &mut Vec<u8>, mut n: usize) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// `count` ids over `0..objects` where the object of popularity rank `r` is drawn with
/// weight `1 / (r + 1)^ZIPF_EXPONENT`; ranks map to objects through a seeded shuffle.
fn skewed_ids(rng: &mut Rng, objects: usize, count: usize) -> Vec<u32> {
    let mut by_rank: Vec<u32> = (0..objects as u32).collect();
    for i in (1..objects).rev() {
        by_rank.swap(i, rng.below(i + 1));
    }
    let mut cumulative = Vec::with_capacity(objects);
    let mut total = 0.0;
    for r in 0..objects {
        total += 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT);
        cumulative.push(total);
    }
    (0..count)
        .map(|_| {
            let x = rng.unit() * total;
            let r = cumulative.partition_point(|&c| c <= x).min(objects - 1);
            by_rank[r]
        })
        .collect()
}
