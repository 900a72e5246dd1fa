//! Result checking: bit-exact fingerprints and the float comparison
//! used where two derivations may legitimately round differently.

use rfv_testkit::oracle::{input_scale, max_abs_error};
use rfv_types::{Row, Value};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

fn value(h: &mut Fnv, v: &Value) {
    match v {
        Value::Null => h.bytes(&[0]),
        Value::Bool(b) => h.bytes(&[1, u8::from(*b)]),
        Value::Int(i) => {
            h.bytes(&[2]);
            h.u64(*i as u64);
        }
        // The bit pattern, not the numeric value: -0.0 and 0.0 differ.
        Value::Float(f) => {
            h.bytes(&[3]);
            h.u64(f.to_bits());
        }
        Value::Str(s) => {
            h.bytes(&[4]);
            h.u64(s.len() as u64);
            h.bytes(s.as_bytes());
        }
        other => {
            h.bytes(&[5]);
            h.bytes(other.to_string().as_bytes());
        }
    }
}

/// Fingerprint of a row set over value bits, order sensitive.
pub fn fingerprint(rows: &[Row]) -> u64 {
    let mut h = Fnv::default();
    h.u64(rows.len() as u64);
    for r in rows {
        h.u64(r.len() as u64);
        for v in r.values() {
            value(&mut h, v);
        }
    }
    h.finish()
}

/// Column `col` of `rows` as floats; `None` when a cell is NULL or not
/// numeric.
pub fn float_column(rows: &[Row], col: usize) -> Option<Vec<f64>> {
    rows.iter()
        .map(|r| r.values().get(col)?.as_f64().ok().flatten())
        .collect()
}

/// Relative tolerance of the float comparison, applied to the largest
/// input magnitude times the number of inputs a value may have summed.
pub const FLOAT_TOL: f64 = 1e-9;

/// Whether two float columns computed from `raw` agree within
/// `FLOAT_TOL · input_scale(raw) · raw.len()` — `rfv_testkit`'s
/// input-scaled tolerance, widened by the row count because cumulative
/// and MinOA derivations add up to `n` inputs.
pub fn close(a: &[f64], b: &[f64], raw: &[f64]) -> bool {
    a.len() == b.len()
        && max_abs_error(a, b) <= FLOAT_TOL * input_scale(raw) * raw.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfv_types::row;

    #[test]
    fn fingerprint_sees_bits_order_and_shape() {
        let a = vec![row![1i64, 2.5f64], row![2i64, 0.0f64]];
        let mut b = a.clone();
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b[1] = row![2i64, -0.0f64];
        assert_ne!(fingerprint(&a), fingerprint(&b));
        b = vec![a[1].clone(), a[0].clone()];
        assert_ne!(fingerprint(&a), fingerprint(&b));
        assert_ne!(fingerprint(&a), fingerprint(&a[..1]));
    }

    #[test]
    fn close_scales_with_inputs() {
        let raw = vec![1000.0; 100];
        assert!(close(&[1.0, 2.0], &[1.0, 2.0 + 5e-5], &raw));
        assert!(!close(&[1.0, 2.0], &[1.0, 2.1], &raw));
        assert!(!close(&[1.0], &[1.0, 2.0], &raw));
    }
}
