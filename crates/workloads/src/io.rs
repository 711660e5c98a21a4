//! Trace import/export: JSON (via serde), a minimal CSV dialect
//! (`slot,load` with a header line), and a compact CRC-guarded binary
//! format (`RSDT`) for large traces on the binary ingest path — so
//! externally recorded data-center traces can be dropped into the
//! harness in whichever shape they arrive.

use crate::traces::Trace;
use rsdc_store::wal::crc32;
use std::io::{BufRead, BufReader, Read, Write};

/// Magic bytes opening a binary trace file: ASCII `RSDT`.
pub const BINARY_MAGIC: [u8; 4] = *b"RSDT";

/// Current binary trace format version.
pub const BINARY_VERSION: u8 = 1;

/// Write a trace as CSV (`slot,load`).
pub fn write_csv<W: Write>(w: &mut W, trace: &Trace) -> std::io::Result<()> {
    writeln!(w, "slot,load")?;
    for (t, l) in trace.loads.iter().enumerate() {
        writeln!(w, "{t},{l}")?;
    }
    Ok(())
}

/// Read a trace from CSV. Accepts an optional `slot,load` header; the slot
/// column is ignored (rows are taken in order). Blank lines are skipped.
pub fn read_csv<R: Read>(r: R, label: impl Into<String>) -> std::io::Result<Trace> {
    let reader = BufReader::new(r);
    let mut loads = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split(',');
        let first = fields.next().unwrap_or("");
        let second = fields.next();
        if lineno == 0 && first.eq_ignore_ascii_case("slot") {
            continue;
        }
        let raw = second.unwrap_or(first);
        let v: f64 = raw.trim().parse().map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: bad load {raw:?}: {e}", lineno + 1),
            )
        })?;
        if !(v.is_finite() && v >= 0.0) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("line {}: load must be finite and >= 0, got {v}", lineno + 1),
            ));
        }
        loads.push(v);
    }
    Ok(Trace::new(label, loads))
}

/// True when `data` opens with the binary trace magic — the sniff the
/// CLI and scenario file sources use to pick a decoder.
pub fn is_binary(data: &[u8]) -> bool {
    data.len() >= 4 && data[..4] == BINARY_MAGIC
}

/// Write a trace in the binary format:
///
/// ```text
/// "RSDT" [ver: u8] [name_len: u16 LE] [name: UTF-8]
///        [count: u32 LE] [count x load: f64 LE] [crc: u32 LE]
/// ```
///
/// `crc` is the CRC-32 of everything after the magic (version byte
/// through the last load), so truncation and bit rot are both caught on
/// read.
pub fn write_binary<W: Write>(w: &mut W, trace: &Trace) -> std::io::Result<()> {
    let name = trace.label.as_bytes();
    if name.len() > u16::MAX as usize {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "trace label is {} bytes; the format caps it at 65535",
                name.len()
            ),
        ));
    }
    let count = u32::try_from(trace.loads.len()).map_err(|_| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "trace has {} slots; the format caps it at u32",
                trace.loads.len()
            ),
        )
    })?;
    let mut body = Vec::with_capacity(7 + name.len() + trace.loads.len() * 8);
    body.push(BINARY_VERSION);
    body.extend_from_slice(&(name.len() as u16).to_le_bytes());
    body.extend_from_slice(name);
    body.extend_from_slice(&count.to_le_bytes());
    for &l in &trace.loads {
        body.extend_from_slice(&l.to_bits().to_le_bytes());
    }
    w.write_all(&BINARY_MAGIC)?;
    w.write_all(&body)?;
    w.write_all(&crc32(&body).to_le_bytes())
}

/// Read a trace written by [`write_binary`]. Every violation — missing
/// magic, unknown version, truncation, trailing bytes, CRC mismatch, or
/// a non-finite/negative load — is a typed `InvalidData` error, never a
/// panic.
pub fn read_binary(data: &[u8]) -> std::io::Result<Trace> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    if !is_binary(data) {
        return Err(bad("not a binary trace: missing RSDT magic".into()));
    }
    if data.len() < 4 + 1 + 2 + 4 + 4 {
        return Err(bad(format!("binary trace truncated: {} bytes", data.len())));
    }
    let (body, tail) = data[4..].split_at(data.len() - 8);
    let expect = u32::from_le_bytes(tail.try_into().expect("4-byte tail"));
    let got = crc32(body);
    if got != expect {
        return Err(bad(format!(
            "binary trace crc mismatch: trailer {expect:#010x}, payload {got:#010x}"
        )));
    }
    if body[0] != BINARY_VERSION {
        return Err(bad(format!(
            "unsupported binary trace version {} (this build reads {BINARY_VERSION})",
            body[0]
        )));
    }
    let name_len = u16::from_le_bytes([body[1], body[2]]) as usize;
    let rest = &body[3..];
    if rest.len() < name_len + 4 {
        return Err(bad("binary trace truncated inside its header".into()));
    }
    let label = std::str::from_utf8(&rest[..name_len])
        .map_err(|e| bad(format!("binary trace label is not UTF-8: {e}")))?
        .to_string();
    let rest = &rest[name_len..];
    let count = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
    let rest = &rest[4..];
    if rest.len() != count * 8 {
        return Err(bad(format!(
            "binary trace declares {count} loads but carries {} bytes of them",
            rest.len()
        )));
    }
    let mut loads = Vec::with_capacity(count);
    for (i, chunk) in rest.chunks_exact(8).enumerate() {
        let v = f64::from_bits(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        if !(v.is_finite() && v >= 0.0) {
            return Err(bad(format!(
                "slot {i}: load must be finite and >= 0, got {v}"
            )));
        }
        loads.push(v);
    }
    Ok(Trace::new(label, loads))
}

/// Serialize a trace to JSON.
pub fn to_json(trace: &Trace) -> serde_json::Result<String> {
    serde_json::to_string_pretty(trace)
}

/// Deserialize a trace from JSON.
pub fn from_json(s: &str) -> serde_json::Result<Trace> {
    serde_json::from_str(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_trip() {
        let tr = Trace::new("t", vec![1.5, 0.0, 3.25]);
        let mut buf = Vec::new();
        write_csv(&mut buf, &tr).unwrap();
        let back = read_csv(&buf[..], "t").unwrap();
        assert_eq!(back.loads, tr.loads);
    }

    #[test]
    fn csv_without_header_and_single_column() {
        let data = "1.0\n2.5\n\n0.5\n";
        let tr = read_csv(data.as_bytes(), "x").unwrap();
        assert_eq!(tr.loads, vec![1.0, 2.5, 0.5]);
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(read_csv("slot,load\n0,abc\n".as_bytes(), "x").is_err());
        assert!(read_csv("0,-1.0\n".as_bytes(), "x").is_err());
        assert!(read_csv("0,inf\n".as_bytes(), "x").is_err());
    }

    #[test]
    fn json_round_trip() {
        let tr = Trace::new("label", vec![1.0, 2.0]);
        let s = to_json(&tr).unwrap();
        let back = from_json(&s).unwrap();
        assert_eq!(back, tr);
    }

    #[test]
    fn binary_round_trip_preserves_exact_bits() {
        let tr = Trace::new("binary-π", vec![0.0, 1.5, std::f64::consts::PI, 1e300]);
        let mut buf = Vec::new();
        write_binary(&mut buf, &tr).unwrap();
        assert!(is_binary(&buf));
        let back = read_binary(&buf).unwrap();
        assert_eq!(back.label, tr.label);
        // Bit-exact, not approximately equal: the binary format must not
        // round-trip loads through text.
        let bits = |t: &Trace| t.loads.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&tr));
    }

    #[test]
    fn binary_rejects_corruption_with_typed_errors() {
        let tr = Trace::new("t", vec![1.0, 2.0, 3.0]);
        let mut buf = Vec::new();
        write_binary(&mut buf, &tr).unwrap();

        let flipped = {
            let mut b = buf.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
            b
        };
        let err = read_binary(&flipped).unwrap_err().to_string();
        assert!(err.contains("crc mismatch"), "{err}");

        let err = read_binary(&buf[..buf.len() - 3]).unwrap_err().to_string();
        assert!(err.contains("crc mismatch"), "{err}");

        assert!(read_binary(b"RSDT").is_err());
        assert!(read_binary(b"not a trace")
            .unwrap_err()
            .to_string()
            .contains("magic"));

        // A negative load fails validation even when the CRC is intact.
        let mut evil = Trace::new("t", vec![1.0]);
        evil.loads[0] = -2.0;
        let mut buf = Vec::new();
        write_binary(&mut buf, &evil).unwrap();
        let err = read_binary(&buf).unwrap_err().to_string();
        assert!(err.contains("must be finite and >= 0"), "{err}");
    }
}
