//! Binary model persistence (the OCSV format).
//!
//! Trained models must outlive the training process (the monitoring
//! deployment trains offline and loads profiles at the proxy), and the
//! crate's dependency budget has no serde *format* backend — so models get
//! a small self-contained binary format. Everything is little-endian;
//! floats are IEEE-754 bit patterns. In order:
//!
//! 1. the header: magic `OCSV`, the version byte, the kind byte (`0` for a
//!    [`Boundary::Hyperplane`], `1` for a [`Boundary::Sphere`]) and two
//!    zero bytes;
//! 2. the boundary's constants: `ρ`, or `R²` then `αᵀKα`;
//! 3. the regularization (`ν` or `C`);
//! 4. the kernel, then the support vectors as varint-length sparse rows;
//! 5. the training-diagnostics block.
//!
//! One writer and one reader serve both families: the kind byte is the only
//! place the boundary shows.
//!
//! Version 2 appends the support vectors' training-set indices to the
//! support block (when the model knows them), so a deserialized model
//! keeps the shared-Gram-row scoring path (`training_decision_values`)
//! instead of falling back to per-point kernel evaluation. Version 3 appends one trailing byte naming the training
//! backend. Models are trained only by exact SMO, so the writer always
//! writes tag 0. The reader also accepts tag 2 (the removed sampled
//! Frank–Wolfe backend): the bytes before the tag fully define the
//! decision function, so such a stored profile keeps serving and only its
//! provenance is dropped. Tag 1 (the removed one-data ensemble backend) and
//! unknown tags are `InvalidData`. Version-1/-2 streams are still read;
//! they carry no tag, and v1 models have no indices.

use crate::kernel::Kernel;
use crate::model::{Boundary, OneClassModel, SupportVectorSet, TrainDiagnostics};
use crate::sparse::SparseVector;
use std::io::{self, Read, Write};

const MAGIC: [u8; 4] = *b"OCSV";
const VERSION: u8 = 3;
/// Oldest version still readable (v1 lacks the training-index block).
const MIN_VERSION: u8 = 1;
const KIND_HYPERPLANE: u8 = 0;
const KIND_SPHERE: u8 = 1;
/// The v3 trailing backend tag of an exact-SMO model, the only tag written.
const EXACT_SMO_TAG: u8 = 0;

/// Writes the header, the boundary's constants (`ρ`, or `R²` then
/// `αᵀKα`), the regularization, the support vectors, the diagnostics and
/// the exact-SMO backend tag.
pub(crate) fn write_model<W: Write>(writer: &mut W, model: &OneClassModel) -> io::Result<()> {
    match model.boundary {
        Boundary::Hyperplane { rho } => {
            write_header(writer, KIND_HYPERPLANE)?;
            write_f64(writer, rho)?;
        }
        Boundary::Sphere { r_squared, alpha_k_alpha } => {
            write_header(writer, KIND_SPHERE)?;
            write_f64(writer, r_squared)?;
            write_f64(writer, alpha_k_alpha)?;
        }
    }
    write_f64(writer, model.regularization)?;
    write_support(writer, &model.support)?;
    write_diagnostics(writer, model.diagnostics)?;
    writer.write_all(&[EXACT_SMO_TAG])
}

pub(crate) fn read_model<R: Read>(reader: &mut R) -> io::Result<OneClassModel> {
    let (version, kind) = read_header(reader)?;
    let boundary = match kind {
        KIND_HYPERPLANE => Boundary::Hyperplane { rho: read_f64(reader)? },
        KIND_SPHERE => {
            let r_squared = read_f64(reader)?;
            Boundary::Sphere { r_squared, alpha_k_alpha: read_f64(reader)? }
        }
        other => return Err(invalid(format!("unknown model kind {other}"))),
    };
    let regularization = read_f64(reader)?;
    let support = read_support(reader, version)?;
    let diagnostics = read_diagnostics(reader)?;
    if version >= 3 {
        check_backend_tag(reader)?;
    }
    validate_indices(&support, diagnostics.train_size)?;
    Ok(OneClassModel { support, boundary, regularization, diagnostics })
}

/// Reads the v3 trailing backend tag. Tag 0 (exact SMO) and tag 2 (the
/// removed sampled backend, whose stored decision function still holds)
/// load; tag 1 (the removed one-data ensemble backend) and unknown tags are
/// `InvalidData` errors that say what the tag was.
fn check_backend_tag<R: Read>(reader: &mut R) -> io::Result<()> {
    let mut tag = [0u8; 1];
    reader.read_exact(&mut tag)?;
    match tag[0] {
        0 | 2 => Ok(()),
        1 => Err(invalid(
            "solver-backend tag 1 is the removed one-data ensemble backend; retrain the model",
        )),
        other => Err(invalid(format!("unknown solver-backend tag {other}"))),
    }
}

fn write_header<W: Write>(writer: &mut W, kind: u8) -> io::Result<()> {
    writer.write_all(&MAGIC)?;
    writer.write_all(&[VERSION, kind, 0, 0])
}

/// Returns the stored format version (within `MIN_VERSION..=VERSION`) and
/// the kind byte.
fn read_header<R: Read>(reader: &mut R) -> io::Result<(u8, u8)> {
    let mut header = [0u8; 8];
    reader.read_exact(&mut header)?;
    if header[0..4] != MAGIC {
        return Err(invalid("bad magic, not an OCSV model"));
    }
    if !(MIN_VERSION..=VERSION).contains(&header[4]) {
        return Err(invalid(format!("unsupported model version {}", header[4])));
    }
    Ok((header[4], header[5]))
}

/// The training indices are only trustworthy against the recorded training
/// size, which is read *after* the support block; re-checked here.
fn validate_indices(support: &SupportVectorSet, train_size: usize) -> io::Result<()> {
    if let Some(indices) = support.indices() {
        if indices.last().is_some_and(|&last| last >= train_size) {
            return Err(invalid(format!(
                "support index {} out of range for training size {train_size}",
                indices.last().unwrap()
            )));
        }
    }
    Ok(())
}

fn write_support<W: Write>(writer: &mut W, support: &SupportVectorSet) -> io::Result<()> {
    write_kernel(writer, support.kernel)?;
    write_varint(writer, support.vectors.len() as u64)?;
    for (vector, &alpha) in support.vectors.iter().zip(&support.alpha) {
        write_f64(writer, alpha)?;
        write_varint(writer, vector.nnz() as u64)?;
        for (column, value) in vector.iter() {
            write_varint(writer, u64::from(column))?;
            write_f64(writer, value)?;
        }
    }
    // v2 training-index block: flag byte, then one varint per support vector.
    match support.indices() {
        Some(indices) => {
            writer.write_all(&[1])?;
            for &index in indices {
                write_varint(writer, index as u64)?;
            }
            Ok(())
        }
        None => writer.write_all(&[0]),
    }
}

fn read_support<R: Read>(reader: &mut R, version: u8) -> io::Result<SupportVectorSet> {
    let kernel = read_kernel(reader)?;
    let count = read_varint(reader)? as usize;
    let mut vectors = Vec::with_capacity(count.min(1 << 20));
    let mut alpha = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        alpha.push(read_f64(reader)?);
        let nnz = read_varint(reader)? as usize;
        let mut pairs = Vec::with_capacity(nnz.min(1 << 20));
        for _ in 0..nnz {
            let column = read_varint(reader)? as u32;
            let value = read_f64(reader)?;
            pairs.push((column, value));
        }
        let vector = SparseVector::from_pairs(pairs)
            .map_err(|e| invalid(format!("corrupt support vector: {e}")))?;
        vectors.push(vector);
    }
    let mut support = SupportVectorSet::from_parts(vectors, alpha, kernel);
    if version >= 2 {
        let mut flag = [0u8; 1];
        reader.read_exact(&mut flag)?;
        match flag[0] {
            0 => {}
            1 => {
                let mut indices = Vec::with_capacity(count.min(1 << 20));
                for _ in 0..count {
                    indices.push(read_varint(reader)? as usize);
                }
                if !indices.windows(2).all(|w| w[0] < w[1]) {
                    return Err(invalid("support indices are not strictly increasing"));
                }
                support.restore_indices(indices);
            }
            other => return Err(invalid(format!("unknown index-block flag {other}"))),
        }
    }
    Ok(support)
}

fn write_kernel<W: Write>(writer: &mut W, kernel: Kernel) -> io::Result<()> {
    match kernel {
        Kernel::Linear => writer.write_all(&[0]),
        Kernel::Polynomial { gamma, coef0, degree } => {
            writer.write_all(&[1])?;
            write_f64(writer, gamma)?;
            write_f64(writer, coef0)?;
            write_varint(writer, u64::from(degree))
        }
        Kernel::Rbf { gamma } => {
            writer.write_all(&[2])?;
            write_f64(writer, gamma)
        }
        Kernel::Sigmoid { gamma, coef0 } => {
            writer.write_all(&[3])?;
            write_f64(writer, gamma)?;
            write_f64(writer, coef0)
        }
    }
}

fn read_kernel<R: Read>(reader: &mut R) -> io::Result<Kernel> {
    let mut tag = [0u8; 1];
    reader.read_exact(&mut tag)?;
    match tag[0] {
        0 => Ok(Kernel::Linear),
        1 => {
            let gamma = read_f64(reader)?;
            let coef0 = read_f64(reader)?;
            let degree = read_varint(reader)? as u32;
            Ok(Kernel::Polynomial { gamma, coef0, degree })
        }
        2 => Ok(Kernel::Rbf { gamma: read_f64(reader)? }),
        3 => {
            let gamma = read_f64(reader)?;
            let coef0 = read_f64(reader)?;
            Ok(Kernel::Sigmoid { gamma, coef0 })
        }
        other => Err(invalid(format!("unknown kernel tag {other}"))),
    }
}

fn write_diagnostics<W: Write>(writer: &mut W, d: TrainDiagnostics) -> io::Result<()> {
    write_varint(writer, d.iterations as u64)?;
    writer.write_all(&[d.converged as u8])?;
    write_f64(writer, d.objective)?;
    write_varint(writer, d.train_size as u64)?;
    write_varint(writer, d.support_vectors as u64)?;
    write_varint(writer, d.cache_hits)?;
    write_varint(writer, d.cache_misses)
}

fn read_diagnostics<R: Read>(reader: &mut R) -> io::Result<TrainDiagnostics> {
    let iterations = read_varint(reader)? as usize;
    let mut converged = [0u8; 1];
    reader.read_exact(&mut converged)?;
    let objective = read_f64(reader)?;
    let train_size = read_varint(reader)? as usize;
    let support_vectors = read_varint(reader)? as usize;
    let cache_hits = read_varint(reader)?;
    let cache_misses = read_varint(reader)?;
    Ok(TrainDiagnostics {
        iterations,
        converged: converged[0] != 0,
        objective,
        train_size,
        support_vectors,
        cache_hits,
        cache_misses,
    })
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

fn write_f64<W: Write>(writer: &mut W, value: f64) -> io::Result<()> {
    writer.write_all(&value.to_le_bytes())
}

fn read_f64<R: Read>(reader: &mut R) -> io::Result<f64> {
    let mut bytes = [0u8; 8];
    reader.read_exact(&mut bytes)?;
    Ok(f64::from_le_bytes(bytes))
}

pub(crate) fn write_varint<W: Write>(writer: &mut W, mut value: u64) -> io::Result<()> {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            return writer.write_all(&[byte]);
        }
        writer.write_all(&[byte | 0x80])?;
    }
}

pub(crate) fn read_varint<R: Read>(reader: &mut R) -> io::Result<u64> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        reader.read_exact(&mut byte)?;
        if shift >= 64 {
            return Err(invalid("varint overflow"));
        }
        value |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NuOcSvm, Svdd};

    fn training_data() -> Vec<SparseVector> {
        (0..40)
            .map(|i| {
                SparseVector::from_pairs(vec![
                    (0, 1.0),
                    (5 + (i % 3), 1.0),
                    (100, 0.1 * (i % 7) as f64 + 0.05),
                ])
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn ocsvm_round_trips_bitwise() {
        let data = training_data();
        let model = NuOcSvm::new(0.2, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap();
        let mut bytes = Vec::new();
        model.write_to(&mut bytes).unwrap();
        let loaded = OneClassModel::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.boundary(), model.boundary());
        assert_eq!(loaded.regularization(), model.regularization());
        assert_eq!(loaded.support_vector_count(), model.support_vector_count());
        for probe in &data {
            assert_eq!(loaded.decision_value(probe), model.decision_value(probe));
        }
    }

    #[test]
    fn svdd_round_trips_bitwise() {
        let data = training_data();
        let model = Svdd::new(0.4, Kernel::Linear).train(&data).unwrap();
        let mut bytes = Vec::new();
        model.write_to(&mut bytes).unwrap();
        let loaded = OneClassModel::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.boundary(), model.boundary());
        assert_eq!(loaded.regularization(), model.regularization());
        for probe in &data {
            assert_eq!(loaded.decision_value(probe), model.decision_value(probe));
        }
        // The linear collapsed fast path survives the round trip too.
        assert_eq!(loaded.diagnostics(), model.diagnostics());
    }

    #[test]
    fn every_kernel_round_trips() {
        for kernel in [
            Kernel::Linear,
            Kernel::Polynomial { gamma: 0.25, coef0: 1.5, degree: 4 },
            Kernel::Rbf { gamma: 1.25 },
            Kernel::Sigmoid { gamma: 0.01, coef0: -0.5 },
        ] {
            let mut bytes = Vec::new();
            write_kernel(&mut bytes, kernel).unwrap();
            assert_eq!(read_kernel(&mut bytes.as_slice()).unwrap(), kernel);
        }
    }

    #[test]
    fn round_trip_keeps_shared_row_scoring() {
        // The v2 index block must let a restored model use the precomputed
        // Gram path (no per-point fallback): it returns Some and agrees
        // bitwise with the in-process model, and so does the restored
        // model's probe-panel acceptance.
        use crate::gram::GramMatrix;
        let data = training_data();
        let probes: Vec<&SparseVector> = data.iter().take(7).collect();
        let panel = crate::panel::ProbePanel::pack(&probes);
        for kernel in [Kernel::Linear, Kernel::Rbf { gamma: 0.5 }] {
            let model = NuOcSvm::new(0.2, kernel).train(&data).unwrap();
            let mut bytes = Vec::new();
            model.write_to(&mut bytes).unwrap();
            let loaded = OneClassModel::read_from(&mut bytes.as_slice()).unwrap();
            let gram = GramMatrix::compute(kernel, &data);
            let restored = loaded
                .training_decision_values(&gram)
                .expect("restored model keeps shared-row scoring");
            assert_eq!(restored, model.training_decision_values(&gram).unwrap(), "{kernel:?}");
            assert_eq!(loaded.panel_acceptance(&panel), model.panel_acceptance(&panel));

            let svdd = Svdd::new(0.4, kernel).train(&data).unwrap();
            let mut bytes = Vec::new();
            svdd.write_to(&mut bytes).unwrap();
            let loaded = OneClassModel::read_from(&mut bytes.as_slice()).unwrap();
            let restored = loaded
                .training_decision_values(&gram)
                .expect("restored model keeps shared-row scoring");
            assert_eq!(restored, svdd.training_decision_values(&gram).unwrap(), "{kernel:?}");
            assert_eq!(loaded.panel_acceptance(&panel), svdd.panel_acceptance(&panel));
        }
    }

    #[test]
    fn model_without_indices_writes_and_reads_absent_block() {
        // A model assembled from parts (as read_support does for v1 data)
        // has no indices; the flag-0 path must round-trip that faithfully.
        let data = training_data();
        let trained = NuOcSvm::new(0.2, Kernel::Linear).train(&data).unwrap();
        let support = SupportVectorSet::from_parts(
            trained.support.vectors.clone(),
            trained.support.alpha.clone(),
            Kernel::Linear,
        );
        let indexless = OneClassModel { support, ..trained };
        let mut bytes = Vec::new();
        indexless.write_to(&mut bytes).unwrap();
        let loaded = OneClassModel::read_from(&mut bytes.as_slice()).unwrap();
        assert!(loaded.support.indices().is_none());
        for probe in &data {
            assert_eq!(loaded.decision_value(probe), indexless.decision_value(probe));
        }
    }

    #[test]
    fn corrupt_indices_are_rejected() {
        let data = training_data();
        let model = NuOcSvm::new(0.2, Kernel::Linear).train(&data).unwrap();
        let mut bytes = Vec::new();
        model.write_to(&mut bytes).unwrap();
        // Find the index-block flag byte by re-serializing the prefix up to
        // the diagnostics; simpler: flip the flag to an unknown value.
        let flag_pos = locate_index_flag(&bytes);
        let mut bad = bytes.clone();
        bad[flag_pos] = 7;
        let err = OneClassModel::read_from(&mut bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("index-block flag"), "{err}");
    }

    /// Byte offset of the index-block flag in a serialized OCSVM model,
    /// found by re-walking the layout.
    fn locate_index_flag(bytes: &[u8]) -> usize {
        let mut reader = bytes;
        read_header(&mut reader).unwrap();
        read_f64(&mut reader).unwrap();
        read_f64(&mut reader).unwrap();
        read_kernel(&mut reader).unwrap();
        let count = read_varint(&mut reader).unwrap();
        for _ in 0..count {
            read_f64(&mut reader).unwrap();
            let nnz = read_varint(&mut reader).unwrap();
            for _ in 0..nnz {
                read_varint(&mut reader).unwrap();
                read_f64(&mut reader).unwrap();
            }
        }
        bytes.len() - reader.len()
    }

    #[test]
    fn exact_backend_tag_round_trips() {
        let data = training_data();
        let model = NuOcSvm::new(0.2, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap();
        let mut bytes = Vec::new();
        model.write_to(&mut bytes).unwrap();
        assert_eq!(*bytes.last().unwrap(), EXACT_SMO_TAG);
        let loaded = OneClassModel::read_from(&mut bytes.as_slice()).unwrap();
        for probe in &data {
            assert_eq!(loaded.decision_value(probe), model.decision_value(probe));
        }

        let svdd = Svdd::new(0.4, Kernel::Linear).train(&data).unwrap();
        let mut bytes = Vec::new();
        svdd.write_to(&mut bytes).unwrap();
        assert_eq!(*bytes.last().unwrap(), EXACT_SMO_TAG);
        let loaded = OneClassModel::read_from(&mut bytes.as_slice()).unwrap();
        assert_eq!(loaded.boundary(), svdd.boundary());
    }

    #[test]
    fn v2_streams_still_load_as_exact_backend() {
        // A v2 stream is exactly a v3 stream minus the trailing backend
        // byte, with the header version patched down.
        let data = training_data();
        let model = NuOcSvm::new(0.2, Kernel::Rbf { gamma: 0.5 }).train(&data).unwrap();
        let mut bytes = Vec::new();
        model.write_to(&mut bytes).unwrap();
        bytes.pop();
        bytes[4] = 2;
        let loaded = OneClassModel::read_from(&mut bytes.as_slice()).unwrap();
        for probe in &data {
            assert_eq!(loaded.decision_value(probe), model.decision_value(probe));
        }
    }

    #[test]
    fn corrupt_backend_tag_is_rejected() {
        // An unknown tag and the removed ensemble backend's tag 1 both fail
        // as `InvalidData`; tag 1 says which backend it was.
        let data = training_data();
        let model = NuOcSvm::new(0.2, Kernel::Linear).train(&data).unwrap();
        let mut bytes = Vec::new();
        model.write_to(&mut bytes).unwrap();
        for (tag, needle) in [(9, "unknown solver-backend tag 9"), (1, "one-data ensemble")] {
            *bytes.last_mut().unwrap() = tag;
            let err = OneClassModel::read_from(&mut bytes.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "tag {tag}");
            assert!(err.to_string().contains("solver-backend"), "{err}");
            assert!(err.to_string().contains(needle), "{err}");
        }
    }

    #[test]
    fn truncated_backend_tag_is_rejected() {
        // A v3 header whose stream ends before the backend byte must fail
        // rather than default silently.
        let data = training_data();
        let model = NuOcSvm::new(0.2, Kernel::Linear).train(&data).unwrap();
        let mut bytes = Vec::new();
        model.write_to(&mut bytes).unwrap();
        bytes.pop();
        assert!(OneClassModel::read_from(&mut bytes.as_slice()).is_err());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(OneClassModel::read_from(&mut &b"garbage!"[..]).is_err());
        let truncated = {
            let data = training_data();
            let model = NuOcSvm::new(0.2, Kernel::Linear).train(&data).unwrap();
            let mut bytes = Vec::new();
            model.write_to(&mut bytes).unwrap();
            bytes.truncate(bytes.len() / 2);
            bytes
        };
        assert!(OneClassModel::read_from(&mut truncated.as_slice()).is_err());
        let mut unknown_kind = truncated;
        unknown_kind[5] = 2;
        let err = OneClassModel::read_from(&mut unknown_kind.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unknown model kind 2"), "{err}");
    }
}
