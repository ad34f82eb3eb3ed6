//! The six NAS-like benchmark models of Table 2.
//!
//! Each constructor reproduces the corresponding row of the paper's Table 2:
//! the input class, the number of kernels, the number of strided (SPM) and
//! potentially incoherent (guarded) references, and the sizes of the data
//! sets each class of references touches.  The per-iteration access mixes
//! (guarded accesses per iteration, store fractions, stack intensity,
//! temporal locality of the random references) are chosen to reproduce the
//! qualitative behaviour described in §5.2–§5.4: CG and IS have a high ratio
//! of guarded accesses, EP is dominated by stack accesses, FT and MG touch
//! huge strided sets with only a few guarded references, and SP issues no
//! guarded accesses at all.

use simkernel::ByteSize;

use crate::spec::{ArrayRef, BenchmarkSpec, GuardedRef, KernelSpec};

/// The six benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NasBenchmark {
    /// Conjugate gradient (sparse matrix-vector products with a gather).
    Cg,
    /// Embarrassingly parallel (random-number kernels, stack dominated).
    Ep,
    /// 3-D FFT.
    Ft,
    /// Integer sort (bucket counting).
    Is,
    /// Multigrid.
    Mg,
    /// Scalar pentadiagonal solver (many small kernels, no guarded accesses).
    Sp,
}

impl NasBenchmark {
    /// All benchmarks in the order used by the paper's figures.
    pub const ALL: [NasBenchmark; 6] = [
        NasBenchmark::Cg,
        NasBenchmark::Ep,
        NasBenchmark::Ft,
        NasBenchmark::Is,
        NasBenchmark::Mg,
        NasBenchmark::Sp,
    ];

    /// The benchmark's name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            NasBenchmark::Cg => "CG",
            NasBenchmark::Ep => "EP",
            NasBenchmark::Ft => "FT",
            NasBenchmark::Is => "IS",
            NasBenchmark::Mg => "MG",
            NasBenchmark::Sp => "SP",
        }
    }

    /// The full-size specification matching Table 2.
    pub fn spec(self) -> BenchmarkSpec {
        match self {
            NasBenchmark::Cg => cg(),
            NasBenchmark::Ep => ep(),
            NasBenchmark::Ft => ft(),
            NasBenchmark::Is => is(),
            NasBenchmark::Mg => mg(),
            NasBenchmark::Sp => sp(),
        }
    }

    /// The specification with every data set scaled by `factor`.
    pub fn spec_scaled(self, factor: f64) -> BenchmarkSpec {
        self.spec().scaled(factor)
    }

    /// A per-benchmark data-set scale that keeps full 64-core simulations in
    /// the seconds range while preserving the capacity relationships the
    /// evaluation depends on (per-core strided partitions well beyond the L1,
    /// guarded sets around the L1/SPM scale).  EP and SP already use small
    /// inputs and are not scaled.
    pub fn recommended_scale(self) -> f64 {
        match self {
            NasBenchmark::Cg => 1.0 / 16.0,
            NasBenchmark::Ep => 1.0,
            NasBenchmark::Ft => 1.0 / 32.0,
            NasBenchmark::Is => 1.0 / 16.0,
            NasBenchmark::Mg => 1.0 / 48.0,
            NasBenchmark::Sp => 1.0,
        }
    }

    /// Parses a benchmark from its (case-insensitive) name.
    pub fn from_name(name: &str) -> Option<NasBenchmark> {
        match name.to_ascii_uppercase().as_str() {
            "CG" => Some(NasBenchmark::Cg),
            "EP" => Some(NasBenchmark::Ep),
            "FT" => Some(NasBenchmark::Ft),
            "IS" => Some(NasBenchmark::Is),
            "MG" => Some(NasBenchmark::Mg),
            "SP" => Some(NasBenchmark::Sp),
            _ => None,
        }
    }
}

impl std::fmt::Display for NasBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Splits `total` bytes over `parts` references so the sizes sum exactly.
fn split_bytes(total: ByteSize, parts: usize) -> Vec<ByteSize> {
    let each = total.bytes() / parts as u64;
    let mut out: Vec<ByteSize> = (0..parts).map(|_| ByteSize::bytes_exact(each)).collect();
    let rem = total.bytes() - each * parts as u64;
    if let Some(first) = out.first_mut() {
        *first = ByteSize::bytes_exact(each + rem);
    }
    out
}

fn strided_refs(
    prefix: &str,
    total: ByteSize,
    count: usize,
    written_every: usize,
) -> Vec<ArrayRef> {
    split_bytes(total, count)
        .into_iter()
        .enumerate()
        .map(|(i, size)| {
            let name = format!("{prefix}{i}");
            if written_every > 0 && i % written_every == written_every - 1 {
                ArrayRef::written(&name, size, 8)
            } else {
                ArrayRef::read(&name, size, 8)
            }
        })
        .collect()
}

/// CG, Class B: 1 kernel, 5 SPM references over 109 MB, 1 guarded reference
/// over 600 KB (the gather into the dense vector), high guarded ratio.
fn cg() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "CG".into(),
        input: "Class B".into(),
        kernels: vec![KernelSpec {
            name: "conj_grad".into(),
            spm_refs: strided_refs("cg_a", ByteSize::mib(109), 5, 3),
            random_refs: vec![
                GuardedRef::guarded("x_gather", ByteSize::kib(600), 1.0).with_locality(0.85, 0.08)
            ],
            stack_accesses_per_iteration: 0.8,
            compute_insts_per_iteration: 12,
            outer_repeats: 2,
            code_footprint: ByteSize::kib(24),
        }],
    }
}

/// EP, Class A: 2 kernels, 3 SPM references over 1 MB, 1 guarded reference
/// over 512 KB; dominated by stack accesses caused by register spilling.
fn ep() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "EP".into(),
        input: "Class A".into(),
        kernels: vec![
            KernelSpec {
                name: "gaussian_pairs".into(),
                spm_refs: strided_refs("ep_x", ByteSize::kib(640), 2, 2),
                random_refs: vec![GuardedRef::guarded("q_hist", ByteSize::kib(512), 0.3)
                    .with_writes(0.5)
                    .with_locality(0.95, 0.05)],
                stack_accesses_per_iteration: 10.0,
                compute_insts_per_iteration: 60,
                outer_repeats: 6,
                code_footprint: ByteSize::kib(16),
            },
            KernelSpec {
                name: "reduction".into(),
                spm_refs: strided_refs("ep_s", ByteSize::kib(384), 1, 1),
                random_refs: vec![],
                stack_accesses_per_iteration: 8.0,
                compute_insts_per_iteration: 40,
                outer_repeats: 6,
                code_footprint: ByteSize::kib(8),
            },
        ],
    }
}

/// FT, Class A: 5 kernels, 32 SPM references over 269 MB, 4 guarded
/// references over 1 MB.
fn ft() -> BenchmarkSpec {
    let per_kernel_refs = [7usize, 7, 6, 6, 6];
    let per_kernel_bytes = split_bytes(ByteSize::mib(269), 5);
    let kernels = per_kernel_refs
        .iter()
        .zip(per_kernel_bytes)
        .enumerate()
        .map(|(i, (&refs, bytes))| {
            let random_refs = if i < 4 {
                vec![
                    GuardedRef::guarded(&format!("ft_twiddle{i}"), ByteSize::kib(256), 0.15)
                        .with_locality(0.92, 0.1),
                ]
            } else {
                Vec::new()
            };
            KernelSpec {
                name: format!("fft_pass{i}"),
                spm_refs: strided_refs(&format!("ft_u{i}_"), bytes, refs, 2),
                random_refs,
                stack_accesses_per_iteration: 1.5,
                compute_insts_per_iteration: 18,
                outer_repeats: 1,
                code_footprint: ByteSize::kib(32),
            }
        })
        .collect();
    BenchmarkSpec {
        name: "FT".into(),
        input: "Class A".into(),
        kernels,
    }
}

/// IS, Class A: 1 kernel, 3 SPM references over 67 MB, 2 guarded references
/// over 2 MB (the bucket-count increments), high guarded ratio and the lowest
/// filter hit ratio of the suite.
fn is() -> BenchmarkSpec {
    BenchmarkSpec {
        name: "IS".into(),
        input: "Class A".into(),
        kernels: vec![KernelSpec {
            name: "rank".into(),
            spm_refs: strided_refs("is_key", ByteSize::mib(67), 3, 3),
            random_refs: vec![
                GuardedRef::guarded("bucket_cnt", ByteSize::mib(1), 1.0)
                    .with_writes(0.5)
                    .with_locality(0.80, 0.20),
                GuardedRef::guarded("key_perm", ByteSize::mib(1), 0.5)
                    .with_writes(0.3)
                    .with_locality(0.75, 0.25),
            ],
            stack_accesses_per_iteration: 0.5,
            compute_insts_per_iteration: 8,
            outer_repeats: 2,
            code_footprint: ByteSize::kib(12),
        }],
    }
}

/// MG, Class A: 3 kernels, 59 SPM references over 454 MB, 6 guarded
/// references that only touch 64 bytes (boundary scalars).
fn mg() -> BenchmarkSpec {
    let per_kernel_refs = [20usize, 20, 19];
    let per_kernel_bytes = split_bytes(ByteSize::mib(454), 3);
    let guarded_bytes = split_bytes(ByteSize::bytes_exact(64), 6);
    let kernels = per_kernel_refs
        .iter()
        .zip(per_kernel_bytes)
        .enumerate()
        .map(|(i, (&refs, bytes))| KernelSpec {
            name: format!("mg_level{i}"),
            spm_refs: strided_refs(&format!("mg_v{i}_"), bytes, refs, 4),
            random_refs: (0..2)
                .map(|j| {
                    GuardedRef::guarded(&format!("mg_bound{i}_{j}"), guarded_bytes[i * 2 + j], 0.15)
                        .with_locality(1.0, 1.0)
                })
                .collect(),
            stack_accesses_per_iteration: 1.0,
            compute_insts_per_iteration: 15,
            outer_repeats: 1,
            code_footprint: ByteSize::kib(28),
        })
        .collect();
    BenchmarkSpec {
        name: "MG".into(),
        input: "Class A".into(),
        kernels,
    }
}

/// SP, Class A: 54 small kernels, 497 SPM references over a 2 MB input set,
/// no guarded references at all.
///
/// The 54 solver sweeps all traverse the same grid arrays, so the references
/// of different kernels share names (and therefore memory): the unique data
/// set is 2 MB even though 497 static references exist.
fn sp() -> BenchmarkSpec {
    // 43 kernels with 9 references + 11 kernels with 10 references = 497.
    let shared = split_bytes(ByteSize::mib(2), 10);
    let mut kernels = Vec::with_capacity(54);
    for i in 0..54usize {
        let refs = if i < 43 { 9 } else { 10 };
        let spm_refs = (0..refs)
            .map(|j| {
                let name = format!("sp_u{j}");
                if j % 3 == 2 {
                    ArrayRef::written(&name, shared[j], 8)
                } else {
                    ArrayRef::read(&name, shared[j], 8)
                }
            })
            .collect();
        kernels.push(KernelSpec {
            name: format!("sp_sweep{i}"),
            spm_refs,
            random_refs: vec![],
            stack_accesses_per_iteration: 1.0,
            compute_insts_per_iteration: 20,
            outer_repeats: 4,
            code_footprint: ByteSize::kib(48),
        });
    }
    BenchmarkSpec {
        name: "SP".into(),
        input: "Class A".into(),
        kernels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_kernel_counts() {
        assert_eq!(NasBenchmark::Cg.spec().kernels.len(), 1);
        assert_eq!(NasBenchmark::Ep.spec().kernels.len(), 2);
        assert_eq!(NasBenchmark::Ft.spec().kernels.len(), 5);
        assert_eq!(NasBenchmark::Is.spec().kernels.len(), 1);
        assert_eq!(NasBenchmark::Mg.spec().kernels.len(), 3);
        assert_eq!(NasBenchmark::Sp.spec().kernels.len(), 54);
    }

    #[test]
    fn table2_reference_counts() {
        let counts: Vec<(usize, usize)> = NasBenchmark::ALL
            .iter()
            .map(|b| {
                let s = b.spec();
                (s.spm_ref_count(), s.guarded_ref_count())
            })
            .collect();
        assert_eq!(
            counts,
            vec![(5, 1), (3, 1), (32, 4), (3, 2), (59, 6), (497, 0)]
        );
    }

    #[test]
    fn table2_data_sizes() {
        let cg = NasBenchmark::Cg.spec();
        assert_eq!(cg.spm_data_size(), ByteSize::mib(109));
        assert_eq!(cg.guarded_data_size(), ByteSize::kib(600));
        let ep = NasBenchmark::Ep.spec();
        assert_eq!(ep.spm_data_size(), ByteSize::mib(1));
        assert_eq!(ep.guarded_data_size(), ByteSize::kib(512));
        let ft = NasBenchmark::Ft.spec();
        assert_eq!(ft.spm_data_size(), ByteSize::mib(269));
        assert_eq!(ft.guarded_data_size(), ByteSize::mib(1));
        let is = NasBenchmark::Is.spec();
        assert_eq!(is.spm_data_size(), ByteSize::mib(67));
        assert_eq!(is.guarded_data_size(), ByteSize::mib(2));
        let mg = NasBenchmark::Mg.spec();
        assert_eq!(mg.spm_data_size(), ByteSize::mib(454));
        assert_eq!(mg.guarded_data_size(), ByteSize::bytes_exact(64));
        let sp = NasBenchmark::Sp.spec();
        assert_eq!(sp.spm_data_size(), ByteSize::mib(2));
        assert_eq!(sp.guarded_data_size(), ByteSize::ZERO);
    }

    #[test]
    fn buffer_counts_fit_the_spmdir() {
        // Every kernel must need at most 32 SPM buffers (the SPMDir size).
        for b in NasBenchmark::ALL {
            for k in &b.spec().kernels {
                assert!(
                    k.spm_refs.len() <= 32,
                    "{} kernel {} needs {} buffers",
                    b.name(),
                    k.name,
                    k.spm_refs.len()
                );
                assert!(!k.spm_refs.is_empty());
            }
        }
    }

    #[test]
    fn sp_issues_no_guarded_accesses() {
        let sp = NasBenchmark::Sp.spec();
        for k in &sp.kernels {
            assert!(k.random_refs.is_empty());
        }
    }

    #[test]
    fn names_round_trip() {
        for b in NasBenchmark::ALL {
            assert_eq!(NasBenchmark::from_name(b.name()), Some(b));
            assert_eq!(NasBenchmark::from_name(&b.name().to_lowercase()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(NasBenchmark::from_name("LU"), None);
    }

    #[test]
    fn recommended_scales_are_positive_and_leave_ep_sp_alone() {
        for b in NasBenchmark::ALL {
            assert!(b.recommended_scale() > 0.0 && b.recommended_scale() <= 1.0);
        }
        assert_eq!(NasBenchmark::Ep.recommended_scale(), 1.0);
        assert_eq!(NasBenchmark::Sp.recommended_scale(), 1.0);
    }

    #[test]
    fn scaling_preserves_reference_counts() {
        for b in NasBenchmark::ALL {
            let scaled = b.spec_scaled(1.0 / 64.0);
            assert_eq!(scaled.spm_ref_count(), b.spec().spm_ref_count());
            assert_eq!(scaled.guarded_ref_count(), b.spec().guarded_ref_count());
        }
    }
}
