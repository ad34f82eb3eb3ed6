//! Regeneration of Table 2 (benchmark and memory-access characterisation).

use simkernel::ByteSize;

use crate::nas::NasBenchmark;
use crate::spec::BenchmarkSpec;

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharacterizationRow {
    /// Benchmark name.
    pub name: String,
    /// Input class.
    pub input: String,
    /// Number of kernels.
    pub kernels: usize,
    /// Number of strided references mapped to the SPMs.
    pub spm_refs: usize,
    /// Data set accessed by SPM references.
    pub spm_data: ByteSize,
    /// Number of potentially incoherent (guarded) references.
    pub guarded_refs: usize,
    /// Data set accessed by guarded references.
    pub guarded_data: ByteSize,
}

impl CharacterizationRow {
    /// Builds the row for one benchmark specification.
    pub fn from_spec(spec: &BenchmarkSpec) -> Self {
        CharacterizationRow {
            name: spec.name.clone(),
            input: spec.input.clone(),
            kernels: spec.kernels.len(),
            spm_refs: spec.spm_ref_count(),
            spm_data: spec.spm_data_size(),
            guarded_refs: spec.guarded_ref_count(),
            guarded_data: spec.guarded_data_size(),
        }
    }
}

/// Builds the full Table 2 for the six benchmarks of the paper.
pub fn characterize() -> Vec<CharacterizationRow> {
    NasBenchmark::ALL
        .iter()
        .map(|b| CharacterizationRow::from_spec(&b.spec()))
        .collect()
}

/// Formats rows as an aligned text table in the layout of Table 2.
pub fn to_table(rows: &[CharacterizationRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6} {:<10} {:>8} | {:>9} {:>10} | {:>12} {:>12}\n",
        "Name", "Input", "Kernels", "SPM refs", "SPM data", "Guarded refs", "Guarded data"
    ));
    out.push_str(&"-".repeat(80));
    out.push('\n');
    for r in rows {
        out.push_str(&format!(
            "{:<6} {:<10} {:>8} | {:>9} {:>10} | {:>12} {:>12}\n",
            r.name,
            r.input,
            r.kernels,
            r.spm_refs,
            r.spm_data.to_string(),
            r.guarded_refs,
            r.guarded_data.to_string(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_six_rows_in_paper_order() {
        let rows = characterize();
        assert_eq!(rows.len(), 6);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["CG", "EP", "FT", "IS", "MG", "SP"]);
    }

    #[test]
    fn table2_values_match_paper() {
        let rows = characterize();
        let cg = &rows[0];
        assert_eq!((cg.kernels, cg.spm_refs, cg.guarded_refs), (1, 5, 1));
        assert_eq!(cg.spm_data, ByteSize::mib(109));
        assert_eq!(cg.guarded_data, ByteSize::kib(600));
        let sp = &rows[5];
        assert_eq!((sp.kernels, sp.spm_refs, sp.guarded_refs), (54, 497, 0));
        assert_eq!(sp.spm_data, ByteSize::mib(2));
    }

    #[test]
    fn formatting_contains_all_benchmarks() {
        let table = to_table(&characterize());
        for name in ["CG", "EP", "FT", "IS", "MG", "SP"] {
            assert!(table.contains(name));
        }
        assert!(table.contains("109 MiB"));
        assert!(table.contains("Guarded"));
    }

    #[test]
    fn row_from_spec_matches_spec_queries() {
        let spec = NasBenchmark::Is.spec();
        let row = CharacterizationRow::from_spec(&spec);
        assert_eq!(row.spm_refs, spec.spm_ref_count());
        assert_eq!(row.guarded_data, spec.guarded_data_size());
    }
}
