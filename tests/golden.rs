//! Golden regression tests pinning the paper-facing numbers.
//!
//! Two things are pinned so future refactors cannot silently drift them:
//!
//! 1. the full rendered Table 2 (benchmark characterisation) — every column,
//!    including the SPM/guarded data-set sizes the integration test does not
//!    check — against `tests/golden/table2.txt`;
//! 2. bit-exact determinism of a full machine run, for **all three**
//!    [`MachineKind`]s (the existing integration test only covers the
//!    proposed protocol).
//!
//! If a change legitimately alters Table 2, regenerate the snapshot with
//! `cargo run --release -p system --bin report -- table2 > tests/golden/table2.txt`
//! and justify the drift in the PR.

use spm_manycore::system::{Machine, MachineKind, SystemConfig};
use spm_manycore::workloads::characterize;
use spm_manycore::workloads::nas::NasBenchmark;

const GOLDEN_TABLE2: &str = include_str!("golden/table2.txt");

#[test]
fn table2_characterization_matches_golden_snapshot() {
    let rendered = spm_manycore::workloads::characterize::to_table(&characterize());
    assert_eq!(
        rendered, GOLDEN_TABLE2,
        "Table 2 drifted from tests/golden/table2.txt; if intentional, \
         regenerate the snapshot and explain the change"
    );
}

#[test]
fn table2_rows_pin_every_field() {
    // The same data as the snapshot, but structured: catches a formatting-only
    // change masking a value change (and vice versa).
    let rows = characterize();
    let expected: [(&str, &str, usize, usize, u64, usize, u64); 6] = [
        ("CG", "Class B", 1, 5, 109 << 20, 1, 600 << 10),
        ("EP", "Class A", 2, 3, 1 << 20, 1, 512 << 10),
        ("FT", "Class A", 5, 32, 269 << 20, 4, 1 << 20),
        ("IS", "Class A", 1, 3, 67 << 20, 2, 2 << 20),
        ("MG", "Class A", 3, 59, 454 << 20, 6, 64),
        ("SP", "Class A", 54, 497, 2 << 20, 0, 0),
    ];
    assert_eq!(rows.len(), expected.len());
    for (row, (name, input, kernels, spm_refs, spm_data, guarded_refs, guarded_data)) in
        rows.iter().zip(expected)
    {
        assert_eq!(row.name, name);
        assert_eq!(row.input, input, "{name}: input class");
        assert_eq!(row.kernels, kernels, "{name}: kernel count");
        assert_eq!(row.spm_refs, spm_refs, "{name}: SPM reference count");
        assert_eq!(row.spm_data.bytes(), spm_data, "{name}: SPM data set");
        assert_eq!(
            row.guarded_refs, guarded_refs,
            "{name}: guarded reference count"
        );
        assert_eq!(
            row.guarded_data.bytes(),
            guarded_data,
            "{name}: guarded data set"
        );
    }
}

#[test]
fn results_are_deterministic_across_runs_on_all_machine_kinds() {
    let config = SystemConfig::small(4);
    let spec = NasBenchmark::Is.spec_scaled(1.0 / 2048.0);
    for kind in MachineKind::ALL {
        let a = Machine::new(kind, config.clone()).run(&spec);
        let b = Machine::new(kind, config.clone()).run(&spec);
        assert_eq!(
            a.execution_time, b.execution_time,
            "{kind:?}: execution time"
        );
        assert_eq!(
            a.instructions, b.instructions,
            "{kind:?}: instruction count"
        );
        assert_eq!(
            a.total_packets(),
            b.total_packets(),
            "{kind:?}: NoC packets"
        );
        assert_eq!(a.phase_cycles, b.phase_cycles, "{kind:?}: phase breakdown");
        // Energy is a float; determinism must be bit-exact, not approximate.
        assert_eq!(
            a.total_energy().to_bits(),
            b.total_energy().to_bits(),
            "{kind:?}: total energy"
        );
        assert_eq!(
            a.filter_hit_ratio.map(f64::to_bits),
            b.filter_hit_ratio.map(f64::to_bits),
            "{kind:?}: filter hit ratio"
        );
    }
}
