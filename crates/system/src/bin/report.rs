//! Prints one table or figure of the ISCA'15 evaluation.
//!
//! Usage: `cargo run --release -p system --bin report -- <REPORT> [--cores N]
//! [--scale F] [--benchmarks CG,IS] [--json] …`, where REPORT is one of
//! table1, table2, fig7, fig8, fig9, fig10, fig11, ablations or full_eval;
//! `system::cli` documents every option.  A missing or unknown report name
//! exits with code 2, listing the valid names.

use system::cli::{parse_id_flag, run_report, CliOptions, Report};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_default();
    let ids = Report::ALL.map(Report::id);
    let report = parse_id_flag("report", &name, Report::from_id, &ids).unwrap_or_else(|error| {
        eprintln!("{error}\nusage: report <{}> [options]", ids.join("|"));
        std::process::exit(2);
    });
    print!("{}", run_report(report, &CliOptions::parse(args)));
}
