//! The one table renderer. A column is a header, a width, a side and the
//! cell it shows of a row; a table is a header line plus one line per
//! row, cells padded to their column and joined by single spaces. A unit
//! is part of its cell: `"298 m"` right-aligned in 10.
//!
//! Every figure that replays cells prints `replay::experiments::Row`s, so
//! their columns are one vocabulary, defined once below.

use replay::experiments::Row;

/// One column of a table over rows of type `T`.
pub struct Col<T> {
    header: &'static str,
    width: usize,
    left: bool,
    cell: fn(&T) -> String,
}

/// A left-aligned column (text).
pub const fn left<T>(header: &'static str, width: usize, cell: fn(&T) -> String) -> Col<T> {
    Col {
        header,
        width,
        left: true,
        cell,
    }
}

/// A right-aligned column (numbers).
pub const fn right<T>(header: &'static str, width: usize, cell: fn(&T) -> String) -> Col<T> {
    Col {
        header,
        width,
        left: false,
        cell,
    }
}

/// One line: what `text` yields for each column, padded and joined.
fn line<T>(cols: &[Col<T>], text: impl Fn(&Col<T>) -> String) -> String {
    let padded: Vec<String> = cols
        .iter()
        .map(|col| {
            let (text, width) = (text(col), col.width);
            if col.left {
                format!("{text:<width$}")
            } else {
                format!("{text:>width$}")
            }
        })
        .collect();
    padded.join(" ")
}

/// Print one line per row, without the header line.
pub fn print_rows<T>(rows: &[T], cols: &[Col<T>]) {
    for row in rows {
        println!("{}", line(cols, |col| (col.cell)(row)));
    }
}

/// Print the header line, then one line per row.
pub fn print<T>(rows: &[T], cols: &[Col<T>]) {
    println!("{}", line(cols, |col| col.header.to_string()));
    print_rows(rows, cols);
}

/// A fixed-point number cell.
pub fn fixed(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

// The column vocabulary over `Row`.

/// The strategy (or schedule, or fleet) label.
pub const fn strategy(header: &'static str, width: usize) -> Col<Row> {
    left(header, width, |r| r.strategy.clone())
}
pub const SERVICE: Col<Row> = left("service", 18, |r| r.service.clone());
pub const INTERVAL: Col<Row> = left("interval", 10, |r| match r.interval_hours {
    0 => "-".into(), // the interval-free baseline
    h => format!("{h}h"),
});
pub const REPAIR: Col<Row> = left("repair", 10, |r| r.policy.label().into());
pub const ERA: Col<Row> = left("era", 18, |r| r.era.label().into());
pub const POOLS: Col<Row> = left("pools", 22, |r| r.pool_label.clone());
/// Total cost, `width` wide.
pub const fn cost(width: usize) -> Col<Row> {
    right("cost ($)", width, |r| fixed(r.cost.as_dollars(), 2))
}
pub const COST: Col<Row> = cost(12);
pub const OD_COST: Col<Row> = right("od cost ($)", 12, |r| {
    fixed(r.on_demand_cost.as_dollars(), 2)
});
pub const AVAILABILITY: Col<Row> = right("availability", 12, |r| fixed(r.availability, 6));
pub const DEGRADED: Col<Row> = right("degraded", 10, |r| format!("{} m", r.degraded_minutes));
pub const KILLS: Col<Row> = right("kills", 7, |r| r.kills.to_string());
pub const DRAINS: Col<Row> = right("drains", 7, |r| r.drains.to_string());
pub const LATE_DRAINS: Col<Row> = right("late", 7, |r| r.late_drains.to_string());
pub const NODES: Col<Row> = right("nodes", 7, |r| fixed(r.mean_group_size, 1));
pub const MEAN_INTERVAL: Col<Row> = right("mean interval", 14, |r| {
    format!("{:.1} h", r.mean_interval_hours)
});
