//! Table 2: the 2-dominating example tree `Te` versus the regular binary
//! tree `T2` — height counts `h(i)`, cumulative fractions `H(i)`, and
//! domination factors.

use crate::report::Table;
use td_topology::domination::DominationProfile;

/// The paper's example tree `Te`: `h = (37, 10, 6, 1)`, `m = 54`.
pub fn te() -> DominationProfile {
    DominationProfile::from_height_counts(vec![37, 10, 6, 1])
}

/// The regular binary comparison tree `T2`: `h = (8, 4, 2, 1)`, `m = 15`.
pub fn t2() -> DominationProfile {
    DominationProfile::from_height_counts(vec![8, 4, 2, 1])
}

/// Render the table alongside the domination checks.
pub fn table() -> Table {
    let te = te();
    let t2 = t2();
    let mut t = Table::new(
        "Table 2: example of a 2-dominating tree",
        &[
            "i",
            "Te_h(i)",
            "Te_H(i)",
            "T2_h(i)",
            "T2_H(i)",
            "bound_1-2^-i",
        ],
    );
    for i in 1..=4usize {
        t.row(vec![
            i.to_string(),
            te.h(i).to_string(),
            format!("{:.4}", te.cumulative(i)),
            t2.h(i).to_string(),
            format!("{:.4}", t2.cumulative(i)),
            format!("{:.4}", 1.0 - 2f64.powi(-(i as i32))),
        ]);
    }
    t
}

/// Summary line: domination verdicts.
pub fn summary() -> String {
    let te = te();
    let t2 = t2();
    format!(
        "Te: m={}, 2-dominating={}, grid factor={:.2} | T2: 2-dominating={}, grid factor={:.2}\n\
         (Paper claims Te is 2-dominating because H(i) of Te >= H(i) of T2 at every i;\n\
         under the formal Definition, Te's exact factor is {:.2}, not the paper's\n\
         parenthetical 2.05.)",
        te.num_nodes(),
        te.is_d_dominating(2.0),
        te.domination_factor(0.05),
        t2.is_d_dominating(2.0),
        t2.domination_factor(0.05),
        te.exact_domination_factor(),
    )
}

/// Regenerate Table 2: print it, write `results/tab02_domination.csv`
/// and print the domination verdicts.
pub fn regenerate() -> std::io::Result<()> {
    table().publish("tab02_domination")?;
    println!("\n{}", summary());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn te_dominates_t2_pointwise_and_both_2_dominating() {
        let te = te();
        let t2 = t2();
        for i in 1..=4 {
            assert!(te.cumulative(i) >= t2.cumulative(i) - 1e-12);
        }
        assert!(te.is_d_dominating(2.0));
        assert!(t2.is_d_dominating(2.0));
    }

    #[test]
    fn table_has_four_rows() {
        assert_eq!(table().len(), 4);
    }
}
