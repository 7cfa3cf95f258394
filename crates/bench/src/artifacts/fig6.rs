//! Regenerate **Figure 6**: maximum capacity of a front-end server under a
//! G/G/150 model, as a function of the average service time.
//!
//! Paper: "Assuming that the c = 150 (...) the maximum capacity drops
//! sharply as the average service time of each thread increases: it drops
//! from 15 to 2 as the average service time goes from 10ms to 100ms."
//! (Capacity is plotted in queries per *millisecond*.)
//!
//! Run: `cargo run -p dwr-bench --release -- F6`

use crate::{bar, Ctx};
use dwr_queueing::ggc::GgcModel;

pub(crate) fn run(_: &Ctx) {
    println!("Figure 6. Maximum capacity of a front-end server using a G/G/150 model.");
    println!("x = average service time (ms), y = max sustainable arrivals (queries/ms)\n");
    let curve = GgcModel::capacity_curve(150, 0.005, 0.100, 20);
    let max_y = curve.first().map(|&(_, c)| c / 1000.0).unwrap_or(1.0);
    println!("{:>9} {:>12}  ", "svc (ms)", "cap (q/ms)");
    for (s, cap) in &curve {
        let per_ms = cap / 1000.0;
        println!("{:>9.1} {:>12.2}  |{}", s * 1000.0, per_ms, bar(per_ms, max_y, 50));
    }
    let at10 = GgcModel::front_end_150(0.010).max_capacity() / 1000.0;
    let at100 = GgcModel::front_end_150(0.100).max_capacity() / 1000.0;
    println!("\npaper anchors: capacity(10ms) = 15  -> measured {at10:.1}");
    println!("               capacity(100ms) ~  2  -> measured {at100:.1}");

    // Beyond the bound: the approximate waiting time of a *stable* G/G/150
    // front-end near saturation, to show why you cannot run at the bound.
    println!("\nmean wait (Allen-Cunneen) at 90% of max capacity:");
    for s in [0.010, 0.050, 0.100] {
        let m = GgcModel::front_end_150(s);
        let lambda = 0.9 * m.max_capacity();
        println!("  E[S] = {:>5.0} ms -> Wq = {:.1} ms", s * 1000.0, m.mean_wait(lambda) * 1000.0);
    }
}
