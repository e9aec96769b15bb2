//! Deadlock detective: the paper's Section 2 story, executed.
//!
//! ```text
//! cargo run --example deadlock_detective
//! ```
//!
//! Takes the motivating example in its deadlocking statement order,
//! demonstrates the hang three independent ways (structural token-free
//! cycle, TMG verdict, cycle-accurate execution), then lets the
//! channel-ordering algorithm repair it and reports the cycle time of
//! every one of the 36 possible orderings.

use chanorder::{cycle_time_of, exhaustive_best_ordering, order_channels};
use sysgraph::{lower_to_tmg, proc_index as pi, MotivatingExample};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("The motivating example of the DAC'14 paper (Fig. 2)\n");
    let ex = MotivatingExample::new();
    println!(
        "system: {} processes, {} channels, {} possible orderings\n",
        ex.system.process_count(),
        ex.system.channel_count(),
        ex.system.ordering_space()
    );
    println!("{}", sysgraph::to_dot(&ex.system));

    // --- Evidence 1: a token-free cycle in the performance model. ------
    let lowered = lower_to_tmg(&ex.system);
    match tmg::find_token_free_cycle(lowered.tmg()) {
        Some(cycle) => {
            println!("token-free cycle found ({} places):", cycle.len());
            for p in &cycle {
                let place = lowered.tmg().place(*p);
                println!(
                    "  {} -> {}",
                    lowered.transition_name(&ex.system, place.producer()),
                    lowered.transition_name(&ex.system, place.consumer())
                );
            }
        }
        None => println!("no token-free cycle (unexpected for this ordering)"),
    }

    // --- Evidence 2: the analytic verdict. ------------------------------
    let verdict = tmg::analyze(lowered.tmg());
    println!(
        "\nTMG verdict: {}",
        if verdict.is_deadlock() {
            "DEADLOCK"
        } else {
            "live"
        }
    );

    // --- Evidence 3: executing the system hangs. ------------------------
    let run = pnsim::simulate_timing(&ex.system, 10);
    println!(
        "cycle-accurate execution: {} after {} cycles",
        if run.deadlocked {
            "stalled"
        } else {
            "completed"
        },
        run.time
    );

    // --- The fix: Algorithm 1. ------------------------------------------
    let solution = order_channels(&ex.system);
    let fixed = cycle_time_of(&ex.system, &solution.ordering)?;
    println!("\nchannel-ordering algorithm:");
    println!(
        "  P2 puts: {:?}",
        solution
            .ordering
            .puts(ex.processes[pi::P2])
            .iter()
            .map(|c| ex.system.channel(*c).name())
            .collect::<Vec<_>>()
    );
    println!(
        "  P6 gets: {:?}",
        solution
            .ordering
            .gets(ex.processes[pi::P6])
            .iter()
            .map(|c| ex.system.channel(*c).name())
            .collect::<Vec<_>>()
    );
    println!(
        "  verdict: {} at cycle time {}",
        if fixed.is_deadlock() {
            "deadlock"
        } else {
            "live"
        },
        fixed.cycle_time().expect("live")
    );

    // --- Every ordering, exhaustively. -----------------------------------
    let result = exhaustive_best_ordering(&ex.system, 100)?;
    println!(
        "\nexhaustive sweep: {} orderings, {} deadlock, optimum cycle time {}",
        result.enumerated, result.deadlocking, result.best_cycle_time
    );
    assert_eq!(result.best_cycle_time, fixed.cycle_time().expect("live"));
    println!("the O(E log E) algorithm matched the exhaustive optimum.");
    Ok(())
}
