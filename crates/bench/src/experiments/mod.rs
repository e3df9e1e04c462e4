//! The experiment implementations (indexed by the `EXPERIMENTS` table of
//! the `experiments` binary).

pub mod ablations;
pub mod exact;
pub mod federated;
pub mod lowerbound;
pub mod pref;
pub mod ptile;
pub mod routing;
pub mod scaling;
pub mod setup;

/// Sweep sizes: `quick` shrinks every experiment for fast runs, `smoke`
/// shrinks them further to a CI sanity check.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Reduced sweeps for fast runs.
    pub quick: bool,
    /// Minimal sweeps: just prove the experiment executes end-to-end.
    pub smoke: bool,
}

impl Scale {
    /// The repository-size sweep for scaling experiments.
    pub fn n_sweep(&self) -> Vec<usize> {
        if self.smoke {
            vec![200, 400]
        } else if self.quick {
            vec![500, 1000, 2000]
        } else {
            vec![1000, 2000, 4000, 8000, 16000, 32000]
        }
    }

    /// Number of measured queries per configuration.
    pub fn queries(&self) -> usize {
        if self.smoke {
            4
        } else if self.quick {
            10
        } else {
            30
        }
    }
}
