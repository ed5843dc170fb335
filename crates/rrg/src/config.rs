//! Retiming & recycling configurations — the paper's "RC" (Definition 2.7).
//!
//! A [`Config`] assigns every edge a new token count `R0'` and buffer count
//! `R'` such that
//!
//! * `R0'(e) = R0(e) + r(v) − r(u)` for some integer retiming vector `r`
//!   (Definition 2.6), and
//! * `R'(e) ≥ max(R0'(e), 0)`.
//!
//! The first condition is equivalent to preserving the token sum of every
//! directed cycle, which is what [`Config::validate`] checks (it does not
//! need `r` itself).

use std::error::Error;
use std::fmt;

use crate::algo;
use crate::rrg::{EdgeId, Rrg};
use crate::validate::ValidateError;

/// A retiming/recycling configuration: per-edge tokens and buffers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// `R0'(e)` per edge (indexed by [`EdgeId::index`]).
    pub tokens: Vec<i64>,
    /// `R'(e)` per edge.
    pub buffers: Vec<i64>,
}

/// Violations of Definition 2.7 for a configuration against its base RRG.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Vector lengths do not match the edge count.
    LengthMismatch { expected: usize, got: usize },
    /// Underlying RRG invariant broken (buffers < tokens, dead cycle, ...).
    Invalid(ValidateError),
    /// Token counts are not a retiming of the base graph: some cycle
    /// changed its token sum.
    NotARetiming { edge: EdgeId },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::LengthMismatch { expected, got } => {
                write!(f, "configuration covers {got} edges, graph has {expected}")
            }
            ConfigError::Invalid(e) => write!(f, "invalid configuration: {e}"),
            ConfigError::NotARetiming { edge } => write!(
                f,
                "token counts are not a retiming of the base graph (first mismatch near edge {edge})"
            ),
        }
    }
}

impl Error for ConfigError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ConfigError::Invalid(e) => Some(e),
            _ => None,
        }
    }
}

impl Config {
    /// The identity configuration of a graph (its own `R0`, `R`).
    pub fn initial(g: &Rrg) -> Config {
        Config {
            tokens: g.edges().map(|(_, e)| e.tokens()).collect(),
            buffers: g.edges().map(|(_, e)| e.buffers()).collect(),
        }
    }

    /// Configuration obtained by applying a retiming vector `r` to `g`
    /// (Definition 2.6) and assigning the **minimal legal buffers**
    /// `R' = max(R0', 0)` on every edge.
    ///
    /// # Panics
    ///
    /// Panics if `r.len() != g.num_nodes()`.
    pub fn from_retiming(g: &Rrg, r: &[i64]) -> Config {
        let tokens = retime_tokens(g, r);
        let buffers = tokens.iter().map(|&t| t.max(0)).collect();
        Config { tokens, buffers }
    }

    /// Configuration from a retiming vector, keeping each edge's buffer
    /// count *at least* the original one moved along with the retiming:
    /// `R'(e) = max(R(e) + r(v) − r(u), R0'(e), 0)`.
    ///
    /// This mirrors how hardware retiming moves whole EBs.
    ///
    /// # Panics
    ///
    /// Panics if `r.len() != g.num_nodes()`.
    pub fn from_retiming_with_buffers(g: &Rrg, r: &[i64]) -> Config {
        let tokens = retime_tokens(g, r);
        let buffers = g
            .edges()
            .zip(tokens.iter())
            .map(|((_, e), &t)| {
                let moved = e.buffers() + r[e.target().0] - r[e.source().0];
                moved.max(t).max(0)
            })
            .collect();
        Config { tokens, buffers }
    }

    /// Adds `count` bubbles (empty EBs) on `edge` — the paper's
    /// *recycling* transformation.
    pub fn add_bubbles(&mut self, edge: EdgeId, count: i64) {
        self.buffers[edge.index()] += count;
    }

    /// Number of bubbles on an edge (`R' − max(R0', 0)`).
    pub fn bubbles(&self, edge: EdgeId) -> i64 {
        self.buffers[edge.index()] - self.tokens[edge.index()].max(0)
    }

    /// Total bubble count of the configuration.
    pub fn total_bubbles(&self) -> i64 {
        self.tokens
            .iter()
            .zip(&self.buffers)
            .map(|(&t, &b)| b - t.max(0))
            .sum()
    }

    /// Checks Definition 2.7 against the base graph `g`:
    ///
    /// 1. vector lengths match,
    /// 2. `R' ≥ max(R0', 0)` and liveness (via [`crate::validate`]),
    /// 3. the token change is a retiming, i.e. every directed cycle keeps
    ///    its token sum. (Checked by verifying that `R0' − R0` is a
    ///    potential difference: both `Σ(R0'−R0)` and `Σ(R0−R0')` have no
    ///    negative cycle.)
    ///
    /// # Errors
    ///
    /// See [`ConfigError`].
    pub fn validate(&self, g: &Rrg) -> Result<(), ConfigError> {
        if self.tokens.len() != g.num_edges() || self.buffers.len() != g.num_edges() {
            return Err(ConfigError::LengthMismatch {
                expected: g.num_edges(),
                got: self.tokens.len().min(self.buffers.len()),
            });
        }
        let applied = self.apply(g).map_err(ConfigError::Invalid)?;
        // Retiming check: δ(e) = R0'(e) − R0(e) must satisfy
        // δ(e) = r(v) − r(u) for some node potential r. This holds iff
        // every directed cycle has Σδ = 0, iff neither δ nor −δ admits a
        // negative cycle.
        let delta = |e: EdgeId| self.tokens[e.index()] - g.edge(e).tokens();
        let bad_neg = algo::find_negative_cycle_with(&applied, delta);
        let bad_pos = algo::find_negative_cycle_with(&applied, |e| -delta(e));
        if let Some(cyc) = bad_neg.or(bad_pos) {
            return Err(ConfigError::NotARetiming { edge: cyc[0] });
        }
        Ok(())
    }

    /// Materialises the configuration as a new graph.
    ///
    /// # Errors
    ///
    /// [`ValidateError`] if the configured graph violates RRG invariants.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match `g`.
    pub fn apply(&self, g: &Rrg) -> Result<Rrg, ValidateError> {
        assert_eq!(self.tokens.len(), g.num_edges());
        assert_eq!(self.buffers.len(), g.num_edges());
        let mut out = g.clone();
        for (i, e) in out.edges.iter_mut().enumerate() {
            e.tokens = self.tokens[i];
            e.buffers = self.buffers[i];
        }
        crate::validate::validate(&out)?;
        Ok(out)
    }
}

/// Applies Definition 2.6: `R0'(e) = R0(e) + r(v) − r(u)`.
///
/// # Panics
///
/// Panics if `r.len() != g.num_nodes()`.
pub fn retime_tokens(g: &Rrg, r: &[i64]) -> Vec<i64> {
    assert_eq!(r.len(), g.num_nodes(), "retiming vector length mismatch");
    g.edges()
        .map(|(_, e)| e.tokens() + r[e.target().0] - r[e.source().0])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    #[test]
    fn identity_config_is_valid() {
        let g = figures::figure_1a(0.5);
        let c = Config::initial(&g);
        c.validate(&g).unwrap();
    }

    #[test]
    fn paper_retiming_vector_reaches_figure_2() {
        // r(m) = -2, r(F1) = -2, r(F2) = -1, r(F3) = r(f) = 0 turns
        // Figure 1(a) into Figure 2.
        let g = figures::figure_1a(0.9);
        let mut r = vec![0i64; g.num_nodes()];
        r[g.node_by_name("m").unwrap().0] = -2;
        r[g.node_by_name("F1").unwrap().0] = -2;
        r[g.node_by_name("F2").unwrap().0] = -1;
        let c = Config::from_retiming(&g, &r);
        c.validate(&g).unwrap();
        let retimed = c.apply(&g).unwrap();
        let expect = figures::figure_2(0.9);
        let got: Vec<(i64, i64)> = retimed
            .edges()
            .map(|(_, e)| (e.tokens(), e.buffers()))
            .collect();
        let want: Vec<(i64, i64)> = expect
            .edges()
            .map(|(_, e)| (e.tokens(), e.buffers()))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn cycle_token_sums_are_invariant_under_retiming() {
        let g = figures::figure_1a(0.5);
        let r: Vec<i64> = vec![3, -1, 2, 0, -5];
        let tokens = retime_tokens(&g, &r);
        // Top cycle: edges (f→m top), (m→F1), (F1→F2), (F2→F3), (F3→f).
        // We recompute its sum and compare with the original.
        let cycle_sum = |t: &dyn Fn(EdgeId) -> i64| -> i64 {
            g.edges()
                .filter(|(_, e)| {
                    // the top f→m edge is edge with 3 original tokens
                    e.gamma().is_none() || e.tokens() >= 0
                })
                .map(|(id, _)| t(id))
                .sum()
        };
        // All edges form the union of both cycles sharing the m→…→f path;
        // the *total* is a linear combination of cycle sums and must also
        // be preserved only when the retiming telescopes. Instead check
        // per-cycle via validate():
        let c = Config {
            tokens: tokens.clone(),
            buffers: tokens.iter().map(|&t| t.max(0)).collect(),
        };
        // Liveness may fail for arbitrary r (cycles keep sums, so it won't).
        c.validate(&g).unwrap();
        let _ = cycle_sum; // silence unused in case of refactor
    }

    #[test]
    fn non_retiming_tokens_are_rejected() {
        let g = figures::figure_1a(0.5);
        let mut c = Config::initial(&g);
        // Adding a token out of thin air changes a cycle sum.
        c.tokens[0] += 1;
        c.buffers[0] += 1;
        assert!(matches!(
            c.validate(&g),
            Err(ConfigError::NotARetiming { .. })
        ));
    }

    #[test]
    fn bubbles_are_recycling_not_retiming() {
        let g = figures::figure_1a(0.5);
        let mut c = Config::initial(&g);
        c.add_bubbles(EdgeId(1), 2);
        c.validate(&g).unwrap();
        assert_eq!(c.total_bubbles(), 2);
        assert_eq!(c.bubbles(EdgeId(1)), 2);
    }

    #[test]
    fn length_mismatch_detected() {
        let g = figures::figure_1a(0.5);
        let c = Config {
            tokens: vec![0; 2],
            buffers: vec![0; 2],
        };
        assert!(matches!(
            c.validate(&g),
            Err(ConfigError::LengthMismatch { .. })
        ));
    }
}
