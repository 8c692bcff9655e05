//! The single error type of the unified engine.
//!
//! Every per-crate error in the workspace converts into [`StucError`], so
//! `Engine::evaluate` (and everything built on top of it) has exactly one
//! error channel regardless of which representation or back-end did the
//! work. The pre-engine API surfaced seven incompatible error enums; callers
//! had to know which subsystem they were ultimately invoking to even spell
//! the return type.

use stuc_automata::courcelle::CourcelleError;
use stuc_circuit::circuit::CircuitError;
use stuc_circuit::dpll::DpllError;
use stuc_circuit::enumeration::EnumerationError;
use stuc_circuit::semiring::ProvenanceError;
use stuc_circuit::weights::ProbabilityError;
use stuc_circuit::wmc::WmcError;
use stuc_data::formula::FormulaParseError;
use stuc_data::worlds::WorldError;
use stuc_graph::decomposition::DecompositionError;
use stuc_incr::UpdateError;
use stuc_infer::InferError;
use stuc_prxml::constraints::PrxmlConstraintError;
use stuc_prxml::queries::PrxmlQueryError;
use stuc_query::cq::QueryParseError;
use stuc_query::datalog::DatalogError;
use stuc_query::safe::SafePlanError;

stuc_errors::stuc_error! {
    /// The unified error enum of the STUC workspace: every per-crate error
    /// converts into it via `From`, and [`crate::engine::Engine`] returns
    /// nothing else.
    #[derive(Clone, PartialEq)]
    pub enum StucError {
        /// A tree decomposition was structurally invalid.
        Decomposition(DecompositionError),
        /// Circuit construction or evaluation failed.
        Circuit(CircuitError),
        /// The treewidth-based weighted model counter refused the circuit.
        Wmc(WmcError),
        /// The DPLL counter exhausted its branch budget.
        Dpll(DpllError),
        /// The enumeration baseline refused the circuit.
        Enumeration(EnumerationError),
        /// Semiring provenance was requested on a non-monotone circuit.
        Provenance(ProvenanceError),
        /// Possible-world enumeration failed.
        World(WorldError),
        /// An annotation formula could not be parsed.
        FormulaParse(FormulaParseError),
        /// A conjunctive query could not be parsed.
        QueryParse(QueryParseError),
        /// The extensional safe-plan baseline refused the query.
        SafePlan(SafePlanError),
        /// A Datalog program was rejected or diverged.
        Datalog(DatalogError),
        /// The Courcelle-style automaton run failed.
        Courcelle(CourcelleError),
        /// PrXML query evaluation failed.
        PrxmlQuery(PrxmlQueryError),
        /// PrXML constraint conditioning failed.
        PrxmlConstraint(PrxmlConstraintError),
        /// The selected back-end cannot handle the prepared task.
        BackendUnsupported {
            /// Stable name of the back-end that refused.
            backend: &'static str,
            /// Why it cannot run the task.
            reason: String,
        },
        /// The representation carries no probability for some event, so no
        /// numeric back-end can run.
        MissingProbabilities {
            /// Stable name of the representation kind that lacks weights.
            representation: &'static str,
        },
        /// A probability offered at a mutation site was NaN or out of range.
        Probability(ProbabilityError),
        /// An incremental update delta was rejected.
        Update(UpdateError),
        /// A posterior-inference task (marginals, sampling,
        /// most-probable-world) could not run.
        Infer(InferError),
        /// The textual front-end rejected a program (syntax, safety, or
        /// lowering).
        Lang(stuc_lang::LangError),
        /// `evaluate_text` was handed a program with inline fact statements;
        /// the instance is supplied separately, so inline facts would be a
        /// second, conflicting source of data.
        TextFacts {
            /// How many fact statements the rejected program declares.
            count: usize,
        },
        /// The evaluation's wall-clock deadline passed before it finished.
        DeadlineExceeded {
            /// The checkpoint (pipeline stage) that observed the expiry.
            stage: &'static str,
        },
        /// The evaluation was cancelled (e.g. the requesting client
        /// disconnected) before it finished.
        Cancelled {
            /// The checkpoint (pipeline stage) that observed the flag.
            stage: &'static str,
        },
        /// A panic was caught and isolated (the engine stays usable); the
        /// message is the panic payload when it was a string.
        Internal {
            /// The captured panic payload (or a placeholder).
            message: String,
        },
    }
    display {
        Self::Decomposition(e) => "{e}",
        Self::Circuit(e) => "{e}",
        Self::Wmc(e) => "{e}",
        Self::Dpll(e) => "{e}",
        Self::Enumeration(e) => "{e}",
        Self::Provenance(e) => "{e}",
        Self::World(e) => "{e}",
        Self::FormulaParse(e) => "{e}",
        Self::QueryParse(e) => "{e}",
        Self::SafePlan(e) => "{e}",
        Self::Datalog(e) => "{e}",
        Self::Courcelle(e) => "{e}",
        Self::PrxmlQuery(e) => "{e}",
        Self::PrxmlConstraint(e) => "{e}",
        Self::BackendUnsupported { backend, reason } => "back-end {backend} cannot run here: {reason}",
        Self::MissingProbabilities { representation } => "{representation} carries no event probabilities",
        Self::Probability(e) => "{e}",
        Self::Update(e) => "{e}",
        Self::Infer(e) => "{e}",
        Self::Lang(e) => "{e}",
        Self::TextFacts { count } => "program declares {count} inline fact(s), but evaluate_text evaluates against the instance passed in; build an instance from the facts with stuc_lang::lower::program_instance instead",
        Self::DeadlineExceeded { stage } => "evaluation deadline exceeded during {stage}",
        Self::Cancelled { stage } => "evaluation cancelled during {stage}",
        Self::Internal { message } => "internal error (caught panic): {message}",
    }
    from {
        DecompositionError => Decomposition,
        CircuitError => Circuit,
        EnumerationError => Enumeration,
        ProvenanceError => Provenance,
        WorldError => World,
        FormulaParseError => FormulaParse,
        QueryParseError => QueryParse,
        SafePlanError => SafePlan,
        DatalogError => Datalog,
        CourcelleError => Courcelle,
        PrxmlQueryError => PrxmlQuery,
        PrxmlConstraintError => PrxmlConstraint,
        ProbabilityError => Probability,
        UpdateError => Update,
        InferError => Infer,
    }
}

// Budget trips are detected deep inside the back-ends (sweeps, DPLL, the
// chase, unfolding) and travel up as a `Budget` variant of the local error
// enum; the conversions below unwrap them into the two top-level variants so
// callers (and the HTTP layer) match on `DeadlineExceeded`/`Cancelled`
// without knowing which loop noticed.
impl From<stuc_fault::BudgetError> for StucError {
    fn from(e: stuc_fault::BudgetError) -> Self {
        match e {
            stuc_fault::BudgetError::DeadlineExceeded { stage } => {
                StucError::DeadlineExceeded { stage }
            }
            stuc_fault::BudgetError::Cancelled { stage } => StucError::Cancelled { stage },
        }
    }
}

impl From<WmcError> for StucError {
    fn from(e: WmcError) -> Self {
        match e {
            WmcError::Budget(b) => b.into(),
            other => StucError::Wmc(other),
        }
    }
}

impl From<DpllError> for StucError {
    fn from(e: DpllError) -> Self {
        match e {
            DpllError::Budget(b) => b.into(),
            other => StucError::Dpll(other),
        }
    }
}

// `LangError` is flattened on the way in, so an unsafe query caught during
// lowering surfaces identically whether analysis or lowering spotted it.
impl From<stuc_lang::LangError> for StucError {
    fn from(e: stuc_lang::LangError) -> Self {
        let flattened = e.flattened();
        if let stuc_lang::LangError::Lower(stuc_lang::lower::LowerError::Budget(b)) = flattened {
            return b.into();
        }
        StucError::Lang(flattened)
    }
}

// Errors from the extension crates (order, rules, conditioning) also funnel
// into `StucError`, but those enums are not simple single-field wraps in all
// cases, so the conversions are written out here rather than in the macro's
// `from` block.

impl From<stuc_order::porelation::OrderError> for StucError {
    fn from(e: stuc_order::porelation::OrderError) -> Self {
        StucError::BackendUnsupported {
            backend: "order",
            reason: e.to_string(),
        }
    }
}

impl From<stuc_order::numeric::NumericOrderError> for StucError {
    fn from(e: stuc_order::numeric::NumericOrderError) -> Self {
        StucError::BackendUnsupported {
            backend: "numeric-order",
            reason: e.to_string(),
        }
    }
}

impl From<stuc_rules::chase::ChaseError> for StucError {
    fn from(e: stuc_rules::chase::ChaseError) -> Self {
        if let stuc_rules::chase::ChaseError::Budget(b) = e {
            return b.into();
        }
        StucError::BackendUnsupported {
            backend: "chase",
            reason: e.to_string(),
        }
    }
}

impl From<stuc_rules::constraints::ConstraintError> for StucError {
    fn from(e: stuc_rules::constraints::ConstraintError) -> Self {
        StucError::BackendUnsupported {
            backend: "rule-constraints",
            reason: e.to_string(),
        }
    }
}

impl From<stuc_cond::conditioning::ConditioningError> for StucError {
    fn from(e: stuc_cond::conditioning::ConditioningError) -> Self {
        StucError::BackendUnsupported {
            backend: "conditioning",
            reason: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_wrapped_error_displays_its_cause() {
        let e: StucError = SafePlanError::NotHierarchical.into();
        assert_eq!(e.to_string(), "query is not hierarchical (unsafe)");
        let e: StucError = WmcError::WidthTooLarge {
            width: 30,
            limit: 22,
        }
        .into();
        assert!(e.to_string().contains("exceeds the configured limit 22"));
        let e = StucError::BackendUnsupported {
            backend: "safe-plan",
            reason: "task is a circuit".into(),
        };
        assert!(e.to_string().contains("safe-plan"));
    }
}
