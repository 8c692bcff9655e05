//! c-instances and pc-instances.
//!
//! A **c-instance** (Imieliński–Lipski, Green–Tannen) is a relational
//! instance whose facts carry propositional annotations over Boolean events:
//! each event valuation defines one possible world, obtained by keeping the
//! facts whose annotation evaluates to true. A **pc-instance** additionally
//! assigns independent probabilities to the events, inducing a probability
//! distribution on the possible worlds. The paper's Table 1 is a c-instance
//! over the events `pods` and `stoc`.

use crate::formula::Formula;
use crate::instance::{FactId, Instance};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use stuc_circuit::circuit::VarId;
use stuc_circuit::identity::ContentMemo;
use stuc_circuit::weights::Weights;

/// A dictionary interning event names to variable identifiers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventDictionary {
    names: Vec<String>,
    index: BTreeMap<String, VarId>,
}

impl EventDictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an event name.
    pub fn intern(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.index.get(name) {
            return v;
        }
        let v = VarId(self.names.len());
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), v);
        v
    }

    /// Looks up an event without interning.
    pub fn find(&self, name: &str) -> Option<VarId> {
        self.index.get(name).copied()
    }

    /// The name of an event.
    pub fn name(&self, v: VarId) -> &str {
        &self.names[v.0]
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no event has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterator over all event variables.
    pub fn variables(&self) -> impl Iterator<Item = VarId> {
        (0..self.names.len()).map(VarId)
    }
}

/// Hashes the interned names in order (the index is a function of them).
impl Hash for EventDictionary {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.names.hash(state);
    }
}

/// A c-instance: an instance whose facts carry annotation formulas over
/// named Boolean events.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CInstance {
    instance: Instance,
    annotations: Vec<Formula>,
    events: EventDictionary,
    /// Identity derived on first use; every `&mut self` method resets it.
    memo: ContentMemo,
}

impl CInstance {
    /// Creates an empty c-instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying (certain) relational instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The event dictionary.
    pub fn events(&self) -> &EventDictionary {
        &self.events
    }

    /// Mutable access to the event dictionary (to pre-declare events).
    pub fn events_mut(&mut self) -> &mut EventDictionary {
        self.memo.reset();
        &mut self.events
    }

    /// The content identity `(primary, check)`: two independently keyed
    /// hashes of the annotations, the event names and the instance's own
    /// memoised identity ([`Instance::content_identity`]), computed once
    /// between mutations (see [`stuc_circuit::identity`]).
    pub fn content_identity(&self) -> (u64, u64) {
        self.memo.identity("CInstance", |h| {
            let (primary, check) = self.instance.content_identity();
            h.write_u64(primary);
            h.write_u64(check);
            self.annotations.hash(h);
            self.events.hash(h);
        })
    }

    /// Adds a fact with an explicit annotation formula.
    pub fn add_annotated_fact(
        &mut self,
        relation: &str,
        args: &[&str],
        annotation: Formula,
    ) -> FactId {
        self.memo.reset();
        let id = self.instance.add_fact_named(relation, args);
        self.annotations.push(annotation);
        id
    }

    /// Adds a fact annotated with a formula given in the textual syntax of
    /// [`Formula::parse`]; event names are interned into this instance's
    /// dictionary.
    pub fn add_fact_with_condition(
        &mut self,
        relation: &str,
        args: &[&str],
        condition: &str,
    ) -> Result<FactId, crate::formula::FormulaParseError> {
        self.memo.reset();
        let events = &mut self.events;
        let formula = Formula::parse(condition, |name| events.intern(name))?;
        Ok(self.add_annotated_fact(relation, args, formula))
    }

    /// Adds a certain fact (annotation `true`).
    pub fn add_certain_fact(&mut self, relation: &str, args: &[&str]) -> FactId {
        self.add_annotated_fact(relation, args, Formula::True)
    }

    /// The annotation of a fact.
    pub fn annotation(&self, f: FactId) -> &Formula {
        &self.annotations[f.0]
    }

    /// Replaces the annotation of a fact (used by conditioning).
    pub fn set_annotation(&mut self, f: FactId, annotation: Formula) {
        self.memo.reset();
        self.annotations[f.0] = annotation;
    }

    /// Removes a fact together with its annotation. Later facts shift down
    /// by one (see [`Instance::remove_fact`]); interned events are kept.
    ///
    /// # Panics
    ///
    /// Panics if the fact does not exist.
    pub fn remove_fact(&mut self, f: FactId) -> Formula {
        self.memo.reset();
        self.instance.remove_fact(f);
        self.annotations.remove(f.0)
    }

    /// The facts present in the possible world defined by an event valuation.
    pub fn world(&self, valuation: &BTreeMap<VarId, bool>) -> Vec<FactId> {
        self.instance
            .facts()
            .map(|(id, _)| id)
            .filter(|id| self.annotations[id.0].evaluate(valuation))
            .collect()
    }

    /// Materialises the possible world defined by a valuation as a plain
    /// instance (same interned names, only the retained facts).
    pub fn world_instance(&self, valuation: &BTreeMap<VarId, bool>) -> Instance {
        let mut world = Instance::new();
        for (id, fact) in self.instance.facts() {
            if !self.annotations[id.0].evaluate(valuation) {
                continue;
            }
            let relation = self.instance.relation_name(fact.relation);
            let args: Vec<&str> = fact
                .args
                .iter()
                .map(|&c| self.instance.constant_name(c))
                .collect();
            world.add_fact_named(relation, &args);
        }
        world
    }

    /// Attaches independent probabilities to the events, yielding a
    /// pc-instance.
    pub fn with_probabilities(self, probabilities: Weights) -> PcInstance {
        PcInstance {
            cinstance: self,
            probabilities,
            memo: ContentMemo::default(),
        }
    }

    /// The paper's Table 1: trips to book depending on which conferences the
    /// researcher attends (PODS in Melbourne, STOC in Portland).
    pub fn table1_example() -> CInstance {
        let mut ci = CInstance::new();
        ci.add_fact_with_condition("Trip", &["Paris_CDG", "Melbourne_MEL"], "pods")
            .expect("valid annotation");
        ci.add_fact_with_condition("Trip", &["Melbourne_MEL", "Paris_CDG"], "pods & !stoc")
            .expect("valid annotation");
        ci.add_fact_with_condition("Trip", &["Melbourne_MEL", "Portland_PDX"], "pods & stoc")
            .expect("valid annotation");
        ci.add_fact_with_condition("Trip", &["Paris_CDG", "Portland_PDX"], "!pods & stoc")
            .expect("valid annotation");
        ci.add_fact_with_condition("Trip", &["Portland_PDX", "Paris_CDG"], "stoc")
            .expect("valid annotation");
        ci
    }
}

/// A pc-instance: a c-instance plus independent event probabilities.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PcInstance {
    cinstance: CInstance,
    probabilities: Weights,
    /// Identity derived on first use; every `&mut self` method resets it.
    memo: ContentMemo,
}

impl PcInstance {
    /// The underlying c-instance.
    pub fn cinstance(&self) -> &CInstance {
        &self.cinstance
    }

    /// Mutable access to the underlying c-instance (used by the incremental
    /// update subsystem to insert and remove annotated facts in place).
    pub fn cinstance_mut(&mut self) -> &mut CInstance {
        self.memo.reset();
        &mut self.cinstance
    }

    /// The underlying relational instance.
    pub fn instance(&self) -> &Instance {
        self.cinstance.instance()
    }

    /// The event probabilities.
    pub fn probabilities(&self) -> &Weights {
        &self.probabilities
    }

    /// Mutable access to the event probabilities (used by conditioning).
    pub fn probabilities_mut(&mut self) -> &mut Weights {
        self.memo.reset();
        &mut self.probabilities
    }

    /// The content identity `(primary, check)`: the c-instance's own
    /// (memoised) identity combined with the exact event probabilities,
    /// computed once between mutations.
    pub fn content_identity(&self) -> (u64, u64) {
        self.memo.identity("PcInstance", |h| {
            let (primary, check) = self.cinstance.content_identity();
            h.write_u64(primary);
            h.write_u64(check);
            h.write_weights(&self.probabilities);
        })
    }

    /// Number of declared events.
    pub fn event_count(&self) -> usize {
        self.cinstance.events().len()
    }

    /// True if every event used by an annotation has a probability.
    pub fn is_fully_weighted(&self) -> bool {
        self.cinstance
            .events()
            .variables()
            .all(|v| self.probabilities.get(v).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valuation(pairs: &[(usize, bool)]) -> BTreeMap<VarId, bool> {
        pairs.iter().map(|&(v, b)| (VarId(v), b)).collect()
    }

    #[test]
    fn event_dictionary_interns_stably() {
        let mut d = EventDictionary::new();
        let a = d.intern("pods");
        let b = d.intern("stoc");
        assert_eq!(d.intern("pods"), a);
        assert_ne!(a, b);
        assert_eq!(d.name(a), "pods");
        assert_eq!(d.find("stoc"), Some(b));
        assert_eq!(d.find("icdt"), None);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn table1_has_five_facts_and_two_events() {
        let ci = CInstance::table1_example();
        assert_eq!(ci.instance().fact_count(), 5);
        assert_eq!(ci.events().len(), 2);
    }

    #[test]
    fn table1_worlds_match_the_paper() {
        let ci = CInstance::table1_example();
        let pods = ci.events().find("pods").unwrap();
        let stoc = ci.events().find("stoc").unwrap();

        // Attending only PODS: book CDG→MEL and MEL→CDG.
        let world = ci.world(&valuation(&[(pods.0, true), (stoc.0, false)]));
        assert_eq!(world.len(), 2);

        // Attending both: CDG→MEL, MEL→PDX, PDX→CDG.
        let world = ci.world(&valuation(&[(pods.0, true), (stoc.0, true)]));
        assert_eq!(world.len(), 3);

        // Attending only STOC: CDG→PDX and PDX→CDG.
        let world = ci.world(&valuation(&[(pods.0, false), (stoc.0, true)]));
        assert_eq!(world.len(), 2);

        // Attending neither: no trips.
        let world = ci.world(&valuation(&[(pods.0, false), (stoc.0, false)]));
        assert!(world.is_empty());
    }

    #[test]
    fn world_instance_materialises_facts() {
        let ci = CInstance::table1_example();
        let pods = ci.events().find("pods").unwrap();
        let stoc = ci.events().find("stoc").unwrap();
        let world = ci.world_instance(&valuation(&[(pods.0, true), (stoc.0, true)]));
        assert_eq!(world.fact_count(), 3);
        let trip = world.find_relation("Trip").unwrap();
        assert_eq!(world.facts_of(trip).len(), 3);
    }

    #[test]
    fn certain_facts_appear_in_every_world() {
        let mut ci = CInstance::new();
        ci.add_certain_fact("R", &["a"]);
        ci.add_fact_with_condition("R", &["b"], "e").unwrap();
        let empty = ci.world(&BTreeMap::new());
        assert_eq!(empty.len(), 1);
    }

    #[test]
    fn set_annotation_overrides() {
        let mut ci = CInstance::new();
        let f = ci.add_certain_fact("R", &["a"]);
        ci.set_annotation(f, Formula::False);
        assert!(ci.world(&BTreeMap::new()).is_empty());
    }

    #[test]
    fn pc_instance_weighting() {
        let ci = CInstance::table1_example();
        let pods = ci.events().find("pods").unwrap();
        let stoc = ci.events().find("stoc").unwrap();
        let mut w = Weights::new();
        w.set(pods, 0.7);
        let pc = ci.with_probabilities(w);
        assert!(!pc.is_fully_weighted());
        let mut pc = pc;
        pc.probabilities_mut().set(stoc, 0.4);
        assert!(pc.is_fully_weighted());
        assert_eq!(pc.event_count(), 2);
    }

    #[test]
    fn invalid_condition_reports_parse_error() {
        let mut ci = CInstance::new();
        assert!(ci.add_fact_with_condition("R", &["a"], "e &").is_err());
    }
}
