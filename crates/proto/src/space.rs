//! `ProtoSpace`: the product state space of a CFSM system as a
//! [`si_petri::space::StateSpace`], so the shared explorer (and its
//! budgets, witnesses and partial verdicts) runs protocol deadlock
//! detection unchanged.
//!
//! A product state packs, into `u64` words, each module's local control
//! state (a bit field sized to the module's state count, never straddling
//! a word boundary) and one pending-message bit per buffered/async
//! channel (rendezvous channels are stateless). The **global actions**
//! are enumerated once, in canonical order, as the space's labels:
//!
//! * `tau` moves and buffered sends/receives are one module's transition
//!   (a buffered send fills the channel slot and blocks while it is
//!   full; an `async` send instead reports an
//!   [`ProtoViolation::Overflow`] when the slot is full);
//! * a rendezvous send and each matching receive of the peer module fuse
//!   into a single combined label.
//!
//! Violations are judged per state by `inspect`:
//!
//! * [`ProtoViolation::Deadlock`] — no global action is enabled, yet a
//!   send is pending (some module sits in a state with an outgoing send,
//!   or a channel slot is full);
//! * [`ProtoViolation::DanglingSend`] — a channel slot is full but the
//!   receiver, from its current local state, cannot even *locally* reach
//!   a receive on that channel (a sound over-approximation: if the local
//!   control graph has no path to a receive, no global schedule has one);
//! * [`ProtoViolation::Overflow`] — an `async` send fired onto a full
//!   slot (reported on the edge; the overflowing send produces no
//!   successor, keeping the space finite).

use crate::model::{ActionKind, ChannelId, ChannelKind, ModuleId, ProtoSystem};
use si_petri::space::{SpaceVisitor, StateSpace, Verdict};
use std::fmt;

/// A protocol violation discovered in the product space.
///
/// Ordered (`Ord`) so violation lists can be sorted canonically,
/// independent of exploration order.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProtoViolation {
    /// No global action is enabled but a send is pending: some module's
    /// current state has an outgoing send, or a channel slot is full.
    Deadlock,
    /// The channel's slot is full and the receiver can never consume it.
    DanglingSend {
        /// The channel whose message is stuck.
        channel: ChannelId,
    },
    /// An `async` send fired while the channel's 1-bounded slot was
    /// already full.
    Overflow {
        /// The overflowed channel.
        channel: ChannelId,
        /// The sending module.
        module: ModuleId,
    },
}

impl ProtoViolation {
    /// Stable kind tag for JSON output (`deadlock` / `dangling-send` /
    /// `overflow`).
    pub fn kind(&self) -> &'static str {
        match self {
            ProtoViolation::Deadlock => "deadlock",
            ProtoViolation::DanglingSend { .. } => "dangling-send",
            ProtoViolation::Overflow { .. } => "overflow",
        }
    }

    /// Renders the violation with channel/module names from `sys`.
    pub fn render(&self, sys: &ProtoSystem) -> String {
        match *self {
            ProtoViolation::Deadlock => "deadlock: no action enabled, send pending".to_string(),
            ProtoViolation::DanglingSend { channel } => format!(
                "dangling send: message on {:?} can never be received by {:?}",
                sys.channel(channel).name,
                sys.module(sys.channel(channel).receiver).name
            ),
            ProtoViolation::Overflow { channel, module } => format!(
                "overflow: {:?} sent on {:?} while its 1-bounded slot was full",
                sys.module(module).name,
                sys.channel(channel).name
            ),
        }
    }
}

/// A decoded product state: per-module local states and per-channel
/// pending bits, in canonical (system) order. `Ord` so states sort
/// canonically by content, independent of interner ids.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GlobalState {
    /// Local state of each module, indexed by [`ModuleId`].
    pub locals: Vec<u16>,
    /// Pending bit of each channel, indexed by [`ChannelId`]
    /// (always `false` for rendezvous channels).
    pub slots: Vec<bool>,
}

impl GlobalState {
    /// Renders `mod=state ... | chan=• ...` with names from `sys`
    /// (full slots only; `|` part omitted when no slot is full).
    pub fn render(&self, sys: &ProtoSystem) -> String {
        let mut s = String::new();
        for (m, &l) in sys.modules().iter().zip(&self.locals) {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&m.name);
            s.push('=');
            s.push_str(m.state_name(l));
        }
        let full: Vec<&str> = sys
            .channels()
            .iter()
            .zip(&self.slots)
            .filter(|&(_, &f)| f)
            .map(|(c, _)| c.name.as_str())
            .collect();
        if !full.is_empty() {
            s.push_str(" | pending: ");
            s.push_str(&full.join(" "));
        }
        s
    }
}

/// Location of one packed bit field.
#[derive(Copy, Clone, Debug)]
struct Field {
    word: usize,
    shift: u32,
    mask: u64,
}

impl Field {
    #[inline]
    fn get(&self, state: &[u64]) -> u64 {
        (state[self.word] >> self.shift) & self.mask
    }
}

/// One word of an action's compiled masks.
#[derive(Copy, Clone, Default, Debug)]
struct WordMask {
    /// Guard: the action is enabled iff `state & care == value` on every
    /// word.
    care: u64,
    value: u64,
    /// Update: the successor is `(state & !clear) | set`.
    clear: u64,
    set: u64,
    /// An `async` send's slot bit: firing while it is full is an
    /// overflow, with no successor.
    overflow: u64,
}

/// Adds `f == v` to an action's guard.
fn require(masks: &mut [WordMask], f: Field, v: u64) {
    masks[f.word].care |= f.mask << f.shift;
    masks[f.word].value |= v << f.shift;
}

/// Adds `f := v` to an action's update.
fn assign(masks: &mut [WordMask], f: Field, v: u64) {
    masks[f.word].clear |= f.mask << f.shift;
    masks[f.word].set |= v << f.shift;
}

/// The product state space of one [`ProtoSystem`].
pub struct ProtoSpace<'a> {
    sys: &'a ProtoSystem,
    words: usize,
    /// Packed control-state field of each module.
    module_fields: Vec<Field>,
    /// Packed pending bit of each slotted channel (`None` for sync).
    slot_fields: Vec<Option<Field>>,
    /// Every slot bit, per word.
    slot_bits: Vec<u64>,
    /// The compiled masks of the canonical global action table: label
    /// `l` owns `masks[l * words .. (l + 1) * words]`.
    masks: Vec<WordMask>,
    /// The violation an `async` send reports when it overflows (`None`
    /// for every other action).
    overflows: Vec<Option<ProtoViolation>>,
    /// Rendered name of each action, for witnesses and JSON.
    action_names: Vec<String>,
    /// Index of module `m`'s local state `s` among all (module, local
    /// state) pairs: `state_base[m] + s`.
    state_base: Vec<u32>,
    /// The labels whose source is the local state of pair `k` are
    /// `label_start[k] .. label_start[k + 1]`: a module's labels are
    /// contiguous and sorted by source state.
    label_start: Vec<u32>,
    /// Per (module, local state) pair: the state has an outgoing send.
    has_send: Vec<bool>,
    /// `can_receive[c]` (slotted channels only) bit `s`: from local state
    /// `s`, the channel's receiver can locally reach a receive on `c`.
    can_receive: Vec<Option<Vec<u64>>>,
}

#[inline]
fn bit(set: &[u64], i: u16) -> bool {
    set[i as usize / 64] >> (i as usize % 64) & 1 != 0
}

#[inline]
fn set_bit(set: &mut [u64], i: u16) {
    set[i as usize / 64] |= 1 << (i as usize % 64);
}

impl<'a> ProtoSpace<'a> {
    /// Builds the product space of `sys`.
    pub fn new(sys: &'a ProtoSystem) -> Self {
        // Pack module fields then channel slots; a field never straddles
        // a word boundary (module widths are ≤ 16 bits).
        let mut cursor = 0usize;
        let mut module_fields = Vec::with_capacity(sys.modules().len());
        for m in sys.modules() {
            let n = m.states.len() as u64;
            let width = if n <= 1 {
                1
            } else {
                64 - (n - 1).leading_zeros()
            };
            if cursor % 64 + width as usize > 64 {
                cursor = (cursor / 64 + 1) * 64;
            }
            module_fields.push(Field {
                word: cursor / 64,
                shift: (cursor % 64) as u32,
                mask: (1u64 << width) - 1,
            });
            cursor += width as usize;
        }
        let mut slot_fields = Vec::with_capacity(sys.channels().len());
        for c in sys.channels() {
            if c.kind.has_slot() {
                slot_fields.push(Some(Field {
                    word: cursor / 64,
                    shift: (cursor % 64) as u32,
                    mask: 1,
                }));
                cursor += 1;
            } else {
                slot_fields.push(None);
            }
        }
        let words = cursor.div_ceil(64).max(1);
        let mut slot_bits = vec![0u64; words];
        for f in slot_fields.iter().flatten() {
            slot_bits[f.word] |= 1 << f.shift;
        }
        let mut state_base = Vec::with_capacity(sys.modules().len());
        let mut pairs = 0u32;
        for m in sys.modules() {
            state_base.push(pairs);
            pairs += m.states.len() as u32;
        }

        // Canonical action table: modules ascending, transitions in their
        // (already canonical, source-sorted) order; a rendezvous send
        // pairs with each receive transition of the peer, in the peer's
        // order. Each action compiles to its guard, update and overflow
        // masks, and is filed under its (module, source state) pair.
        let mut masks = Vec::new();
        let mut overflows = Vec::new();
        let mut action_names = Vec::new();
        let mut sources = Vec::new();
        let mut has_send = vec![false; pairs as usize];
        for (mi, m) in sys.modules().iter().enumerate() {
            let me = module_fields[mi];
            for t in &m.transitions {
                let mut push = |rec: Vec<WordMask>, overflow, name| {
                    masks.extend(rec);
                    overflows.push(overflow);
                    action_names.push(name);
                    sources.push(state_base[mi] + t.from as u32);
                };
                // Every action moves its module from `t.from` to `t.to`.
                let mut rec = vec![WordMask::default(); words];
                require(&mut rec, me, t.from as u64);
                assign(&mut rec, me, t.to as u64);
                let local = format!(
                    "{}: {} -> {}",
                    m.name,
                    m.state_name(t.from),
                    m.state_name(t.to)
                );
                match t.action {
                    ActionKind::Internal => push(rec, None, format!("{local} : tau")),
                    ActionKind::Send(c) => {
                        has_send[(state_base[mi] + t.from as u32) as usize] = true;
                        let ch = sys.channel(c);
                        if ch.kind == ChannelKind::Rendezvous {
                            let peer = sys.module(ch.receiver);
                            let pf = module_fields[ch.receiver.0 as usize];
                            for rt in &peer.transitions {
                                if rt.action != ActionKind::Receive(c) {
                                    continue;
                                }
                                let mut rec = rec.clone();
                                require(&mut rec, pf, rt.from as u64);
                                assign(&mut rec, pf, rt.to as u64);
                                let name = format!(
                                    "{}: {}.{} -> {} | {}.{} -> {}",
                                    ch.name,
                                    m.name,
                                    m.state_name(t.from),
                                    m.state_name(t.to),
                                    peer.name,
                                    peer.state_name(rt.from),
                                    peer.state_name(rt.to)
                                );
                                push(rec, None, name);
                            }
                        } else {
                            let slot = slot_fields[c.0 as usize].expect("slotted channel");
                            assign(&mut rec, slot, 1);
                            let overflow = if ch.kind == ChannelKind::Async {
                                // Enabled whatever the slot holds: firing
                                // onto a full slot is the overflow.
                                rec[slot.word].overflow |= 1 << slot.shift;
                                Some(ProtoViolation::Overflow {
                                    channel: c,
                                    module: ModuleId(mi as u32),
                                })
                            } else {
                                require(&mut rec, slot, 0);
                                None
                            };
                            push(rec, overflow, format!("{local} : {}!", ch.name));
                        }
                    }
                    ActionKind::Receive(c) => {
                        // Rendezvous receives are folded into the send side.
                        if let Some(slot) = slot_fields[c.0 as usize] {
                            require(&mut rec, slot, 1);
                            assign(&mut rec, slot, 0);
                            push(rec, None, format!("{local} : {}?", sys.channel(c).name));
                        }
                    }
                }
            }
        }
        assert!(
            sources.is_sorted(),
            "a module's actions are sorted by source state"
        );
        let mut label_start = vec![0u32; pairs as usize + 1];
        for &k in &sources {
            label_start[k as usize + 1] += 1;
        }
        for k in 0..pairs as usize {
            label_start[k + 1] += label_start[k];
        }

        // can_receive[c]: backward closure, in the receiver's local
        // control graph, of the sources of its receives on c.
        let can_receive = sys
            .channels()
            .iter()
            .enumerate()
            .map(|(ci, ch)| {
                if !ch.kind.has_slot() {
                    return None;
                }
                let m = sys.module(ch.receiver);
                let mut set = vec![0u64; m.states.len().div_ceil(64)];
                for t in &m.transitions {
                    if t.action == ActionKind::Receive(ChannelId(ci as u32)) {
                        set_bit(&mut set, t.from);
                    }
                }
                loop {
                    let mut grew = false;
                    for t in &m.transitions {
                        if bit(&set, t.to) && !bit(&set, t.from) {
                            set_bit(&mut set, t.from);
                            grew = true;
                        }
                    }
                    if !grew {
                        break Some(set);
                    }
                }
            })
            .collect();

        ProtoSpace {
            sys,
            words,
            module_fields,
            slot_fields,
            slot_bits,
            masks,
            overflows,
            action_names,
            state_base,
            label_start,
            has_send,
            can_receive,
        }
    }

    /// The system this space was built from.
    pub fn system(&self) -> &'a ProtoSystem {
        self.sys
    }

    /// Number of global actions (= explorer labels).
    pub fn action_count(&self) -> usize {
        self.action_names.len()
    }

    /// Human-readable name of action `label`.
    ///
    /// # Panics
    ///
    /// If `label` is not a valid action index.
    pub fn action_name(&self, label: u32) -> &str {
        &self.action_names[label as usize]
    }

    #[inline]
    fn local(&self, state: &[u64], m: usize) -> u16 {
        self.module_fields[m].get(state) as u16
    }

    #[inline]
    fn slot(&self, state: &[u64], c: usize) -> bool {
        match &self.slot_fields[c] {
            Some(f) => f.get(state) != 0,
            None => false,
        }
    }

    /// The compiled masks of action `label`.
    #[inline]
    fn masks(&self, label: usize) -> &[WordMask] {
        &self.masks[label * self.words..(label + 1) * self.words]
    }

    /// Whether action `label` is enabled at `state`. An `async` send
    /// counts as enabled whenever its source state does: firing onto a
    /// full slot is the overflow violation, not a blocked send.
    #[inline]
    fn enabled(&self, label: usize, state: &[u64]) -> bool {
        self.masks(label)
            .iter()
            .zip(state)
            .all(|(m, &s)| s & m.care == m.value)
    }

    /// Calls `f(label)` for each action enabled at `state`, in ascending
    /// label order, until `f` returns `false`. Returns whether every call
    /// returned `true`. Only the labels filed under each module's current
    /// local state are tested.
    #[inline]
    fn for_each_enabled(&self, state: &[u64], mut f: impl FnMut(usize) -> bool) -> bool {
        for (field, &base) in self.module_fields.iter().zip(&self.state_base) {
            let k = base as usize + field.get(state) as usize;
            for label in self.label_start[k] as usize..self.label_start[k + 1] as usize {
                if self.enabled(label, state) && !f(label) {
                    return false;
                }
            }
        }
        true
    }

    /// Fires action `label`, enabled at `state`, into `out`. Returns
    /// `false` for an `async` send onto a full slot: the overflow is the
    /// caller's to report, and there is no successor.
    #[inline]
    fn fire(&self, label: usize, state: &[u64], out: &mut [u64]) -> bool {
        for ((o, &s), m) in out.iter_mut().zip(state).zip(self.masks(label)) {
            if s & m.overflow != 0 {
                return false;
            }
            *o = (s & !m.clear) | m.set;
        }
        true
    }

    /// Whether some channel slot is full at `state`.
    fn any_slot_full(&self, state: &[u64]) -> bool {
        self.slot_bits.iter().zip(state).any(|(b, s)| b & s != 0)
    }

    /// Whether a send is pending at `state`: a full slot, or a module
    /// whose current local state has an outgoing send.
    fn send_pending(&self, state: &[u64]) -> bool {
        self.any_slot_full(state)
            || self
                .module_fields
                .iter()
                .zip(&self.state_base)
                .any(|(f, &base)| self.has_send[base as usize + f.get(state) as usize])
    }

    /// The violations `inspect` reports at `state` (deadlock, dangling
    /// sends), in canonical order.
    fn inspect_violations(&self, state: &[u64]) -> Vec<ProtoViolation> {
        let mut out = Vec::new();
        // The visit runs to the end only when no action is enabled.
        if self.for_each_enabled(state, |_| false) && self.send_pending(state) {
            out.push(ProtoViolation::Deadlock);
        }
        if self.any_slot_full(state) {
            for (c, ch) in self.sys.channels().iter().enumerate() {
                if self.slot(state, c) {
                    let can = self.can_receive[c].as_ref().expect("slotted channel");
                    if !bit(can, self.local(state, ch.receiver.0 as usize)) {
                        out.push(ProtoViolation::DanglingSend {
                            channel: ChannelId(c as u32),
                        });
                    }
                }
            }
        }
        out
    }

    /// Every violation observable at `state`: the per-state ones
    /// (`inspect`'s deadlock / dangling sends) plus the overflows that
    /// expanding the state would report on its outgoing edges — for
    /// tests and witness rendering.
    pub fn violations_at(&self, state: &[u64]) -> Vec<ProtoViolation> {
        let mut out = self.inspect_violations(state);
        let mut next = vec![0u64; self.words];
        self.for_each_enabled(state, |label| {
            if !self.fire(label, state, &mut next) {
                out.extend(self.overflows[label]);
            }
            true
        });
        out.dedup();
        out
    }

    /// The enabled action labels at `state`, ascending.
    pub fn enabled_actions(&self, state: &[u64]) -> Vec<u32> {
        let mut out = Vec::new();
        self.for_each_enabled(state, |label| {
            out.push(label as u32);
            true
        });
        out
    }

    /// Decodes a packed state.
    pub fn decode(&self, state: &[u64]) -> GlobalState {
        GlobalState {
            locals: (0..self.sys.modules().len())
                .map(|m| self.local(state, m))
                .collect(),
            slots: (0..self.sys.channels().len())
                .map(|c| self.slot(state, c))
                .collect(),
        }
    }

    /// Replays an action-label sequence from the initial state; `None` if
    /// some label is invalid or not enabled where it fires (an async
    /// overflow is not a move, so it also replays to `None`).
    pub fn replay(&self, labels: &[u32]) -> Option<Vec<u64>> {
        let mut cur = self.initial();
        let mut next = vec![0u64; self.words];
        for &l in labels {
            let l = l as usize;
            if l >= self.action_count() || !self.enabled(l, &cur) || !self.fire(l, &cur, &mut next)
            {
                return None;
            }
            std::mem::swap(&mut cur, &mut next);
        }
        Some(cur)
    }
}

impl fmt::Debug for ProtoSpace<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProtoSpace({:?}, {} words, {} actions)",
            self.sys.name(),
            self.words,
            self.action_count()
        )
    }
}

impl StateSpace for ProtoSpace<'_> {
    type Violation = ProtoViolation;

    fn words(&self) -> usize {
        self.words
    }

    fn initial(&self) -> Vec<u64> {
        // Canonical renumbering puts every module's initial state at
        // local id 0, and all slots start empty.
        vec![0u64; self.words]
    }

    fn inspect<Vis: SpaceVisitor<ProtoViolation>>(&self, state: &[u64], sink: &mut Vis) -> Verdict {
        let vs = self.inspect_violations(state);
        if vs.is_empty() {
            return Verdict::Continue;
        }
        for v in vs {
            sink.violation(v);
        }
        Verdict::Violation
    }

    fn for_each_successor<Vis: SpaceVisitor<ProtoViolation>>(
        &self,
        state: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), ProtoViolation> {
        self.for_each_enabled(state, |label| {
            if self.fire(label, state, scratch) {
                visit.successor(label as u32, scratch)
            } else {
                visit.violation(self.overflows[label].expect("only async sends overflow"));
                true
            }
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_proto;
    use si_petri::space::{explore, ExploreOptions};

    fn space_of(text: &str) -> (ProtoSystem, usize) {
        let sys = parse_proto(text).unwrap();
        let n = {
            let space = ProtoSpace::new(&sys);
            let e = explore(&space, ExploreOptions::with_cap(100_000)).unwrap();
            e.states
        };
        (sys, n)
    }

    #[test]
    fn rendezvous_handshake_has_four_states() {
        // client: idle -req!-> waiting -ack?-> idle
        // server: idle -req?-> busy -ack!-> idle
        let text = "\
.channel req sync
.channel ack buf
.module client
idle -> waiting : req!
waiting -> idle : ack?
.module server
idle -> busy : req?
busy -> idle : ack!
";
        // (idle,idle,–) → (waiting,busy,–) → (waiting,idle,ack) → back.
        let (sys, n) = space_of(text);
        assert_eq!(n, 3);
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert!(e.violations.is_empty());
    }

    #[test]
    fn buffered_send_blocks_and_async_overflows() {
        let blocked = "\
.channel c buf
.module tx
a -> b : c!
b -> a : c!
.module rx
x -> x : c?
";
        // tx can only re-send after rx drains: no overflow possible,
        // and every send is eventually consumable — no violations.
        let sys = parse_proto(blocked).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert!(e.violations.is_empty());

        let overflow = "\
.channel c async
.module tx
a -> b : c!
b -> a : c!
.module rx
x -> x : c?
";
        let sys = parse_proto(overflow).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert!(e
            .violations
            .iter()
            .any(|(_, v)| matches!(v, ProtoViolation::Overflow { .. })));
    }

    #[test]
    fn dangling_send_and_deadlock_are_flagged() {
        // rx consumes once then absorbs in y; the second pending message
        // dangles and tx blocks forever → dangling send + deadlock.
        let text = "\
.channel c buf
.module tx
a -> b : c!
b -> a : c!
.module rx
x -> y : c?
y -> y : tau
";
        let sys = parse_proto(text).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000).witness()).unwrap();
        let kinds: Vec<&str> = e.violations.iter().map(|(_, v)| v.kind()).collect();
        assert!(kinds.contains(&"dangling-send"), "kinds: {kinds:?}");
        // No deadlock here: rx's tau self-loop keeps an action enabled
        // forever. Check the witness instead: the dangling state replays.
        let (gid, _) = e
            .violations
            .iter()
            .find(|(_, v)| matches!(v, ProtoViolation::DanglingSend { .. }))
            .unwrap();
        let trace = e.witness(*gid);
        let replayed = space.replay(&trace).unwrap();
        assert_eq!(replayed, e.key(*gid).to_vec());
        assert!(!space.violations_at(&replayed).is_empty());
    }

    #[test]
    fn true_deadlock_without_self_loop() {
        // Like above but rx truly halts in y: slot stays full, tx blocked
        // in b, no action enabled anywhere, send pending → deadlock.
        let text = "\
.channel c buf
.module tx
a -> b : c!
b -> a : c!
.module rx
x -> y : c?
";
        let sys = parse_proto(text).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert!(e
            .violations
            .iter()
            .any(|(_, v)| matches!(v, ProtoViolation::Deadlock)));
        assert!(e
            .violations
            .iter()
            .any(|(_, v)| matches!(v, ProtoViolation::DanglingSend { .. })));
    }

    #[test]
    fn quiet_termination_is_not_a_deadlock() {
        // One rendezvous then both modules halt: no send pending at the
        // final state, so no violation.
        let text = "\
.channel go sync
.module a
s -> t : go!
.module b
u -> v : go?
";
        let sys = parse_proto(text).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert_eq!(e.states, 2);
        assert!(e.violations.is_empty());
    }

    #[test]
    fn decode_and_replay_round_trip() {
        let text = "\
.channel c buf
.module tx
a -> b : c!
.module rx
x -> y : c?
";
        let sys = parse_proto(text).unwrap();
        let space = ProtoSpace::new(&sys);
        let init = space.initial();
        let d = space.decode(&init);
        assert_eq!(d.locals, vec![0, 0]);
        assert_eq!(d.slots, vec![false]);
        let labels = space.enabled_actions(&init);
        assert_eq!(labels.len(), 1, "only the send is enabled initially");
        let after = space.replay(&labels).unwrap();
        let d = space.decode(&after);
        assert_eq!(d.slots, vec![true]);
        assert!(space.replay(&[99]).is_none());
        assert_eq!(d.render(&sys), "rx=x tx=b | pending: c");
    }

    /// The match-based firing rule that the compiled masks replaced,
    /// kept as their oracle: one `Action` per label, tested and applied
    /// field by field.
    mod reference {
        use super::*;

        #[derive(Copy, Clone, Debug)]
        enum Action {
            Internal {
                module: u32,
                from: u16,
                to: u16,
            },
            Send {
                module: u32,
                from: u16,
                to: u16,
                chan: u32,
            },
            Recv {
                module: u32,
                from: u16,
                to: u16,
                chan: u32,
            },
            Sync {
                chan: u32,
                s_from: u16,
                s_to: u16,
                r_from: u16,
                r_to: u16,
            },
        }

        /// One event of a state's expansion, in the order it happened.
        #[derive(Clone, PartialEq, Eq, Debug)]
        pub(super) enum Event {
            Successor(u32, Vec<u64>),
            Violation(ProtoViolation),
        }

        pub(super) struct Rule<'s, 'a> {
            space: &'s ProtoSpace<'a>,
            actions: Vec<Action>,
        }

        fn set(f: &Field, state: &mut [u64], v: u64) {
            state[f.word] = (state[f.word] & !(f.mask << f.shift)) | (v << f.shift);
        }

        impl<'s, 'a> Rule<'s, 'a> {
            pub(super) fn new(space: &'s ProtoSpace<'a>) -> Self {
                let sys = space.sys;
                let mut actions = Vec::new();
                for (mi, m) in sys.modules().iter().enumerate() {
                    for t in &m.transitions {
                        match t.action {
                            ActionKind::Internal => actions.push(Action::Internal {
                                module: mi as u32,
                                from: t.from,
                                to: t.to,
                            }),
                            ActionKind::Send(c) => {
                                let ch = sys.channel(c);
                                if ch.kind == ChannelKind::Rendezvous {
                                    for rt in &sys.module(ch.receiver).transitions {
                                        if rt.action == ActionKind::Receive(c) {
                                            actions.push(Action::Sync {
                                                chan: c.0,
                                                s_from: t.from,
                                                s_to: t.to,
                                                r_from: rt.from,
                                                r_to: rt.to,
                                            });
                                        }
                                    }
                                } else {
                                    actions.push(Action::Send {
                                        module: mi as u32,
                                        from: t.from,
                                        to: t.to,
                                        chan: c.0,
                                    });
                                }
                            }
                            ActionKind::Receive(c) => {
                                if sys.channel(c).kind.has_slot() {
                                    actions.push(Action::Recv {
                                        module: mi as u32,
                                        from: t.from,
                                        to: t.to,
                                        chan: c.0,
                                    });
                                }
                            }
                        }
                    }
                }
                Rule { space, actions }
            }

            fn enabled(&self, state: &[u64], action: &Action) -> bool {
                let sp = self.space;
                match *action {
                    Action::Internal { module, from, .. } => {
                        sp.local(state, module as usize) == from
                    }
                    Action::Send {
                        module, from, chan, ..
                    } => {
                        sp.local(state, module as usize) == from
                            && (sp.sys.channels()[chan as usize].kind == ChannelKind::Async
                                || !sp.slot(state, chan as usize))
                    }
                    Action::Recv {
                        module, from, chan, ..
                    } => sp.local(state, module as usize) == from && sp.slot(state, chan as usize),
                    Action::Sync {
                        chan,
                        s_from,
                        r_from,
                        ..
                    } => {
                        let ch = &sp.sys.channels()[chan as usize];
                        sp.local(state, ch.sender.0 as usize) == s_from
                            && sp.local(state, ch.receiver.0 as usize) == r_from
                    }
                }
            }

            fn apply(&self, state: &[u64], action: &Action, out: &mut [u64]) -> bool {
                let sp = self.space;
                out.copy_from_slice(state);
                match *action {
                    Action::Internal { module, to, .. } => {
                        set(&sp.module_fields[module as usize], out, to as u64);
                    }
                    Action::Send {
                        module, to, chan, ..
                    } => {
                        if sp.slot(state, chan as usize) {
                            return false;
                        }
                        set(&sp.module_fields[module as usize], out, to as u64);
                        set(sp.slot_fields[chan as usize].as_ref().unwrap(), out, 1);
                    }
                    Action::Recv {
                        module, to, chan, ..
                    } => {
                        set(&sp.module_fields[module as usize], out, to as u64);
                        set(sp.slot_fields[chan as usize].as_ref().unwrap(), out, 0);
                    }
                    Action::Sync {
                        chan, s_to, r_to, ..
                    } => {
                        let ch = &sp.sys.channels()[chan as usize];
                        set(&sp.module_fields[ch.sender.0 as usize], out, s_to as u64);
                        set(&sp.module_fields[ch.receiver.0 as usize], out, r_to as u64);
                    }
                }
                true
            }

            fn overflow(action: &Action) -> ProtoViolation {
                match *action {
                    Action::Send { module, chan, .. } => ProtoViolation::Overflow {
                        channel: ChannelId(chan),
                        module: ModuleId(module),
                    },
                    _ => unreachable!("only sends overflow"),
                }
            }

            pub(super) fn enabled_actions(&self, state: &[u64]) -> Vec<u32> {
                (0..self.actions.len() as u32)
                    .filter(|&l| self.enabled(state, &self.actions[l as usize]))
                    .collect()
            }

            pub(super) fn successors(&self, state: &[u64]) -> Vec<Event> {
                let mut out = vec![0u64; self.space.words];
                let mut events = Vec::new();
                for (label, action) in self.actions.iter().enumerate() {
                    if !self.enabled(state, action) {
                        continue;
                    }
                    if self.apply(state, action, &mut out) {
                        events.push(Event::Successor(label as u32, out.clone()));
                    } else {
                        events.push(Event::Violation(Self::overflow(action)));
                    }
                }
                events
            }

            pub(super) fn violations_at(&self, state: &[u64]) -> Vec<ProtoViolation> {
                let sp = self.space;
                let sys = sp.sys;
                let mut out = Vec::new();
                let send_pending = (0..sys.channels().len()).any(|c| sp.slot(state, c))
                    || sys.modules().iter().enumerate().any(|(m, md)| {
                        md.transitions.iter().any(|t| {
                            t.from == sp.local(state, m) && matches!(t.action, ActionKind::Send(_))
                        })
                    });
                if !self.actions.iter().any(|a| self.enabled(state, a)) && send_pending {
                    out.push(ProtoViolation::Deadlock);
                }
                for (c, ch) in sys.channels().iter().enumerate() {
                    if sp.slot(state, c)
                        && !bit(
                            sp.can_receive[c].as_ref().unwrap(),
                            sp.local(state, ch.receiver.0 as usize),
                        )
                    {
                        out.push(ProtoViolation::DanglingSend {
                            channel: ChannelId(c as u32),
                        });
                    }
                }
                for action in &self.actions {
                    if let Action::Send { chan, .. } = *action {
                        if self.enabled(state, action) && sp.slot(state, chan as usize) {
                            out.push(Self::overflow(action));
                        }
                    }
                }
                out.dedup();
                out
            }
        }
    }

    /// Records a state's expansion (or inspection) as reference events.
    struct Record(Vec<reference::Event>);

    impl SpaceVisitor<ProtoViolation> for Record {
        fn successor(&mut self, label: u32, next: &[u64]) -> bool {
            self.0
                .push(reference::Event::Successor(label, next.to_vec()));
            true
        }

        fn violation(&mut self, v: ProtoViolation) {
            self.0.push(reference::Event::Violation(v));
        }
    }

    /// Pins the compiled firing rule against the match-based one on every
    /// state `explore` reaches under `cap`: enabled labels, successors and
    /// overflows in order, violations, and witnesses that replay.
    fn assert_matches_reference(sys: &ProtoSystem, cap: usize) -> usize {
        let space = ProtoSpace::new(sys);
        let rule = reference::Rule::new(&space);
        let e = explore(&space, ExploreOptions::with_cap(cap).witness()).unwrap();
        let mut scratch = vec![0u64; space.words()];
        for s in 0..e.states as u32 {
            let state = e.key(s);
            let ctx = format!("{}: {}", sys.name(), space.decode(state).render(sys));
            assert_eq!(
                space.enabled_actions(state),
                rule.enabled_actions(state),
                "{ctx}: enabled"
            );
            let mut rec = Record(Vec::new());
            space
                .for_each_successor(state, &mut scratch, &mut rec)
                .unwrap();
            assert_eq!(rec.0, rule.successors(state), "{ctx}: successors");
            let violations = rule.violations_at(state);
            assert_eq!(space.violations_at(state), violations, "{ctx}: violations");
            let mut rec = Record(Vec::new());
            let verdict = space.inspect(state, &mut rec);
            assert_eq!(verdict == Verdict::Violation, !rec.0.is_empty(), "{ctx}");
            for event in &rec.0 {
                let reference::Event::Violation(v) = event else {
                    panic!("{ctx}: inspect reported a successor");
                };
                assert!(violations.contains(v), "{ctx}: inspect reported {v:?}");
            }
            assert_eq!(
                space.replay(&e.witness(s)).as_deref(),
                Some(state),
                "{ctx}: witness"
            );
        }
        e.states
    }

    /// splitmix64, for the random systems below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// A random valid system: a tau cycle through each module's states,
    /// channels of every kind with distinct endpoints, and extra
    /// transitions on the right endpoint only.
    fn random_system(rng: &mut Rng) -> ProtoSystem {
        use crate::model::ChannelKind as K;
        let nmod = 2 + rng.below(3);
        let states: Vec<usize> = (0..nmod).map(|_| 1 + rng.below(3)).collect();
        let mut b = ProtoSystem::builder("random");
        let mods: Vec<_> = (0..nmod).map(|i| b.module(format!("m{i}"))).collect();
        let name = |rng: &mut Rng, m: usize| format!("s{}", rng.below(states[m]));
        for (i, &m) in mods.iter().enumerate() {
            b.init(m, "s0");
            for s in 0..states[i] {
                b.tau(m, &format!("s{s}"), &format!("s{}", (s + 1) % states[i]));
            }
        }
        let mut ends = Vec::new();
        for ci in 0..1 + rng.below(3) {
            let sender = rng.below(nmod);
            let receiver = (sender + 1 + rng.below(nmod - 1)) % nmod;
            let kind = [K::Rendezvous, K::Buffered, K::Async][rng.below(3)];
            let c = b.channel(format!("c{ci}"), kind);
            let (f, t) = (name(rng, sender), name(rng, sender));
            b.send(mods[sender], &f, &t, c);
            let (f, t) = (name(rng, receiver), name(rng, receiver));
            b.recv(mods[receiver], &f, &t, c);
            ends.push((sender, receiver, c));
        }
        for _ in 0..rng.below(8) {
            let (sender, receiver, c) = ends[rng.below(ends.len())];
            match rng.below(3) {
                0 => {
                    let m = rng.below(nmod);
                    let (f, t) = (name(rng, m), name(rng, m));
                    b.tau(mods[m], &f, &t);
                }
                1 => {
                    let (f, t) = (name(rng, sender), name(rng, sender));
                    b.send(mods[sender], &f, &t, c);
                }
                _ => {
                    let (f, t) = (name(rng, receiver), name(rng, receiver));
                    b.recv(mods[receiver], &f, &t, c);
                }
            }
        }
        b.build().expect("random systems are valid by construction")
    }

    #[test]
    fn masks_match_the_reference_rule_on_the_generator_families() {
        use crate::generators::{dining, fork_join, pipeline, ring};
        for n in 2..=5 {
            for sys in [ring(n), pipeline(n - 1), fork_join(n - 1), dining(n)] {
                assert_matches_reference(&sys, 100_000);
            }
        }
    }

    #[test]
    fn masks_match_the_reference_rule_on_the_protocol_examples() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/protocols");
        let mut seen = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|x| x == "proto") {
                let sys = parse_proto(&std::fs::read_to_string(&path).unwrap()).unwrap();
                assert_matches_reference(&sys, 100_000);
                seen += 1;
            }
        }
        assert!(seen >= 9, "{seen} protocol examples");
    }

    #[test]
    fn masks_match_the_reference_rule_on_random_systems() {
        let mut rng = Rng(24);
        let mut overflowing = 0;
        for _ in 0..200 {
            let sys = random_system(&mut rng);
            assert_matches_reference(&sys, 100_000);
            let space = ProtoSpace::new(&sys);
            let e = explore(&space, ExploreOptions::with_cap(100_000)).unwrap();
            overflowing += e
                .violations
                .iter()
                .any(|(_, v)| matches!(v, ProtoViolation::Overflow { .. }))
                as usize;
        }
        assert!(overflowing > 0, "some random system must overflow");
    }

    #[test]
    fn masks_match_the_reference_rule_across_two_words() {
        // dining(20) packs 40 two-bit modules: forks and the first
        // philosophers in word 0, the last philosophers in word 1, so
        // phil19's rendezvous with fork00 spans both words.
        let sys = crate::generators::dining(20);
        assert_eq!(ProtoSpace::new(&sys).words(), 2);
        assert_eq!(assert_matches_reference(&sys, 3_000), 3_000);
    }
}
